// Package wire implements the negotiated per-connection item codecs that
// carry batches of stream items between super-peer processes.
//
// The runtime's data path serializes every item once into canonical XML
// (xmlstream.AppendMarshal) and meters all traffic over those bytes, so a
// wire codec here is a transform applied at the link boundary: the sender
// encodes a batch of canonical-XML items into one payload, the receiver
// decodes the payload back into the exact same item bytes. The contract is
// byte-losslessness — for every input batch, decode(encode(items)) == items
// byte for byte — which is what keeps the distributed runtime item-identical
// to the in-process simulator regardless of which codec a link negotiated.
//
// Two codecs are registered:
//
//   - "xml" ships each item's canonical XML verbatim (the debugging and
//     compatibility baseline; old peers that predate negotiation speak it
//     implicitly).
//   - "binary2" replaces element tags with references into an interned
//     per-connection name dictionary, extended incrementally by dictionary
//     deltas carried in-band at the head of each payload (see docs/WIRE.md
//     for the full grammar and a worked example).
//
// Codec choice is negotiated per connection during the transport handshake
// (internal/transport), via the versioned capabilities map on Hello/Welcome
// frames; Negotiate implements the selection rule. Encoder and Decoder
// instances are stateful (the binary dictionary grows monotonically) and are
// owned by one direction of one connection: a reconnect mints fresh ones.
// They are not safe for concurrent use.
package wire

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"streamshare/internal/xmlstream"
)

// Codec names. CodecXML is mandatory: every peer speaks it, and it is the
// fallback whenever negotiation finds no common preference.
const (
	// CodecXML ships canonical XML item bytes verbatim.
	CodecXML = "xml"
	// CodecBinary ships dictionary-compressed binary item encodings, the
	// dictionary scoped to one connection. The payload grammar is that of
	// the retired "binary" identifier, whose dictionary lived as long as the
	// link: the scope is wire semantics, so it got a new name, and a build
	// that only knows the old one negotiates down to xml with this one
	// instead of desyncing on its first reconnect.
	CodecBinary = "binary2"
)

// Codec is one registered item-batch encoding. Name identifies it in
// handshake capability lists; NewEncoder and NewDecoder mint the stateful
// per-connection-direction halves.
type Codec interface {
	// Name is the codec's registry and negotiation identifier.
	Name() string
	// NewEncoder returns a fresh encoder. Encoders are stateful and owned
	// by one sender; they are not safe for concurrent use.
	NewEncoder() Encoder
	// NewDecoder returns a fresh decoder, the matching stateful receiver
	// half.
	NewDecoder() Decoder
}

// Encoder turns one batch of canonical-XML items into a single payload.
// Payloads are order-sensitive: the receiver must decode them in the exact
// sequence they were encoded (the binary codec's dictionary deltas assume
// it), which the transport guarantees by giving every connection its own
// encoder and decoder, encoding on the link's single writer as frames go
// out, and decoding every payload a connection delivers in arrival order;
// after a reconnect the journaled frames are encoded again from scratch.
type Encoder interface {
	// Seed pre-registers element names (e.g. a stream schema's vocabulary)
	// so the first batches need fewer in-band dictionary deltas. The names
	// still travel as deltas in the next payload — payload streams stay
	// self-describing — so seeding is a warm-start hint, never a
	// coordination requirement. Codecs without a dictionary ignore it.
	Seed(names []string)
	// EncodeBatch appends the encoded batch payload to dst and returns the
	// extended slice. The items are only read.
	EncodeBatch(dst []byte, items [][]byte) []byte
}

// Decoder turns one payload back into the batch's item byte slices. For
// every conforming payload the items equal the encoder's input byte for
// byte. The returned slices are freshly allocated and owned by the caller.
type Decoder interface {
	// DecodeBatch parses one payload. Malformed input returns an error
	// without panicking and without allocating beyond MaxDecodedBytes;
	// stateful decoders roll their dictionary back so a failed decode can
	// be retried after a transport-level replay.
	DecodeBatch(payload []byte) ([][]byte, error)
}

// TreeCodec marks a codec whose encoder/decoder halves carry parsed element
// trees natively — the zero-XML data plane. Links that negotiate a
// tree-capable codec may hand batches of *xmlstream.Element straight to the
// encoder and receive trees back from the decoder, never materializing
// canonical XML in between.
type TreeCodec interface {
	Codec
	// TreeCapable reports whether this codec's halves implement TreeEncoder
	// and TreeDecoder.
	TreeCapable() bool
}

// TreeEncoder is the sending half of a tree-capable codec.
type TreeEncoder interface {
	Encoder
	// EncodeElems appends one payload encoding the element trees directly.
	// The payload is indistinguishable from EncodeBatch of the trees'
	// canonical XML: any conforming decoder — byte or tree — accepts it.
	// The elements are only read.
	EncodeElems(dst []byte, items []*xmlstream.Element) []byte
	// SeedShared pre-loads the dictionary with names both sides agreed on
	// at handshake, WITHOUT queueing in-band deltas for them. It must be
	// applied exactly once, to a fresh encoder, with the identical list the
	// peer's decoder seeds — the negotiation (see docs/WIRE.md) guarantees
	// both, so steady-state payloads carry no deltas for schema vocabulary.
	SeedShared(names []string)
}

// TreeDecoder is the receiving half of a tree-capable codec.
type TreeDecoder interface {
	Decoder
	// DecodeElems parses one payload directly into element trees, equal to
	// parsing DecodeBatch's XML without materializing it. Dictionary
	// rollback on error matches DecodeBatch.
	DecodeElems(payload []byte) ([]*xmlstream.Element, error)
	// SeedShared mirrors TreeEncoder.SeedShared on the receiving table:
	// same list, fresh decoder, exactly once.
	SeedShared(names []string)
}

// SupportsTrees reports whether the named codec is registered and
// tree-capable.
func SupportsTrees(name string) bool {
	tc, ok := Lookup(name).(TreeCodec)
	return ok && tc.TreeCapable()
}

// registry holds the known codecs. It only grows, at init time in practice,
// so a plain mutex-guarded map suffices.
var registry struct {
	sync.Mutex
	m map[string]Codec
}

// Register adds a codec to the registry; registering a duplicate name
// panics (codec names are protocol identifiers, not runtime config).
func Register(c Codec) {
	registry.Lock()
	defer registry.Unlock()
	if registry.m == nil {
		registry.m = map[string]Codec{}
	}
	if _, dup := registry.m[c.Name()]; dup {
		panic(fmt.Sprintf("wire: duplicate codec %q", c.Name()))
	}
	registry.m[c.Name()] = c
}

// Lookup returns the registered codec by name, or nil.
func Lookup(name string) Codec {
	registry.Lock()
	defer registry.Unlock()
	return registry.m[name]
}

// Names lists the registered codec names, sorted.
func Names() []string {
	registry.Lock()
	defer registry.Unlock()
	out := make([]string, 0, len(registry.m))
	for n := range registry.m {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// DefaultCodecs is the preference list a node advertises when none is
// configured: binary first, XML as the universal fallback.
func DefaultCodecs() []string { return []string{CodecBinary, CodecXML} }

// Negotiate picks the codec for one link: the acceptor walks its own
// preference list in order and returns the first name the dialer also
// advertised. Either side advertising nothing (an old peer whose handshake
// predates capabilities) or an empty intersection selects CodecXML, which
// every peer speaks.
func Negotiate(ours, theirs []string) string {
	if len(ours) == 0 || len(theirs) == 0 {
		return CodecXML
	}
	offered := make(map[string]bool, len(theirs))
	for _, name := range theirs {
		offered[name] = true
	}
	for _, name := range ours {
		if offered[name] {
			return name
		}
	}
	return CodecXML
}

// ParseList splits a comma-separated codec preference list as carried in
// the handshake capabilities map ("binary2,xml"), dropping empty entries.
func ParseList(s string) []string {
	if s == "" {
		return nil
	}
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

// FormatList renders a codec preference list for the handshake
// capabilities map.
func FormatList(names []string) string { return strings.Join(names, ",") }

// Supported reports whether every name in the list is a registered codec.
func Supported(names []string) error {
	for _, name := range names {
		if Lookup(name) == nil {
			return fmt.Errorf("wire: unknown codec %q (have %v)", name, Names())
		}
	}
	return nil
}
