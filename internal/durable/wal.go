// Package durable implements the write-ahead state journal that makes a
// super-peer survive process death: a segmented append-only log of opaque
// typed records, each framed with a CRC32C checksum, with a configurable
// sync policy, torn-tail truncation on open, and snapshot-based compaction.
//
// The package knows nothing about what it journals. The transport layer
// logs link frames and cursors (see internal/transport), the server logs
// catalog operations (see internal/server); both recover by replaying the
// record sequence Open returns. Records are durable in append order: a
// record is never recovered unless every record before it is, and a torn
// write at the tail (a crash mid-append) truncates back to the last whole
// record instead of failing recovery.
//
// On-disk layout: Dir holds segment files named <firstRecordIndex>.wal in
// zero-padded hex. A segment is a flat sequence of frames
//
//	u32 length | u32 crc32c | u8 kind | payload
//
// where length covers kind+payload and the checksum (Castagnoli) covers
// the same bytes. Compact rewrites the log as a snapshot: the caller's
// condensed records are written to a fresh segment and every older segment
// is removed, bounding recovery work and disk growth.
package durable

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"time"

	"streamshare/internal/obs"
)

// Sync selects when appended records reach stable storage.
type Sync int

const (
	// SyncAlways fsyncs after every append: a record returned to the
	// caller survives an immediate power cut. Required for exactly-once
	// control-frame recovery; the bench's durCost(always) column prices it.
	SyncAlways Sync = iota
	// SyncInterval fsyncs on a background interval (Options.SyncInterval):
	// a crash loses at most the last interval's appends. The recovery
	// protocol degrades to at-least-once for the unsynced tail.
	SyncInterval
	// SyncNone never fsyncs explicitly; the OS page cache decides. Fastest,
	// survives process death (the kernel still has the pages) but not
	// machine death.
	SyncNone
)

// ParseSync maps the flag spelling ("always", "interval", "none") to a
// Sync policy.
func ParseSync(s string) (Sync, error) {
	switch s {
	case "", "always":
		return SyncAlways, nil
	case "interval":
		return SyncInterval, nil
	case "none":
		return SyncNone, nil
	}
	return 0, fmt.Errorf("durable: unknown sync policy %q (want always, interval or none)", s)
}

// Record is one journal entry: an application-defined kind byte and an
// opaque payload.
type Record struct {
	// Kind tags the record for the application's replay switch.
	Kind uint8
	// Data is the record payload; Open returns slices the caller owns.
	Data []byte
}

// Options configures a WAL.
type Options struct {
	// Dir is the directory holding the segment files; it is created if
	// missing. Each WAL must own its directory exclusively.
	Dir string
	// SegmentBytes rotates to a new segment once the current one exceeds
	// this size. Zero means 4 MiB.
	SegmentBytes int
	// Sync is the fsync policy (default SyncAlways).
	Sync Sync
	// SyncInterval is the background fsync period under SyncInterval.
	// Zero means 50ms.
	SyncInterval time.Duration
	// Metrics, when set, receives durable.* counters and the
	// durable.fsync.seconds histogram.
	Metrics *obs.Registry
	// Flight, when set, records wal.* events (open, truncate, compact).
	Flight *obs.FlightRecorder
}

// WAL is an append-only segmented journal. All methods are safe for
// concurrent use.
type WAL struct {
	opts Options

	mu    sync.Mutex
	f     *os.File // current segment
	size  int      // bytes written to the current segment
	first uint64   // record index that started the current segment
	next  uint64   // index of the next record to append
	dirty bool     // appends since the last fsync
	err   error    // first unrecoverable write error, sticky
	done  chan struct{}
	wg    sync.WaitGroup

	fsyncSec *obs.Histogram
	appends  *obs.Counter
	flight   *obs.FlightRecorder
}

const frameHeader = 9 // u32 length + u32 crc + u8 kind

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Open opens (or creates) the journal in opts.Dir, recovers every whole
// record in order, truncates any torn tail, and returns the WAL positioned
// to append. The returned records are the application's recovery input.
func Open(opts Options) (*WAL, []Record, error) {
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = 4 << 20
	}
	if opts.SyncInterval <= 0 {
		opts.SyncInterval = 50 * time.Millisecond
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("durable: %w", err)
	}
	w := &WAL{opts: opts, done: make(chan struct{}), flight: opts.Flight}
	if opts.Metrics != nil {
		w.fsyncSec = opts.Metrics.Histogram("durable.fsync.seconds", obs.ExpBuckets(1e-5, 4, 10))
		w.appends = opts.Metrics.Counter("durable.appends")
	}
	segs, err := w.segments()
	if err != nil {
		return nil, nil, err
	}
	var recs []Record
	truncated := 0
	for i, seg := range segs {
		path := filepath.Join(opts.Dir, segName(seg))
		n, keep, terr := scanSegment(path, &recs)
		if terr != nil {
			return nil, nil, terr
		}
		w.first = seg
		w.next = seg + uint64(n)
		if keep >= 0 {
			// Torn or corrupt frame: drop the tail of this segment and
			// every later segment — records past a tear are unreachable
			// by the append-order durability contract.
			if err := os.Truncate(path, int64(keep)); err != nil {
				return nil, nil, fmt.Errorf("durable: truncate %s: %w", path, err)
			}
			truncated++
			w.flight.Record("wal.truncate", fmt.Sprintf("%s at %d", segName(seg), keep))
			for _, late := range segs[i+1:] {
				if err := os.Remove(filepath.Join(opts.Dir, segName(late))); err != nil {
					return nil, nil, fmt.Errorf("durable: %w", err)
				}
			}
			break
		}
	}
	if len(segs) == 0 {
		w.first, w.next = 1, 1
	}
	if err := w.openSegmentLocked(); err != nil {
		return nil, nil, err
	}
	if opts.Metrics != nil {
		opts.Metrics.Counter("durable.recover.records").Add(float64(len(recs)))
		opts.Metrics.Counter("durable.recover.segments").Add(float64(len(segs)))
		if truncated > 0 {
			opts.Metrics.Counter("durable.recover.truncated").Add(float64(truncated))
		}
	}
	w.flight.Record("wal.open", fmt.Sprintf("%s records=%d", opts.Dir, len(recs)))
	if opts.Sync == SyncInterval {
		w.wg.Add(1)
		go w.syncLoop()
	}
	return w, recs, nil
}

// segments lists the existing segment start indexes in ascending order.
func (w *WAL) segments() ([]uint64, error) {
	ents, err := os.ReadDir(w.opts.Dir)
	if err != nil {
		return nil, fmt.Errorf("durable: %w", err)
	}
	var segs []uint64
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || filepath.Ext(name) != ".wal" {
			continue
		}
		n, err := strconv.ParseUint(name[:len(name)-len(".wal")], 16, 64)
		if err != nil {
			continue // foreign file; ignore
		}
		segs = append(segs, n)
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i] < segs[j] })
	return segs, nil
}

func segName(first uint64) string { return fmt.Sprintf("%016x.wal", first) }

// scanSegment appends every whole record of one segment file to out. It
// returns the record count, and keep >= 0 when the segment ends in a torn
// or corrupt frame that must be truncated at that offset (-1 when the
// segment is clean).
func scanSegment(path string, out *[]Record) (n int, keep int, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, -1, fmt.Errorf("durable: %w", err)
	}
	off := 0
	for {
		rest := data[off:]
		if len(rest) == 0 {
			return n, -1, nil
		}
		if len(rest) < frameHeader {
			return n, off, nil
		}
		length := int(binary.BigEndian.Uint32(rest))
		if length < 1 || length > maxRecord || len(rest) < 8+length {
			return n, off, nil
		}
		body := rest[8 : 8+length]
		if crc32.Checksum(body, castagnoli) != binary.BigEndian.Uint32(rest[4:]) {
			return n, off, nil
		}
		*out = append(*out, Record{Kind: body[0], Data: append([]byte(nil), body[1:]...)})
		n++
		off += 8 + length
	}
}

// maxRecord bounds a single record's kind+payload size (16 MiB, matching
// the transport's frame cap).
const maxRecord = 16 << 20

// openSegmentLocked opens the segment file for w.first in append mode.
func (w *WAL) openSegmentLocked() error {
	f, err := os.OpenFile(filepath.Join(w.opts.Dir, segName(w.first)), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("durable: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return fmt.Errorf("durable: %w", err)
	}
	w.f, w.size = f, int(st.Size())
	return nil
}

// Append journals one record and applies the sync policy. The record is
// recoverable once Append returns under SyncAlways; under the other
// policies durability trails by at most the sync interval (or the page
// cache's whim).
func (w *WAL) Append(kind uint8, data []byte) error {
	return w.AppendPair(kind, data, nil)
}

// AppendPair journals one record whose payload is head followed by tail.
// Equivalent to Append(kind, head+tail) without requiring the caller to
// concatenate first — the hot journaling paths prefix a fixed cursor
// header to a frame payload they already hold.
func (w *WAL) AppendPair(kind uint8, head, tail []byte) error {
	n := len(head) + len(tail)
	if n+1 > maxRecord {
		return fmt.Errorf("durable: record exceeds %d bytes", maxRecord)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return w.err
	}
	if w.f == nil {
		return fmt.Errorf("durable: append on closed WAL")
	}
	if w.size >= w.opts.SegmentBytes {
		if err := w.rotateLocked(); err != nil {
			return err
		}
	}
	buf := make([]byte, frameHeader+n)
	binary.BigEndian.PutUint32(buf, uint32(1+n))
	buf[8] = kind
	copy(buf[9:], head)
	copy(buf[9+len(head):], tail)
	binary.BigEndian.PutUint32(buf[4:], crc32.Checksum(buf[8:], castagnoli))
	if _, err := w.f.Write(buf); err != nil {
		w.err = fmt.Errorf("durable: %w", err)
		return w.err
	}
	w.size += len(buf)
	w.next++
	w.dirty = true
	if w.appends != nil {
		w.appends.Inc()
	}
	if w.opts.Sync == SyncAlways {
		return w.syncLocked()
	}
	return nil
}

// rotateLocked fsyncs and closes the current segment and starts the next.
func (w *WAL) rotateLocked() error {
	if err := w.syncLocked(); err != nil {
		return err
	}
	if err := w.f.Close(); err != nil {
		w.err = fmt.Errorf("durable: %w", err)
		return w.err
	}
	w.first = w.next
	return w.openSegmentLocked()
}

// Sync forces appended records to stable storage regardless of policy.
func (w *WAL) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return w.err
	}
	if w.f == nil {
		return nil
	}
	return w.syncLocked()
}

func (w *WAL) syncLocked() error {
	if !w.dirty {
		return nil
	}
	start := time.Now()
	if err := w.f.Sync(); err != nil {
		w.err = fmt.Errorf("durable: %w", err)
		return w.err
	}
	if w.fsyncSec != nil {
		w.fsyncSec.Observe(time.Since(start).Seconds())
	}
	w.dirty = false
	return nil
}

// syncLoop is the background fsync pump under SyncInterval.
func (w *WAL) syncLoop() {
	defer w.wg.Done()
	t := time.NewTicker(w.opts.SyncInterval)
	defer t.Stop()
	for {
		select {
		case <-w.done:
			return
		case <-t.C:
			w.Sync() //nolint:errcheck // sticky error resurfaces on Append
		}
	}
}

// Compact replaces the whole journal with the given snapshot records: they
// are written to a fresh segment, synced, and every older segment is
// removed. The snapshot must condense everything recovery still needs —
// records compacted away are gone.
func (w *WAL) Compact(snapshot []Record) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return w.err
	}
	if w.f == nil {
		return fmt.Errorf("durable: compact on closed WAL")
	}
	old, oldFirst := w.f, w.first
	w.first = w.next
	if w.first == oldFirst {
		w.first++ // never reuse the live segment's name
		w.next = w.first
	}
	if err := w.openSegmentLocked(); err != nil {
		w.f, w.first = old, oldFirst
		return err
	}
	for _, r := range snapshot {
		buf := make([]byte, frameHeader+len(r.Data))
		binary.BigEndian.PutUint32(buf, uint32(1+len(r.Data)))
		buf[8] = r.Kind
		copy(buf[9:], r.Data)
		binary.BigEndian.PutUint32(buf[4:], crc32.Checksum(buf[8:], castagnoli))
		if _, err := w.f.Write(buf); err != nil {
			w.err = fmt.Errorf("durable: %w", err)
			return w.err
		}
		w.size += len(buf)
		w.next++
	}
	w.dirty = true
	if err := w.syncLocked(); err != nil {
		return err
	}
	old.Close() //nolint:errcheck // synced during rotation or by caller policy
	segs, err := w.segments()
	if err != nil {
		return err
	}
	removed := 0
	for _, seg := range segs {
		if seg < w.first {
			if err := os.Remove(filepath.Join(w.opts.Dir, segName(seg))); err != nil {
				w.err = fmt.Errorf("durable: %w", err)
				return w.err
			}
			removed++
		}
	}
	if w.opts.Metrics != nil {
		w.opts.Metrics.Counter("durable.compactions").Inc()
	}
	w.flight.Record("wal.compact", fmt.Sprintf("%s snapshot=%d removed=%d", w.opts.Dir, len(snapshot), removed))
	return nil
}

// Close syncs and closes the journal. The WAL must not be used afterwards.
func (w *WAL) Close() error {
	w.mu.Lock()
	if w.f == nil {
		w.mu.Unlock()
		return nil
	}
	err := w.syncLocked()
	cerr := w.f.Close()
	w.f = nil
	w.mu.Unlock()
	close(w.done)
	w.wg.Wait()
	if err != nil {
		return err
	}
	if cerr != nil {
		return fmt.Errorf("durable: %w", cerr)
	}
	return nil
}
