package exec

import (
	"sort"

	"streamshare/internal/decimal"
	"streamshare/internal/xmlstream"
)

// SortBuffer restores the total order of a fuzzily ordered stream using a
// fixed-size buffer, the relaxation §2 describes for time-based windows:
// "This premise could be somewhat relaxed to a fuzzy order by requiring
// that a fixed sized buffer is sufficient to derive the total order."
//
// Items are buffered and released in ascending order of their reference
// element once the buffer exceeds Size; items with a reference below the
// highest value already released (i.e. beyond the buffer's reach) are
// dropped, and items without a parsable reference are dropped. Place the
// operator upstream of time-based WindowAgg/WindowContents stages.
type SortBuffer struct {
	// Ref is the ordered reference element, e.g. det_time.
	Ref xmlstream.Path
	// Size is the number of items held back to absorb disorder.
	Size int

	buf      []bufferedItem
	released decimal.D
	any      bool
	// Dropped counts items that arrived too late (or without a reference)
	// to be ordered within the buffer.
	Dropped int
}

type bufferedItem struct {
	ref  decimal.D
	seq  int
	item *xmlstream.Element
}

// NewSortBuffer returns a fuzzy-order repair operator; size must be
// positive.
func NewSortBuffer(ref xmlstream.Path, size int) *SortBuffer {
	if size <= 0 {
		size = 1
	}
	return &SortBuffer{Ref: ref, Size: size}
}

// Name implements Operator.
func (s *SortBuffer) Name() string       { return "sort-buffer" }
func (s *SortBuffer) instance() Operator { return NewSortBuffer(s.Ref, s.Size) }

// Process implements Operator.
func (s *SortBuffer) Process(dst, items []*xmlstream.Element) []*xmlstream.Element {
	for _, item := range items {
		ref, ok := item.Decimal(s.Ref)
		if !ok || (s.any && ref.Cmp(s.released) < 0) {
			// No reference, or the slot this item belongs to has already
			// been released: a larger buffer would have been needed.
			s.Dropped++
			continue
		}
		s.insert(bufferedItem{ref: ref, seq: len(s.buf), item: item})
		for len(s.buf) > s.Size {
			dst = append(dst, s.pop())
		}
	}
	return dst
}

// insert keeps the buffer sorted by (ref, arrival) with a binary search;
// the buffer is small and bounded by Size+1.
func (s *SortBuffer) insert(b bufferedItem) {
	i := sort.Search(len(s.buf), func(i int) bool {
		c := s.buf[i].ref.Cmp(b.ref)
		return c > 0
	})
	s.buf = append(s.buf, bufferedItem{})
	copy(s.buf[i+1:], s.buf[i:])
	s.buf[i] = b
}

func (s *SortBuffer) pop() *xmlstream.Element {
	b := s.buf[0]
	s.buf = s.buf[1:]
	s.released = b.ref
	s.any = true
	return b.item
}

// Flush implements Operator, draining the buffer in order.
func (s *SortBuffer) Flush(dst []*xmlstream.Element) []*xmlstream.Element {
	for len(s.buf) > 0 {
		dst = append(dst, s.pop())
	}
	return dst
}
