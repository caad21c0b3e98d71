package memunits

const (
	slabPageShift = 8
	// SlabPageLen is the number of entries on one Slab page: few enough
	// that a structure which stays small in a run (an engine's pending
	// events, a device's queued ops) pays for one page of 8-24 KiB, not
	// for its worst case.
	SlabPageLen = 1 << slabPageShift
)

// Slab is a growable sequence of entries stored in fixed-size pages, the
// growth rule of every per-run structure whose size is only known as the
// run goes: event records, queued DRAM ops, hotness-table entries. A page is
// allocated, zeroed, when Push first reaches it, and is never copied, moved
// or freed. Growth therefore costs one allocation per page, the entries a
// slab has allocated never exceed those it has held plus one page, and a
// pointer to an entry stays valid for the slab's life. Only the page
// directory, one pointer per page, grows by append. Entries at or past Len
// read as zero. The zero value is an empty slab.
//
// Paged is the sibling for tables whose row count is fixed up front.
type Slab[T any] struct {
	n     int
	pages []*[SlabPageLen]T
}

// Len reports the entries pushed since the slab was built or last Reset.
func (s *Slab[T]) Len() int { return s.n }

// Cap reports the entries the slab's pages hold, used or not.
func (s *Slab[T]) Cap() int { return len(s.pages) << slabPageShift }

// At returns entry i, for i < Cap. The pointer stays valid for the slab's
// life.
func (s *Slab[T]) At(i int) *T {
	return &s.pages[i>>slabPageShift][i&(SlabPageLen-1)]
}

// Push appends a zero entry, allocating its page if it is the first on it,
// and returns the entry's index and a pointer to it.
func (s *Slab[T]) Push() (int, *T) {
	i := s.n
	if i>>slabPageShift == len(s.pages) {
		s.pages = append(s.pages, new([SlabPageLen]T))
	}
	s.n++
	return i, s.At(i)
}

// Reset empties the slab, zeroing the entries it held and keeping its
// pages for reuse.
func (s *Slab[T]) Reset() {
	for k := 0; k<<slabPageShift < s.n; k++ {
		clear(s.pages[k][:min(SlabPageLen, s.n-k<<slabPageShift)])
	}
	s.n = 0
}
