package memunits

// Ring keeps the last limit entries pushed, oldest first: the bounded
// recent history of a run (movement events, epoch records, postmortem
// bundles). It is built on a Slab, so its pages are allocated only as the
// ring first fills, and a ring never pushed holds no page. Once full, each
// Push reuses the oldest entry in place. The zero value is not usable;
// build one with NewRing.
type Ring[T any] struct {
	limit   int
	oldest  int // index of the oldest entry once full, the next one Push reuses
	dropped uint64
	slab    Slab[T]
}

// NewRing builds an empty ring holding at most limit entries (limit < 1 is
// treated as 1).
func NewRing[T any](limit int) Ring[T] {
	return Ring[T]{limit: max(limit, 1)}
}

// Push makes room for one entry and returns it for the caller to fill. While
// the ring fills it is a zero entry; once full it is the oldest entry, still
// holding its old value, so an entry may keep buffers across reuse.
func (r *Ring[T]) Push() *T {
	if r.slab.Len() < r.limit {
		_, e := r.slab.Push()
		return e
	}
	e := r.slab.At(r.oldest)
	if r.oldest++; r.oldest == r.limit {
		r.oldest = 0
	}
	r.dropped++
	return e
}

// Len reports the entries held, at most the limit.
func (r *Ring[T]) Len() int { return r.slab.Len() }

// At returns the i-th oldest entry held, for i < Len. The pointer is valid
// until Push reuses the entry.
func (r *Ring[T]) At(i int) *T {
	if i += r.oldest; i >= r.limit {
		i -= r.limit
	}
	return r.slab.At(i)
}

// Dropped reports the entries Push has reused, each the oldest held.
func (r *Ring[T]) Dropped() uint64 { return r.dropped }
