package stats

import "sort"

// TopK keeps the k values that rank first under an order, the one ranking
// rule of every "hottest K" and "slowest K" table: exemplar reservoirs,
// offender blocks, profile and trace summaries. before(a, b) reports
// whether a ranks before b. It must be a strict total order, or leave
// unordered only values the caller cannot tell apart; then the kept values
// do not depend on the insertion order. Values arrive unsorted until the
// table first fills, are sorted once then, and from then on each admitted
// value is placed by binary search, so a k far above the values offered
// costs one sort, not an insertion sort.
//
// The zero value is not usable; build one with NewTopK.
type TopK[T any] struct {
	k      int
	before func(a, b *T) bool
	vals   []T // sorted by before once len(vals) == k
}

// NewTopK builds an empty table keeping at most k values (k < 1 is treated
// as 1) ranked by before.
func NewTopK[T any](k int, before func(a, b *T) bool) *TopK[T] {
	return &TopK[T]{k: max(k, 1), before: before}
}

// Insert offers x. When the table is full and x does not rank before the
// last kept value it returns nil. Otherwise it keeps a copy of x, dropping
// the last value if full, and returns a pointer to the copy, valid until the
// next Insert, Sorted or Reset: a caller may rank on key fields alone and
// fill in the rest of the copy afterwards. x itself is not retained.
func (t *TopK[T]) Insert(x *T) *T {
	n := len(t.vals)
	switch {
	case n < t.k-1:
		t.vals = append(t.vals, *x)
		return &t.vals[n]
	case n == t.k-1:
		t.sort()
		t.vals = append(t.vals, *x)
	case !t.before(x, &t.vals[n-1]):
		return nil
	}
	// The last slot is free: place x after every kept value it does not
	// rank before.
	last := len(t.vals) - 1
	lo, hi := 0, last
	for lo < hi {
		if m := int(uint(lo+hi) >> 1); t.before(x, &t.vals[m]) {
			hi = m
		} else {
			lo = m + 1
		}
	}
	copy(t.vals[lo+1:], t.vals[lo:last])
	t.vals[lo] = *x
	return &t.vals[lo]
}

// Sorted returns the kept values, first-ranked first. The slice is the
// table's own, valid until the next Insert or Reset.
func (t *TopK[T]) Sorted() []T {
	if len(t.vals) < t.k {
		t.sort()
	}
	return t.vals
}

// Reset empties the table, keeping its storage.
func (t *TopK[T]) Reset() {
	clear(t.vals)
	t.vals = t.vals[:0]
}

// sort ranks the kept values in place. Unlike sort.Slice, sort.Sort over
// a one-pointer adapter allocates nothing.
func (t *TopK[T]) sort() { sort.Sort(byRank[T]{t}) }

type byRank[T any] struct{ t *TopK[T] }

func (b byRank[T]) Len() int           { return len(b.t.vals) }
func (b byRank[T]) Less(i, j int) bool { return b.t.before(&b.t.vals[i], &b.t.vals[j]) }
func (b byRank[T]) Swap(i, j int)      { b.t.vals[i], b.t.vals[j] = b.t.vals[j], b.t.vals[i] }
