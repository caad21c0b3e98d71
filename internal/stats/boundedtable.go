package stats

import (
	"math/bits"

	"silcfm/internal/memunits"
)

// BoundedTable is a hash table from uint64 keys to values of type V that
// holds at most a fixed number of distinct keys, for per-demand hotness
// tables that must stay O(1) per update however many keys stream past:
//
//   - first-come-keeps-slot: once the table is full, a new key is counted as
//     dropped and never evicts an old one, so the kept set is a
//     deterministic function of the key stream;
//   - bounded load: the slot index has a power-of-two size of at least twice
//     the key bound, so it is never more than half full and a linear probe
//     stops at an empty slot after a few steps;
//   - tagged slots: a slot holds the key's dense position and, in the bits
//     above it, a tag cut from the key's hash, so a probe reads a key only
//     when the tags match and a full table refuses a new key without
//     reading any;
//   - dense storage: keys and values live in insertion order in two
//     memunits.Slabs, which grow by fixed-size pages and never copy, so a
//     full table has allocated its final storage plus at most one page of
//     each, a value's pointer stays put, and Reset costs O(keys held), not
//     O(slots).
//
// The zero value is not usable; build one with NewBoundedTable.
type BoundedTable[V any] struct {
	max     int
	shift   uint                  // 64 - log2(len(slots)): Fibonacci hash to a slot index
	posMask uint32                // slot bits holding the dense position + 1
	slots   []uint32              // tag | dense position + 1; 0 = empty
	keys    memunits.Slab[uint64] // dense, insertion order
	vals    memunits.Slab[V]      // aligned with keys
	dropped uint64
}

// NewBoundedTable builds an empty table holding at most max keys (max < 1
// is treated as 1).
func NewBoundedTable[V any](max int) *BoundedTable[V] {
	if max < 1 {
		max = 1
	}
	logSlots := bits.Len(uint(2*max - 1)) // smallest power of two >= 2*max
	return &BoundedTable[V]{
		max:     max,
		shift:   uint(64 - logSlots),
		posMask: uint32(1)<<bits.Len(uint(max)) - 1,
		slots:   make([]uint32, 1<<logSlots),
	}
}

// hash returns key's first probe position and its slot tag: the hash bits
// just below those that pick the position, in the slot bits above posMask.
func (t *BoundedTable[V]) hash(key uint64) (int, uint32) {
	h := key * 0x9e3779b97f4a7c15
	return int(h >> t.shift), uint32(h>>(t.shift-32)) &^ t.posMask
}

// Get returns a pointer to key's value, adding key with a zero value when
// it is new and the table has room. When the table is full and key is new it
// counts one drop and returns nil. The pointer is valid until the next
// Reset.
func (t *BoundedTable[V]) Get(key uint64) *V {
	mask := len(t.slots) - 1
	i, tag := t.hash(key)
	for ; ; i = (i + 1) & mask {
		s := t.slots[i]
		if s == 0 {
			if t.keys.Len() == t.max {
				t.dropped++
				return nil
			}
			p, k := t.keys.Push()
			*k = key
			t.slots[i] = tag | uint32(p+1)
			_, v := t.vals.Push()
			return v
		}
		if p := int(s&t.posMask) - 1; s&^t.posMask == tag && *t.keys.At(p) == key {
			return t.vals.At(p)
		}
	}
}

// Len reports the number of keys held.
func (t *BoundedTable[V]) Len() int { return t.keys.Len() }

// Dropped reports the Get calls refused since the last Reset because the
// table was full.
func (t *BoundedTable[V]) Dropped() uint64 { return t.dropped }

// Key returns the key at position i in insertion order, for i < Len.
func (t *BoundedTable[V]) Key(i int) uint64 { return *t.keys.At(i) }

// Value returns the value at position i, aligned with Key(i). The pointer
// is valid until the next Reset.
func (t *BoundedTable[V]) Value(i int) *V { return t.vals.At(i) }

// Reset empties the table and zeroes the drop count, touching only the
// slots in use: each key's slot is found by walking its probe sequence to
// the slot that holds its position, the same walk that inserted it.
func (t *BoundedTable[V]) Reset() {
	mask := len(t.slots) - 1
	for p := 0; p < t.keys.Len(); p++ {
		i, _ := t.hash(t.Key(p))
		for t.slots[i]&t.posMask != uint32(p+1) {
			i = (i + 1) & mask
		}
		t.slots[i] = 0
	}
	t.keys.Reset()
	t.vals.Reset()
	t.dropped = 0
}
