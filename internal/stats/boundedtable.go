package stats

import "math/bits"

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
//   - dense storage: keys and values live in insertion order in slices
//     grown by doubling and clamped at the key bound, so a full table has
//     allocated less than twice its final storage and Reset costs O(keys
//     held), not O(slots).
//
// The zero value is not usable; build one with NewBoundedTable.
type BoundedTable[V any] struct {
	max     int
	shift   uint     // 64 - log2(len(slots)): Fibonacci hash to a slot index
	slots   []uint32 // dense position + 1; 0 = empty
	keys    []uint64 // dense, insertion order
	vals    []V      // aligned with keys
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
		max:   max,
		shift: uint(64 - logSlots),
		slots: make([]uint32, 1<<logSlots),
	}
}

// home is key's first probe position.
func (t *BoundedTable[V]) home(key uint64) int {
	return int((key * 0x9e3779b97f4a7c15) >> t.shift)
}

// Get returns a pointer to key's value, adding key with a zero value when
// it is new and the table has room. When the table is full and key is new it
// counts one drop and returns nil. The pointer is valid until the next Get
// or Reset.
func (t *BoundedTable[V]) Get(key uint64) *V {
	mask := len(t.slots) - 1
	for i := t.home(key); ; i = (i + 1) & mask {
		pos := t.slots[i]
		if pos == 0 {
			if len(t.keys) == t.max {
				t.dropped++
				return nil
			}
			if len(t.keys) == cap(t.keys) {
				t.grow() // so the appends below never reallocate
			}
			t.keys = append(t.keys, key)
			var zero V
			t.vals = append(t.vals, zero)
			t.slots[i] = uint32(len(t.keys))
			return &t.vals[len(t.vals)-1]
		}
		if t.keys[pos-1] == key {
			return &t.vals[pos-1]
		}
	}
}

// minDense bounds the dense storage's first capacity from below (unless
// the key bound itself is smaller).
const minDense = 16

// grow doubles the dense storage's capacity up to max. append alone would
// grow a large slice by about 1.25x per step and overshoot max. The first
// capacity is max/2^k, so the doublings land on max and the capacities
// before it sum to less than max: a full table has allocated under twice
// its final storage.
func (t *BoundedTable[V]) grow() {
	c := 2 * cap(t.keys)
	if c == 0 {
		c = t.max >> max(bits.Len(uint(t.max/minDense))-1, 0)
	}
	if 2*c > t.max {
		c = t.max
	}
	keys := make([]uint64, len(t.keys), c)
	copy(keys, t.keys)
	vals := make([]V, len(t.vals), c)
	copy(vals, t.vals)
	t.keys, t.vals = keys, vals
}

// Len reports the number of keys held.
func (t *BoundedTable[V]) Len() int { return len(t.keys) }

// Dropped reports the Get calls refused since the last Reset because the
// table was full.
func (t *BoundedTable[V]) Dropped() uint64 { return t.dropped }

// Keys returns the held keys in insertion order. The slice aliases the
// table's storage: read it before the next Get or Reset.
func (t *BoundedTable[V]) Keys() []uint64 { return t.keys }

// Values returns the held values, index-aligned with Keys, with the same
// aliasing rule.
func (t *BoundedTable[V]) Values() []V { return t.vals }

// Reset empties the table and zeroes the drop count, touching only the
// slots in use: each key's slot is found by walking its probe sequence to
// the slot that holds its position, the same walk that inserted it.
func (t *BoundedTable[V]) Reset() {
	mask := len(t.slots) - 1
	for p, key := range t.keys {
		i := t.home(key)
		for t.slots[i] != uint32(p+1) {
			i = (i + 1) & mask
		}
		t.slots[i] = 0
	}
	t.keys = t.keys[:0]
	t.vals = t.vals[:0]
	t.dropped = 0
}
