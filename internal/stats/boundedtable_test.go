package stats

import (
	"math"
	"math/rand"
	"testing"
	"unsafe"

	"silcfm/internal/memunits"
)

// capModel is the reference BoundedTable is checked against: a map with a
// key cap, first come keeps its entry, later keys are counted as dropped.
type capModel struct {
	max     int
	vals    map[uint64]uint64
	order   []uint64
	dropped uint64
}

func (m *capModel) add(key, v uint64) {
	if _, ok := m.vals[key]; !ok {
		if len(m.vals) == m.max {
			m.dropped++
			return
		}
		m.order = append(m.order, key)
	}
	m.vals[key] += v
}

// TestBoundedTableMatchesCapModel drives the table and the reference model
// with the same random streams — more distinct keys than the bound, exactly
// the bound, fewer, and the extreme keys 0 and MaxUint64 — resetting both
// between rounds, and requires identical contents, order and drop counts.
func TestBoundedTableMatchesCapModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, max := range []int{1, 2, 3, 7, 64, 1000} {
		tb := NewBoundedTable[uint64](max)
		for round := 0; round < 8; round++ {
			distinct := []int{max - 1, max, max + 1, 3 * max}[round%4]
			if distinct < 1 {
				distinct = 1
			}
			pool := make([]uint64, distinct)
			for i := range pool {
				pool[i] = rng.Uint64() >> uint(rng.Intn(64))
			}
			pool[0] = 0
			pool[len(pool)-1] = math.MaxUint64
			m := &capModel{max: max, vals: map[uint64]uint64{}}
			for n := 0; n < 20*distinct; n++ {
				key := pool[rng.Intn(len(pool))]
				v := uint64(rng.Intn(100))
				m.add(key, v)
				if p := tb.Get(key); p != nil {
					*p += v
				}
			}
			if tb.Len() != len(m.order) || tb.Dropped() != m.dropped {
				t.Fatalf("max %d round %d: len %d dropped %d, model len %d dropped %d",
					max, round, tb.Len(), tb.Dropped(), len(m.order), m.dropped)
			}
			for i := 0; i < tb.Len(); i++ {
				if k := tb.Key(i); k != m.order[i] || *tb.Value(i) != m.vals[k] {
					t.Fatalf("max %d round %d: entry %d = %d:%d, model %d:%d",
						max, round, i, k, *tb.Value(i), m.order[i], m.vals[m.order[i]])
				}
			}
			tb.Reset()
			if tb.Len() != 0 || tb.Dropped() != 0 {
				t.Fatalf("max %d: Reset left len %d dropped %d", max, tb.Len(), tb.Dropped())
			}
			for i, s := range tb.slots {
				if s != 0 {
					t.Fatalf("max %d: Reset left slot %d = %d", max, i, s)
				}
			}
		}
	}
}

// TestBoundedTableLoadAtMostHalf pins the slot-index sizing: a power of two
// of at least twice the key bound.
func TestBoundedTableLoadAtMostHalf(t *testing.T) {
	for _, c := range []struct{ max, slots int }{{0, 2}, {1, 2}, {2, 4}, {3, 8}, {1024, 2048}, {1025, 4096}} {
		if got := len(NewBoundedTable[struct{}](c.max).slots); got != c.slots {
			t.Errorf("max %d: %d slots, want %d", c.max, got, c.slots)
		}
	}
}

// TestBoundedTableFullDoesNotAllocate: once full, hits and drops are
// allocation-free.
func TestBoundedTableFullDoesNotAllocate(t *testing.T) {
	tb := NewBoundedTable[uint64](16)
	for k := uint64(0); k < 16; k++ {
		tb.Get(k)
	}
	next := uint64(100)
	if avg := testing.AllocsPerRun(100, func() {
		*tb.Get(3) += 1
		tb.Get(next)
		next++
	}); avg != 0 {
		t.Errorf("full-table Get allocates %.1f objects/op, want 0", avg)
	}
}

// TestBoundedTableFillAllocatesFinalPlusOnePage fills tables to their key
// bound and checks that the entry bytes their dense storage allocated sum
// to at most the final keys+values bytes plus one page, that no value moves
// as later pages arrive, and that a key added after Reset starts at zero.
// Storage grows only by whole pages, so the sum is read from the pages
// held; the allocator's own size-class rounding is not the table's to
// bound.
func TestBoundedTableFillAllocatesFinalPlusOnePage(t *testing.T) {
	type val [3]uint64
	entry := uint64(unsafe.Sizeof(uint64(0)) + unsafe.Sizeof(val{}))
	for _, max := range []int{1, 15, 16, 17, 1000, 1024, 5000, 32768, 40000} {
		tb := NewBoundedTable[val](max)
		first := make([]*val, 0, max)
		for k := uint64(0); k < uint64(max); k++ {
			v := tb.Get(k)
			v[0] = k
			first = append(first, v)
		}
		if tb.Len() != max {
			t.Fatalf("max %d: holds %d keys", max, tb.Len())
		}
		if tb.vals.Cap() != tb.keys.Cap() {
			t.Fatalf("max %d: value pages hold %d, key pages %d", max, tb.vals.Cap(), tb.keys.Cap())
		}
		page := uint64(memunits.SlabPageLen) * entry
		if allocated, final := uint64(tb.keys.Cap())*entry, uint64(max)*entry; allocated > final+page {
			t.Errorf("max %d: fill allocated %d B, more than the final %d B plus one %d B page", max, allocated, final, page)
		}
		for i := 0; i < max; i++ {
			if v := tb.Value(i); v != first[i] || v[0] != tb.Key(i) {
				t.Fatalf("max %d: value %d moved off its key", max, i)
			}
		}
		tb.Reset()
		if v := tb.Get(uint64(max) + 1); *v != (val{}) {
			t.Fatalf("max %d: key added after Reset starts at %v, want zero", max, *v)
		}
	}
}
