package memunits

import "testing"

// TestRingKeepsLastPushes checks Ring against a reference slice of every
// value pushed: after each Push the ring holds the last min(pushes, limit)
// values oldest first, Dropped counts the rest, and the pages allocated
// never exceed those the held entries need.
func TestRingKeepsLastPushes(t *testing.T) {
	for _, limit := range []int{1, 3, 256, 257, 4096} {
		r := NewRing[uint64](limit)
		if r.Len() != 0 || r.Dropped() != 0 || r.slab.Cap() != 0 {
			t.Fatalf("limit %d: empty ring holds %d, dropped %d, %d entries of pages",
				limit, r.Len(), r.Dropped(), r.slab.Cap())
		}
		var pushed []uint64
		for i := uint64(1); i <= uint64(3*limit+2); i++ {
			*r.Push() = i
			pushed = append(pushed, i)
			want := pushed[max(len(pushed)-limit, 0):]
			if r.Len() != len(want) || r.Dropped() != uint64(len(pushed)-len(want)) {
				t.Fatalf("limit %d after %d pushes: len %d dropped %d, want %d and %d",
					limit, i, r.Len(), r.Dropped(), len(want), len(pushed)-len(want))
			}
			if i%97 != 0 && i != uint64(3*limit+2) && limit > 3 {
				continue // walk the whole ring only now and then
			}
			for j, w := range want {
				if got := *r.At(j); got != w {
					t.Fatalf("limit %d after %d pushes: At(%d) = %d, want %d", limit, i, j, got, w)
				}
			}
		}
		if pages := (limit + SlabPageLen - 1) / SlabPageLen; r.slab.Cap() != pages*SlabPageLen {
			t.Fatalf("limit %d: %d entries of pages, want %d", limit, r.slab.Cap(), pages*SlabPageLen)
		}
	}
}

// TestRingReusesOldestInPlace checks that a full ring's Push hands back the
// oldest entry with its old value, so entries can keep buffers across
// reuse.
func TestRingReusesOldestInPlace(t *testing.T) {
	r := NewRing[[]int](2)
	*r.Push() = []int{1}
	*r.Push() = []int{2}
	if e := r.Push(); len(*e) != 1 || (*e)[0] != 1 {
		t.Fatalf("full ring's Push returned %v, want the oldest entry [1]", *e)
	}
}
