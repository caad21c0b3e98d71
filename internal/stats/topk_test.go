package stats

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// rankee is a TopK test value. Its three keys come from tiny ranges, so
// values tie often on the leading keys and sometimes on all three: then
// they are equal, and the order is total over distinct values.
type rankee struct {
	hi, lo, id int
}

func rankeeBefore(a, b *rankee) bool {
	if a.hi != b.hi {
		return a.hi > b.hi
	}
	if a.lo != b.lo {
		return a.lo < b.lo
	}
	return a.id < b.id
}

// TestTopKMatchesSortAndTruncate checks TopK against the brute force it
// replaces: a stable sort of everything offered, in arrival order, cut to
// k. After each Insert the kept values must be the reference's, and Insert
// must return nil exactly when the reference leaves the new arrival out
// (so a value equal to the last kept one is refused: the incumbent keeps
// its slot), else a pointer to its kept copy. Each table is reused across
// trials through Reset.
func TestTopKMatchesSortAndTruncate(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	type arrival struct {
		v   rankee
		seq int
	}
	for _, k := range []int{1, 8, 16} {
		top := NewTopK(k, rankeeBefore)
		for trial := 0; trial < 40; trial++ {
			n := rng.Intn(5 * k)
			var all []arrival
			for i := 0; i < n; i++ {
				x := rankee{hi: rng.Intn(3), lo: rng.Intn(3), id: rng.Intn(3)}
				all = append(all, arrival{x, i})
				sort.SliceStable(all, func(i, j int) bool { return rankeeBefore(&all[i].v, &all[j].v) })
				var want []rankee
				kept := false
				for _, a := range all[:min(len(all), k)] {
					want = append(want, a.v)
					kept = kept || a.seq == i
				}
				got := top.Insert(&x)
				if (got == nil) == kept {
					t.Fatalf("k=%d trial %d: Insert(%v) returned %v, kept in reference: %v", k, trial, x, got, kept)
				}
				if got != nil && *got != x {
					t.Fatalf("k=%d: Insert(%v) points at %v", k, x, *got)
				}
				if i < n-1 && rng.Intn(3) > 0 {
					continue // leave a table that is not full unsorted
				}
				if sorted := top.Sorted(); !slices.Equal(sorted, want) {
					t.Fatalf("k=%d trial %d after %d inserts:\n got %v\nwant %v", k, trial, i+1, sorted, want)
				}
			}
			top.Reset()
			if len(top.Sorted()) != 0 {
				t.Fatalf("k=%d: Reset left %v", k, top.Sorted())
			}
		}
	}
}
