package memunits

import "testing"

// TestSlabPushAtReset fills a slab across several pages, checks that every
// entry keeps its value and address as later pages arrive, that pages are
// allocated one at a time, and that Reset zeroes what was held and reuses
// the pages without allocating.
func TestSlabPushAtReset(t *testing.T) {
	var s Slab[uint64]
	const n = 3*SlabPageLen + 5
	ptrs := make([]*uint64, n)
	for i := 0; i < n; i++ {
		j, p := s.Push()
		if j != i || *p != 0 {
			t.Fatalf("push %d: index %d, value %d", i, j, *p)
		}
		*p = uint64(i) + 1
		ptrs[i] = p
		if want := (i/SlabPageLen + 1) * SlabPageLen; s.Cap() != want {
			t.Fatalf("after %d pushes: cap %d, want %d", i+1, s.Cap(), want)
		}
	}
	for i := 0; i < n; i++ {
		if s.At(i) != ptrs[i] || *s.At(i) != uint64(i)+1 {
			t.Fatalf("entry %d moved or changed", i)
		}
	}
	s.Reset()
	if s.Len() != 0 || s.Cap() != 4*SlabPageLen {
		t.Fatalf("after Reset: len %d cap %d", s.Len(), s.Cap())
	}
	for i := 0; i < s.Cap(); i++ {
		if *s.At(i) != 0 {
			t.Fatalf("Reset left entry %d = %d", i, *s.At(i))
		}
	}
	if a := testing.AllocsPerRun(10, func() {
		for i := 0; i < n; i++ {
			s.Push()
		}
		s.Reset()
	}); a != 0 {
		t.Fatalf("refilling reset pages allocates %.1f objects, want 0", a)
	}
}
