package vm

import (
	"strings"
	"testing"
	"testing/quick"

	"silcfm/internal/memunits"
)

const (
	nmBytes = 1 << 20 // 512 frames
	fmBytes = 4 << 20 // 2048 frames
)

func TestTranslateStable(t *testing.T) {
	a := NewAddressSpace(nmBytes, fmBytes, PolicyInterleaved, 1)
	va := uint64(0x12345)
	p1 := a.MustTranslate(va)
	p2 := a.MustTranslate(va)
	if p1 != p2 {
		t.Fatalf("translation not stable: %x vs %x", p1, p2)
	}
	if p1&(memunits.BlockSize-1) != va&(memunits.BlockSize-1) {
		t.Fatal("page offset not preserved")
	}
}

func TestDistinctPagesDistinctFrames(t *testing.T) {
	for _, pol := range []Policy{PolicyInterleaved, PolicyRandom, PolicyFMFirst} {
		a := NewAddressSpace(nmBytes, fmBytes, pol, 1)
		frames := map[uint64]bool{}
		n := 500
		for i := 0; i < n; i++ {
			pa := a.MustTranslate(uint64(i) * memunits.BlockSize)
			f := pa >> 11
			if frames[f] {
				t.Fatalf("%v: frame %d handed out twice", pol, f)
			}
			frames[f] = true
		}
		if a.PagesTouched() != uint64(n) {
			t.Fatalf("%v: PagesTouched = %d, want %d", pol, a.PagesTouched(), n)
		}
	}
}

func TestFMFirstNeverUsesNM(t *testing.T) {
	a := NewAddressSpace(nmBytes, fmBytes, PolicyFMFirst, 1)
	for i := 0; i < 2048; i++ {
		pa := a.MustTranslate(uint64(i) * memunits.BlockSize)
		if a.InNM(pa) {
			t.Fatalf("FM-first allocated NM frame for page %d (pa %x)", i, pa)
		}
	}
	// FM is now full.
	if _, err := a.Translate(uint64(5000) * memunits.BlockSize); err == nil {
		t.Fatal("expected out-of-memory")
	}
}

func TestInterleavedMixesEarly(t *testing.T) {
	a := NewAddressSpace(nmBytes, fmBytes, PolicyInterleaved, 1)
	nm := 0
	n := 100
	for i := 0; i < n; i++ {
		if a.InNM(a.MustTranslate(uint64(i) * memunits.BlockSize)) {
			nm++
		}
	}
	// NM is 1/5 of frames; early allocations should include some NM frames
	// (roughly 20, certainly more than 5 and fewer than 60).
	if nm < 5 || nm > 60 {
		t.Fatalf("interleaved NM share in first %d allocations = %d", n, nm)
	}
}

func TestRandomPolicyDeterministicPerSeed(t *testing.T) {
	get := func(seed int64) []uint64 {
		a := NewAddressSpace(nmBytes, fmBytes, PolicyRandom, seed)
		out := make([]uint64, 50)
		for i := range out {
			out[i] = a.MustTranslate(uint64(i) * memunits.BlockSize)
		}
		return out
	}
	a1, a2, b := get(7), get(7), get(8)
	same, diff := true, false
	for i := range a1 {
		if a1[i] != a2[i] {
			same = false
		}
		if a1[i] != b[i] {
			diff = true
		}
	}
	if !same {
		t.Fatal("same seed produced different layouts")
	}
	if !diff {
		t.Fatal("different seeds produced identical layouts (suspicious)")
	}
}

// Property: each policy hands out a permutation of exactly its frame range
// (every frame; FM frames only for FM-first), and the first page past the
// range gets the out-of-memory error.
func TestHandOutPermutation(t *testing.T) {
	for _, pol := range []Policy{PolicyInterleaved, PolicyRandom, PolicyFMFirst} {
		f := func(nmKB, fmKB uint8, seed int64) bool {
			nmB := (uint64(nmKB%8) + 1) * 16 * memunits.BlockSize
			fmB := (uint64(fmKB%8) + 1) * 64 * memunits.BlockSize
			a := NewAddressSpace(nmB, fmB, pol, seed)
			lo, hi := uint64(0), a.TotalFrames()
			if pol == PolicyFMFirst {
				lo = memunits.BlocksIn(nmB)
			}
			seen := make([]bool, hi)
			for page := lo; page < hi; page++ {
				pa, err := a.Translate(page * memunits.BlockSize)
				f := pa >> pageShift
				if err != nil || f < lo || f >= hi || seen[f] {
					t.Logf("%v: page %d -> frame %d, err %v", pol, page, f, err)
					return false
				}
				seen[f] = true
			}
			_, err := a.Translate(hi * memunits.BlockSize)
			if err == nil || !strings.Contains(err.Error(), "out of physical memory") {
				t.Logf("%v: page past %d frames: err %v", pol, hi-lo, err)
				return false
			}
			return a.FramesFree() == 0 && a.PagesTouched() == hi-lo
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 64}); err != nil {
			t.Fatalf("%v: %v", pol, err)
		}
	}
}

func TestCoreVAIsolation(t *testing.T) {
	// Identical per-core VAs must translate to distinct physical pages when
	// wrapped with CoreVA.
	a := NewAddressSpace(nmBytes, fmBytes, PolicyInterleaved, 1)
	va := uint64(0x1000)
	p0 := a.MustTranslate(CoreVA(0, va))
	p1 := a.MustTranslate(CoreVA(1, va))
	if p0>>11 == p1>>11 {
		t.Fatal("cores share a physical page")
	}
	if CoreVA(3, va) == CoreVA(2, va) {
		t.Fatal("CoreVA collision")
	}
}

func TestFramesFree(t *testing.T) {
	a := NewAddressSpace(nmBytes, fmBytes, PolicyInterleaved, 1)
	total := a.TotalFrames()
	if a.FramesFree() != total {
		t.Fatalf("fresh FramesFree = %d, want %d", a.FramesFree(), total)
	}
	a.MustTranslate(0)
	if a.FramesFree() != total-1 {
		t.Fatal("FramesFree did not decrement")
	}
}

func TestPolicyString(t *testing.T) {
	if PolicyInterleaved.String() != "interleaved" || PolicyRandom.String() != "random" || PolicyFMFirst.String() != "fm-first" {
		t.Fatal("policy names")
	}
}

// TestSparseTranslations drives the chunked page table with VAs far apart:
// one page's CoreVA aliases on 16 cores (which share chunk-cache slots
// only through the core fold), pages at the top of core 15's 2^44-byte
// range, and pages a chunk apart that evict each other's cache slot. Every
// repeat translation must return its first-touch frame, distinct pages
// must get distinct frames, and the page past the last frame must get the
// out-of-memory error and no frame.
func TestSparseTranslations(t *testing.T) {
	a := NewAddressSpace(nmBytes, fmBytes, PolicyInterleaved, 1)
	var vas []uint64
	for core := 0; core < 16; core++ {
		vas = append(vas, CoreVA(core, 0x123456))
	}
	top := uint64(1)<<coreShift - memunits.BlockSize
	vas = append(vas, CoreVA(15, top), CoreVA(15, top-memunits.BlockSize)+7, CoreVA(15, top>>1))
	for i := uint64(0); i < 64; i++ { // 64 chunks, one page each
		vas = append(vas, CoreVA(3, i<<(chunkShift+pageShift)|0x40))
	}
	first := map[uint64]uint64{}
	frames := map[uint64]uint64{}
	for pass := 0; pass < 3; pass++ {
		for _, va := range vas {
			pa := a.MustTranslate(va)
			if pa&(memunits.BlockSize-1) != va&(memunits.BlockSize-1) {
				t.Fatalf("va %#x -> pa %#x: page offset not preserved", va, pa)
			}
			if pass == 0 {
				if prev, dup := frames[pa>>pageShift]; dup && prev != va>>pageShift {
					t.Fatalf("vpages %#x and %#x share frame %d", prev, va>>pageShift, pa>>pageShift)
				}
				frames[pa>>pageShift] = va >> pageShift
				first[va] = pa
			} else if pa != first[va] {
				t.Fatalf("pass %d: va %#x -> %#x, first touch gave %#x", pass, va, pa, first[va])
			}
		}
	}
	if a.PagesTouched() != uint64(len(vas)) {
		t.Fatalf("PagesTouched = %d, want %d", a.PagesTouched(), len(vas))
	}
	// Fill the rest of memory, then one more page must fail cleanly and
	// leave the old translations intact.
	for i := uint64(0); a.FramesFree() > 0; i++ {
		a.MustTranslate(CoreVA(7, i*memunits.BlockSize))
	}
	if _, err := a.Translate(CoreVA(15, top>>2)); err == nil || !strings.Contains(err.Error(), "out of physical memory") {
		t.Fatalf("translate past the last frame: err %v", err)
	}
	if _, err := a.Translate(CoreVA(15, top>>2)); err == nil {
		t.Fatal("a failed translation left a mapping behind")
	}
	for _, va := range vas {
		if pa := a.MustTranslate(va); pa != first[va] {
			t.Fatalf("after OOM: va %#x -> %#x, first touch gave %#x", va, pa, first[va])
		}
	}
}
