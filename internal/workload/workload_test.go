package workload

import (
	"testing"

	"silcfm/internal/memunits"
)

func TestAllBenchmarksConstruct(t *testing.T) {
	if len(Names) != 14 {
		t.Fatalf("Table III lists 14 benchmarks, got %d", len(Names))
	}
	for _, n := range Names {
		g, ok := New(n, 1)
		if !ok {
			t.Fatalf("missing benchmark %s", n)
		}
		if g.Name() != n {
			t.Fatalf("name mismatch: %s vs %s", g.Name(), n)
		}
		var r Ref
		for i := 0; i < 1000; i++ {
			g.Next(&r)
			if r.Gap == 0 {
				t.Fatalf("%s: zero instruction gap", n)
			}
			if r.VAddr >= g.FootprintBytes() {
				t.Fatalf("%s: address %x beyond footprint %x", n, r.VAddr, g.FootprintBytes())
			}
		}
	}
}

func TestUnknownBenchmark(t *testing.T) {
	if _, ok := New("nonesuch", 1); ok {
		t.Fatal("unknown benchmark accepted")
	}
	if _, ok := Spec("nonesuch"); ok {
		t.Fatal("unknown spec accepted")
	}
}

func TestClasses(t *testing.T) {
	sizes := map[MPKIClass]int{}
	for _, n := range Names {
		sizes[specs[n].Class]++
	}
	if low, med, high := sizes[LowMPKI], sizes[MediumMPKI], sizes[HighMPKI]; low != 4 || med != 5 || high != 5 {
		t.Fatalf("class sizes %d/%d/%d, want 4/5/5 per Table III", low, med, high)
	}
	if LowMPKI.String() != "low" || MediumMPKI.String() != "medium" || HighMPKI.String() != "high" {
		t.Fatal("class names")
	}
}

func TestDeterminismPerSeed(t *testing.T) {
	collect := func(seed int64) []Ref {
		g, _ := New("mcf", seed)
		out := make([]Ref, 500)
		for i := range out {
			g.Next(&out[i])
		}
		return out
	}
	a, b, c := collect(5), collect(5), collect(6)
	differs := false
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at ref %d", i)
		}
		if a[i] != c[i] {
			differs = true
		}
	}
	if !differs {
		t.Fatal("different seeds produced identical streams")
	}
}

// Spatial locality knob: lbm (streaming) must touch far more distinct
// subblocks per page than mcf (pointer chasing). This is the property that
// separates PoM from CAMEO in the paper.
func TestSpatialLocalityOrdering(t *testing.T) {
	subblocksPerPage := func(name string) float64 {
		g, _ := New(name, 1)
		var r Ref
		touched := map[uint64]map[uint]bool{}
		for i := 0; i < 200000; i++ {
			g.Next(&r)
			p := memunits.BlockOf(r.VAddr)
			if touched[p] == nil {
				touched[p] = map[uint]bool{}
			}
			touched[p][memunits.SubblockIndex(r.VAddr)] = true
		}
		tot := 0
		for _, m := range touched {
			tot += len(m)
		}
		return float64(tot) / float64(len(touched))
	}
	lbm, mcf := subblocksPerPage("lbm"), subblocksPerPage("mcf")
	if lbm < 2*mcf {
		t.Fatalf("lbm spatial %.1f !>> mcf %.1f", lbm, mcf)
	}
	if mcf > 14 {
		t.Fatalf("mcf touches %.1f cumulative subblocks/page, want pointer-chasing behaviour", mcf)
	}
	if lbm < 16 {
		t.Fatalf("lbm touches %.1f subblocks/page, want streaming behaviour", lbm)
	}
}

// Hot-set skew knob: xalanc concentrates accesses on few pages far more
// than gcc (many lukewarm pages).
func TestSkewOrdering(t *testing.T) {
	topShare := func(name string) float64 {
		g, _ := New(name, 1)
		var r Ref
		counts := map[uint64]int{}
		n := 150000
		for i := 0; i < n; i++ {
			g.Next(&r)
			counts[memunits.BlockOf(r.VAddr)]++
		}
		// share of accesses landing on the 64 most popular pages
		var all []int
		for _, c := range counts {
			all = append(all, c)
		}
		// selection of top 64 without sort package: simple partial pass
		top := 0
		for k := 0; k < 64 && len(all) > 0; k++ {
			best, bi := -1, -1
			for i, c := range all {
				if c > best {
					best, bi = c, i
				}
			}
			top += best
			all[bi] = all[len(all)-1]
			all = all[:len(all)-1]
		}
		return float64(top) / float64(n)
	}
	x, g := topShare("xalanc"), topShare("gcc")
	if x < 2*g {
		t.Fatalf("xalanc top-64 share %.3f !>> gcc %.3f", x, g)
	}
}

// Phase churn knob: a generator with PhaseRefs set must slide its hot
// region; one without must keep it stationary. (gems/milc/bwaves set
// PhaseRefs; cactus does not.)
func TestPhaseChurn(t *testing.T) {
	base := Params{
		Name: "p", FootprintPages: 4096, HotPages: 512, HotProb: 0.95,
		VisitSubblocksMin: 4, VisitSubblocksMax: 8, GapMean: 4,
	}
	hotPagesAt := func(p Params, skip int) map[uint64]bool {
		g := NewSynthetic(p, 1)
		var r Ref
		for i := 0; i < skip; i++ {
			g.Next(&r)
		}
		counts := map[uint64]int{}
		for i := 0; i < 100000; i++ {
			g.Next(&r)
			counts[memunits.BlockOf(r.VAddr)]++
		}
		hot := map[uint64]bool{}
		for page, c := range counts {
			if c >= 20 {
				hot[page] = true
			}
		}
		return hot
	}
	overlap := func(p Params) float64 {
		a := hotPagesAt(p, 0)
		b := hotPagesAt(p, 1_000_000)
		inter := 0
		for page := range a {
			if b[page] {
				inter++
			}
		}
		if len(a) == 0 {
			t.Fatal("no hot pages detected")
		}
		return float64(inter) / float64(len(a))
	}
	churny := base
	churny.PhaseRefs = 100_000
	churny.PhaseShift = 1024
	stat, churn := overlap(base), overlap(churny)
	if stat < 0.9 {
		t.Fatalf("stationary generator hot-set overlap %.2f, want ~1", stat)
	}
	if churn > 0.5 {
		t.Fatalf("phased generator hot-set overlap %.2f, want low", churn)
	}
	// And the shipped specs set the knob as documented.
	for _, n := range []string{"gems", "milc", "bwaves"} {
		p, _ := Spec(n)
		if p.PhaseRefs == 0 {
			t.Errorf("%s must have phase churn", n)
		}
	}
	for _, n := range []string{"cactus", "lib"} {
		p, _ := Spec(n)
		if p.PhaseRefs != 0 {
			t.Errorf("%s must be stationary", n)
		}
	}
}

func TestWriteFraction(t *testing.T) {
	g, _ := New("lbm", 1)
	var r Ref
	w := 0
	n := 50000
	for i := 0; i < n; i++ {
		g.Next(&r)
		if r.Write {
			w++
		}
	}
	frac := float64(w) / float64(n)
	if frac < 0.35 || frac > 0.55 {
		t.Fatalf("lbm write fraction %.2f, want ~0.45", frac)
	}
}

func TestScaleFootprint(t *testing.T) {
	p, _ := Spec("mcf")
	s := ScaleFootprint(p, 1, 4)
	if s.FootprintPages != p.FootprintPages/4 || s.HotPages != p.HotPages/4 {
		t.Fatalf("scaling wrong: %+v", s)
	}
	// Never scales a positive value to zero.
	tiny := ScaleFootprint(Params{FootprintPages: 2, HotPages: 1}, 1, 100)
	if tiny.FootprintPages == 0 || tiny.HotPages == 0 {
		t.Fatal("scaled positive field to zero")
	}
}

func TestDefaultsApplied(t *testing.T) {
	g := NewSynthetic(Params{Name: "x", FootprintPages: 16}, 1)
	var r Ref
	for i := 0; i < 100; i++ {
		g.Next(&r) // must not panic or divide by zero
	}
	if g.Params().GapMean <= 0 || g.Params().VisitSubblocksMax <= 0 {
		t.Fatal("defaults not applied")
	}
}

func TestFootprintWithinBudget(t *testing.T) {
	// All 16 cores running the largest benchmark must fit in NM+FM
	// (640 MB) with headroom, or simulations would die of OOM frames.
	for _, n := range Names {
		p, _ := Spec(n)
		total := uint64(p.FootprintPages) * memunits.BlockSize * 16
		if total > 600<<20 {
			t.Errorf("%s: 16-core footprint %d MB exceeds budget", n, total>>20)
		}
	}
}

func BenchmarkGeneratorNext(b *testing.B) {
	g, _ := New("mcf", 1)
	var r Ref
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.Next(&r)
	}
}

func TestCharacterize(t *testing.T) {
	g, _ := New("xalanc", 1)
	p := Characterize(g, 100_000)
	if p.Refs != 100_000 {
		t.Fatalf("Refs = %d", p.Refs)
	}
	if p.Pages == 0 || p.Subblocks < p.Pages {
		t.Fatalf("footprint: %d pages, %d subblocks", p.Pages, p.Subblocks)
	}
	if p.SubblocksPerPage < 1 || p.SubblocksPerPage > 32 {
		t.Fatalf("SubblocksPerPage = %f", p.SubblocksPerPage)
	}
	if p.WriteFrac <= 0 || p.WriteFrac >= 1 {
		t.Fatalf("WriteFrac = %f", p.WriteFrac)
	}
	if p.MeanGap < 1 {
		t.Fatalf("MeanGap = %f", p.MeanGap)
	}
	if p.FootprintBytes() != uint64(p.Pages)*2048 {
		t.Fatal("FootprintBytes")
	}
	// Skew ordering: xalanc is far more concentrated than gcc.
	gc, _ := New("gcc", 1)
	pg := Characterize(gc, 100_000)
	if p.Top64Share < 2*pg.Top64Share {
		t.Fatalf("xalanc top-64 %f !>> gcc %f", p.Top64Share, pg.Top64Share)
	}
}
