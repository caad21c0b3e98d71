package cpu

import (
	"testing"

	"silcfm/internal/config"
	"silcfm/internal/mem"
	"silcfm/internal/schemes/flat"
	"silcfm/internal/sim"
	"silcfm/internal/workload"
)

// fixedGen replays a fixed list of refs, looping.
type fixedGen struct {
	refs []workload.Ref
	pos  int
}

func (g *fixedGen) Name() string           { return "fixed" }
func (g *fixedGen) FootprintBytes() uint64 { return 1 << 20 }
func (g *fixedGen) Next(r *workload.Ref) {
	*r = g.refs[g.pos%len(g.refs)]
	g.pos++
}

func ident(core int, va uint64) uint64 { return va }

// sameTargets gives each of n cores the same instruction target.
func sameTargets(n int, target uint64) []uint64 {
	targets := make([]uint64, n)
	for i := range targets {
		targets[i] = target
	}
	return targets
}

func newComplex(t *testing.T, gens []workload.Generator, target uint64) (*sim.Engine, *Complex, *mem.System) {
	t.Helper()
	m := config.Small()
	m.Cores = len(gens)
	eng := sim.NewEngine()
	sys := mem.NewSystem(m, eng)
	ctl := flat.NewStatic(sys)
	cx := NewComplexTargets(m, eng, gens, ident, ctl, sameTargets(len(gens), target))
	return eng, cx, sys
}

func TestCoreRetiresTarget(t *testing.T) {
	g := &fixedGen{refs: []workload.Ref{{PC: 1, VAddr: 0, Gap: 10}}}
	eng, cx, _ := newComplex(t, []workload.Generator{g}, 1000)
	cx.Start()
	eng.Run()
	if !cx.AllDone() {
		t.Fatal("core never finished")
	}
	c := cx.Cores[0]
	if c.Stats.Instructions < 1000 {
		t.Fatalf("retired %d < target", c.Stats.Instructions)
	}
	if cx.ExecutionCycles() == 0 {
		t.Fatal("no execution time recorded")
	}
}

func TestCacheHitsAreFast(t *testing.T) {
	// A single hot line: everything after the first access is an L1 hit,
	// so execution time ~ instructions / width.
	g := &fixedGen{refs: []workload.Ref{{PC: 1, VAddr: 64, Gap: 4}}}
	eng, cx, _ := newComplex(t, []workload.Generator{g}, 40_000)
	cx.Start()
	eng.Run()
	c := cx.Cores[0]
	if c.Stats.L1Hits == 0 {
		t.Fatal("no L1 hits")
	}
	if c.Stats.LLCMisses > 2 {
		t.Fatalf("LLC misses = %d for a one-line workload", c.Stats.LLCMisses)
	}
	// 40000 instr / 4-wide = 10000 cycles, plus one miss latency.
	if got := cx.ExecutionCycles(); got > 11_000 {
		t.Fatalf("hit-dominated run took %d cycles, want ~10000", got)
	}
}

func TestMissBoundSlowdown(t *testing.T) {
	// Striding through memory misses every access; execution time is
	// dominated by memory latency, far beyond instructions/width.
	refs := make([]workload.Ref, 4096)
	for i := range refs {
		refs[i] = workload.Ref{PC: 2, VAddr: uint64(i) * 4096, Gap: 4}
	}
	g := &fixedGen{refs: refs}
	eng, cx, _ := newComplex(t, []workload.Generator{g}, 16384)
	cx.Start()
	eng.Run()
	c := cx.Cores[0]
	if c.Stats.LLCMisses < 3000 {
		t.Fatalf("LLC misses = %d, want ~4096", c.Stats.LLCMisses)
	}
	if got, min := cx.ExecutionCycles(), uint64(16384/4*2); got < min {
		t.Fatalf("miss-bound run took %d cycles, want > %d", got, min)
	}
}

func TestMLPOverlapsMisses(t *testing.T) {
	// With 16 MSHRs and gap 4 (ROB covers 128/4 = 32 misses), misses
	// overlap: total time must be far less than misses x latency.
	refs := make([]workload.Ref, 8192)
	for i := range refs {
		refs[i] = workload.Ref{PC: 3, VAddr: uint64(i) * 4096, Gap: 4}
	}
	g := &fixedGen{refs: refs}
	eng, cx, _ := newComplex(t, []workload.Generator{g}, 32768)
	cx.Start()
	eng.Run()
	c := cx.Cores[0]
	serial := c.Stats.LLCMisses * 100 // ~100 cycles unloaded FM latency
	if got := cx.ExecutionCycles(); got*2 >= serial {
		t.Fatalf("no MLP: %d cycles vs serial estimate %d", got, serial)
	}
}

func TestROBLimitsRunahead(t *testing.T) {
	// With a huge gap (one miss per 256 instructions > ROB 128), the core
	// cannot overlap misses: time ~ misses x latency.
	refs := make([]workload.Ref, 4096)
	for i := range refs {
		refs[i] = workload.Ref{PC: 4, VAddr: uint64(i) * 4096, Gap: 256}
	}
	g := &fixedGen{refs: refs}
	eng, cx, _ := newComplex(t, []workload.Generator{g}, 256*256)
	cx.Start()
	eng.Run()
	c := cx.Cores[0]
	if c.Stats.LLCMisses < 250 {
		t.Fatalf("misses = %d", c.Stats.LLCMisses)
	}
	perMiss := float64(cx.ExecutionCycles()) / float64(c.Stats.LLCMisses)
	if perMiss < 60 {
		t.Fatalf("%.1f cycles/miss: ROB failed to serialize distant misses", perMiss)
	}
	if c.Stats.StallCycles == 0 {
		t.Fatal("no stall cycles recorded")
	}
}

func TestRateModeMultiCore(t *testing.T) {
	var gens []workload.Generator
	for i := 0; i < 4; i++ {
		g, _ := workload.New("gcc", int64(i+1))
		gens = append(gens, g)
	}
	eng, cx, sys := newComplex(t, gens, 50_000)
	cx.Start()
	eng.Run()
	if !cx.AllDone() {
		t.Fatal("not all cores finished")
	}
	for i, c := range cx.Cores {
		if c.Stats.Instructions < 50_000 {
			t.Fatalf("core %d retired %d", i, c.Stats.Instructions)
		}
	}
	if sys.Stats.LLCMisses == 0 {
		t.Fatal("no memory traffic")
	}
	// Shared-LLC contention: 4 cores take longer than 1 core would per
	// instruction, but all finish.
	if cx.ExecutionCycles() == 0 {
		t.Fatal("zero execution time")
	}
}

func TestDeterministicExecution(t *testing.T) {
	run := func() uint64 {
		g, _ := workload.New("mcf", 9)
		eng, cx, _ := newComplex(t, []workload.Generator{g}, 100_000)
		cx.Start()
		eng.Run()
		return cx.ExecutionCycles()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("nondeterministic execution: %d vs %d", a, b)
	}
}

func TestWritebacksFlowToMemory(t *testing.T) {
	// Dirty lines streaming through the hierarchy must generate memory
	// writes when evicted.
	refs := make([]workload.Ref, 65536)
	for i := range refs {
		refs[i] = workload.Ref{PC: 5, VAddr: uint64(i) * 64, Gap: 4, Write: true}
	}
	g := &fixedGen{refs: refs}
	eng, cx, sys := newComplex(t, []workload.Generator{g}, 300_000)
	cx.Start()
	eng.Run()
	if sys.FM.Stats().Writes+sys.NM.Stats().Writes == 0 {
		t.Fatal("no writebacks reached memory")
	}
	_ = cx
}

// delayCtl completes every access a fixed delay after Handle, from its own
// engine event, and checks that the clock has not moved when the access's
// completion callback returns — the position of a DRAM channel re-kick,
// which runs after the completion and reads the clock.
type delayCtl struct {
	t       *testing.T
	eng     *sim.Engine
	delay   sim.Cycle
	handled int
}

func (d *delayCtl) Name() string                  { return "delay" }
func (d *delayCtl) Locate(pa uint64) mem.Location { return mem.Location{DevAddr: pa} }
func (d *delayCtl) Handle(a *mem.Access) {
	d.handled++
	done := a.Done
	d.eng.After(d.delay, func() {
		at := d.eng.Now()
		done()
		if now := d.eng.Now(); now != at {
			d.t.Fatalf("completion callback moved the clock %d -> %d", at, now)
		}
	})
}

// TestNestedResumeKeepsClock pins that a core resumed inside a miss
// completion schedules its next step instead of advancing the clock
// itself. Misses 200 instructions apart stall the 128-entry ROB, so every
// completion resumes the core nested; the L1 hit that follows each miss
// then puts the core's clock ahead of the engine.
func TestNestedResumeKeepsClock(t *testing.T) {
	refs := make([]workload.Ref, 1024)
	for i := range refs {
		va := uint64(i/2) * 4096
		refs[i] = workload.Ref{PC: 1, VAddr: va, Gap: 8}
		if i%2 == 0 {
			refs[i].Gap = 192
		}
	}
	m := config.Small()
	m.Cores = 1
	eng := sim.NewEngine()
	ctl := &delayCtl{t: t, eng: eng, delay: 300}
	cx := NewComplexTargets(m, eng, []workload.Generator{&fixedGen{refs: refs}}, ident, ctl, []uint64{50_000})
	cx.Start()
	eng.Run()
	if !cx.AllDone() || ctl.handled == 0 {
		t.Fatalf("done=%v after %d misses", cx.AllDone(), ctl.handled)
	}
}

// TestHugeGapAdvancesClock: a reference with the largest gap a trace can
// carry advances the core's clock by ceil(gap/IssueWidth), with no 32-bit
// wrap in the rounding.
func TestHugeGapAdvancesClock(t *testing.T) {
	const gap = 1<<32 - 1
	g := &fixedGen{refs: []workload.Ref{{PC: 1, VAddr: 64, Gap: gap}}}
	eng, cx, _ := newComplex(t, []workload.Generator{g}, 1)
	cx.Start()
	eng.Run()
	w := uint64(config.Small().Core.IssueWidth)
	if got, want := cx.Cores[0].Stats.FinishCycle, (gap+w-1)/w; got != want {
		t.Fatalf("FinishCycle = %d after one gap-%d reference, want %d", got, gap, want)
	}
}
