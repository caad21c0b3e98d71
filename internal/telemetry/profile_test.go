package telemetry_test

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"silcfm/internal/config"
	"silcfm/internal/cpu"
	"silcfm/internal/harness"
	"silcfm/internal/mem"
	"silcfm/internal/sim"
	"silcfm/internal/telemetry"
	"silcfm/internal/vm"
	"silcfm/internal/workload"
)

// requireSameProfile requires WriteJSONL to produce exactly the bytes of
// the encoding/json reference encoder.
func requireSameProfile(t *testing.T, p *telemetry.Profiler) {
	t.Helper()
	var got, want bytes.Buffer
	if err := p.WriteJSONL(&got); err != nil {
		t.Fatal(err)
	}
	if err := p.WriteJSONLReference(&want); err != nil {
		t.Fatal(err)
	}
	if g, w := got.Bytes(), want.Bytes(); !bytes.Equal(g, w) {
		i := 0
		for i < len(g) && i < len(w) && g[i] == w[i] {
			i++
		}
		lo := max(i-80, 0)
		t.Fatalf("profile bytes differ at offset %d:\ngot  %q\nwant %q", i, g[lo:min(i+80, len(g))], w[lo:min(i+80, len(w))])
	}
}

// TestProfileWriteMatchesReferenceOnOverflowingRun profiles a small
// SILC-FM run into tables far smaller than its block set, so the kept
// blocks, their swap, lock and bypass counters and the drop counts all come
// from a real access stream.
func TestProfileWriteMatchesReferenceOnOverflowingRun(t *testing.T) {
	m := config.Small()
	m.Scheme = config.SchemeSILCFM
	eng := sim.NewEngine()
	sys := mem.NewSystem(m, eng)
	ctl, err := harness.NewController(m, sys)
	if err != nil {
		t.Fatal(err)
	}
	params, _ := workload.Spec("mcf")
	params = workload.ScaleFootprint(params, 1, 16)
	gens := make([]workload.Generator, m.Cores)
	targets := make([]uint64, m.Cores)
	for i := range gens {
		gens[i] = workload.NewSynthetic(params, m.Seed+int64(i)*7919)
		targets[i] = 30_000
	}
	space := vm.NewAddressSpace(m.NM.Capacity, m.FM.Capacity, vm.PolicyInterleaved, m.Seed)
	xlate := func(c int, va uint64) uint64 { return space.MustTranslate(vm.CoreVA(c, va)) }
	const limit = 512
	p := telemetry.NewProfiler(sys, limit)
	sys.AttachObserver(p)
	cx := cpu.NewComplexTargets(m, eng, gens, xlate, ctl, targets)
	cx.Start()
	eng.RunWhile(func() bool { return !cx.AllDone() })

	blocks, _, droppedBlocks, _ := p.Counts()
	if blocks != limit || droppedBlocks == 0 {
		t.Fatalf("block table did not overflow: %d blocks kept, %d dropped", blocks, droppedBlocks)
	}
	requireSameProfile(t, p)
}

// TestProfileWriteMatchesReferenceAtEdges covers what a run rarely
// produces: empty tables, keys 0 and MaxUint64, counters at MaxUint64 and
// drops in both tables.
func TestProfileWriteMatchesReferenceAtEdges(t *testing.T) {
	sys := mem.NewSystem(config.Small(), sim.NewEngine())
	t.Run("empty", func(t *testing.T) {
		requireSameProfile(t, telemetry.NewProfiler(sys, 4))
	})
	t.Run("extremes", func(t *testing.T) {
		p := telemetry.NewProfiler(sys, 4)
		const top = math.MaxUint64
		for _, key := range []uint64{top, 0, 1 << 40} {
			b, c := p.ProfileEntries(key, key)
			*b = telemetry.BlockProfile{Demands: top, Writes: top, LatSum: top, SwapsIn: top,
				SwapsOut: top, Locks: top, Unlocks: top, Bypass: top, Mispred: top}
			*c = telemetry.PCProfile{Demands: top, Writes: top, LatSum: top, Swaps: top,
				Bypass: top, Mispred: top}
		}
		b, c := p.ProfileEntries(7, 9) // a fourth key, counters zero
		b.Locks, c.Swaps = 1, 10
		for key := uint64(100); key < 103; key++ {
			if b, c := p.ProfileEntries(key, key); b != nil || c != nil {
				t.Fatalf("key %d was admitted into full tables", key)
			}
		}
		if _, _, db, dp := p.Counts(); db != 3 || dp != 3 {
			t.Fatalf("dropped %d blocks and %d PCs, want 3 each", db, dp)
		}
		requireSameProfile(t, p)
	})
	t.Run("random keys", func(t *testing.T) { // every key byte varies
		p := telemetry.NewProfiler(sys, 3000)
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < 3000; i++ {
			b, c := p.ProfileEntries(rng.Uint64(), rng.Uint64()>>uint(rng.Intn(64)))
			b.Demands, c.Demands = uint64(i), uint64(i)
		}
		requireSameProfile(t, p)
	})
}
