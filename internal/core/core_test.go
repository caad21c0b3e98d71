package core

import (
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"

	"silcfm/internal/config"
	"silcfm/internal/mem"
	"silcfm/internal/memunits"
	"silcfm/internal/sim"
	"silcfm/internal/stats"
)

// testRig builds a small SILC-FM instance: NM 256KB (128 frames), FM 1MB
// (512 blocks); with 4 ways that is 32 sets.
type testRig struct {
	eng *sim.Engine
	sys *mem.System
	c   *Controller
}

func newRig(mut func(*config.SILCConfig)) *testRig {
	m := config.Small()
	m.NM = config.HBM(256 << 10)
	m.FM = config.DDR3(1 << 20)
	cfg := config.DefaultSILC()
	cfg.AgingInterval = 0 // no aging unless a test enables it
	cfg.HistoryEntries = 256
	if mut != nil {
		mut(&cfg)
	}
	eng := sim.NewEngine()
	sys := mem.NewSystem(m, eng)
	return &testRig{eng: eng, sys: sys, c: New(sys, cfg)}
}

// access issues one access and drains the engine.
func (r *testRig) access(pc, pa uint64, write bool) {
	r.c.Handle(&mem.Access{PC: pc, PAddr: pa, Write: write})
	r.eng.Run()
}

// age runs one aging pass now and replays its unlocks.
func (r *testRig) age() {
	p := r.c.place
	p.moves = p.moves[:0]
	p.age()
	r.c.replay(nil, false, p.moves)
}

// nmBlocks in the rig.
const rigNMBlocks = (256 << 10) / memunits.BlockSize // 128

// fmBlockAddr returns the flat address of FM block i (0-based among FM
// blocks), subblock idx.
func fmBlockAddr(i int, idx uint) uint64 {
	return uint64(rigNMBlocks+uint64(i))*memunits.BlockSize + uint64(idx)*64
}

func TestTableIRow1And2_RemapMatch(t *testing.T) {
	r := newRig(nil)
	b := fmBlockAddr(0, 3)

	// First touch: no remap anywhere -> serviced from FM, interleaving
	// starts, subblock 3 swaps in.
	r.access(100, b, false)
	if r.sys.Stats.ServicedFM != 1 {
		t.Fatalf("first touch ServicedFM = %d", r.sys.Stats.ServicedFM)
	}
	if loc := r.c.Locate(b); loc.Level != stats.NM {
		t.Fatalf("subblock not swapped in: %+v", loc)
	}

	// Row 1: remap match, bit set -> service from NM.
	r.access(100, b, false)
	if r.sys.Stats.ServicedNM != 1 {
		t.Fatalf("row 1: ServicedNM = %d, want 1", r.sys.Stats.ServicedNM)
	}

	// Row 2: remap match, bit clear -> swap subblock from FM.
	b7 := fmBlockAddr(0, 7)
	pre := r.sys.Stats.SwapsIn
	r.access(100, b7, false)
	if r.sys.Stats.ServicedFM != 2 {
		t.Fatalf("row 2: ServicedFM = %d, want 2", r.sys.Stats.ServicedFM)
	}
	if r.sys.Stats.SwapsIn != pre+1 {
		t.Fatalf("row 2: SwapsIn = %d, want +1", r.sys.Stats.SwapsIn)
	}
	if loc := r.c.Locate(b7); loc.Level != stats.NM {
		t.Fatalf("row 2: subblock not resident after swap: %+v", loc)
	}
}

func TestTableIRow3And4_NMAddress(t *testing.T) {
	r := newRig(nil)
	// Interleave FM block 0 (set 0) into frame 0: subblock 3 swaps in, so
	// home block 0's subblock 3 moves to FM.
	fm := fmBlockAddr(0, 3)
	r.access(100, fm, false)

	homeSub3 := uint64(3 * 64) // NM block 0, subblock 3
	if loc := r.c.Locate(homeSub3); loc.Level != stats.FM {
		t.Fatalf("home subblock not swapped out: %+v", loc)
	}

	// Row 4: NM address, bit clear for that subblock -> service from NM.
	homeSub5 := uint64(5 * 64)
	r.access(100, homeSub5, false)
	if r.sys.Stats.ServicedNM != 1 {
		t.Fatalf("row 4: ServicedNM = %d", r.sys.Stats.ServicedNM)
	}

	// Row 3: NM address, bit set -> swap subblock back from FM.
	preOut := r.sys.Stats.SwapsOut
	r.access(100, homeSub3, false)
	if r.sys.Stats.SwapsOut != preOut+1 {
		t.Fatalf("row 3: SwapsOut = %d, want +1", r.sys.Stats.SwapsOut)
	}
	if loc := r.c.Locate(homeSub3); loc.Level != stats.NM {
		t.Fatalf("row 3: home subblock not restored: %+v", loc)
	}
	// And the FM block's subblock 3 went home.
	if loc := r.c.Locate(fm); loc.Level != stats.FM {
		t.Fatalf("row 3: interleaved subblock not returned: %+v", loc)
	}
}

func TestTableIRow5And6_RestoreOnVictim(t *testing.T) {
	r := newRig(func(c *config.SILCConfig) { c.Features.Ways = 1; c.Features.BitVecHistory = false })
	// With 128 sets (direct-mapped), FM blocks i and i+128 share set i.
	a := fmBlockAddr(0, 1)
	b := fmBlockAddr(128, 2)
	r.access(100, a, false)
	if loc := r.c.Locate(a); loc.Level != stats.NM {
		t.Fatal("block A not interleaved")
	}
	// Request to B maps to the same frame with a mismatching remap ->
	// restore A, then interleave B.
	r.access(101, b, false)
	if r.c.place.restores != 1 {
		t.Fatalf("Restores = %d, want 1", r.c.place.restores)
	}
	if loc := r.c.Locate(a); loc.Level != stats.FM {
		t.Fatalf("A not fully restored: %+v", loc)
	}
	if loc := r.c.Locate(b); loc.Level != stats.NM {
		t.Fatalf("B not interleaved after restore: %+v", loc)
	}
}

func TestAssociativityAvoidsRestore(t *testing.T) {
	r := newRig(nil) // 4 ways, 32 sets
	// Four FM blocks in the same set (stride 32 blocks) can coexist.
	for k := 0; k < 4; k++ {
		r.access(uint64(100+k), fmBlockAddr(k*32, 0), false)
	}
	if r.c.place.restores != 0 {
		t.Fatalf("restores with free ways: %d", r.c.place.restores)
	}
	for k := 0; k < 4; k++ {
		if loc := r.c.Locate(fmBlockAddr(k*32, 0)); loc.Level != stats.NM {
			t.Fatalf("block %d not resident", k)
		}
	}
	// A fifth block forces an LRU restore.
	r.access(200, fmBlockAddr(4*32, 0), false)
	if r.c.place.restores != 1 {
		t.Fatalf("fifth block: Restores = %d, want 1", r.c.place.restores)
	}
	// LRU: block 0 (oldest untouched) must be the one evicted.
	if loc := r.c.Locate(fmBlockAddr(0, 0)); loc.Level != stats.FM {
		t.Fatal("LRU victim was not block 0")
	}
	if loc := r.c.Locate(fmBlockAddr(32, 0)); loc.Level != stats.NM {
		t.Fatal("non-LRU block was evicted")
	}
}

func TestLockingPinsHotBlock(t *testing.T) {
	r := newRig(func(c *config.SILCConfig) {
		c.HotThreshold = 4
		c.Features.Ways = 1
	})
	hot := fmBlockAddr(0, 0)
	for i := 0; i < 5; i++ {
		r.access(100, hot, false)
	}
	if r.c.place.fs.recount().locked != 1 {
		t.Fatalf("locked frames = %d, want 1", r.c.place.fs.recount().locked)
	}
	if r.sys.Stats.Locks != 1 {
		t.Fatalf("Locks = %d", r.sys.Stats.Locks)
	}
	// All 32 subblocks of the locked block are now in NM.
	for idx := uint(0); idx < 32; idx++ {
		if loc := r.c.Locate(fmBlockAddr(0, idx)); loc.Level != stats.NM {
			t.Fatalf("locked block subblock %d not resident", idx)
		}
	}
	// A conflicting block cannot displace it (all ways locked).
	conflict := fmBlockAddr(128, 0)
	pre := r.c.place.restores
	r.access(200, conflict, false)
	if r.c.place.restores != pre {
		t.Fatal("locked frame was restored")
	}
	if loc := r.c.Locate(hot); loc.Level != stats.NM {
		t.Fatal("locked block displaced")
	}
	if loc := r.c.Locate(conflict); loc.Level != stats.FM {
		t.Fatal("conflicting block interleaved into a locked frame")
	}
}

func TestUnlockAfterAging(t *testing.T) {
	r := newRig(func(c *config.SILCConfig) {
		c.HotThreshold = 4
		c.AgingInterval = 16
		c.Features.Ways = 1
	})
	hot := fmBlockAddr(0, 0)
	for i := 0; i < 6; i++ {
		r.access(100, hot, false)
	}
	if r.c.place.fs.recount().locked != 1 {
		t.Fatal("not locked")
	}
	// Advance the aging clock with cold traffic spread over many other
	// sets, so no new block crosses the threshold.
	for i := 0; i < 100; i++ {
		r.access(300, fmBlockAddr(1+i%32, 0), false)
	}
	if r.c.place.fs.recount().locked != 0 {
		t.Fatalf("lock survived aging: counters should have decayed below threshold")
	}
	if r.sys.Stats.Unlocks != 1 {
		t.Fatalf("Unlocks = %d", r.sys.Stats.Unlocks)
	}
	// After unlocking, the block keeps all subblocks resident.
	if loc := r.c.Locate(hot); loc.Level != stats.NM {
		t.Fatal("unlocked block lost residency")
	}
}

func TestLockHomeProtectsNMBlock(t *testing.T) {
	r := newRig(func(c *config.SILCConfig) {
		c.HotThreshold = 4
		c.Features.Ways = 1
	})
	home := uint64(0) // NM block 0, subblock 0
	for i := 0; i < 5; i++ {
		r.access(100, home, false)
	}
	if r.c.place.fs.recount().locked != 1 {
		t.Fatal("hot home block not locked")
	}
	// FM block in the same set cannot interleave now.
	fm := fmBlockAddr(0, 3)
	r.access(200, fm, false)
	if loc := r.c.Locate(fm); loc.Level != stats.NM {
		// good: it stayed in FM
	} else {
		t.Fatal("interleaving into a home-locked frame")
	}
}

func TestBitVectorHistoryReplay(t *testing.T) {
	r := newRig(func(c *config.SILCConfig) { c.Features.Ways = 1 })
	pc := uint64(0xBEEF)
	first := fmBlockAddr(0, 4)
	// Build up residency {4, 9, 20} for block 0.
	r.access(pc, first, false)
	r.access(pc, fmBlockAddr(0, 9), false)
	r.access(pc, fmBlockAddr(0, 20), false)
	// Evict block 0 by touching the conflicting block 128.
	r.access(500, fmBlockAddr(128, 0), false)
	if r.c.place.restores != 1 {
		t.Fatal("expected eviction")
	}
	if r.c.place.hist.stores != 1 {
		t.Fatalf("history stores = %d", r.c.place.hist.stores)
	}
	// Re-access block 0 with the same PC and first address: the history
	// vector brings 9 and 20 along immediately.
	pre := r.c.place.historyPrefetches
	r.access(pc, first, false)
	if r.c.place.historyPrefetches != pre+2 {
		t.Fatalf("HistoryPrefetches = %d, want +2", r.c.place.historyPrefetches)
	}
	for _, idx := range []uint{4, 9, 20} {
		if loc := r.c.Locate(fmBlockAddr(0, idx)); loc.Level != stats.NM {
			t.Fatalf("history subblock %d not resident", idx)
		}
	}
	if loc := r.c.Locate(fmBlockAddr(0, 5)); loc.Level != stats.FM {
		t.Fatal("never-used subblock was fetched")
	}
}

func TestHistoryDisabledFetchesOnlyDemand(t *testing.T) {
	r := newRig(func(c *config.SILCConfig) {
		c.Features.Ways = 1
		c.Features.BitVecHistory = false
	})
	pc := uint64(0xBEEF)
	first := fmBlockAddr(0, 4)
	r.access(pc, first, false)
	r.access(pc, fmBlockAddr(0, 9), false)
	r.access(500, fmBlockAddr(128, 0), false)
	r.access(pc, first, false)
	if r.c.place.historyPrefetches != 0 {
		t.Fatal("history replay ran while disabled")
	}
	if loc := r.c.Locate(fmBlockAddr(0, 9)); loc.Level != stats.FM {
		t.Fatal("subblock 9 fetched without history")
	}
}

func TestBypassStopsSwaps(t *testing.T) {
	r := newRig(func(c *config.SILCConfig) { c.Features.Ways = 1 })
	r.c.place.gov.window = 64
	// Drive the access rate to ~1.0 with a resident hot subblock.
	hot := fmBlockAddr(0, 0)
	r.access(1, hot, false)
	for i := 0; i < 200; i++ {
		r.access(1, hot, false)
	}
	if !r.c.place.gov.bypassing() {
		t.Fatalf("governor not bypassing at access rate %.2f", r.sys.Stats.AccessRate())
	}
	// A new FM block is serviced from FM without interleaving.
	other := fmBlockAddr(5, 0)
	preSwaps := r.sys.Stats.SwapsIn
	r.access(2, other, false)
	if loc := r.c.Locate(other); loc.Level != stats.NM {
		// stayed in FM as expected
	} else {
		t.Fatal("swap occurred under bypass")
	}
	if r.sys.Stats.SwapsIn != preSwaps {
		t.Fatal("SwapsIn grew under bypass")
	}
	if r.sys.Stats.BypassedAccesses == 0 {
		t.Fatal("bypassed accesses not counted")
	}
	// Resident data still serves from NM under bypass.
	pre := r.sys.Stats.ServicedNM
	r.access(1, hot, false)
	if r.sys.Stats.ServicedNM != pre+1 {
		t.Fatal("resident subblock not NM-serviced under bypass")
	}
}

func TestBypassDisabledFeature(t *testing.T) {
	r := newRig(func(c *config.SILCConfig) { c.Features.Bypass = false })
	r.c.place.gov.window = 64
	hot := fmBlockAddr(0, 0)
	for i := 0; i < 200; i++ {
		r.access(1, hot, false)
	}
	if r.c.place.gov.bypassing() {
		t.Fatal("bypass active with feature disabled")
	}
}

func TestPredictorAccuracyCounted(t *testing.T) {
	r := newRig(nil)
	a := fmBlockAddr(0, 0)
	r.access(7, a, false) // cold predictor: miss
	for i := 0; i < 10; i++ {
		r.access(7, a, false) // stable: hits
	}
	if r.sys.Stats.PredictorHits < 9 {
		t.Fatalf("PredictorHits = %d", r.sys.Stats.PredictorHits)
	}
	if r.sys.Stats.PredictorMisses < 1 {
		t.Fatalf("PredictorMisses = %d", r.sys.Stats.PredictorMisses)
	}
}

func TestPredictorLatencyBenefit(t *testing.T) {
	// A predicted access must complete no later than a mispredicted one.
	lat := func(train bool) sim.Cycle {
		r := newRig(nil)
		a := fmBlockAddr(3, 0)
		if train {
			r.access(7, a, false)
			r.access(7, a, false)
		}
		start := r.eng.Now()
		var done sim.Cycle
		r.c.Handle(&mem.Access{PC: 7, PAddr: a, Done: func() { done = r.eng.Now() }})
		r.eng.Run()
		return done - start
	}
	trained, cold := lat(true), lat(false)
	if trained >= cold {
		t.Fatalf("trained latency %d !< cold latency %d", trained, cold)
	}
}

func TestWritePath(t *testing.T) {
	r := newRig(nil)
	a := fmBlockAddr(0, 0)
	done := false
	r.c.Handle(&mem.Access{PC: 1, PAddr: a, Write: true, Done: func() { done = true }})
	r.eng.Run()
	if !done {
		t.Fatal("write not acknowledged")
	}
	if loc := r.c.Locate(a); loc.Level != stats.NM {
		t.Fatal("written subblock not installed in NM")
	}
}

// The big one: any access sequence leaves the flat address space a
// bijection onto device locations, and remap entries stay unique per set.
func TestAuditAfterRandomOps(t *testing.T) {
	f := func(seed int64) bool {
		r := newRig(func(c *config.SILCConfig) {
			c.HotThreshold = 6
			c.AgingInterval = 512
		})
		r.c.place.gov.window = 128
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 4000; i++ {
			pa := uint64(rng.Intn((256 << 10) + (1 << 20)))
			r.c.Handle(&mem.Access{
				PC:    uint64(rng.Intn(64)),
				PAddr: pa,
				Write: rng.Intn(4) == 0,
			})
			if i%256 == 0 {
				r.eng.Run()
			}
		}
		r.eng.Run()
		if err := mem.Audit(r.c, r.sys.NMCap, r.sys.FMCap); err != nil {
			t.Logf("audit: %v", err)
			return false
		}
		// No FM block may be remapped into two frames.
		seen := map[uint64]bool{}
		for i := range r.c.place.fs.frames {
			fr := &r.c.place.fs.frames[i]
			if !fr.interleaved() {
				continue
			}
			rm := fr.block()
			if seen[rm] {
				t.Logf("block %d remapped twice", rm)
				return false
			}
			seen[rm] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Fatal(err)
	}
}

func TestDirectMappedVsAssociativeConflicts(t *testing.T) {
	// Two hot FM blocks in the same congruence set: direct-mapped SILC-FM
	// thrashes (restores), 4-way does not. This is the Figure 6
	// associativity story.
	run := func(ways int) uint64 {
		r := newRig(func(c *config.SILCConfig) {
			c.Features.Ways = ways
			c.Features.Locking = false
		})
		// Set count differs with ways; use blocks 0 and k*sets so they
		// collide in both geometries: with 128 frames, ways=1 -> 128 sets,
		// ways=4 -> 32 sets. Blocks 0 and 128 collide in both.
		for i := 0; i < 50; i++ {
			r.access(1, fmBlockAddr(0, uint(i%4)), false)
			r.access(2, fmBlockAddr(128, uint(i%4)), false)
		}
		return r.c.place.restores
	}
	dm, assoc := run(1), run(4)
	if assoc != 0 {
		t.Fatalf("4-way restores = %d, want 0", assoc)
	}
	if dm < 50 {
		t.Fatalf("direct-mapped restores = %d, want heavy thrashing", dm)
	}
}

func TestMetadataTrafficCharged(t *testing.T) {
	r := newRig(nil)
	r.access(1, fmBlockAddr(0, 0), false)
	if r.sys.Stats.Bytes[stats.NM][stats.Metadata] == 0 {
		t.Fatal("no metadata bytes charged")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (uint64, uint64, float64) {
		r := newRig(func(c *config.SILCConfig) { c.AgingInterval = 256 })
		rng := rand.New(rand.NewSource(42))
		for i := 0; i < 3000; i++ {
			r.c.Handle(&mem.Access{
				PC:    uint64(rng.Intn(32)),
				PAddr: uint64(rng.Intn((256 << 10) + (1 << 20))),
			})
			if i%128 == 0 {
				r.eng.Run()
			}
		}
		r.eng.Run()
		return r.eng.Now(), r.sys.Stats.SwapsIn, r.sys.Stats.AccessRate()
	}
	t1, s1, a1 := run()
	t2, s2, a2 := run()
	if t1 != t2 || s1 != s2 || a1 != a2 {
		t.Fatalf("nondeterministic: (%d,%d,%f) vs (%d,%d,%f)", t1, s1, a1, t2, s2, a2)
	}
}

func BenchmarkSILCHandle(b *testing.B) {
	r := newRig(nil)
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.c.Handle(&mem.Access{
			PC:    uint64(rng.Intn(64)),
			PAddr: uint64(rng.Intn((256 << 10) + (1 << 20))),
		})
		if i%1024 == 0 {
			r.eng.Run()
		}
	}
	r.eng.Run()
}

// TestMetaBacklogAllocatesOnlyPages pins the metadata channel's cost per
// queued request. Queueing a read and a write-back for every set of a
// 64 MiB near memory (16,384 requests, a backlog as deep as the one mcf
// builds) allocates only the device's queue and arena pages, never a
// per-request completion object; once that backlog has drained, building
// it again allocates nothing.
func TestMetaBacklogAllocatesOnlyPages(t *testing.T) {
	m := config.Small()
	m.NM = config.HBM(64 << 20)
	m.FM = config.DDR3(256 << 20)
	eng := sim.NewEngine()
	c := New(mem.NewSystem(m, eng), config.DefaultSILC())
	sets := c.place.fs.sets
	fill := func() {
		for s := uint64(0); s < sets; s++ {
			c.readMeta(s, metaEntrySize)
			c.writeMetaUpdate(s)
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fill()
	runtime.ReadMemStats(&after)
	n := 2 * sets
	if depth := uint64(c.meta.QueueDepth()); depth+64 < n {
		t.Fatalf("backlog of %d requests, want about %d", depth, n)
	}
	pages := n/64 + n/memunits.SlabPageLen
	if allocs := after.Mallocs - before.Mallocs; allocs > pages+64 {
		t.Fatalf("queueing %d metadata requests allocated %d objects, want at most %d pages and a few directories",
			n, allocs, pages)
	}
	eng.Run()
	if avg := testing.AllocsPerRun(3, func() { fill(); eng.Run() }); avg != 0 {
		t.Fatalf("refilling a drained backlog allocates %.1f objects, want 0", avg)
	}
}
