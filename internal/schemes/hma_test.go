package schemes

import (
	"math/rand"
	"sort"
	"testing"

	"silcfm/internal/config"
	"silcfm/internal/mem"
	"silcfm/internal/memunits"
	"silcfm/internal/sim"
	"silcfm/internal/stats"
)

func newTestHMA(epoch uint64, thresh uint32) (*sim.Engine, *mem.System, *hma) {
	m := config.Small() // NM 4MB, FM 16MB
	eng := sim.NewEngine()
	sys := mem.NewSystem(m, eng)
	cfg := config.HMAConfig{
		EpochCycles:        epoch,
		HotThreshold:       thresh,
		PerPageOSOverhead:  1000,
		EpochFixedOverhead: 5000,
	}
	return eng, sys, newHMA(sys, cfg)
}

// fmAddr returns the i-th FM page's base address.
func fmPage(i int) uint64 { return 4<<20 + uint64(i)*memunits.BlockSize }

func TestNoMigrationWithinEpoch(t *testing.T) {
	eng, sys, c := newTestHMA(1<<20, 4)
	for i := 0; i < 100; i++ {
		c.Handle(&mem.Access{PAddr: fmPage(0)})
		eng.Run()
	}
	if loc := c.Locate(fmPage(0)); loc.Level != stats.NM {
		// Still FM resident: migration only at epoch boundaries.
		if sys.Stats.Migrations != 0 {
			t.Fatal("migration before epoch boundary")
		}
	} else {
		t.Fatal("page moved to NM before epoch boundary")
	}
	if sys.Stats.ServicedNM != 0 {
		t.Fatal("nothing should be NM-serviced before the first epoch")
	}
}

func TestEpochMigratesHotPages(t *testing.T) {
	eng, sys, c := newTestHMA(50000, 4)
	// Heat up pages 0..9 within the first epoch.
	for i := 0; i < 100; i++ {
		c.Handle(&mem.Access{PAddr: fmPage(i % 10)})
		eng.Run()
	}
	if eng.Now() >= 50000 {
		t.Fatal("warmup overran the first epoch; enlarge EpochCycles")
	}
	// Cross the epoch boundary and touch once to trigger the sweep.
	eng.At(60000, func() { c.Handle(&mem.Access{PAddr: fmPage(0)}) })
	eng.Run()
	for i := 0; i < 10; i++ {
		if loc := c.Locate(fmPage(i)); loc.Level != stats.NM {
			t.Fatalf("hot page %d not migrated: %+v", i, loc)
		}
	}
	if sys.Stats.Migrations != 10 {
		t.Fatalf("Migrations = %d, want 10", sys.Stats.Migrations)
	}
	if sys.Stats.OSOverheadCycles == 0 {
		t.Fatal("no OS overhead charged")
	}
	if sys.Stats.Bytes[stats.NM][stats.Migration] == 0 {
		t.Fatal("no migration bytes accounted")
	}
}

func TestColdPagesStayInFM(t *testing.T) {
	eng, _, c := newTestHMA(1000, 50)
	for i := 0; i < 200; i++ {
		c.Handle(&mem.Access{PAddr: fmPage(i)}) // each page touched once
		eng.Run()
	}
	eng.At(5000, func() { c.Handle(&mem.Access{PAddr: fmPage(0)}) })
	eng.Run()
	moved := 0
	for i := 0; i < 200; i++ {
		if c.Locate(fmPage(i)).Level == stats.NM {
			moved++
		}
	}
	if moved != 0 {
		t.Fatalf("%d below-threshold pages migrated", moved)
	}
}

func TestMigrationStallsDemand(t *testing.T) {
	eng, _, c := newTestHMA(20000, 2)
	for i := 0; i < 50; i++ {
		c.Handle(&mem.Access{PAddr: fmPage(i % 5)})
		eng.Run()
	}
	if eng.Now() >= 20000 {
		t.Fatal("warmup overran the first epoch")
	}
	// Trigger the epoch: this access pays the migration stall.
	var doneAt uint64
	eng.At(25000, func() {
		c.Handle(&mem.Access{PAddr: fmPage(100), Done: func() { doneAt = eng.Now() }})
	})
	eng.Run()
	// 5 migrations x 1000 per-page + 5000 fixed = at least 10000 cycles.
	if doneAt < 25000+10000 {
		t.Fatalf("demand at epoch completed at %d; expected stall past %d", doneAt, 25000+10000)
	}
}

func TestSwapOutColdForHot(t *testing.T) {
	// Fill NM completely, then heat a new set of pages: the next epoch
	// must swap cold residents out.
	m := config.Small()
	m.NM = config.HBM(64 << 10) // 32 frames
	m.FM = config.DDR3(256 << 10)
	eng := sim.NewEngine()
	sys := mem.NewSystem(m, eng)
	c := newHMA(sys, config.HMAConfig{EpochCycles: 1000, HotThreshold: 2, PerPageOSOverhead: 10, EpochFixedOverhead: 10})

	fmBase := uint64(64 << 10)
	page := func(i int) uint64 { return fmBase + uint64(i)*memunits.BlockSize }
	// Epoch 1: heat pages 0..31 (fills all 32 NM frames).
	for r := 0; r < 4; r++ {
		for i := 0; i < 32; i++ {
			c.Handle(&mem.Access{PAddr: page(i)})
		}
	}
	eng.Run()
	eng.At(1100, func() { c.Handle(&mem.Access{PAddr: page(0)}) })
	eng.Run()
	// Epoch 2: heat pages 40..49 much hotter than the old set.
	for r := 0; r < 8; r++ {
		for i := 40; i < 50; i++ {
			c.Handle(&mem.Access{PAddr: page(i)})
		}
	}
	eng.Run()
	eng.At(50000, func() { c.Handle(&mem.Access{PAddr: page(0)}) })
	eng.Run()
	inNM := 0
	for i := 40; i < 50; i++ {
		if c.Locate(page(i)).Level == stats.NM {
			inNM++
		}
	}
	if inNM != 10 {
		t.Fatalf("only %d/10 newly hot pages swapped into full NM", inNM)
	}
	if err := mem.Audit(c, sys.NMCap, sys.FMCap); err != nil {
		t.Fatal(err)
	}
}

func TestMigrationCapRespected(t *testing.T) {
	eng, sys, c := newTestHMA(1000, 1)
	c.maxMigrate = 5
	for i := 0; i < 50; i++ {
		c.Handle(&mem.Access{PAddr: fmPage(i)})
		c.Handle(&mem.Access{PAddr: fmPage(i)})
	}
	eng.Run()
	eng.At(2000, func() { c.Handle(&mem.Access{PAddr: fmPage(200)}) })
	eng.Run()
	if sys.Stats.Migrations != 5 {
		t.Fatalf("Migrations = %d, want cap 5", sys.Stats.Migrations)
	}
}

func TestAuditAfterRandomTraffic(t *testing.T) {
	m := config.Small()
	m.NM = config.HBM(256 << 10)
	m.FM = config.DDR3(1 << 20)
	eng := sim.NewEngine()
	sys := mem.NewSystem(m, eng)
	c := newHMA(sys, config.HMAConfig{EpochCycles: 5000, HotThreshold: 3, PerPageOSOverhead: 10, EpochFixedOverhead: 10})
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 20000; i++ {
		pa := uint64(256<<10) + uint64(rng.Intn(1<<20))&^63
		c.Handle(&mem.Access{PAddr: pa, Write: rng.Intn(4) == 0})
		if i%500 == 0 {
			eng.Run()
		}
	}
	eng.Run()
	if err := mem.Audit(c, sys.NMCap, sys.FMCap); err != nil {
		t.Fatal(err)
	}
	if sys.Stats.Migrations == 0 {
		t.Fatal("no migrations under hot traffic")
	}
}

func TestCountersResetEachEpoch(t *testing.T) {
	eng, sys, c := newTestHMA(1000, 10)
	// 6 accesses in epoch 1, 6 in epoch 2: never crosses 10 in one epoch.
	for i := 0; i < 6; i++ {
		c.Handle(&mem.Access{PAddr: fmPage(3)})
	}
	eng.Run()
	eng.At(1200, func() {
		for i := 0; i < 6; i++ {
			c.Handle(&mem.Access{PAddr: fmPage(3)})
		}
	})
	eng.Run()
	eng.At(2400, func() { c.Handle(&mem.Access{PAddr: fmPage(3)}) })
	eng.Run()
	if sys.Stats.Migrations != 0 {
		t.Fatal("stale counts accumulated across epochs")
	}
}

// TestPopFreeFrameSkipsUsedResidents: a frame still on the free list whose
// resident flat block has been demand-accessed holds live data and must not
// be handed out as a one-way migration target.
func TestPopFreeFrameSkipsUsedResidents(t *testing.T) {
	_, _, c := newTestHMA(1000, 1)
	// Touch the flat NM blocks resident in the two frames at the top of the
	// free countdown (frames are taken from the top down).
	n := c.freeNM
	top, next := n-1, n-2
	c.used.Row(c.invOf(top))[0] = true
	c.used.Row(c.invOf(next))[0] = true
	frame, ok := c.popFreeFrame()
	if !ok {
		t.Fatal("free frames exhausted")
	}
	if frame == top || frame == next {
		t.Fatalf("popFreeFrame returned frame %d with a live resident", frame)
	}
	if c.freeNM != n-3 {
		t.Fatalf("used frames not discarded: %d left, want %d", c.freeNM, n-3)
	}
	// Exhaustion path: mark every NM resident used.
	for f := uint64(0); f < c.nmBlocks; f++ {
		c.used.Row(c.invOf(f))[0] = true
	}
	if _, ok := c.popFreeFrame(); ok {
		t.Fatal("popFreeFrame handed out a live frame")
	}
	if c.freeNM != 0 {
		t.Fatal("free list not drained on exhaustion")
	}
}

// flatHMA is the reference for TestPagedTablesMatchFlat: HMA's epoch
// policy over full-size, identity-filled flat tables.
type flatHMA struct {
	nm             uint64
	cur, inv, ctr  []uint32
	used           []bool
	free           uint64
	migrated, cold int
}

func newFlatHMA(nm, total uint64) *flatHMA {
	f := &flatHMA{nm: nm, cur: make([]uint32, total), inv: make([]uint32, total),
		ctr: make([]uint32, total), used: make([]bool, total), free: nm}
	for b := range f.cur {
		f.cur[b], f.inv[b] = uint32(b), uint32(b)
	}
	return f
}

func (f *flatHMA) swap(x, y uint32) {
	lx, ly := f.cur[x], f.cur[y]
	f.cur[x], f.cur[y] = ly, lx
	f.inv[lx], f.inv[ly] = y, x
}

func (f *flatHMA) epoch(thresh uint32, max int) {
	type cand struct{ blk, cnt uint32 }
	var hot []cand
	for b, n := range f.ctr {
		if n >= thresh && uint64(f.cur[b]) >= f.nm {
			hot = append(hot, cand{uint32(b), n})
		}
	}
	sort.Slice(hot, func(i, j int) bool {
		if hot[i].cnt != hot[j].cnt {
			return hot[i].cnt > hot[j].cnt
		}
		return hot[i].blk < hot[j].blk
	})
	if len(hot) > max {
		hot = hot[:max]
	}
	usable := 0
	for fr := uint64(0); fr < f.free; fr++ {
		if !f.used[f.inv[fr]] {
			usable++
		}
	}
	var cold []cand
	if len(hot) > usable {
		for loc := uint64(0); loc < f.nm; loc++ {
			cold = append(cold, cand{f.inv[loc], f.ctr[f.inv[loc]]})
		}
		sort.Slice(cold, func(i, j int) bool {
			if cold[i].cnt != cold[j].cnt {
				return cold[i].cnt < cold[j].cnt
			}
			return cold[i].blk < cold[j].blk
		})
	}
	coldIdx := 0
hot:
	for _, h := range hot {
		for f.free > 0 {
			f.free--
			if !f.used[f.inv[f.free]] {
				f.swap(h.blk, f.inv[f.free])
				f.migrated++
				continue hot
			}
		}
		for coldIdx < len(cold) && uint64(f.cur[cold[coldIdx].blk]) >= f.nm {
			coldIdx++
		}
		if coldIdx >= len(cold) || cold[coldIdx].cnt >= h.cnt {
			break
		}
		f.swap(h.blk, cold[coldIdx].blk)
		coldIdx++
		f.migrated++
		f.cold++
	}
	clear(f.ctr)
}

// TestPagedTablesMatchFlat: HMA's paged, XOR-encoded tables and its
// countdown free list agree with flat reference tables. Random access
// streams, half of them aimed at blocks next to the page boundaries, run
// through Handle and runEpoch and through flatHMA for 30 epochs; after
// each epoch every block's location and resident, the migration count and
// the free countdown must match, and every counter page must be zero.
func TestPagedTablesMatchFlat(t *testing.T) {
	m := config.Small()
	m.NM = config.HBM(1 << 20)   // 512 blocks
	m.FM = config.DDR3(16 << 20) // 8192 blocks: page boundaries at 4096 and 8192
	for _, seed := range []int64{1, 2, 3} {
		eng := sim.NewEngine()
		sys := mem.NewSystem(m, eng)
		const thresh = 2
		c := newHMA(sys, config.HMAConfig{EpochCycles: 1 << 60, HotThreshold: thresh,
			PerPageOSOverhead: 10, EpochFixedOverhead: 100})
		c.maxMigrate = 96
		ref := newFlatHMA(c.nmBlocks, c.total)
		rng := rand.New(rand.NewSource(seed))
		for epoch := 0; epoch < 30; epoch++ {
			for i := 0; i < 600; i++ {
				var b uint64
				switch i % 4 {
				case 0, 1: // within 8 blocks of a page boundary
					b = uint64(1+rng.Intn(2))*memunits.PageRows + uint64(rng.Intn(16)) - 8
				case 2:
					b = uint64(rng.Int63n(int64(c.total)))
				case 3:
					b = uint64(rng.Int63n(int64(c.nmBlocks)))
				}
				c.Handle(&mem.Access{PAddr: memunits.BlockBase(b)})
				ref.ctr[b]++
				ref.used[b] = true
			}
			eng.Run()
			c.runEpoch(eng.Now())
			ref.epoch(thresh, c.maxMigrate)
			eng.Run()
			for b := uint64(0); b < c.total; b++ {
				if c.curOf(b) != uint64(ref.cur[b]) || c.invOf(b) != uint64(ref.inv[b]) {
					t.Fatalf("seed %d epoch %d: block %d at %d (resident %d), flat %d (%d)",
						seed, epoch, b, c.curOf(b), c.invOf(b), ref.cur[b], ref.inv[b])
				}
			}
			if sys.Stats.Migrations != uint64(ref.migrated) || c.freeNM != ref.free {
				t.Fatalf("seed %d epoch %d: %d migrations, %d free; flat %d, %d",
					seed, epoch, sys.Stats.Migrations, c.freeNM, ref.migrated, ref.free)
			}
			for k, pg := range c.ctr.Pages() {
				for i, n := range pg {
					if n != 0 {
						t.Fatalf("seed %d epoch %d: counter of block %d not reset", seed, epoch, k*memunits.PageRows+i)
					}
				}
			}
		}
		if ref.cold == 0 || ref.free != 0 {
			t.Fatalf("seed %d: %d cold swaps, %d free frames left; test is vacuous", seed, ref.cold, ref.free)
		}
	}
}
