package core

import (
	"math/rand"
	"testing"

	"silcfm/internal/config"
	"silcfm/internal/mem"
	"silcfm/internal/memunits"
	"silcfm/internal/sim"
	"silcfm/internal/stats"
)

// Additional edge-case coverage for the Table I state machine and the
// feature interactions around it.

func TestWriteToSwappedOutHomeSubblock(t *testing.T) {
	r := newRig(nil)
	// Interleave FM block 0 subblock 3 into frame 0.
	r.access(1, fmBlockAddr(0, 3), false)
	homeSub3 := uint64(3 * 64)
	if loc := r.c.Locate(homeSub3); loc.Level != stats.FM {
		t.Fatal("setup: home subblock not swapped out")
	}
	// A write (LLC writeback) to the home subblock swaps it back and the
	// new data lands in NM.
	done := false
	r.c.Handle(&mem.Access{PC: 2, PAddr: homeSub3, Write: true, Done: func() { done = true }})
	r.eng.Run()
	if !done {
		t.Fatal("write not acknowledged")
	}
	if loc := r.c.Locate(homeSub3); loc.Level != stats.NM {
		t.Fatalf("home subblock not restored by write: %+v", loc)
	}
	if loc := r.c.Locate(fmBlockAddr(0, 3)); loc.Level != stats.FM {
		t.Fatal("interleaved subblock not evicted by write swap-back")
	}
}

func TestLockedFrameServesHomeFromFM(t *testing.T) {
	r := newRig(func(c *config.SILCConfig) {
		c.HotThreshold = 3
		c.Features.Ways = 1
	})
	// Lock FM block 0 into frame 0.
	for i := 0; i < 4; i++ {
		r.access(1, fmBlockAddr(0, 0), false)
	}
	if r.c.place.fs.recount().locked != 1 {
		t.Fatal("setup: not locked")
	}
	// A request to the home block must be serviced from FM (the full
	// remap sent it there) without unlocking or swapping.
	preSwaps := r.sys.Stats.SwapsOut
	pre := r.sys.Stats.ServicedFM
	r.access(2, uint64(5*64), false) // NM block 0, subblock 5
	if r.sys.Stats.ServicedFM != pre+1 {
		t.Fatal("home access under lock not FM-serviced")
	}
	if r.sys.Stats.SwapsOut != preSwaps {
		t.Fatal("locked frame swapped")
	}
	if r.c.place.fs.recount().locked != 1 {
		t.Fatal("lock lost")
	}
}

func TestLockPreferenceFollowsHotterCounter(t *testing.T) {
	r := newRig(func(c *config.SILCConfig) {
		c.HotThreshold = 5
		c.Features.Ways = 1
	})
	// Home block 0 much hotter than the interleaved block: the frame must
	// home-lock, evicting the interleaved subblocks.
	r.access(1, fmBlockAddr(0, 0), false) // interleave FM block once
	for i := 0; i < 6; i++ {
		r.access(2, uint64(1*64), false) // heat home block 0
	}
	fr := r.c.place.fs.get(0)
	if !fr.locked || !fr.lockHome {
		t.Fatalf("expected home lock: locked=%v lockHome=%v", fr.locked, fr.lockHome)
	}
	if fr.interleaved() {
		t.Fatal("home lock kept a remap")
	}
	if loc := r.c.Locate(fmBlockAddr(0, 0)); loc.Level != stats.FM {
		t.Fatal("interleaved subblock not restored on home lock")
	}
}

func TestBypassLeavesLockedBlocksServed(t *testing.T) {
	r := newRig(func(c *config.SILCConfig) { c.HotThreshold = 3 })
	r.c.place.gov.window = 32
	// Lock a block, then force bypassing with hot resident traffic.
	for i := 0; i < 4; i++ {
		r.access(1, fmBlockAddr(0, 0), false)
	}
	for i := 0; i < 100; i++ {
		r.access(1, fmBlockAddr(0, uint(i%32)), false)
	}
	if !r.c.place.gov.bypassing() {
		t.Skip("access pattern did not trigger bypass at this scale")
	}
	pre := r.sys.Stats.ServicedNM
	r.access(1, fmBlockAddr(0, 7), false)
	if r.sys.Stats.ServicedNM != pre+1 {
		t.Fatal("locked block not NM-serviced under bypass")
	}
}

func TestVictimChurnBoundedByHistory(t *testing.T) {
	// Two conflicting blocks alternating: history replay re-fetches each
	// block's useful subblocks on re-interleave, so residency recovers in
	// one access instead of one per subblock.
	r := newRig(func(c *config.SILCConfig) { c.Features.Ways = 1 })
	pcA, pcB := uint64(0xA), uint64(0xB)
	firstA, firstB := fmBlockAddr(0, 0), fmBlockAddr(128, 0)
	// Warm block A with 4 subblocks, then B (evicts A), then A again.
	for _, idx := range []uint{0, 5, 9, 13} {
		r.access(pcA, fmBlockAddr(0, idx), false)
	}
	r.access(pcB, firstB, false)
	pre := r.c.place.historyPrefetches
	r.access(pcA, firstA, false)
	if r.c.place.historyPrefetches <= pre {
		t.Fatal("history replay did not fire on re-interleave")
	}
	for _, idx := range []uint{5, 9, 13} {
		if loc := r.c.Locate(fmBlockAddr(0, idx)); loc.Level != stats.NM {
			t.Fatalf("subblock %d not replayed", idx)
		}
	}
}

func TestAgingDisabledWhenIntervalZero(t *testing.T) {
	r := newRig(func(c *config.SILCConfig) {
		c.AgingInterval = 0
		c.HotThreshold = 2
	})
	for i := 0; i < 4; i++ {
		r.access(1, fmBlockAddr(0, 0), false)
	}
	locked := r.c.place.fs.recount().locked
	for i := 0; i < 2000; i++ {
		r.access(2, fmBlockAddr(1, 0), false)
	}
	if r.c.place.fs.recount().locked < locked {
		t.Fatal("unlock happened with aging disabled")
	}
}

func TestMetaChannelTrafficScalesWithMisses(t *testing.T) {
	r := newRig(nil)
	for i := 0; i < 64; i++ {
		r.access(uint64(i), fmBlockAddr(i%8, uint(i%32)), false)
	}
	ms := r.c.MetaDeviceStats()
	if ms.Reads == 0 {
		t.Fatal("no metadata reads on the dedicated channel")
	}
	if ms.Writes == 0 {
		t.Fatal("no metadata write-backs")
	}
}

func TestDirectMappedDegenerateSingleSet(t *testing.T) {
	// NM of 2 blocks with 4 configured ways degenerates to one set of 2
	// ways and must still behave.
	m := config.Small()
	m.NM = config.HBM(2 * 2048)
	m.FM = config.DDR3(8 * 2048)
	cfg := config.DefaultSILC()
	r := &testRig{}
	r.eng = sim.NewEngine()
	r.sys = mem.NewSystem(m, r.eng)
	r.c = New(r.sys, cfg)
	for i := 0; i < 50; i++ {
		r.access(uint64(i%4), uint64((2+i%8)*2048+(i%32)*64), false)
	}
	if err := mem.Audit(r.c, r.sys.NMCap, r.sys.FMCap); err != nil {
		t.Fatal(err)
	}
}

// meanResidency is s's mean resident subblocks per interleaved frame.
func meanResidency(s Snapshot) float64 {
	if s.Interleaved == 0 {
		return 0
	}
	return float64(s.ResidentSubblocks) / float64(s.Interleaved)
}

func TestSnapshot(t *testing.T) {
	r := newRig(func(c *config.SILCConfig) { c.HotThreshold = 3 })
	s := r.c.Snapshot()
	if s.Interleaved != 0 || s.Locked != 0 || meanResidency(s) != 0 {
		t.Fatalf("fresh snapshot dirty: %+v", s)
	}
	if s.Frames != 128 || s.Sets != 32 || s.Ways != 4 {
		t.Fatalf("geometry: %+v", s)
	}
	// Interleave two subblocks of one block, then lock another block.
	r.access(1, fmBlockAddr(1, 0), false)
	r.access(1, fmBlockAddr(1, 5), false)
	for i := 0; i < 4; i++ {
		r.access(2, fmBlockAddr(2, 0), false)
	}
	s = r.c.Snapshot()
	if s.Interleaved != 2 {
		t.Fatalf("Interleaved = %d, want 2", s.Interleaved)
	}
	if s.Locked != 1 || s.LockedHome != 0 {
		t.Fatalf("Locked = %d/%d", s.Locked, s.LockedHome)
	}
	if s.FullyResident != 1 { // the locked block fetched all 32
		t.Fatalf("FullyResident = %d", s.FullyResident)
	}
	if s.BitsHistogram[2] != 1 || s.BitsHistogram[32] != 1 {
		t.Fatalf("histogram: %v", s.BitsHistogram)
	}
	if got := meanResidency(s); got != 17 { // (2+32)/2
		t.Fatalf("mean residency = %v", got)
	}
	// Set occupancy: sets 1 and 2 have one interleaved way each.
	if s.SetOccupancy[1] != 2 || s.SetOccupancy[0] != 30 {
		t.Fatalf("occupancy: %v", s.SetOccupancy)
	}
}

// historyOccupancy is the share of h's entries holding a saved vector,
// counted by walking the table.
func historyOccupancy(h *historyTable) float64 {
	used := 0
	for _, tag := range h.tags {
		if tag != 0 {
			used++
		}
	}
	return float64(used) / float64(len(h.tags))
}

// TestGaugesCountInPlace drives a controller through interleaving, home and
// interleaved locks, and checks at each step that the frame and history
// gauges Gauges counts in place equal what walking the tables reports, and
// that Gauges allocates nothing but the slice it returns.
func TestGaugesCountInPlace(t *testing.T) {
	r := newRig(func(c *config.SILCConfig) { c.HotThreshold = 3 })
	gauge := func(gs []mem.Gauge, name string) float64 {
		for _, g := range gs {
			if g.Name == name {
				return g.Value
			}
		}
		t.Fatalf("no gauge %q", name)
		return 0
	}
	rng := rand.New(rand.NewSource(5))
	var sawHome, sawInterleavedLock bool
	for step := 0; step < 400; step++ {
		var pa uint64
		if rng.Intn(3) == 0 { // an NM home block
			pa = uint64(rng.Intn(8))*memunits.BlockSize + uint64(rng.Intn(32))*64
		} else {
			pa = fmBlockAddr(rng.Intn(64), uint(rng.Intn(32)))
		}
		r.access(uint64(rng.Intn(4)), pa, rng.Intn(4) == 0)
		s, gs := r.c.Snapshot(), r.c.Gauges()
		for _, c := range []struct {
			name string
			want float64
		}{
			{"locked_frames", float64(s.Locked)},
			{"locked_home_frames", float64(s.LockedHome)},
			{"interleaved_frames", float64(s.Interleaved)},
			{"resident_subblocks", float64(s.ResidentSubblocks)},
			{"mean_residency", meanResidency(s)},
			{"history_occupancy", historyOccupancy(r.c.place.hist)},
		} {
			if got := gauge(gs, c.name); got != c.want {
				t.Fatalf("step %d: %s = %v, Snapshot says %v", step, c.name, got, c.want)
			}
		}
		sawHome = sawHome || s.LockedHome > 0
		sawInterleavedLock = sawInterleavedLock || s.Locked > s.LockedHome
	}
	if !sawHome || !sawInterleavedLock {
		t.Fatalf("drive never locked both kinds (home %v, interleaved %v)", sawHome, sawInterleavedLock)
	}
	if r.c.place.hist.used == 0 {
		t.Fatal("drive never saved a history vector")
	}
	if avg := testing.AllocsPerRun(50, func() { r.c.Gauges() }); avg > 1 {
		t.Fatalf("Gauges allocates %.1f objects per call, want at most its slice", avg)
	}
}
