package schemes

import (
	"sort"

	"silcfm/internal/config"
	"silcfm/internal/mem"
	"silcfm/internal/memunits"
	"silcfm/internal/stats"
)

// hma is the epoch-based OS-managed scheme the paper uses as its software
// baseline (§II-C, HMA). The OS counts page accesses through PTE reference
// bits; at each epoch boundary it sweeps the counters, selects pages whose
// count crossed a threshold, and bulk-migrates them into NM — paying
// per-page software costs (PTE updates, TLB shootdowns) plus the bulk
// transfer itself, during which demand accesses stall. NM is an
// OS-reserved region: first-touch allocation places application pages in
// FM only (vm.PolicyFMFirst) and only epoch migration fills NM.
//
// The OS work (PTE updates, TLB shootdowns, counter sweep) stalls demand
// for its duration; the bulk page copies themselves are issued as
// background-priority DMA transfers that compete for device bandwidth
// without ever delaying demand reads. See DESIGN.md.
type hma struct {
	sys *mem.System
	cfg config.HMAConfig

	nmBlocks uint64
	total    uint64

	// The tables are paged on first write (memunits.Paged), so each
	// encodes its initial state as zero: cur and inv store the mapping
	// XOR the index, which reads as identity on a page never written.
	cur memunits.Paged[uint32] // flat block -> location block, XOR block
	inv memunits.Paged[uint32] // location block -> flat block, XOR location
	ctr memunits.Paged[uint32] // per-flat-block access count within the epoch
	// used[flat block]: the block has been demand-accessed at least once.
	// A "free" NM frame whose resident was used holds live data, so the
	// one-way migration copy may not reuse it.
	used memunits.Paged[bool]

	// NM location blocks [0, freeNM) were never yet filled; frames are
	// taken from the top down.
	freeNM uint64

	nextEpoch    uint64
	blockedUntil uint64
	epochs       uint64 // epoch sweeps run so far
	stalled      uint64 // demands deferred behind OS epoch work

	// maxMigrate caps the OS migration batch (a real OS bounds its
	// stop-the-world work).
	maxMigrate int
}

// newHMA builds an HMA controller over sys. It relies on what
// config.Machine.Validate checks: fewer than 2^32 blocks, so a block number
// fits a uint32, and a positive epoch length and hot threshold.
func newHMA(sys *mem.System, cfg config.HMAConfig) *hma {
	nmBlocks := memunits.BlocksIn(sys.NMCap)
	total := memunits.BlocksIn(sys.NMCap + sys.FMCap)
	return &hma{
		sys:        sys,
		cfg:        cfg,
		nmBlocks:   nmBlocks,
		total:      total,
		cur:        memunits.NewPaged[uint32](total, 1),
		inv:        memunits.NewPaged[uint32](total, 1),
		ctr:        memunits.NewPaged[uint32](total, 1),
		used:       memunits.NewPaged[bool](total, 1),
		freeNM:     nmBlocks,
		nextEpoch:  cfg.EpochCycles,
		maxMigrate: 8192,
	}
}

// Name implements mem.Controller.
func (c *hma) Name() string { return "hma" }

// curOf returns flat block b's location block.
func (c *hma) curOf(b uint64) uint64 { return uint64(c.cur.Get(b, 0)) ^ b }

// invOf returns the flat block at location block loc.
func (c *hma) invOf(loc uint64) uint64 { return uint64(c.inv.Get(loc, 0)) ^ loc }

// usable counts the never-filled NM frames whose resident flat block was
// never demand-accessed: the free one-way migration targets.
func (c *hma) usable() int {
	n := 0
	for f := uint64(0); f < c.freeNM; f++ {
		if !c.used.Get(c.invOf(f), 0) {
			n++
		}
	}
	return n
}

// Locate implements mem.Controller.
func (c *hma) Locate(pa uint64) mem.Location {
	return c.sys.HomeLocation(memunits.SubblockAddr(c.curOf(memunits.BlockOf(pa)), memunits.SubblockIndex(pa)))
}

// Handle implements mem.Controller.
func (c *hma) Handle(a *mem.Access) {
	c.sys.Stats.LLCMisses++
	b := memunits.BlockOf(a.PAddr)
	c.ctr.Row(b)[0]++
	c.used.Row(b)[0] = true

	now := c.sys.Eng.Now()
	if now >= c.nextEpoch {
		c.runEpoch(now)
	}
	if c.blockedUntil > now {
		// Bulk migration in progress: the request stalls behind it. Path
		// classification (and the latency clock, which started at Handle
		// entry) happens at deferred-service time so the OS stall is
		// charged to whichever level finally services the demand.
		c.stalled++
		a.AddSpan(stats.SpanSwapSerial, c.blockedUntil-now)
		c.sys.Eng.At(c.blockedUntil, func() {
			c.service(a)
		})
		return
	}
	c.service(a)
}

// service routes a demand to its current location.
func (c *hma) service(a *mem.Access) {
	loc := c.Locate(a.PAddr)
	path := stats.PathFM
	if loc.Level == stats.NM {
		path = stats.PathNMHit
	}
	c.sys.ServiceAccess(a, loc, path)
}

// Gauges implements mem.GaugeProvider.
func (c *hma) Gauges() []mem.Gauge {
	blocked := 0.0
	if c.blockedUntil > c.sys.Eng.Now() {
		blocked = 1
	}
	return []mem.Gauge{
		{Name: "epochs", Value: float64(c.epochs)},
		{Name: "free_nm_frames", Value: float64(c.usable())},
		{Name: "os_blocked", Value: blocked},
		{Name: "stalled_demands", Value: float64(c.stalled)},
	}
}

// runEpoch sweeps counters, migrates hot FM pages into NM (possibly
// swapping out cold NM residents) and charges software + transfer costs.
func (c *hma) runEpoch(now uint64) {
	for now >= c.nextEpoch {
		c.nextEpoch += c.cfg.EpochCycles
	}
	c.epochs++

	// Hot FM-resident pages, hottest first. HotThreshold is at least 1
	// (config.Machine.Validate), so only counter pages written this run
	// can hold a hot block; the sort fixes the order.
	type cand struct {
		blk uint32
		cnt uint32
	}
	var hot []cand
	for k, pg := range c.ctr.Pages() {
		for i, cnt := range pg {
			b := uint64(k)*memunits.PageRows + uint64(i)
			if cnt >= c.cfg.HotThreshold && c.curOf(b) >= c.nmBlocks {
				hot = append(hot, cand{uint32(b), cnt})
			}
		}
	}
	sort.Slice(hot, func(i, j int) bool {
		if hot[i].cnt != hot[j].cnt {
			return hot[i].cnt > hot[j].cnt
		}
		return hot[i].blk < hot[j].blk
	})
	if len(hot) > c.maxMigrate {
		hot = hot[:c.maxMigrate]
	}

	// Cold NM residents, coldest first, for swap-out. Only frames whose
	// resident was never touched are usable as free targets.
	var cold []cand
	if len(hot) > c.usable() {
		for loc := uint64(0); loc < c.nmBlocks; loc++ {
			b := c.invOf(loc)
			cold = append(cold, cand{uint32(b), c.ctr.Get(b, 0)})
		}
		sort.Slice(cold, func(i, j int) bool {
			if cold[i].cnt != cold[j].cnt {
				return cold[i].cnt < cold[j].cnt
			}
			return cold[i].blk < cold[j].blk
		})
	}

	migrated := 0
	coldIdx := 0
	for _, h := range hot {
		if frame, ok := c.popFreeFrame(); ok {
			// One-way copy: the displaced flat NM block holds no live data
			// (never accessed), so nothing needs to move the other way.
			c.sys.RelocateBlockDMA(c.Locate(memunits.BlockBase(uint64(h.blk))), c.sys.HomeLocation(memunits.BlockBase(frame)))
			c.swapBlocks(uint64(h.blk), c.invOf(frame))
			migrated++
			continue
		}
		// Swap with the coldest NM resident that is colder than h.
		for coldIdx < len(cold) && c.curOf(uint64(cold[coldIdx].blk)) >= c.nmBlocks {
			coldIdx++ // already displaced this epoch
		}
		if coldIdx >= len(cold) || cold[coldIdx].cnt >= h.cnt {
			break
		}
		x, y := uint64(h.blk), uint64(cold[coldIdx].blk)
		c.sys.ExchangeBlocksDMA(c.Locate(memunits.BlockBase(x)), c.Locate(memunits.BlockBase(y)))
		c.swapBlocks(x, y)
		coldIdx++
		migrated++
	}

	// Costs: the OS work (PTE updates, TLB shootdowns, sweep) stalls the
	// machine; the bulk page copies are DMA transfers issued at background
	// priority, competing for bandwidth without blocking demand reads.
	os := c.cfg.EpochFixedOverhead + uint64(migrated)*c.cfg.PerPageOSOverhead
	c.sys.Stats.OSOverheadCycles += os
	c.blockedUntil = now + os
	c.sys.Stats.Migrations += uint64(migrated)

	for _, pg := range c.ctr.Pages() {
		clear(pg)
	}
}

// popFreeFrame returns an NM frame usable as a one-way migration target: a
// frame whose resident flat block was never demand-accessed. Frames whose
// resident has been touched hold live data and are discarded from the free
// list (only a two-way swap may displace them).
func (c *hma) popFreeFrame() (uint64, bool) {
	for c.freeNM > 0 {
		c.freeNM--
		if !c.used.Get(c.invOf(c.freeNM), 0) {
			return c.freeNM, true
		}
	}
	return 0, false
}

// swapBlocks exchanges the locations of flat blocks x and y.
func (c *hma) swapBlocks(x, y uint64) {
	lx, ly := c.curOf(x), c.curOf(y)
	c.cur.Row(x)[0] = uint32(ly ^ x)
	c.cur.Row(y)[0] = uint32(lx ^ y)
	c.inv.Row(lx)[0] = uint32(y ^ lx)
	c.inv.Row(ly)[0] = uint32(x ^ ly)
}
