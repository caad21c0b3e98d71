package schemes

import (
	"silcfm/internal/config"
	"silcfm/internal/mem"
	"silcfm/internal/memunits"
	"silcfm/internal/stats"
)

// pom is Part of Memory (PoM, §II-B): remapping between NM and FM at
// large-block (2 KB) granularity. A far-memory block must accumulate
// enough accesses to cross a migration threshold before it is exchanged
// with an NM block of its congruence set, amortizing the cost of moving
// all 32 subblocks; until then it is serviced from FM. This captures both
// PoM properties the paper contrasts with: it misses early opportunities
// (threshold wait) and it wastes bandwidth on unused subblocks in
// low-spatial-locality workloads.
//
// The remap granularity is a congruence set holding cfg.Ways NM frames and
// the FM blocks congruent to them (the paper's related work §VI notes PoM
// and other page-based designs also saw benefits from associativity; the
// default remains direct-mapped as in §II-B). The remap table is modeled as
// SRAM-resident (the PoM paper caches it on-chip; we charge no DRAM traffic
// for it — see DESIGN.md).
type pom struct {
	sys    *mem.System
	thresh uint32

	// perm holds one congruence set per cfg.Ways NM blocks: locations
	// 0..ways-1 are the set's NM frames, the rest its FM blocks' homes.
	perm remap[uint16]
	// ctr[flat block] = accesses since last migration/decay, paged on
	// first write like HMA's counters.
	ctr memunits.Paged[uint16]

	accesses uint64 // for periodic counter decay
	decayAt  uint64
}

// newPoM builds a PoM controller.
func newPoM(sys *mem.System, cfg config.PoMConfig) *pom {
	ways, sets, members := cfg.Geometry(sys.NMCap, sys.FMCap)
	return &pom{
		sys:     sys,
		thresh:  cfg.MigrationThreshold,
		perm:    newRemap[uint16](sets, ways, int(members)),
		ctr:     memunits.NewPaged[uint16](memunits.BlocksIn(sys.NMCap+sys.FMCap), 1),
		decayAt: 1 << 18,
	}
}

// Name implements mem.Controller.
func (c *pom) Name() string { return "pom" }

// home returns where subblock idx of location l of set s sits.
func (c *pom) home(s uint64, l int, idx uint) mem.Location {
	return c.sys.HomeLocation(memunits.SubblockAddr(c.perm.unit(s, l), idx))
}

// Locate implements mem.Controller.
func (c *pom) Locate(pa uint64) mem.Location {
	s, m := c.perm.split(memunits.BlockOf(pa))
	return c.home(s, c.perm.loc(s, m), memunits.SubblockIndex(pa))
}

// Handle implements mem.Controller.
func (c *pom) Handle(a *mem.Access) {
	c.sys.Stats.LLCMisses++
	b := memunits.BlockOf(a.PAddr)
	idx := memunits.SubblockIndex(a.PAddr)
	s, m := c.perm.split(b)
	loc := c.perm.loc(s, m)

	c.maybeDecay()
	ctr := &c.ctr.Row(b)[0]
	if *ctr < ^uint16(0) {
		*ctr++
	}

	if c.perm.inNM(loc) {
		c.sys.ServiceAccess(a, c.home(s, loc, idx), stats.PathNMHit)
		return
	}

	// FM resident: service demand from FM, then check the threshold. The
	// bulk migration runs after the demand is serviced, so the demand
	// itself never rides the swap critical path (PoM's threshold wait).
	c.sys.ServiceAccess(a, c.home(s, loc, idx), stats.PathFM)
	if uint32(*ctr) >= c.thresh {
		c.migrate(s, m, loc)
		*ctr = 0
	}
}

// Gauges implements mem.GaugeProvider.
func (c *pom) Gauges() []mem.Gauge {
	return []mem.Gauge{
		{Name: "promoted_blocks", Value: float64(c.perm.foreign)},
		{Name: "nm_occupied_fraction", Value: float64(c.perm.foreign) / float64(memunits.BlocksIn(c.sys.NMCap))},
	}
}

// migrate exchanges the full 2 KB block at FM location loc (member m of
// set s) with the coldest NM frame of the set, one subblock pair at a time
// so the transfer spreads over channels like real traffic. With the
// default direct-mapped configuration, the single NM frame is the victim.
func (c *pom) migrate(s uint64, m, loc int) {
	// Coldest NM frame = the NM location whose resident member has the
	// lowest counter; members are scanned in order, so the lowest-numbered
	// of equally cold residents is the victim.
	victimLoc := 0
	var victimCnt uint16 = ^uint16(0)
	victimMember := -1
	for r := 0; r < c.perm.members; r++ {
		l := c.perm.loc(s, r)
		if !c.perm.inNM(l) {
			continue
		}
		if cnt := c.ctr.Get(c.perm.unit(s, r), 0); cnt < victimCnt {
			victimCnt = cnt
			victimLoc = l
			victimMember = r
		}
	}
	if victimMember < 0 {
		return // no NM frame in this set (cannot happen with ways >= 1)
	}

	c.perm.exchange(s, victimMember, m)
	for idx := uint(0); idx < memunits.SubblocksPerBlock; idx++ {
		c.sys.ExchangeSubblocks(c.home(s, loc, idx), c.home(s, victimLoc, idx))
	}
	c.sys.Stats.Migrations++
	c.sys.Stats.SwapsIn += memunits.SubblocksPerBlock
	c.sys.Stats.SwapsOut += memunits.SubblocksPerBlock
}

// maybeDecay halves all counters periodically so stale warmth does not
// trigger migrations forever (PoM's benefit/cost estimation ages). Only
// pages written since the start hold a nonzero counter.
func (c *pom) maybeDecay() {
	c.accesses++
	if c.accesses%c.decayAt != 0 {
		return
	}
	for _, pg := range c.ctr.Pages() {
		for i := range pg {
			pg[i] >>= 1
		}
	}
}
