// Package pom implements Part of Memory (PoM, §II-B): remapping between NM
// and FM at large-block (2 KB) granularity. A far-memory block must
// accumulate enough accesses to cross a migration threshold before it is
// exchanged with an NM block of its congruence set, amortizing the cost of
// moving all 32 subblocks; until then it is serviced from FM. This captures
// both PoM properties the paper contrasts with: it misses early
// opportunities (threshold wait) and it wastes bandwidth on unused
// subblocks in low-spatial-locality workloads.
//
// The remap granularity is a congruence set holding cfg.Ways NM frames and
// the FM blocks congruent to them (the paper's related work §VI notes PoM
// and other page-based designs also saw benefits from associativity; the
// default remains direct-mapped as in §II-B). The remap table is modeled as
// SRAM-resident (the PoM paper caches it on-chip; we charge no DRAM traffic
// for it — see DESIGN.md).
package pom

import (
	"silcfm/internal/config"
	"silcfm/internal/mem"
	"silcfm/internal/memunits"
	"silcfm/internal/stats"
)

// Controller is the PoM scheme.
type Controller struct {
	sys     *mem.System
	nmBlks  uint64 // NM large blocks
	sets    uint64 // congruence sets = nmBlks / ways
	ways    int    // NM frames per set
	members int    // blocks per set (ways NM + congruent FM)
	thresh  uint32

	// perm[s*members+m] = location index of member m in set s. Locations
	// 0..ways-1 are the set's NM frames; locations >= ways are the FM
	// homes of members ways, ways+1, ...
	perm []uint16
	// ctr[flat block] = accesses since last migration/decay.
	ctr []uint16

	accesses uint64 // for periodic counter decay
	decayAt  uint64
}

// New builds a PoM controller. The machine must have at most 65536 blocks
// per congruence set (config.Machine.Validate), so a location fits a uint16.
func New(sys *mem.System, cfg config.PoMConfig) *Controller {
	ways, sets, members := cfg.Geometry(sys.NMCap, sys.FMCap)
	c := &Controller{
		sys:     sys,
		nmBlks:  memunits.BlocksIn(sys.NMCap),
		sets:    sets,
		ways:    ways,
		members: int(members),
		thresh:  cfg.MigrationThreshold,
		perm:    make([]uint16, sets*members),
		ctr:     make([]uint16, memunits.BlocksIn(sys.NMCap+sys.FMCap)),
		decayAt: 1 << 18,
	}
	for s := uint64(0); s < sets; s++ {
		for m := uint64(0); m < members; m++ {
			c.perm[s*members+m] = uint16(m)
		}
	}
	return c
}

// Name implements mem.Controller.
func (c *Controller) Name() string { return "pom" }

// set decomposes a flat block: member 0..ways-1 are the NM blocks congruent
// to set s; members >= ways are its FM blocks. A flat block b belongs to
// set b mod sets; its member index is b / sets.
func (c *Controller) set(b uint64) (s uint64, member int) {
	return b % c.sets, int(b / c.sets)
}

func (c *Controller) locationOf(s uint64, m int) int {
	return int(c.perm[s*uint64(c.members)+uint64(m)])
}

// block returns the flat block whose home is location (or member) i of set
// s, the inverse of set().
func (c *Controller) block(s uint64, i int) uint64 {
	return uint64(i)*c.sets + s
}

// locAddr converts (set, location, subblock index) to a device location.
func (c *Controller) locAddr(s uint64, loc int, idx uint) mem.Location {
	return c.sys.HomeLocation(memunits.SubblockAddr(c.block(s, loc), idx))
}

// inNM reports whether a location index is one of the set's NM frames.
func (c *Controller) inNM(loc int) bool { return loc < c.ways }

// Locate implements mem.Controller.
func (c *Controller) Locate(pa uint64) mem.Location {
	s, m := c.set(memunits.BlockOf(pa))
	return c.locAddr(s, c.locationOf(s, m), memunits.SubblockIndex(pa))
}

// Handle implements mem.Controller.
func (c *Controller) Handle(a *mem.Access) {
	c.sys.Stats.LLCMisses++
	b := memunits.BlockOf(a.PAddr)
	idx := memunits.SubblockIndex(a.PAddr)
	s, m := c.set(b)
	loc := c.locationOf(s, m)

	c.maybeDecay()
	c.bumpCtr(b)

	if c.inNM(loc) {
		c.sys.ServiceAccess(a, c.locAddr(s, loc, idx), stats.PathNMHit)
		return
	}

	// FM resident: service demand from FM, then check the threshold. The
	// bulk migration runs after the demand is serviced, so the demand
	// itself never rides the swap critical path (PoM's threshold wait).
	c.sys.ServiceAccess(a, c.locAddr(s, loc, idx), stats.PathFM)
	if uint32(c.ctr[b]) >= c.thresh {
		c.migrate(s, m, loc)
		c.ctr[b] = 0
	}
}

// Gauges implements mem.GaugeProvider. The remapped-block count scans the
// permutation tables; it runs only at telemetry epoch granularity.
func (c *Controller) Gauges() []mem.Gauge {
	remapped := 0
	for s := uint64(0); s < c.sets; s++ {
		base := s * uint64(c.members)
		for m := 0; m < c.members; m++ {
			if c.inNM(int(c.perm[base+uint64(m)])) != (m < c.ways) {
				remapped++
			}
		}
	}
	// Each exchanged pair contributes two moved members; report blocks
	// promoted into NM.
	return []mem.Gauge{
		{Name: "promoted_blocks", Value: float64(remapped) / 2},
		{Name: "nm_occupied_fraction", Value: float64(remapped) / 2 / float64(c.nmBlks)},
	}
}

func (c *Controller) bumpCtr(b uint64) {
	if c.ctr[b] < ^uint16(0) {
		c.ctr[b]++
	}
}

// migrate exchanges the full 2 KB block at FM location loc (member m of
// set s) with the coldest NM frame of the set, one subblock pair at a time
// so the transfer spreads over channels like real traffic. With the
// default direct-mapped configuration, the single NM frame is the victim.
func (c *Controller) migrate(s uint64, m, loc int) {
	// Coldest NM frame = the NM location whose resident member has the
	// lowest counter.
	victimLoc := 0
	var victimCnt uint16 = ^uint16(0)
	victimMember := -1
	base := s * uint64(c.members)
	for r := 0; r < c.members; r++ {
		l := int(c.perm[base+uint64(r)])
		if !c.inNM(l) {
			continue
		}
		cnt := c.ctr[c.block(s, r)]
		if cnt < victimCnt {
			victimCnt = cnt
			victimLoc = l
			victimMember = r
		}
	}
	if victimMember < 0 {
		return // no NM frame in this set (cannot happen with ways >= 1)
	}

	// Swap the permutation entries.
	c.perm[base+uint64(victimMember)] = uint16(loc)
	c.perm[base+uint64(m)] = uint16(victimLoc)

	for idx := uint(0); idx < memunits.SubblocksPerBlock; idx++ {
		c.sys.ExchangeSubblocks(c.locAddr(s, loc, idx), c.locAddr(s, victimLoc, idx))
	}
	c.sys.Stats.Migrations++
	c.sys.Stats.SwapsIn += memunits.SubblocksPerBlock
	c.sys.Stats.SwapsOut += memunits.SubblocksPerBlock
}

// maybeDecay halves all counters periodically so stale warmth does not
// trigger migrations forever (PoM's benefit/cost estimation ages).
func (c *Controller) maybeDecay() {
	c.accesses++
	if c.accesses%c.decayAt != 0 {
		return
	}
	for i := range c.ctr {
		c.ctr[i] >>= 1
	}
}
