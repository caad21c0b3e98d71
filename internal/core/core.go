// Package core implements SILC-FM, the paper's contribution (§III): a flat
// NM+FM organization that remaps at large-block (2 KB) granularity but
// moves data at subblock (64 B) granularity, interleaving subblocks of one
// FM block into an NM frame under a per-frame bit vector. On top of the
// base swap mechanism it provides the bit-vector history table (spatially
// batched swap-ins), activity-counter-driven locking of hot blocks, set
// associativity for the interleaved blocks, bandwidth-balancing bypass, and
// a way/location predictor that hides metadata latency.
//
// Remap metadata lives in near memory (one 64-byte line per set holding all
// four way entries, placed in rows beyond the data region so the paper's
// "separate channel" row-buffer isolation is preserved); see DESIGN.md for
// the fidelity notes.
package core

import (
	"silcfm/internal/config"
	"silcfm/internal/dram"
	"silcfm/internal/mem"
	"silcfm/internal/memunits"
	"silcfm/internal/stats"
)

// metaEntrySize is one way's remap entry (remap address, bit vector,
// counters, flags) as fetched on a predicted access.
const metaEntrySize = 16

// Controller is the SILC-FM scheme.
type Controller struct {
	sys *mem.System
	cfg config.SILCConfig

	nmBlocks uint64
	fs       *frameSet
	hist     *historyTable
	pred     *predictor
	gov      *bypassGovernor
	// meta is the dedicated metadata channel (§III-D: "the metadata is
	// stored in a separate channel to increase the NM row buffer hit rate
	// of accessing metadata"): one HBM channel holding one 64-byte line of
	// remap entries per set. Same-set metadata operations coalesce at the
	// controller the way demand misses coalesce in MSHRs. The channel's
	// completion hook (metaComplete) clears the set's pending flag, so a
	// queued request needs no callback of its own.
	meta          *dram.Device
	metaBgPend    []bool // set -> metadata read queued
	metaWritePend []bool // set -> dirty-update already queued
	// freeDispatch recycles the serialized-dispatch continuations so the
	// per-miss control flow allocates nothing in steady state.
	freeDispatch *dispatchOp
	// metaLatency is the serialized remap-entry check paid on the demand
	// path without a correct way/location prediction (one unloaded NM
	// metadata access; §III-F).
	metaLatency uint64

	ctrMax   uint8
	accesses uint64

	// Restores counts full interleaved-block restorations (victimization).
	Restores uint64
	// HistoryPrefetches counts subblocks swapped in by history replay.
	HistoryPrefetches uint64
}

// New builds a SILC-FM controller over sys.
func New(sys *mem.System, cfg config.SILCConfig) *Controller {
	nmBlocks := memunits.BlocksIn(sys.NMCap)
	ways := cfg.Features.Ways
	if ways == 0 {
		ways = 1
	}
	fs := newFrameSet(nmBlocks, ways)
	// One 64-byte line of remap entries per SET (all ways share the line),
	// not per frame: sizing by frame count would over-provision the channel
	// by the associativity factor and skew energy/row-buffer accounting.
	metaCfg := config.HBM(fs.sets * 64)
	metaCfg.Name = "HBM-meta"
	metaCfg.Channels = 1
	c := &Controller{
		sys:           sys,
		cfg:           cfg,
		nmBlocks:      nmBlocks,
		fs:            fs,
		hist:          newHistoryTable(cfg.HistoryEntries),
		pred:          newPredictor(cfg.PredictorEntries),
		gov:           newBypassGovernor(cfg.Features.Bypass, cfg.BypassTarget),
		meta:          dram.New(metaCfg, sys.Eng),
		metaBgPend:    make([]bool, fs.sets),
		metaWritePend: make([]bool, fs.sets),
		ctrMax:        counterMax(cfg.CounterBits),
	}
	c.metaLatency = c.meta.UnloadedReadLatency()
	c.meta.OnComplete(c.metaComplete)
	return c
}

// MetaDeviceStats exposes the metadata channel's counters (for energy
// accounting and tests).
func (c *Controller) MetaDeviceStats() *dram.Stats { return c.meta.Stats() }

// MetaDevice exposes the dedicated metadata channel itself, so the
// conservation audit can fold its traffic into the NM level.
func (c *Controller) MetaDevice() *dram.Device { return c.meta }

// Name implements mem.Controller.
func (c *Controller) Name() string { return "silc" }

// home returns the home location of subblock idx of flat block b. NM frame
// f is flat block f's home.
func (c *Controller) home(b uint64, idx uint) mem.Location {
	return c.sys.HomeLocation(memunits.SubblockAddr(b, idx))
}

// Locate implements mem.Controller.
func (c *Controller) Locate(pa uint64) mem.Location {
	b := memunits.BlockOf(pa)
	idx := memunits.SubblockIndex(pa)
	if b < c.nmBlocks {
		fr := &c.fs.frames[b]
		if fr.interleaved() && fr.bits.Test(idx) {
			return c.home(fr.block(), idx)
		}
		return c.home(b, idx)
	}
	s := c.fs.setOf(b)
	if f, ok := c.fs.findRemap(s, b); ok && c.fs.frames[f].bits.Test(idx) {
		return c.home(f, idx)
	}
	return c.home(b, idx)
}

// Handle implements mem.Controller.
func (c *Controller) Handle(a *mem.Access) {
	st := c.sys.Stats
	st.LLCMisses++
	c.accesses++
	if c.cfg.AgingInterval > 0 && c.accesses%c.cfg.AgingInterval == 0 {
		c.ageAndUnlock()
	}

	b := memunits.BlockOf(a.PAddr)
	idx := memunits.SubblockIndex(a.PAddr)

	// Way/location prediction decides whether the demand path waits for
	// the serialized metadata fetch (§III-F).
	loc := c.Locate(a.PAddr)
	actualNM := loc.Level == stats.NM
	var actualWay uint8
	if actualNM {
		actualWay = uint8(c.fs.wayOf(memunits.BlockOf(loc.DevAddr)))
	}
	serialized := true
	mispred := false
	if c.cfg.Features.Predictor {
		pNM, pWay, ok := c.pred.predict(a.PC, a.PAddr)
		if ok && pNM == actualNM && (!pNM || pWay == actualWay) {
			st.PredictorHits++
			serialized = false
		} else {
			st.PredictorMisses++
			mispred = true
		}
		c.pred.update(a.PC, a.PAddr, actualNM, actualWay)
	}

	if serialized {
		// Pay the serialized remap-entry fetch latency (§III-F: without a
		// correct prediction, the way entries are checked in series before
		// the data access; the predictor's saved time is this NM access
		// latency). The metadata line transfer itself rides the dedicated
		// channel off the demand queues. The stall is attributed as a
		// mispredict-retry penalty when a predictor miss caused it, else as
		// a plain metadata fetch (predictor disabled).
		span := stats.SpanMetaFetch
		if mispred {
			span = stats.SpanMispredict
		}
		a.AddSpan(span, c.metaLatency)
		c.readMeta(b, 64)
		op := c.freeDispatch
		if op == nil {
			op = &dispatchOp{c: c}
			op.fn = op.run
		} else {
			c.freeDispatch = op.next
		}
		op.a, op.b, op.idx, op.mispred = a, b, idx, mispred
		c.sys.Eng.After(c.metaLatency, op.fn)
		return
	}
	// Predicted: the verification fetch proceeds off the critical path.
	c.readMeta(b, metaEntrySize)
	c.dispatch(a, b, idx, mispred)
}

// pathOr classifies a demand under base unless the access paid the
// serialized metadata fetch after a predictor miss, which dominates.
func pathOr(base stats.DemandPath, mispred bool) stats.DemandPath {
	if mispred {
		return stats.PathMispredict
	}
	return base
}

// readMeta charges block b's set-metadata transfer to the dedicated
// channel. Reads of a set with one already in flight dedupe MSHR-style.
// The demand-path cost of a metadata fetch is the fixed serialized latency
// applied in Handle, not this queue.
func (c *Controller) readMeta(b uint64, n uint64) {
	s := c.fs.setOf(b)
	if c.metaBgPend[s] {
		return
	}
	c.metaBgPend[s] = true
	c.sys.Stats.AddBytes(stats.NM, stats.Metadata, n)
	c.meta.Submit(dram.Request{Addr: s * 64, Bytes: n, Background: true})
}

// metaComplete is the metadata channel's completion hook: the set's read
// (background) or write-back is no longer queued.
func (c *Controller) metaComplete(addr uint64, write bool) {
	if write {
		c.metaWritePend[addr/64] = false
	} else {
		c.metaBgPend[addr/64] = false
	}
}

// dispatchOp is the pooled continuation of a serialized-metadata dispatch
// (the After(metaLatency, ...) leg of Handle).
type dispatchOp struct {
	c       *Controller
	a       *mem.Access
	b       uint64
	idx     uint
	mispred bool
	fn      func()
	next    *dispatchOp
}

func (op *dispatchOp) run() {
	c, a, b, idx, mispred := op.c, op.a, op.b, op.idx, op.mispred
	op.a = nil
	op.next = c.freeDispatch
	c.freeDispatch = op
	c.dispatch(a, b, idx, mispred)
}

// dispatch runs the Table I state machine for one access. mispred records
// whether the access already paid the serialized metadata fetch (for path
// latency classification).
func (c *Controller) dispatch(a *mem.Access, b uint64, idx uint, mispred bool) {
	if b < c.nmBlocks {
		c.handleNMAddress(a, b, idx, mispred)
	} else {
		c.handleFMAddress(a, b, idx, mispred)
	}
}

// handleNMAddress serves a request whose flat address belongs to the NM
// space (Table I rows with "NM Address = yes" plus the remap-match row for
// the home block).
func (c *Controller) handleNMAddress(a *mem.Access, b uint64, idx uint, mispred bool) {
	fr := &c.fs.frames[b]
	fr.lastUse = c.sys.Eng.Now()
	bump(&fr.nmCtr, c.ctrMax)
	st := c.sys.Stats

	swappedOut := fr.interleaved() && fr.bits.Test(idx)
	if !swappedOut {
		// Home subblock resident: service from NM.
		c.serviceNM(a, c.home(b, idx), pathOr(stats.PathNMHit, mispred))
		c.maybeLockHome(b)
		return
	}
	// The home subblock currently sits at the remapped block's FM home.
	if fr.locked || c.gov.bypassing() {
		// Locked frames keep the interleaved block pinned; under bypass no
		// state changes either. Service from FM.
		path := stats.PathFM
		if !fr.locked {
			st.BypassedAccesses++
			path = stats.PathBypass
		}
		c.serviceFM(a, c.home(fr.block(), idx), pathOr(path, mispred))
		c.maybeLockHome(b)
		return
	}
	// Swap the home subblock back from FM (Table I: mismatch / bit 1 / NM
	// address). The interleaved block's subblock returns to its FM home.
	c.fs.clearBit(b, idx)
	st.SwapsOut++
	c.moveBetween(a, c.home(fr.block(), idx), c.home(b, idx), pathOr(stats.PathSwap, mispred))
	c.writeMetaUpdate(c.fs.setOf(b))
	c.maybeLockHome(b)
}

// handleFMAddress serves a request whose flat address belongs to FM space.
func (c *Controller) handleFMAddress(a *mem.Access, b uint64, idx uint, mispred bool) {
	s := c.fs.setOf(b)
	st := c.sys.Stats
	f, found := c.fs.findRemap(s, b)
	if found {
		fr := &c.fs.frames[f]
		fr.lastUse = c.sys.Eng.Now()
		bump(&fr.fmCtr, c.ctrMax)
		if fr.bits.Test(idx) {
			// Table I row 1: remap match, bit set -> service from NM.
			c.serviceNM(a, c.home(f, idx), pathOr(stats.PathNMHit, mispred))
			c.maybeLockRemap(f)
			return
		}
		// Table I row 2: remap match, bit clear -> swap subblock from FM.
		if c.gov.bypassing() {
			st.BypassedAccesses++
			c.serviceFM(a, c.home(b, idx), pathOr(stats.PathBypass, mispred))
			return
		}
		c.fs.setBit(f, idx)
		st.SwapsIn++
		c.moveBetween(a, c.home(b, idx), c.home(f, idx), pathOr(stats.PathSwap, mispred))
		c.writeMetaUpdate(s)
		c.maybeLockRemap(f)
		return
	}

	// No frame in the set holds this block: service from FM, then decide
	// whether to start interleaving it (Table I rows 5/6 when a victim
	// must first be restored). The governor is consulted after recording
	// this miss, exactly as the service call ordered it before.
	c.gov.record(false)
	bypassed := c.gov.bypassing()
	path := stats.PathFM
	if bypassed {
		path = stats.PathBypass
	}
	c.sys.ServiceAccess(a, c.home(b, idx), pathOr(path, mispred))
	if bypassed {
		st.BypassedAccesses++
		return
	}
	v, ok := c.fs.victim(s)
	if !ok {
		return // every way locked
	}
	vf := &c.fs.frames[v]
	if vf.interleaved() {
		c.restore(v)
		c.Restores++
	}
	c.fs.setRemap(v, b)
	c.fs.clearBits(v)
	vf.fmCtr = 1
	vf.lastUse = c.sys.Eng.Now()
	vf.hist = histHash(a.PC, a.PAddr)

	// Swap in the requested subblock (demand already serviced from FM; the
	// residual traffic is the install + eviction exchange).
	c.fs.setBit(v, idx)
	st.SwapsIn++
	c.sys.ExchangeSubblocks(c.home(b, idx), c.home(v, idx))

	// Replay the bit vector history: previously useful subblocks swap in
	// together (§III-A), the scheme's spatial-locality edge over CAMEO.
	if c.cfg.Features.BitVecHistory {
		vec := c.hist.lookup(a.PC, a.PAddr)
		for i := uint(0); i < memunits.SubblocksPerBlock; i++ {
			if i != idx && vec.Test(i) {
				c.fs.setBit(v, i)
				st.SwapsIn++
				c.HistoryPrefetches++
				c.sys.ExchangeSubblocks(c.home(b, i), c.home(v, i))
			}
		}
	}
	c.writeMetaUpdate(s)
	c.maybeLockRemap(v)
}

// restore returns frame f's interleaved block to its FM home entirely,
// saving the bit vector in the history table.
func (c *Controller) restore(f uint64) {
	fr := &c.fs.frames[f]
	if !fr.interleaved() {
		return
	}
	c.hist.save(fr.hist, fr.bits)
	for i := uint(0); i < memunits.SubblocksPerBlock; i++ {
		if fr.bits.Test(i) {
			c.sys.Stats.SwapsOut++
			c.sys.ExchangeSubblocks(c.home(f, i), c.home(fr.block(), i))
		}
	}
	c.fs.clearRemap(f)
	c.fs.clearBits(f)
	fr.fmCtr = 0
	c.fs.setLock(f, false, false)
}

// maybeLockRemap locks frame f's interleaved FM block when its counter
// crosses the hotness threshold, completing the large-block remap by
// swapping in all missing subblocks (§III-C).
func (c *Controller) maybeLockRemap(f uint64) {
	if !c.cfg.Features.Locking {
		return
	}
	fr := &c.fs.frames[f]
	if fr.locked || !fr.interleaved() || uint32(fr.fmCtr) < c.cfg.HotThreshold || fr.fmCtr < fr.nmCtr {
		return
	}
	// §III-E: bandwidth balancing suppresses new swaps, and completing a
	// lock pulls in every missing subblock — defer until bypassing clears
	// (the counters stay hot, so the next access retries).
	if c.gov.bypassing() {
		return
	}
	for i := uint(0); i < memunits.SubblocksPerBlock; i++ {
		if !fr.bits.Test(i) {
			c.fs.setBit(f, i)
			c.sys.Stats.SwapsIn++
			c.sys.ExchangeSubblocks(c.home(fr.block(), i), c.home(f, i))
		}
	}
	c.fs.setLock(f, true, false)
	c.sys.Stats.Locks++
	c.sys.NoteLock(f, fr.block(), false)
	c.writeMetaUpdate(c.fs.setOf(f))
}

// maybeLockHome locks frame b to protect a hot home block from being
// victimized by interleaving; any swapped-out home subblocks are restored
// first.
func (c *Controller) maybeLockHome(b uint64) {
	if !c.cfg.Features.Locking {
		return
	}
	fr := &c.fs.frames[b]
	if fr.locked || uint32(fr.nmCtr) < c.cfg.HotThreshold || fr.nmCtr < fr.fmCtr {
		return
	}
	if fr.interleaved() {
		// Restoring the interleaved block is swap traffic; defer the lock
		// while the governor is balancing bandwidth (§III-E).
		if c.gov.bypassing() {
			return
		}
		c.restore(b)
		c.Restores++
	}
	c.fs.setLock(b, true, true)
	c.sys.Stats.Locks++
	c.sys.NoteLock(b, b, true)
	c.writeMetaUpdate(c.fs.setOf(b))
}

// ageAndUnlock right-shifts all activity counters and clears locks whose
// block is no longer hot. An unlocked interleaved block keeps all its
// subblocks resident (bits stay Full) and simply rejoins normal swapping
// (§III-C).
func (c *Controller) ageAndUnlock() {
	c.fs.age()
	if !c.cfg.Features.Locking {
		return
	}
	for i := range c.fs.frames {
		fr := &c.fs.frames[i]
		if !fr.locked {
			continue
		}
		hot := uint32(fr.fmCtr)
		if fr.lockHome {
			hot = uint32(fr.nmCtr)
		}
		// Unlock with hysteresis: a block must cool to half the locking
		// threshold before it rejoins swapping, avoiding lock/unlock churn
		// at the boundary.
		if hot < c.cfg.HotThreshold/2 {
			blk := fr.block()
			if fr.lockHome {
				blk = uint64(i)
			}
			c.fs.setLock(uint64(i), false, false)
			c.sys.Stats.Unlocks++
			c.sys.NoteUnlock(uint64(i), blk)
		}
	}
}

// serviceNM completes a demand access from near memory.
func (c *Controller) serviceNM(a *mem.Access, loc mem.Location, path stats.DemandPath) {
	c.gov.record(true)
	c.sys.ServiceAccess(a, loc, path)
}

// serviceFM completes a demand access from far memory.
func (c *Controller) serviceFM(a *mem.Access, loc mem.Location, path stats.DemandPath) {
	c.gov.record(false)
	c.sys.ServiceAccess(a, loc, path)
}

// moveBetween services the demand at src and installs the data at dst,
// sending dst's previous contents back to src — the interleaved swap of
// Figure 2, with the demand transfer doubling as a migration transfer.
func (c *Controller) moveBetween(a *mem.Access, src, dst mem.Location, path stats.DemandPath) {
	c.gov.record(src.Level == stats.NM)
	c.sys.SwapAccess(a, src, dst, path)
}

// writeMetaUpdate charges the metadata write-back for a state change.
// Updates to a set with a write already queued merge into it.
func (c *Controller) writeMetaUpdate(s uint64) {
	if c.metaWritePend[s] {
		return
	}
	c.metaWritePend[s] = true
	c.sys.Stats.AddBytes(stats.NM, stats.Metadata, metaEntrySize)
	c.meta.Submit(dram.Request{Addr: s * 64, Bytes: metaEntrySize, Write: true})
}

// Bypassing reports whether the governor currently suppresses swaps.
func (c *Controller) Bypassing() bool { return c.gov.bypassing() }

// HistoryStats returns (stores, lookups, hits) of the bit vector history
// table.
func (c *Controller) HistoryStats() (stores, lookups, hits uint64) {
	return c.hist.stores, c.hist.lookups, c.hist.hits
}

// Gauges implements mem.GaugeProvider: the instantaneous scheme state the
// epoch sampler reports alongside counter deltas (§III mechanisms: frame
// residency, locking, the bypass governor, the history table, the
// dedicated metadata channel). It runs every epoch, so it reads the frame
// counts the mutators keep current and allocates only the returned slice.
func (c *Controller) Gauges() []mem.Gauge {
	n := c.fs.counts
	snap := Snapshot{Interleaved: n.interleaved, ResidentSubblocks: n.resident}
	used, total := c.hist.occupancy()
	_, lookups, hits := c.HistoryStats()
	histRate := 0.0
	if lookups > 0 {
		histRate = float64(hits) / float64(lookups)
	}
	bypassing := 0.0
	if c.gov.bypassing() {
		bypassing = 1
	}
	ms := c.meta.Stats()
	metaRowRate := 0.0
	if t := ms.RowHits + ms.RowMisses; t > 0 {
		metaRowRate = float64(ms.RowHits) / float64(t)
	}
	return []mem.Gauge{
		{Name: "locked_frames", Value: float64(n.locked)},
		{Name: "locked_home_frames", Value: float64(n.lockedHome)},
		{Name: "interleaved_frames", Value: float64(n.interleaved)},
		{Name: "resident_subblocks", Value: float64(n.resident)},
		{Name: "mean_residency", Value: snap.MeanResidency()},
		{Name: "bypassing", Value: bypassing},
		{Name: "bypass_toggles", Value: float64(c.gov.toggles)},
		{Name: "history_occupancy", Value: float64(used) / float64(total)},
		{Name: "history_hit_rate", Value: histRate},
		{Name: "history_prefetches", Value: float64(c.HistoryPrefetches)},
		{Name: "restores", Value: float64(c.Restores)},
		{Name: "meta_row_hit_rate", Value: metaRowRate},
		{Name: "meta_queue_depth", Value: float64(c.meta.QueueDepth())},
	}
}

// LockState implements mem.LockProbe: the lock state of the NM frame
// backing pa's flat block. For an NM-range address that is the home frame;
// for an FM-range address it is the frame (if any) whose remap currently
// interleaves the block. Pure and O(associativity).
func (c *Controller) LockState(pa uint64) (locked, home bool) {
	b := memunits.BlockOf(pa)
	if b < c.nmBlocks {
		fr := &c.fs.frames[b]
		return fr.locked, fr.lockHome
	}
	if f, ok := c.fs.findRemap(c.fs.setOf(b), b); ok {
		fr := &c.fs.frames[f]
		return fr.locked, fr.lockHome
	}
	return false, false
}

// LockedFrames counts currently locked frames.
func (c *Controller) LockedFrames() int { return c.fs.recount().locked }
