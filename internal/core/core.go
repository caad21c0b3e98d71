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

	// restores counts full interleaved-block restorations (victimization).
	restores uint64
	// historyPrefetches counts subblocks swapped in by history replay.
	historyPrefetches uint64
}

// New builds a SILC-FM controller over sys.
func New(sys *mem.System, cfg config.SILCConfig) *Controller {
	nmBlocks := memunits.BlocksIn(sys.NMCap)
	fs := newFrameSet(nmBlocks, cfg.Features.Ways)
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
	f, fr := c.fs.lookup(b)
	switch {
	case !fr.swapped(idx):
		return c.home(b, idx)
	case b < c.nmBlocks:
		return c.home(fr.block(), idx)
	}
	return c.home(f, idx)
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
	// An NM block's subblock is in NM unless swapped out; an FM block's
	// only when swapped in.
	f, fr := c.fs.lookup(b)
	actualNM := (b < c.nmBlocks) != fr.swapped(idx)
	var actualWay uint8
	if actualNM {
		actualWay = uint8(c.fs.wayOf(f))
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
	_, fr := c.fs.lookup(b)
	fr.lastUse = c.sys.Eng.Now()
	bump(&fr.nmCtr, c.ctrMax)
	st := c.sys.Stats

	if !fr.swapped(idx) {
		// Home subblock resident: service from NM.
		c.serviceNM(a, c.home(b, idx), pathOr(stats.PathNMHit, mispred))
		c.maybeLockHome(b, fr)
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
		c.maybeLockHome(b, fr)
		return
	}
	// Swap the home subblock back from FM (Table I: mismatch / bit 1 / NM
	// address). The interleaved block's subblock returns to its FM home.
	c.fs.clearBit(fr, idx)
	st.SwapsOut++
	c.moveBetween(a, c.home(fr.block(), idx), c.home(b, idx), pathOr(stats.PathSwap, mispred))
	c.writeMetaUpdate(c.fs.setOf(b))
	c.maybeLockHome(b, fr)
}

// handleFMAddress serves a request whose flat address belongs to FM space.
func (c *Controller) handleFMAddress(a *mem.Access, b uint64, idx uint, mispred bool) {
	s := c.fs.setOf(b)
	st := c.sys.Stats
	if f, fr := c.fs.lookup(b); fr != nil {
		fr.lastUse = c.sys.Eng.Now()
		bump(&fr.fmCtr, c.ctrMax)
		if fr.bits.Test(idx) {
			// Table I row 1: remap match, bit set -> service from NM.
			c.serviceNM(a, c.home(f, idx), pathOr(stats.PathNMHit, mispred))
			c.maybeLockRemap(f, fr)
			return
		}
		// Table I row 2: remap match, bit clear -> swap subblock from FM.
		if c.gov.bypassing() {
			st.BypassedAccesses++
			c.serviceFM(a, c.home(b, idx), pathOr(stats.PathBypass, mispred))
			return
		}
		c.fs.setBit(fr, idx)
		st.SwapsIn++
		c.moveBetween(a, c.home(b, idx), c.home(f, idx), pathOr(stats.PathSwap, mispred))
		c.writeMetaUpdate(s)
		c.maybeLockRemap(f, fr)
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
	v, vf := c.fs.victim(s)
	if vf == nil {
		return // every way locked
	}
	if vf.interleaved() {
		c.restore(v, vf)
	}
	c.fs.setRemap(vf, b)
	c.fs.clearBits(vf)
	vf.fmCtr = 1
	vf.lastUse = c.sys.Eng.Now()
	vf.hist = histHash(a.PC, a.PAddr)

	// Swap in the requested subblock (demand already serviced from FM; the
	// residual traffic is the install + eviction exchange), then replay the
	// bit vector history: previously useful subblocks swap in together
	// (§III-A), the scheme's spatial-locality edge over CAMEO.
	c.swapIn(v, vf, 1<<idx)
	if c.cfg.Features.BitVecHistory {
		c.historyPrefetches += c.swapIn(v, vf, c.hist.lookup(a.PC, a.PAddr))
	}
	c.writeMetaUpdate(s)
	c.maybeLockRemap(v, vf)
}

// swapIn swaps each subblock of vec that frame f (fr) does not hold yet in
// from the interleaved block's FM home, in ascending subblock order, and
// returns how many it moved.
func (c *Controller) swapIn(f uint64, fr *frame, vec memunits.BitVector) uint64 {
	var n uint64
	for i := uint(0); i < memunits.SubblocksPerBlock; i++ {
		if vec.Test(i) && !fr.bits.Test(i) {
			c.fs.setBit(fr, i)
			c.sys.Stats.SwapsIn++
			c.sys.ExchangeSubblocks(c.home(fr.block(), i), c.home(f, i))
			n++
		}
	}
	return n
}

// restore returns the block interleaved in frame f (fr) to its FM home
// entirely, saving the bit vector in the history table.
func (c *Controller) restore(f uint64, fr *frame) {
	c.restores++
	c.hist.save(fr.hist, fr.bits)
	for i := uint(0); i < memunits.SubblocksPerBlock; i++ {
		if fr.bits.Test(i) {
			c.sys.Stats.SwapsOut++
			c.sys.ExchangeSubblocks(c.home(f, i), c.home(fr.block(), i))
		}
	}
	c.fs.clearRemap(fr)
	c.fs.clearBits(fr)
	fr.fmCtr = 0
	c.fs.setLock(fr, false, false)
}

// maybeLockRemap locks the FM block interleaved in frame f (fr) when its
// counter crosses the hotness threshold, completing the large-block remap
// by swapping in all missing subblocks (§III-C).
func (c *Controller) maybeLockRemap(f uint64, fr *frame) {
	if !c.cfg.Features.Locking {
		return
	}
	if fr.locked || !fr.interleaved() || uint32(fr.fmCtr) < c.cfg.HotThreshold || fr.fmCtr < fr.nmCtr {
		return
	}
	// §III-E: bandwidth balancing suppresses new swaps, and completing a
	// lock pulls in every missing subblock — defer until bypassing clears
	// (the counters stay hot, so the next access retries).
	if c.gov.bypassing() {
		return
	}
	c.swapIn(f, fr, memunits.Full)
	c.fs.setLock(fr, true, false)
	c.sys.Stats.Locks++
	c.sys.NoteLock(f, fr.block(), false)
	c.writeMetaUpdate(c.fs.setOf(f))
}

// maybeLockHome locks frame b (fr) to protect a hot home block from being
// victimized by interleaving; any swapped-out home subblocks are restored
// first.
func (c *Controller) maybeLockHome(b uint64, fr *frame) {
	if !c.cfg.Features.Locking {
		return
	}
	if fr.locked || uint32(fr.nmCtr) < c.cfg.HotThreshold || fr.nmCtr < fr.fmCtr {
		return
	}
	if fr.interleaved() {
		// Restoring the interleaved block is swap traffic; defer the lock
		// while the governor is balancing bandwidth (§III-E).
		if c.gov.bypassing() {
			return
		}
		c.restore(b, fr)
	}
	c.fs.setLock(fr, true, true)
	c.sys.Stats.Locks++
	c.sys.NoteLock(b, b, true)
	c.writeMetaUpdate(c.fs.setOf(b))
}

// ageAndUnlock right-shifts every activity counter (the paper's aging at
// 1 M-access boundaries) and clears locks whose block is no longer hot. An
// unlocked interleaved block keeps all its subblocks resident (bits stay
// Full) and simply rejoins normal swapping (§III-C). Frames are visited in
// frame-id order (way-major over the set-major table), so observers see
// unlocks in ascending frame order.
func (c *Controller) ageAndUnlock() {
	fs := c.fs
	for w := 0; w < fs.ways; w++ {
		for s := uint64(0); s < fs.sets; s++ {
			fr := &fs.set(s)[w]
			fr.nmCtr >>= 1
			fr.fmCtr >>= 1
			if !fr.locked {
				continue
			}
			f := fs.frameID(s, w)
			hot, blk := uint32(fr.fmCtr), fr.block()
			if fr.lockHome {
				hot, blk = uint32(fr.nmCtr), f
			}
			// Unlock with hysteresis: a block must cool to half the locking
			// threshold before it rejoins swapping, avoiding lock/unlock
			// churn at the boundary.
			if hot < c.cfg.HotThreshold/2 {
				fs.setLock(fr, false, false)
				c.sys.Stats.Unlocks++
				c.sys.NoteUnlock(f, blk)
			}
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

// Gauges implements mem.GaugeProvider: the instantaneous scheme state the
// epoch sampler reports alongside counter deltas (§III mechanisms: frame
// residency, locking, the bypass governor, the history table, the
// dedicated metadata channel). It runs every epoch, so it reads the frame
// counts the mutators keep current and allocates only the returned slice.
func (c *Controller) Gauges() []mem.Gauge {
	n := c.fs.counts
	used, total := c.hist.occupancy()
	histRate := 0.0
	if c.hist.lookups > 0 {
		histRate = float64(c.hist.hits) / float64(c.hist.lookups)
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
		{Name: "mean_residency", Value: n.meanResidency()},
		{Name: "bypassing", Value: bypassing},
		{Name: "bypass_toggles", Value: float64(c.gov.toggles)},
		{Name: "history_occupancy", Value: float64(used) / float64(total)},
		{Name: "history_hit_rate", Value: histRate},
		{Name: "history_prefetches", Value: float64(c.historyPrefetches)},
		{Name: "restores", Value: float64(c.restores)},
		{Name: "meta_row_hit_rate", Value: metaRowRate},
		{Name: "meta_queue_depth", Value: float64(c.meta.QueueDepth())},
	}
}

// LockState implements mem.LockProbe: the lock state of the NM frame
// backing pa's flat block. For an NM-range address that is the home frame;
// for an FM-range address it is the frame (if any) whose remap currently
// interleaves the block. Pure and O(associativity).
func (c *Controller) LockState(pa uint64) (locked, home bool) {
	if _, fr := c.fs.lookup(memunits.BlockOf(pa)); fr != nil {
		return fr.locked, fr.lockHome
	}
	return false, false
}
