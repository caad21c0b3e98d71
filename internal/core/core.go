// Package core implements SILC-FM, the paper's contribution (§III): a flat
// NM+FM organization that remaps at large-block (2 KB) granularity but
// moves data at subblock (64 B) granularity, interleaving subblocks of one
// FM block into an NM frame under a per-frame bit vector, with the bit
// vector history, locking, set associativity, bandwidth-balancing bypass
// and a way/location predictor on top. The placement machine decides Table
// I; the Controller shell replays its moves through the memory system and
// keeps the remap metadata on a dedicated channel (§III-D).
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

// Controller is the SILC-FM scheme: the timing shell around the placement
// machine. It replays the machine's moves through the memory system,
// charges the metadata channel and counts what the moves did.
type Controller struct {
	sys   *mem.System
	place *placement
	// meta is the dedicated metadata channel (§III-D): one HBM channel
	// holding one 64-byte line of remap entries per set. Same-set metadata
	// operations coalesce the way demand misses coalesce in MSHRs; the
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
}

// New builds a SILC-FM controller over sys.
func New(sys *mem.System, cfg config.SILCConfig) *Controller {
	place := newPlacement(memunits.BlocksIn(sys.NMCap), cfg)
	sets := place.fs.sets
	// One 64-byte line of remap entries per SET (all ways share the line),
	// not per frame: sizing by frame count would over-provision the channel
	// by the associativity factor and skew energy/row-buffer accounting.
	metaCfg := config.HBM(sets * 64)
	metaCfg.Name = "HBM-meta"
	metaCfg.Channels = 1
	c := &Controller{
		sys:           sys,
		place:         place,
		meta:          dram.New(metaCfg, sys.Eng),
		metaBgPend:    make([]bool, sets),
		metaWritePend: make([]bool, sets),
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

// home returns the home location of subblock idx of flat block b.
func (c *Controller) home(b uint64, idx uint) mem.Location {
	return c.sys.HomeLocation(memunits.SubblockAddr(b, idx))
}

// Locate implements mem.Controller.
func (c *Controller) Locate(pa uint64) mem.Location {
	idx := memunits.SubblockIndex(pa)
	return c.home(c.place.holder(memunits.BlockOf(pa), idx), idx)
}

// Handle implements mem.Controller.
func (c *Controller) Handle(a *mem.Access) {
	st := c.sys.Stats
	st.LLCMisses++
	b := memunits.BlockOf(a.PAddr)
	idx := memunits.SubblockIndex(a.PAddr)
	// Way/location prediction decides whether the demand path waits for
	// the serialized metadata fetch (§III-F).
	unlocks, hit, checked := c.place.check(b, idx, a.PC, a.PAddr)
	c.replay(nil, false, unlocks)
	if checked {
		if hit {
			st.PredictorHits++
		} else {
			st.PredictorMisses++
		}
	}
	if !hit {
		// Pay the serialized remap-entry fetch (§III-F: without a correct
		// prediction the way entries are checked in series before the data
		// access); the line itself rides the dedicated channel. The stall
		// is a mispredict penalty after a predictor miss, else a plain
		// metadata fetch (predictor disabled).
		span := stats.SpanMetaFetch
		if checked {
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
		op.a, op.b, op.idx, op.mispred = a, b, idx, checked
		c.sys.Eng.After(c.metaLatency, op.fn)
		return
	}
	// Predicted: the verification fetch proceeds off the critical path.
	c.readMeta(b, metaEntrySize)
	dispatchOp{c: c, a: a, b: b, idx: idx}.dispatch()
}

// readMeta charges block b's set-metadata transfer to the dedicated
// channel. Reads of a set with one already in flight dedupe MSHR-style.
// The demand-path cost of a metadata fetch is the fixed serialized latency
// applied in Handle, not this queue.
func (c *Controller) readMeta(b uint64, n uint64) {
	s := c.place.fs.setOf(b)
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
	d := *op
	op.a = nil
	op.next = d.c.freeDispatch
	d.c.freeDispatch = op
	d.dispatch()
}

// dispatch runs Table I for the op's access: the demand step, whose demand
// is issued before the settle step's restores, installs, replays and
// locks. A mispredicted access's demand takes the mispredict path.
func (op dispatchOp) dispatch() {
	c, a := op.c, op.a
	now, pc, pa := c.sys.Eng.Now(), a.PC, a.PAddr
	f, fr, moves := c.place.demand(op.b, op.idx, now)
	c.replay(a, op.mispred, moves)
	c.replay(nil, false, c.place.settle(op.b, f, fr, op.idx, pc, pa, now))
}

// replay issues a placement step's moves in order and counts them: a is
// the access the step's demand move serves, and mispred moves that demand
// to the mispredict path.
func (c *Controller) replay(a *mem.Access, mispred bool, moves []move) {
	st := c.sys.Stats
	for _, mv := range moves {
		src, dst, path := c.home(mv.src, mv.idx), c.home(mv.dst, mv.idx), mv.path
		if mispred {
			path = stats.PathMispredict
		}
		switch mv.kind {
		case moveServe:
			if mv.path == stats.PathBypass {
				st.BypassedAccesses++
			}
			c.sys.ServiceAccess(a, src, path)
		case moveDemandIn:
			st.SwapsIn++
			c.sys.SwapAccess(a, src, dst, path)
		case moveDemandOut:
			st.SwapsOut++
			c.sys.SwapAccess(a, src, dst, path)
		case moveSwapIn:
			st.SwapsIn++
			c.sys.ExchangeSubblocks(src, dst)
		case moveSwapOut:
			st.SwapsOut++
			c.sys.ExchangeSubblocks(src, dst)
		case moveMetaWrite:
			c.writeMetaUpdate(mv.src)
		case moveLock:
			st.Locks++
			c.sys.NoteLock(mv.src, mv.dst, mv.src == mv.dst)
		case moveUnlock:
			st.Unlocks++
			c.sys.NoteUnlock(mv.src, mv.dst)
		}
	}
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
	p, n, ms := c.place, c.place.fs.counts, c.meta.Stats()
	bypassing := 0.0
	if p.gov.bypassing() {
		bypassing = 1
	}
	return []mem.Gauge{
		{Name: "locked_frames", Value: float64(n.locked)},
		{Name: "locked_home_frames", Value: float64(n.lockedHome)},
		{Name: "interleaved_frames", Value: float64(n.interleaved)},
		{Name: "resident_subblocks", Value: float64(n.resident)},
		{Name: "mean_residency", Value: stats.Ratio(float64(n.resident), float64(n.interleaved))},
		{Name: "bypassing", Value: bypassing},
		{Name: "bypass_toggles", Value: float64(p.gov.toggles)},
		{Name: "history_occupancy", Value: float64(p.hist.used) / float64(len(p.hist.tags))},
		{Name: "history_hit_rate", Value: stats.Ratio(float64(p.hist.hits), float64(p.hist.lookups))},
		{Name: "history_prefetches", Value: float64(p.historyPrefetches)},
		{Name: "restores", Value: float64(p.restores)},
		{Name: "meta_row_hit_rate", Value: stats.Ratio(float64(ms.RowHits), float64(ms.RowHits+ms.RowMisses))},
		{Name: "meta_queue_depth", Value: float64(c.meta.QueueDepth())},
	}
}

// LockState implements mem.LockProbe: the lock state of the NM frame
// backing pa's flat block, its home frame or the frame (if any) that
// interleaves it. Pure and O(associativity).
func (c *Controller) LockState(pa uint64) (locked, home bool) {
	if _, fr := c.place.fs.lookup(memunits.BlockOf(pa)); fr != nil {
		return fr.locked, fr.lockHome
	}
	return false, false
}
