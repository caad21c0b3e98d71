package schemes

import (
	"silcfm/internal/dram"
	"silcfm/internal/mem"
	"silcfm/internal/memunits"
	"silcfm/internal/stats"
)

// remapEntrySize is the per-group metadata carried in the extended burst.
const remapEntrySize = 8

// lineWrite is the device request of one 64 B line write; lineMetaRead
// reads a line with its group's remap entry in the extended burst.
var (
	lineWrite    = dram.Request{Bytes: memunits.SubblockSize, Write: true}
	lineMetaRead = dram.Request{Bytes: memunits.SubblockSize, MetaBytes: remapEntrySize}
)

// cameo is CAMEO (§II-B): the near memory is organized as a direct-mapped
// structure of 64 B lines; a requested far-memory line swaps with the
// NM-resident line of its congruence group on every access, so the OS sees
// NM+FM capacity while hot lines gravitate to NM. The remap entry for a
// group is stored next to the data in the same NM row and fetched by
// lengthening the burst, so each NM access needs a single memory request.
//
// CAMEOP is CAMEO plus a next-3-line prefetcher (§IV-A: the paper
// additionally evaluates CAMEO with prefetching to expose spatial-locality
// effects; 3 lines were found best).
type cameo struct {
	sys      *mem.System
	prefetch int // extra sequential lines fetched on an FM hit (CAMEOP)

	// perm holds one congruence group per NM line: the line's NM slot is
	// location 0, and the FM/NM lines congruent to it are homed in FM.
	perm remap[uint8]

	// freeSwap recycles swapOp continuation records so steady-state FM-hit
	// swaps allocate nothing.
	freeSwap *swapOp
}

// swapOp carries one FM-hit access through its serialized continuations:
// the remap-entry check in NM (whose extended burst reads out the victim),
// then for reads the FM demand fetch. The callbacks are method values bound
// once when the record is first built, so reusing a record costs no
// allocation; each terminal callback copies what it needs to locals and
// recycles the record before issuing follow-on requests.
type swapOp struct {
	c         *cameo
	a         *mem.Access
	done      func()
	metaStart uint64
	fmLoc     mem.Location
	nmSlot    mem.Location
	evictLoc  mem.Location
	metaFn    func() // bound metaDone
	demandFn  func() // bound demandDone
	next      *swapOp
}

func (o *swapOp) release() {
	o.a = nil
	o.done = nil
	o.next = o.c.freeSwap
	o.c.freeSwap = o
}

func (o *swapOp) metaDone() {
	c := o.c
	a := o.a
	// Everything up to here was the serialized remap-entry check in NM
	// (queue + extended-burst service of the victim line): charge it as
	// metadata-fetch time on the demand path.
	a.AddSpan(stats.SpanMetaFetch, c.sys.Eng.Now()-o.metaStart)
	if a.Write {
		// Write allocate: new data lands in NM, victim goes to FM.
		done := o.done
		nmSlot, evictLoc := o.nmSlot, o.evictLoc
		o.release()
		c.sys.Submit(nmSlot, stats.Demand, lineWrite)
		c.sys.Submit(evictLoc, stats.Migration, lineWrite)
		if done != nil {
			done()
		}
		return
	}
	c.sys.Submit(o.fmLoc, stats.Demand, dram.Request{Bytes: memunits.SubblockSize, Trace: a.SpanTrace(), Done: o.demandFn})
}

func (o *swapOp) demandDone() {
	// Demand data returned; install + evict in the background.
	c := o.c
	done := o.done
	nmSlot, evictLoc := o.nmSlot, o.evictLoc
	o.release()
	if done != nil {
		done()
	}
	c.sys.Submit(nmSlot, stats.Migration, lineWrite)
	c.sys.Submit(evictLoc, stats.Migration, lineWrite)
}

// newCAMEO builds a CAMEO controller: prefetch 0 gives original CAMEO, 3
// the paper's CAMEOP.
func newCAMEO(sys *mem.System, prefetch int) *cameo {
	slots := memunits.SubblocksIn(sys.NMCap)
	return &cameo{
		sys:      sys,
		prefetch: prefetch,
		perm:     newRemap[uint8](slots, 1, int(memunits.SubblocksIn(sys.NMCap+sys.FMCap)/slots)),
	}
}

// Name implements mem.Controller.
func (c *cameo) Name() string {
	if c.prefetch > 0 {
		return "camp"
	}
	return "cam"
}

// home returns where location l of group g sits.
func (c *cameo) home(g uint64, l int) mem.Location {
	return c.sys.HomeLocation(c.perm.unit(g, l) * memunits.SubblockSize)
}

// Locate implements mem.Controller.
func (c *cameo) Locate(pa uint64) mem.Location {
	g, m := c.perm.split(memunits.SubblockOf(pa))
	return c.home(g, c.perm.loc(g, m))
}

// Gauges implements mem.GaugeProvider.
func (c *cameo) Gauges() []mem.Gauge {
	return []mem.Gauge{
		{Name: "nm_foreign_lines", Value: float64(c.perm.foreign)},
		{Name: "nm_foreign_fraction", Value: float64(c.perm.foreign) / float64(c.perm.sets)},
	}
}

// Handle implements mem.Controller.
func (c *cameo) Handle(a *mem.Access) {
	st := c.sys.Stats
	st.LLCMisses++
	sb := memunits.SubblockOf(a.PAddr)
	g, m := c.perm.split(sb)
	loc := c.perm.loc(g, m)
	nmSlot := c.home(g, 0)

	if loc == 0 {
		// NM hit: one extended-burst access returns remap entry + data.
		st.ServicedNM++
		done := c.sys.DemandDone(a, stats.PathNMHit)
		c.sys.NoteDemand(a.PAddr, nmSlot, a.Write)
		if a.Write {
			// The remap-entry update rides the demand write's burst: it is
			// accounted as metadata bytes without a device request of its
			// own (the write completes at submission either way).
			c.sys.Submit(nmSlot, stats.Demand, lineWrite)
			c.sys.AddBytesRideAlong(stats.NM, stats.Metadata, remapEntrySize)
			if done != nil {
				done()
			}
		} else {
			r := lineMetaRead
			r.Trace, r.Done = a.SpanTrace(), done
			c.sys.Submit(nmSlot, stats.Demand, r)
		}
		return
	}

	// FM resident. The NM line must be read anyway: its extended burst
	// holds the remap entry that proves the miss, and its data is the swap
	// victim. The FM access is serialized behind it (§III-F: the remap
	// entry has to be checked first in NM prior to accessing FM).
	st.ServicedFM++
	done := c.sys.DemandDone(a, stats.PathSwap)
	metaStart := c.sys.Eng.Now()
	fmLoc := c.home(g, loc)
	evictLoc := fmLoc // the victim moves to the requested line's old home
	c.perm.exchange(g, m, c.perm.at(g, 0))
	// Dataflow: the victim is read out of the NM slot first (its extended
	// burst proves the miss); reads pull the requested line through the NM
	// slot while writes deposit the new data there directly; the victim
	// lands at the requested line's old FM home either way.
	c.sys.NoteCapture(nmSlot)
	if a.Write {
		c.sys.NoteDemand(a.PAddr, nmSlot, true)
	} else {
		c.sys.NoteDemand(a.PAddr, fmLoc, false)
		c.sys.NoteCapture(fmLoc)
		c.sys.NoteDeliver(fmLoc, nmSlot)
	}
	c.sys.NoteDeliver(nmSlot, evictLoc)
	op := c.freeSwap
	if op == nil {
		op = &swapOp{c: c}
		op.metaFn = op.metaDone
		op.demandFn = op.demandDone
	} else {
		c.freeSwap = op.next
	}
	op.a = a
	op.done = done
	op.metaStart = metaStart
	op.fmLoc = fmLoc
	op.nmSlot = nmSlot
	op.evictLoc = evictLoc
	r := lineMetaRead
	r.Done = op.metaFn
	c.sys.Submit(nmSlot, stats.Migration, r)
	c.maybePrefetch(sb)
}

// maybePrefetch swaps in the next lines after a demand miss to FM (CAMEOP:
// "a prefetcher that fetches extra 3 lines along with the miss", §IV-A).
func (c *cameo) maybePrefetch(sb uint64) {
	if c.prefetch == 0 {
		return
	}
	total := memunits.SubblocksIn(c.sys.NMCap + c.sys.FMCap)
	for i := 1; i <= c.prefetch; i++ {
		nsb := sb + uint64(i)
		if nsb >= total {
			break
		}
		g, m := c.perm.split(nsb)
		loc := c.perm.loc(g, m)
		if loc == 0 {
			continue // already NM resident
		}
		fmLoc := c.home(g, loc)
		nmSlot := c.home(g, 0)
		c.perm.exchange(g, m, c.perm.at(g, 0))
		// Prefetch swap traffic: read both sides, write both sides.
		c.sys.ExchangeSubblocks(fmLoc, nmSlot)
		c.sys.Stats.SwapsIn++
	}
}
