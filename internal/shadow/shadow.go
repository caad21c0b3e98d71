// Package shadow implements a continuous differential data-integrity
// checker for flat-memory organization schemes. It assigns every flat
// subblock a unique token, mirrors the controller's data movement at device
// granularity by consuming the semantic events a mem.System emits
// (mem.Observer), and verifies on every demand access that the data the
// controller touches is the data the flat address owns. Where mem.Audit
// only proves the Locate mapping is a bijection at one instant, the shadow
// checker also catches ordering and data-loss bugs in the movement paths
// themselves — e.g. a swap that overwrites a location before its old
// contents were read out.
//
// The model: each device subblock slot holds at most one token; moving data
// is "capture" (read the slot's token into a controller-held buffer) then
// "deliver" (write the oldest captured token of that slot elsewhere). A
// write that lands on a slot holding the only live copy of a token that was
// never captured has destroyed data, and is reported immediately.
package shadow

import (
	"fmt"

	"silcfm/internal/mem"
	"silcfm/internal/memunits"
	"silcfm/internal/stats"
)

// noToken marks a device slot that never held flat data (e.g. the idle NM
// device of the no-NM baseline).
const noToken = ^uint32(0)

// defaultSweepEvery is how many demand accesses pass between strided
// Locate-agreement sweeps.
const defaultSweepEvery = 2048

// defaultSweepStride is the sampling stride of the periodic sweep; the
// offset rotates so repeated sweeps cover different tokens.
const defaultSweepStride = 97

// Checker wraps a mem.Controller and implements mem.Observer. Install it
// with New, which hooks it into the System; route Handle calls through the
// wrapper and call Check at quiescence for the full sweep.
type Checker struct {
	inner mem.Controller
	sys   *mem.System

	nmFlatSubs uint64 // flat subblocks homed in NM
	totalSubs  uint64 // total flat subblocks = tokens
	nmDevSubs  uint64 // NM device slots
	fmDevSubs  uint64 // FM device slots

	slot    []uint32 // device slot -> resident token (noToken if none)
	tokenAt []uint64 // token -> slot holding its live copy
	written []bool   // token has carried demand-written data
	// held[slot] queues tokens captured from that slot and not yet
	// delivered; inflight[token] counts its captured copies.
	held     map[uint64][]uint32
	inflight map[uint32]int
	heldCnt  int

	// SweepEvery and SweepStride control the periodic strided sweep; zero
	// values take the defaults.
	SweepEvery  uint64
	SweepStride uint64

	accesses uint64
	events   uint64
	sweeps   uint64
	err      error
}

// New builds a checker over ctl and installs it as sys's observer. nmFlat
// and fmFlat are the flat-address capacities homed in NM and FM (for every
// scheme but the no-NM baseline these are sys.NMCap and sys.FMCap; the
// baseline homes everything in FM, nmFlat = 0).
func New(ctl mem.Controller, sys *mem.System, nmFlat, fmFlat uint64) *Checker {
	k := &Checker{
		inner:      ctl,
		sys:        sys,
		nmFlatSubs: memunits.SubblocksIn(nmFlat),
		totalSubs:  memunits.SubblocksIn(nmFlat + fmFlat),
		nmDevSubs:  memunits.SubblocksIn(sys.NMCap),
		fmDevSubs:  memunits.SubblocksIn(sys.FMCap),
		held:       make(map[uint64][]uint32),
		inflight:   make(map[uint32]int),
	}
	k.slot = make([]uint32, k.nmDevSubs+k.fmDevSubs)
	for i := range k.slot {
		k.slot[i] = noToken
	}
	k.tokenAt = make([]uint64, k.totalSubs)
	k.written = make([]bool, k.totalSubs)
	// Initial placement is the home mapping: token t sits in its flat home
	// slot (NM tokens in NM, FM tokens at their FM device offset).
	for t := uint64(0); t < k.totalSubs; t++ {
		s := t
		if t >= k.nmFlatSubs {
			s = k.nmDevSubs + (t - k.nmFlatSubs)
		}
		k.slot[s] = uint32(t)
		k.tokenAt[t] = s
	}
	sys.AttachObserver(k)
	return k
}

// Name implements mem.Controller.
func (k *Checker) Name() string { return k.inner.Name() }

// Locate implements mem.Controller.
func (k *Checker) Locate(pa uint64) mem.Location { return k.inner.Locate(pa) }

// Handle implements mem.Controller: it forwards to the wrapped controller,
// then verifies the access left the model consistent — every captured
// subblock delivered, and Locate agreeing with the shadow placement for the
// accessed address. Periodically it runs a strided sweep over all tokens.
func (k *Checker) Handle(a *mem.Access) {
	k.inner.Handle(a)
	if k.err != nil {
		return
	}
	k.accesses++
	if k.heldCnt != 0 {
		k.failf("%d captured subblock(s) never delivered after access to flat %#x", k.heldCnt, a.PAddr)
		return
	}
	k.checkToken(memunits.SubblockOf(a.PAddr))
	every := k.SweepEvery
	if every == 0 {
		every = defaultSweepEvery
	}
	if k.accesses%every == 0 {
		k.sweep()
	}
}

// Err returns the first integrity violation observed, if any.
func (k *Checker) Err() error { return k.err }

// Accesses returns how many demand accesses the checker has seen.
func (k *Checker) Accesses() uint64 { return k.accesses }

// Events returns how many semantic data-movement events were applied.
func (k *Checker) Events() uint64 { return k.events }

// Check runs the full end-of-run verification: no undelivered captures and
// Locate agreement for every flat subblock. Call at quiescence.
func (k *Checker) Check() error {
	if k.err == nil && k.heldCnt != 0 {
		k.failf("%d captured subblock(s) never delivered at quiescence", k.heldCnt)
	}
	for t := uint64(0); t < k.totalSubs && k.err == nil; t++ {
		k.checkToken(t)
	}
	return k.err
}

// sweep spot-checks Locate agreement over a rotating stride of tokens.
func (k *Checker) sweep() {
	stride := k.SweepStride
	if stride == 0 {
		stride = defaultSweepStride
	}
	for t := k.sweeps % stride; t < k.totalSubs && k.err == nil; t += stride {
		k.checkToken(t)
	}
	k.sweeps++
}

// checkToken verifies the controller's Locate answer for token t's flat
// address against the shadow placement.
func (k *Checker) checkToken(t uint64) {
	if t >= k.totalSubs || k.err != nil {
		return
	}
	pa := memunits.SubblockBase(t)
	s, ok := k.slotOf(k.inner.Locate(pa))
	if !ok {
		k.failf("Locate(%#x) = invalid location", pa)
		return
	}
	if k.tokenAt[t] != s || k.slot[s] != uint32(t) {
		k.failf("Locate(%#x) says %s but the live copy sits at %s (slot holds %s)",
			pa, k.slotName(s), k.slotName(k.tokenAt[t]), k.tokenName(k.slot[s]))
	}
}

// --- mem.Observer ---

// Demand implements mem.Observer: flat address pa's data is accessed at
// loc. Reads must find pa's token there; writes deposit it there, which is
// only legal if the displaced contents are dead or captured.
func (k *Checker) Demand(pa uint64, loc mem.Location, write bool) {
	if k.err != nil {
		return
	}
	k.events++
	t := memunits.SubblockOf(pa)
	if t >= k.totalSubs {
		k.failf("demand to flat %#x beyond flat capacity", pa)
		return
	}
	s, ok := k.slotOf(loc)
	if !ok {
		k.failf("demand for flat %#x at invalid location %s %#x", pa, loc.Level, loc.DevAddr)
		return
	}
	if write {
		k.place(s, uint32(t), fmt.Sprintf("demand write of flat %#x", pa))
		k.written[t] = true
		return
	}
	if k.slot[s] != uint32(t) {
		k.failf("demand read of flat %#x at %s returns %s, not its own data",
			pa, k.slotName(s), k.tokenName(k.slot[s]))
	}
}

// Capture implements mem.Observer: loc's contents are read out and held.
func (k *Checker) Capture(loc mem.Location) {
	if k.err != nil {
		return
	}
	k.events++
	s, ok := k.slotOf(loc)
	if !ok {
		k.failf("capture at invalid location %s %#x", loc.Level, loc.DevAddr)
		return
	}
	v := k.slot[s]
	if v == noToken {
		k.failf("capture of %s, which holds no flat data", k.slotName(s))
		return
	}
	k.held[s] = append(k.held[s], v)
	k.inflight[v]++
	k.heldCnt++
}

// Deliver implements mem.Observer: the oldest captured copy of src lands at
// dst.
func (k *Checker) Deliver(src, dst mem.Location) {
	if k.err != nil {
		return
	}
	k.events++
	ss, ok := k.slotOf(src)
	if !ok {
		k.failf("deliver from invalid location %s %#x", src.Level, src.DevAddr)
		return
	}
	ds, ok := k.slotOf(dst)
	if !ok {
		k.failf("deliver to invalid location %s %#x", dst.Level, dst.DevAddr)
		return
	}
	q := k.held[ss]
	if len(q) == 0 {
		k.failf("deliver from %s without a prior capture (ordering bug)", k.slotName(ss))
		return
	}
	v := q[0]
	if len(q) == 1 {
		delete(k.held, ss)
	} else {
		k.held[ss] = q[1:]
	}
	k.heldCnt--
	if k.inflight[v] == 1 {
		delete(k.inflight, v)
	} else {
		k.inflight[v]--
	}
	k.place(ds, v, fmt.Sprintf("delivery of %s", k.tokenName(v)))
}

// Relocate implements mem.Observer: dst takes src's contents via a one-way
// copy; dst's old contents are dropped, legal only if they never carried
// demand-written data.
func (k *Checker) Relocate(src, dst mem.Location) {
	if k.err != nil {
		return
	}
	k.events++
	ss, ok := k.slotOf(src)
	if !ok {
		k.failf("relocate from invalid location %s %#x", src.Level, src.DevAddr)
		return
	}
	ds, ok := k.slotOf(dst)
	if !ok {
		k.failf("relocate to invalid location %s %#x", dst.Level, dst.DevAddr)
		return
	}
	v := k.slot[ss]
	if v == noToken {
		k.failf("relocate from %s, which holds no flat data", k.slotName(ss))
		return
	}
	old := k.slot[ds]
	if old == v {
		return
	}
	if old != noToken && k.tokenAt[old] == ds {
		if k.written[old] {
			k.failf("relocation into %s destroyed %s's demand-written data", k.slotName(ds), k.tokenName(old))
			return
		}
		// The displaced (never-written) token's nominal home follows the
		// exchange of ownership, mirroring the scheme's remap swap.
		k.slot[ss] = old
		k.tokenAt[old] = ss
	}
	k.slot[ds] = v
	k.tokenAt[v] = ds
}

// place moves token v's live copy to slot s, flagging data loss if s holds
// the only uncaptured live copy of another token.
func (k *Checker) place(s uint64, v uint32, what string) {
	old := k.slot[s]
	if old == v {
		return
	}
	if old != noToken && k.tokenAt[old] == s && k.inflight[old] == 0 {
		k.failf("data loss: %s overwrote %s at %s before it was read out",
			what, k.tokenName(old), k.slotName(s))
		return
	}
	k.slot[s] = v
	k.tokenAt[v] = s
}

// slotOf maps a device location to a global slot index. Locations inside a
// subblock (demand accesses carry byte addresses) map to the slot holding
// them.
func (k *Checker) slotOf(loc mem.Location) (uint64, bool) {
	i := loc.DevAddr / memunits.SubblockSize
	if loc.Level == stats.NM {
		if i >= k.nmDevSubs {
			return 0, false
		}
		return i, true
	}
	if i >= k.fmDevSubs {
		return 0, false
	}
	return k.nmDevSubs + i, true
}

// slotName renders a slot index as a device location for error messages.
func (k *Checker) slotName(s uint64) string {
	if s < k.nmDevSubs {
		return fmt.Sprintf("NM %#x", s*memunits.SubblockSize)
	}
	return fmt.Sprintf("FM %#x", (s-k.nmDevSubs)*memunits.SubblockSize)
}

// tokenName renders a token for error messages.
func (k *Checker) tokenName(t uint32) string {
	if t == noToken {
		return "no data"
	}
	return fmt.Sprintf("flat %#x's data", memunits.SubblockBase(uint64(t)))
}

// failf records the first violation; subsequent events are ignored so the
// report points at the root cause.
func (k *Checker) failf(format string, args ...interface{}) {
	if k.err == nil {
		k.err = fmt.Errorf("shadow[%s] after %d accesses / %d events: %s",
			k.inner.Name(), k.accesses, k.events, fmt.Sprintf(format, args...))
	}
}
