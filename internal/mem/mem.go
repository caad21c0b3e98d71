// Package mem defines the contract between the CPU side and the flat-memory
// organization schemes, wires the two DRAM devices together, and provides
// the data-integrity audit that every swapping scheme must pass: the
// mapping from flat physical subblocks to device locations must remain a
// bijection (flat memory has exactly one copy of every byte — §III-A, "data
// in NM is the only copy of the data in the physical address space").
package mem

import (
	"fmt"
	"slices"

	"silcfm/internal/config"
	"silcfm/internal/dram"
	"silcfm/internal/memunits"
	"silcfm/internal/sim"
	"silcfm/internal/stats"
)

// Access is one LLC miss (or LLC writeback) entering the memory system.
type Access struct {
	Core  int
	PC    uint64
	PAddr uint64 // flat physical address; NM occupies [0, NMCapacity)
	Write bool
	// Start is the cycle at which the access entered the memory system
	// (set by the submitting core); per-path latency telemetry measures
	// completion relative to it, so serialized metadata fetches paid
	// before dispatch are included.
	Start uint64
	// Done is called when the demand data is available (reads) or accepted
	// (writes). May be nil.
	Done func()

	// spans accumulates this access's latency attribution (stats.Span):
	// devices and scheme controllers stamp named components as the access
	// moves through the system, and the completion callback from
	// DemandDone folds them into System.Attr with the residual in
	// stats.SpanOther.
	spans [stats.NumSpans]uint64

	// sys/path record the DemandDone classification so the prebound
	// completion callback below can fold the access into the accounting.
	sys  *System
	path stats.DemandPath

	// Issue is the context an issue observer (the exemplar recorder)
	// sampled when the demand was dispatched; HasIssue reports whether one
	// did. Reset clears both, so a pooled access never carries a previous
	// demand's context.
	Issue    DemandContext
	HasIssue bool

	// traceFn/completeFn are this access's callbacks (SpanTrace and the
	// DemandDone completion), bound lazily on first use and then reused —
	// a pooled access recycled through Reset never allocates them again.
	traceFn    func(queue, service uint64)
	completeFn func()
}

// Reset prepares a pooled Access for reuse: it reinitializes the public
// fields and clears the accumulated spans while preserving the lazily bound
// callbacks, which is what makes recycling allocation-free. Only legal once
// the previous use has fully completed.
func (a *Access) Reset(core int, pc, paddr uint64, write bool, start uint64, done func()) {
	a.Core, a.PC, a.PAddr, a.Write, a.Start, a.Done = core, pc, paddr, write, start, done
	a.sys = nil
	a.path = 0
	a.spans = [stats.NumSpans]uint64{}
	a.Issue, a.HasIssue = DemandContext{}, false
}

// AddSpan charges cycles of this access's latency to span s.
func (a *Access) AddSpan(s stats.Span, cycles uint64) {
	if s >= 0 && s < stats.NumSpans {
		a.spans[s] += cycles
	}
}

// Spans returns the per-span attribution accumulated so far.
func (a *Access) Spans() [stats.NumSpans]uint64 { return a.spans }

// SpanTrace returns a dram.Request Trace callback that charges the demand
// device request's queue-wait and service time to this access. The callback
// is bound once per Access and reused across calls (and across pooled
// reuses via Reset).
func (a *Access) SpanTrace() func(queue, service uint64) {
	if a.traceFn == nil {
		a.traceFn = func(queue, service uint64) {
			a.spans[stats.SpanQueue] += queue
			a.spans[stats.SpanService] += service
		}
	}
	return a.traceFn
}

// Location is a device-level position of one subblock.
type Location struct {
	Level   stats.MemLevel
	DevAddr uint64 // subblock-aligned device-local address
}

// DemandContext is the instantaneous system state sampled around one
// demand access: where its subblock sat, the scheme's lock state for its
// block (LockProbe) and the target DRAM bank's row-buffer and queue state.
type DemandContext struct {
	Cycle    uint64
	Loc      Location
	Locked   bool
	LockHome bool
	RowOpen  bool
	BankLoad int
}

// Controller is a flat-memory organization scheme.
type Controller interface {
	Name() string
	// Handle services one LLC miss.
	Handle(a *Access)
	// Locate reports where the subblock containing flat address pa
	// currently resides. Pure; used by audits and tests.
	Locate(pa uint64) Location
}

// Observer receives the semantic data-movement events of a System. Events
// are emitted eagerly at submission time, in dataflow order: a location's
// contents are always captured (read out) before anything overwrites them,
// and every capture is delivered exactly once. The shadow checker
// (internal/shadow) implements this to track where every flat subblock's
// data lives and to catch ordering/data-loss bugs that the end-of-run
// mapping audit cannot see.
type Observer interface {
	// Demand: flat address pa's data is accessed at loc. Reads return the
	// data stored there; writes deposit pa's new data there.
	Demand(pa uint64, loc Location, write bool)
	// Capture: the contents of loc are read out and held by the controller
	// for a later Deliver.
	Capture(loc Location)
	// Deliver: the oldest undelivered Capture of src lands at dst.
	Deliver(src, dst Location)
	// Relocate: dst takes over src's contents via a one-way copy; dst's
	// previous contents are dropped (legal only if they were never demand
	// data — e.g. HMA migrating a block into a never-used NM frame).
	Relocate(src, dst Location)
}

// SchemeObserver is an optional Observer extension for scheme-level
// semantic events the pure data-movement stream cannot express. Observers
// that only verify dataflow (the shadow checker) need not implement it;
// the telemetry tracer does.
type SchemeObserver interface {
	// Swap: an exchange between a and b was initiated (subblock swap or
	// bulk block DMA); the Capture/Deliver pairs describing its dataflow
	// follow separately.
	Swap(a, b Location)
	// Lock: NM frame was locked over the flat 2 KB block with index
	// block; home reports whether it pins the frame's own home block
	// (true) or an interleaved FM block (false).
	Lock(frame, block uint64, home bool)
	// Unlock: NM frame rejoined normal swapping; block is the flat block
	// index it had pinned.
	Unlock(frame, block uint64)
}

// DemandObserver is an optional Observer extension receiving demand
// completions with their path classification and end-to-end latency. The
// hotness profiler implements it; the callback runs after the access's
// span attribution is final, so a.Spans() is complete.
type DemandObserver interface {
	DemandComplete(a *Access, path stats.DemandPath, lat uint64)
}

// DemandIssueObserver is an optional Observer extension receiving demand
// accesses at issue time — when ServiceAccess/SwapAccess dispatches them to
// the devices, before any (possibly synchronous) completion fires. loc is
// the device location the demand targets (the src side for swaps). Schemes
// that classify completions directly through DemandDone (CAMEO's combined
// remap-read paths) bypass this hook, so issue-side context is best-effort:
// a DemandComplete may arrive for an access that never saw DemandIssue.
type DemandIssueObserver interface {
	DemandIssue(a *Access, path stats.DemandPath, loc Location)
}

// LockProbe is an optional Controller extension exposing the instantaneous
// lock state of the frame backing one flat address (SILC-FM's block
// locking). Pure and O(1); the exemplar recorder samples it at demand issue
// and completion.
type LockProbe interface {
	// LockState reports whether the NM frame currently holding pa's block
	// is locked, and if so whether it pins its own home block (home=true)
	// or an interleaved FM block. (false, false) when pa's block is not
	// NM-resident or the scheme has no locking.
	LockState(pa uint64) (locked, home bool)
}

// Gauge is one named instantaneous scheme measurement, sampled by the
// telemetry epoch sampler alongside the stats.Memory counter deltas.
type Gauge struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
}

// GaugeProvider is implemented by controllers that expose internal state
// (locked frames, governor state, table occupancies) as gauges. Gauges
// returns a fresh slice on every call: the epoch sample keeps it.
type GaugeProvider interface {
	Gauges() []Gauge
}

// System bundles the devices, clock and counters a controller needs.
type System struct {
	Eng   *sim.Engine
	NM    *dram.Device
	FM    *dram.Device
	NMCap uint64
	FMCap uint64
	Stats *stats.Memory

	// Lat accumulates per-path demand-completion latencies (see
	// stats.DemandPath). Always allocated by NewSystem; recording is a
	// histogram increment per access and never schedules events, so it
	// cannot perturb timing.
	Lat *stats.PathLatencies

	// Attr accumulates the per-path span decomposition of the same
	// completions (see stats.Span). Like Lat it is always allocated and
	// always recording; stats.CheckConservation proves its sums equal
	// Lat's end-to-end totals.
	Attr *stats.Attribution

	// inflight counts demand accesses whose ServicedNM/FM counter has
	// ticked but whose completion callback has not yet fired; the
	// conservation audit balances it against the histogram counts.
	inflight uint64

	// RideAlong counts bytes per level that were accounted in Stats.Bytes
	// but rode an existing device request instead of a submission of their
	// own (see AddBytesRideAlong); the conservation audit subtracts them
	// when balancing against device counters.
	RideAlong [2]uint64

	// observers receive semantic data-movement events from the compound
	// operations below (and Note* calls from schemes with custom movement
	// paths); schemeObs, demandObs and issueObs hold the members
	// implementing each optional extension. All four are filled in attach
	// order by AttachObserver.
	observers []Observer
	schemeObs []SchemeObserver
	demandObs []DemandObserver
	issueObs  []DemandIssueObserver

	// FaultInjectSwapOrder reintroduces the pre-fix write-path SwapAccess
	// ordering bug (demand write submitted before dst's old contents are
	// read out, destroying them). Test-only: proves the shadow checker
	// detects the hazard.
	FaultInjectSwapOrder bool

	// freeRelay is the free list of pooled relay continuations, so
	// steady-state swaps and migrations schedule no closure allocations.
	freeRelay *relayOp
}

// relayOp is the pooled continuation of one copy, the step every compound
// move is built from: when the read at the source completes, run then (may
// be nil), then write the n bytes at dst as migration traffic. Its callback
// is a method value bound once at pool-object creation.
type relayOp struct {
	s    *System
	dst  Location
	n    uint64
	then func()

	fn func()

	next *relayOp
}

// relay submits read r of r.Bytes at src, accounted under class, and when
// it completes runs then and writes the bytes at dst.
func (s *System) relay(src, dst Location, class stats.TrafficClass, r dram.Request, then func()) {
	op := s.freeRelay
	if op == nil {
		op = &relayOp{s: s}
		op.fn = op.run
	} else {
		s.freeRelay = op.next
	}
	op.dst, op.n, op.then = dst, r.Bytes, then
	r.Done = op.fn
	s.Submit(src, class, r)
}

// run recycles the op before it calls then, which may start new relays
// synchronously.
func (op *relayOp) run() {
	s, dst, n, then := op.s, op.dst, op.n, op.then
	op.then = nil
	op.next = s.freeRelay
	s.freeRelay = op
	if then != nil {
		then()
	}
	s.Submit(dst, stats.Migration, dram.Request{Bytes: n, Write: true})
}

// NewSystem builds devices for machine m on engine eng. For the no-NM
// baseline the NM device is still constructed (idle) so accounting code is
// uniform.
func NewSystem(m config.Machine, eng *sim.Engine) *System {
	return &System{
		Eng:   eng,
		NM:    dram.New(m.NM, eng),
		FM:    dram.New(m.FM, eng),
		NMCap: m.NM.Capacity,
		FMCap: m.FM.Capacity,
		Stats: &stats.Memory{},
		Lat:   stats.NewPathLatencies(),
		Attr:  &stats.Attribution{},
	}
}

// HomeLocation returns where pa lives with no remapping at all: NM below
// NMCap, FM at pa-NMCap above it. Every scheme but the no-NM baseline, whose
// flat space is FM alone, maps its lines' and blocks' homes through it.
func (s *System) HomeLocation(pa uint64) Location {
	if pa < s.NMCap {
		return Location{Level: stats.NM, DevAddr: pa}
	}
	return Location{Level: stats.FM, DevAddr: pa - s.NMCap}
}

// Device returns the device backing a level.
func (s *System) Device(level stats.MemLevel) *dram.Device {
	if level == stats.NM {
		return s.NM
	}
	return s.FM
}

// NoteDemand reports a demand access to every attached observer. Schemes with
// custom movement paths call this (and the other Note helpers) to describe
// their data flow; the compound System operations call them internally.
func (s *System) NoteDemand(pa uint64, loc Location, write bool) {
	for _, o := range s.observers {
		o.Demand(pa, loc, write)
	}
}

// NoteCapture reports that loc's contents were read out for a later move.
func (s *System) NoteCapture(loc Location) {
	for _, o := range s.observers {
		o.Capture(loc)
	}
}

// NoteDeliver reports that the oldest captured copy of src landed at dst.
func (s *System) NoteDeliver(src, dst Location) {
	for _, o := range s.observers {
		o.Deliver(src, dst)
	}
}

// NoteRelocate reports a one-way copy of src's contents over dst.
func (s *System) NoteRelocate(src, dst Location) {
	for _, o := range s.observers {
		o.Relocate(src, dst)
	}
}

// NoteSwap reports an initiated exchange to observers implementing
// SchemeObserver.
func (s *System) NoteSwap(a, b Location) {
	for _, so := range s.schemeObs {
		so.Swap(a, b)
	}
}

// NoteLock reports a frame lock over flat block index block to observers
// implementing SchemeObserver.
func (s *System) NoteLock(frame, block uint64, home bool) {
	for _, so := range s.schemeObs {
		so.Lock(frame, block, home)
	}
}

// NoteUnlock reports a frame unlock to observers implementing
// SchemeObserver; block is the flat block index the frame had pinned.
func (s *System) NoteUnlock(frame, block uint64) {
	for _, so := range s.schemeObs {
		so.Unlock(frame, block)
	}
}

// DemandDone classifies access a under path for the per-path latency and
// span-attribution accounting and returns the completion callback to use
// in its place: invoking it records now-Start under path, folds the
// access's spans (residual into stats.SpanOther) into Attr, notifies any
// DemandObserver, then chains to a.Done. Every callback returned here must
// be invoked exactly once; the conservation audit counts the callbacks
// still outstanding.
func (s *System) DemandDone(a *Access, path stats.DemandPath) func() {
	if s.Lat == nil {
		return a.Done
	}
	s.inflight++
	a.sys = s
	a.path = path
	if a.completeFn == nil {
		a.completeFn = a.complete
	}
	return a.completeFn
}

// complete is the DemandDone completion body, held as a prebound method
// value on the access so classification allocates nothing.
func (a *Access) complete() {
	s := a.sys
	total := s.Eng.Now() - a.Start
	var known uint64
	for sp := stats.Span(0); sp < stats.SpanOther; sp++ {
		known += a.spans[sp]
	}
	if known <= total {
		// The residual (any wait the instrumentation does not name)
		// lands in SpanOther so the span sum telescopes to the
		// end-to-end latency exactly. An overshoot is left unbalanced
		// for CheckConservation to flag instead of clamping it away.
		a.spans[stats.SpanOther] = total - known
	}
	s.Lat.Observe(a.path, total)
	if s.Attr != nil {
		s.Attr.Observe(a.path, &a.spans)
	}
	s.inflight--
	for _, do := range s.demandObs {
		do.DemandComplete(a, a.path, total)
	}
	if a.Done != nil {
		a.Done()
	}
}

// InflightDemands reports demand accesses serviced but not yet completed.
func (s *System) InflightDemands() uint64 { return s.inflight }

// Submit accounts r.Bytes under class and r.MetaBytes as metadata on loc's
// level, addresses r at loc and submits it to that level's device. Reads,
// writes, extended-burst reads (CAMEO's in-row remap entries), traced
// demand reads and background DMA differ only in r's fields.
func (s *System) Submit(loc Location, class stats.TrafficClass, r dram.Request) {
	s.Stats.AddBytes(loc.Level, class, r.Bytes)
	s.Stats.AddBytes(loc.Level, stats.Metadata, r.MetaBytes)
	r.Addr = loc.DevAddr
	s.Device(loc.Level).Submit(r)
}

// AddBytesRideAlong accounts traffic that rides an existing device request
// instead of a submission of its own (CAMEO's remap-entry update folded
// into an NM demand write). It keeps Stats.Bytes complete while telling
// the conservation audit not to expect matching device-side bytes.
func (s *System) AddBytesRideAlong(level stats.MemLevel, class stats.TrafficClass, n uint64) {
	s.Stats.AddBytes(level, class, n)
	s.RideAlong[level] += n
}

// serviced counts one demand access serviced at level.
func (s *System) serviced(level stats.MemLevel) {
	if level == stats.NM {
		s.Stats.ServicedNM++
	} else {
		s.Stats.ServicedFM++
	}
}

// ServiceAccess services demand access a at loc, recording its completion
// latency under path and attributing the device request's queue/service
// time to it. Reads complete at data return; writes complete immediately
// after submission (write-release semantics at the memory controller)
// while still occupying bandwidth. Issue observers fire before the demand
// is dispatched (demand writes complete synchronously at submission, so
// this is the last point the access is reliably in flight).
func (s *System) ServiceAccess(a *Access, loc Location, path stats.DemandPath) {
	for _, io := range s.issueObs {
		io.DemandIssue(a, path, loc)
	}
	done := s.DemandDone(a, path)
	s.serviced(loc.Level)
	s.NoteDemand(a.PAddr, loc, a.Write)
	if a.Write {
		// The demand write completes at submission, before the device
		// issues it, so there is no device time to attribute: the access's
		// end-to-end latency is exactly its pre-submission spans.
		s.Submit(loc, stats.Demand, dram.Request{Bytes: memunits.SubblockSize, Write: true})
		if done != nil {
			done()
		}
		return
	}
	s.Submit(loc, stats.Demand, dram.Request{Bytes: memunits.SubblockSize, Trace: a.SpanTrace(), Done: done})
}

// ExchangeSubblocks models a hardware swap of one subblock between two
// locations: two relays, each reading one side and rewriting it at the
// other. The demand side is NOT included; callers account it separately.
func (s *System) ExchangeSubblocks(a, b Location) {
	s.NoteSwap(a, b)
	s.NoteCapture(a)
	s.NoteCapture(b)
	s.NoteDeliver(a, b)
	s.NoteDeliver(b, a)
	r := dram.Request{Bytes: memunits.SubblockSize}
	s.relay(a, b, stats.Migration, r, nil)
	s.relay(b, a, stats.Migration, r, nil)
}

// SwapAccess services demand access a, whose subblock currently resides at
// src, while exchanging it with dst's contents — the interleaved swap of
// SILC-FM Figure 2, with the demand transfer doubling as one of the
// migration transfers. It records the completion latency under path and
// attributes the demand leg's queue/service time to a. Issue observers see
// the src side (where the demand data currently resides) before dispatch.
//
// Reads: two relays. The demand read at src completes the access and then
// feeds the migration write to dst; dst's old contents move to src.
//
// Writes: the new data supersedes src's old contents entirely (a full
// subblock LLC writeback), so only dst's old contents move. Ordering
// matters here — dst must be read out BEFORE the demand write lands, or
// the only copy of dst's data is destroyed. The relay's read is submitted
// first; FaultInjectSwapOrder reintroduces the reversed (buggy) order for
// checker-validation tests.
func (s *System) SwapAccess(a *Access, src, dst Location, path stats.DemandPath) {
	for _, io := range s.issueObs {
		io.DemandIssue(a, path, src)
	}
	done := s.DemandDone(a, path)
	s.NoteSwap(src, dst)
	s.serviced(src.Level)
	sub := dram.Request{Bytes: memunits.SubblockSize}
	if !a.Write {
		s.NoteDemand(a.PAddr, src, false)
		s.NoteCapture(src)
		s.NoteCapture(dst)
		s.NoteDeliver(src, dst)
		s.NoteDeliver(dst, src)
		s.relay(src, dst, stats.Demand, dram.Request{Bytes: memunits.SubblockSize, Trace: a.SpanTrace()}, done)
		s.relay(dst, src, stats.Migration, sub, nil)
		return
	}
	write := dram.Request{Bytes: memunits.SubblockSize, Write: true}
	if s.FaultInjectSwapOrder {
		s.NoteDemand(a.PAddr, dst, true)
		s.NoteCapture(dst)
		s.NoteDeliver(dst, src)
		s.Submit(dst, stats.Demand, write)
		s.relay(dst, src, stats.Migration, sub, nil)
	} else {
		s.NoteCapture(dst)
		s.NoteDemand(a.PAddr, dst, true)
		s.NoteDeliver(dst, src)
		s.relay(dst, src, stats.Migration, sub, nil)
		s.Submit(dst, stats.Demand, write)
	}
	if done != nil {
		done()
	}
}

// subblockAt returns the location of subblock i within the block at loc.
func subblockAt(loc Location, i uint) Location {
	return Location{Level: loc.Level, DevAddr: loc.DevAddr + uint64(i)*memunits.SubblockSize}
}

// ExchangeBlocksDMA swaps the full 2 KB blocks at a and b with two relays
// whose reads are background priority (bulk migration DMA must not delay
// demand traffic).
func (s *System) ExchangeBlocksDMA(a, b Location) {
	s.NoteSwap(a, b)
	for i := uint(0); i < memunits.SubblocksPerBlock; i++ {
		s.NoteCapture(subblockAt(a, i))
		s.NoteCapture(subblockAt(b, i))
		s.NoteDeliver(subblockAt(a, i), subblockAt(b, i))
		s.NoteDeliver(subblockAt(b, i), subblockAt(a, i))
	}
	r := dram.Request{Bytes: memunits.BlockSize, Background: true}
	s.relay(a, b, stats.Migration, r, nil)
	s.relay(b, a, stats.Migration, r, nil)
}

// RelocateBlockDMA copies the 2 KB block at src over dst one-way with one
// background-priority relay. dst's previous contents are dropped, so this
// is only legal when they were never live demand data (e.g. a free NM frame
// whose resident flat block was never accessed).
func (s *System) RelocateBlockDMA(src, dst Location) {
	for i := uint(0); i < memunits.SubblocksPerBlock; i++ {
		s.NoteRelocate(subblockAt(src, i), subblockAt(dst, i))
	}
	s.relay(src, dst, stats.Migration, dram.Request{Bytes: memunits.BlockSize, Background: true}, nil)
}

// Totals folds the NM and FM devices' per-bank and per-channel ledgers into
// Stats' DRAM fields (row hits, misses and conflicts, refresh closes, bus
// and bank busy cycles, queue waits) and returns Stats. The devices keep
// those counters themselves, so Stats' DRAM fields hold the ledger totals
// only as of the last Totals call. Row conflicts count as row misses, as in
// dram.Stats.
func (s *System) Totals() *stats.Memory {
	for lv, dev := range [2]*dram.Device{s.NM, s.FM} {
		bt := dev.TotalBankCounters()
		ct := dev.TotalChannelCounters()
		s.Stats.RowHits[lv] = bt.RowHits
		s.Stats.RowMisses[lv] = bt.RowMisses + bt.RowConflicts
		s.Stats.RowConflicts[lv] = bt.RowConflicts
		s.Stats.RefreshCloses[lv] = bt.RefreshCloses
		s.Stats.BankBusyCycles[lv] = bt.BusyCycles
		s.Stats.BusBusyCycles[lv] = ct.BusBusyCycles
		s.Stats.ReadQueueWaitCycles[lv] = ct.ReadQueueWait
		s.Stats.WriteQueueWaitCycles[lv] = ct.WriteQueueWait
	}
	return s.Stats
}

// Conservation assembles the cross-counter invariant inputs for
// stats.CheckConservation from one consistent instant between engine
// events. quiesced marks a fully drained engine (strict equalities);
// extraNM lists additional devices whose traffic is accounted against the
// NM level (SILC-FM's dedicated HBM metadata channel).
func (s *System) Conservation(quiesced bool, extraNM ...*dram.Device) stats.Conservation {
	c := stats.Conservation{
		Mem:             s.Stats,
		Lat:             s.Lat,
		Attr:            s.Attr,
		InflightDemands: s.inflight,
		RideAlongBytes:  s.RideAlong,
		Quiesced:        quiesced,
	}
	devBytes := func(d *dram.Device) uint64 {
		st := d.Stats()
		return st.BytesRead + st.BytesWritten + st.BytesMeta + d.PendingBytes()
	}
	c.DeviceBytes[stats.NM] = devBytes(s.NM)
	c.DeviceBytes[stats.FM] = devBytes(s.FM)
	for _, d := range extraNM {
		c.DeviceBytes[stats.NM] += devBytes(d)
	}
	return c
}

// Audit verifies that ctl's Locate is a bijection over every flat subblock:
// each maps to a unique in-range, aligned device location of the right
// capacity. It is AuditSample at stride 1.
func Audit(ctl Controller, nmCap, fmCap uint64) error {
	return AuditSample(ctl, nmCap, fmCap, 1)
}

// AuditSample is a cheaper spot-check over a stride of subblocks, for
// larger configurations: it verifies alignment and range, and injectivity
// among the sampled set. The home of flat address pa is NM pa below nmCap
// and FM pa-nmCap above it. No two addresses share a home, so a collision
// needs a sample away from its home: it lands on another sample's home, or
// on the location of another sample away from home. The audit keeps one
// key per sample away from home, not a bitset over the whole space, and
// only a collision rescans the sample, once, for the pair it names.
func AuditSample(ctl Controller, nmCap, fmCap uint64, stride uint64) error {
	if stride == 0 {
		stride = 1
	}
	home := func(pa uint64) Location {
		if pa < nmCap {
			return Location{Level: stats.NM, DevAddr: pa}
		}
		return Location{Level: stats.FM, DevAddr: pa - nmCap}
	}
	// Scan up to the first unaligned or out-of-range sample: a collision
	// reported in its place involves only samples before it.
	totalSubs := memunits.SubblocksIn(nmCap + fmCap)
	end := totalSubs
	var bad error
	var moved []uint64 // auditKey of every sample away from home
	for sb := uint64(0); sb < totalSubs; sb += stride {
		pa := memunits.SubblockBase(sb)
		loc := ctl.Locate(pa)
		if loc.DevAddr%memunits.SubblockSize != 0 {
			bad, end = fmt.Errorf("audit: unaligned %s address %#x", loc.Level, loc.DevAddr), sb
			break
		}
		size := nmCap
		if loc.Level == stats.FM {
			size = fmCap
		}
		if loc.DevAddr >= size {
			bad, end = fmt.Errorf("audit: %s address %#x beyond capacity %#x", loc.Level, loc.DevAddr, size), sb
			break
		}
		if loc != home(pa) {
			// Grow by doubling: append's 1.25x steps on a large slice
			// allocate about five times the final length in all.
			if len(moved) == cap(moved) {
				moved = append(make([]uint64, 0, max(2*len(moved), 1024)), moved...)
			}
			moved = append(moved, auditKey(loc))
		}
	}

	// taken lists the locations two scanned samples share: a key moved
	// holds twice, or one whose home sample is still at home.
	slices.Sort(moved)
	var taken []uint64
	for i := 0; i < len(moved); {
		k, j := moved[i], i+1
		for j < len(moved) && moved[j] == k {
			j++
		}
		if j-i > 1 {
			taken = append(taken, k)
		} else {
			loc := keyLocation(k)
			h := loc.DevAddr
			if loc.Level == stats.FM {
				h += nmCap
			}
			if sb := memunits.SubblocksIn(h); sb%stride == 0 && sb < end && ctl.Locate(h) == loc {
				taken = append(taken, k)
			}
		}
		i = j
	}
	if len(taken) == 0 {
		return bad
	}
	// The first sample in scan order to find its location taken names the
	// collision, with the earliest sample at that location.
	first := make([]uint64, len(taken)) // flat address+1 of the first sample there
	for sb := uint64(0); sb < end; sb += stride {
		pa := memunits.SubblockBase(sb)
		loc := ctl.Locate(pa)
		i, ok := slices.BinarySearch(taken, auditKey(loc))
		if !ok {
			continue
		}
		if first[i] != 0 {
			return fmt.Errorf("audit: flat %#x and %#x collide at %s %#x", first[i]-1, pa, loc.Level, loc.DevAddr)
		}
		first[i] = pa + 1
	}
	return bad
}

// auditKey packs an aligned device location into one sortable word: the
// level in the top bit, the subblock index below it.
func auditKey(loc Location) uint64 {
	k := loc.DevAddr / memunits.SubblockSize
	if loc.Level == stats.FM {
		k |= 1 << 63
	}
	return k
}

// keyLocation inverts auditKey.
func keyLocation(k uint64) Location {
	loc := Location{Level: stats.NM, DevAddr: memunits.SubblockBase(k &^ (1 << 63))}
	if k>>63 != 0 {
		loc.Level = stats.FM
	}
	return loc
}
