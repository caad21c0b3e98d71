// Package flightrec is the always-on incident flight recorder: a bounded,
// allocation-conscious capture layer that keeps the recent past of a run in
// ring buffers — epoch telemetry samples with scheme gauges, attribution
// deltas, top-K offender blocks, and semantic movement events — and, when
// the online health detector (internal/health) opens an incident, freezes
// the pre-trigger window, keeps recording until the incident closes plus a
// short tail, and emits a self-contained postmortem Bundle.
//
// Like every observability layer in this repo the recorder is provably
// inert: it only copies counters and appends to preallocated buffers on the
// simulation goroutine, never schedules events or touches simulation state,
// so enabling it cannot change Cycles, any stats.Memory counter, or the
// incident stream itself. For a fixed seed its bundles are byte-
// deterministic (fixed struct field order, no maps in encoded forms, no
// wall clock).
package flightrec

import (
	"silcfm/internal/health"
	"silcfm/internal/mem"
	"silcfm/internal/memunits"
	"silcfm/internal/sim"
	"silcfm/internal/stats"
	"silcfm/internal/telemetry"
	"silcfm/internal/telemetry/exemplar"
)

// The recorder's windows and bounds.
const (
	// historyEpochs is the pre-trigger epoch window kept in the history
	// ring.
	historyEpochs = 16
	// tailEpochs is how many quiet epochs are captured after the last
	// incident of a capture closes.
	tailEpochs = 4
	// eventRing bounds the movement-event ring (pre-trigger events).
	eventRing = 4096
	// maxBundleEvents bounds the events captured while an incident is open
	// (the ring excerpt plus live capture); overflow is counted.
	maxBundleEvents = 2048
	// topK is how many offender blocks each epoch snapshot keeps.
	topK = 8
	// maxBundles bounds bundles per run; incident opens past the cap start
	// no capture.
	maxBundles = 8
	// maxCaptureEpochs bounds one capture's epoch record (pre-window
	// included) so a never-closing incident cannot grow a bundle without
	// bound; later epochs are counted as dropped.
	maxCaptureEpochs = 256

	// offenderTableMax bounds the distinct blocks the per-epoch offender
	// table holds. First-come-keeps-slot: the profiled set is a
	// deterministic function of the access stream, overflow is counted.
	offenderTableMax = 1024
)

// Config wires the recorder into a run. harness.Run attaches a recorder to
// every run unless Disabled is set.
type Config struct {
	// Disabled turns the recorder off entirely.
	Disabled bool
	// OnBundle, when set, receives each finalized bundle on the simulation
	// goroutine (the live registry attaches here). Bundles are immutable
	// once emitted, so the callback may retain and share them freely.
	OnBundle func(*Bundle)
	// Exemplars, when set, is called at incident open to freeze the
	// tail-latency exemplar reservoirs into the capture (the harness wires
	// it to the exemplar recorder's Snapshot). The returned slice must be
	// immutable.
	Exemplars func() []exemplar.Exemplar
}

// event is the compact fixed-size ring form of one movement event.
type event struct {
	cycle    uint64
	src, dst uint64
	kind     uint8 // eventKind
	srcLevel int8  // stats.MemLevel, -1 = none
	dstLevel int8
	home     bool
}

const (
	evSwap = iota
	evLock
	evUnlock
	evBypass
	evMispredict
)

var eventKindNames = [...]string{
	evSwap: "swap", evLock: "lock", evUnlock: "unlock",
	evBypass: "bypass", evMispredict: "mispredict",
}

// offCount is one offender-table value, keyed by flat block index.
type offCount struct {
	demands uint64
	lat     uint64
}

// epochSlot is one history-ring entry: the epoch's telemetry sample and
// the incidents open at its boundary (both kept, never copied: samples and
// health statuses are immutable), and the epoch's offender top-K.
type epochSlot struct {
	sample     *telemetry.Sample
	open       []health.Incident // detector order
	off        [topK]Offender    // hotter order, the first nOff valid
	nOff       int
	offTotal   int    // distinct blocks seen this epoch
	offDropped uint64 // table-overflow demands not attributed to a block
}

// hotter ranks offenders: demand count desc, then block asc.
func hotter(a, b *Offender) bool {
	if a.Demands != b.Demands {
		return a.Demands > b.Demands
	}
	return a.Block < b.Block
}

// Recorder is one run's flight recorder. It implements mem.Observer,
// mem.SchemeObserver and mem.DemandObserver for the event feed, and is fed
// epoch state + health status by the harness's OnEpoch chain (Observe).
// Not safe for concurrent use: everything runs on the simulation goroutine.
type Recorder struct {
	cfg Config
	eng *sim.Engine

	// fingerprint/run identify the capture source, stamped into bundles.
	fingerprint string
	run         string

	// The last historyEpochs epochs, each slot allocated on its first use
	// (a ring page of slots would hold 256, not 16), and the last eventRing
	// movement events.
	epochs memunits.Ring[*epochSlot]
	events memunits.Ring[event]

	// Offender table for the current epoch, and its top-K ranking with a
	// reused candidate.
	off  *stats.BoundedTable[offCount]
	rank *stats.TopK[Offender]
	cand Offender

	cap          *capture
	bundles      []*Bundle
	bundleAllocs int // monotone bundle sequence
}

// capture is one in-flight incident capture.
type capture struct {
	trigger    string // kind of the first opened incident
	firstEpoch uint64
	preEpochs  int
	epochs     []EpochRecord
	events     []EventRecord
	evDropped  uint64
	epDropped  uint64
	incidents  []health.Incident   // closes observed during the capture
	quiet      int                 // consecutive all-closed epochs (tail countdown)
	exemplars  []exemplar.Exemplar // tail reservoirs frozen at open
}

// New builds a recorder over sys. fingerprint is the run's config
// fingerprint
// (harness.Spec.Fingerprint) and run its "<scheme>/<workload>" label; both
// are stamped into every bundle. Returns nil when cfg.Disabled is set; all
// Recorder methods are nil-safe.
func New(cfg Config, sys *mem.System, fingerprint, run string) *Recorder {
	if cfg.Disabled {
		return nil
	}
	return &Recorder{
		cfg:         cfg,
		eng:         sys.Eng,
		fingerprint: fingerprint,
		run:         run,
		epochs:      memunits.NewRing[*epochSlot](historyEpochs),
		events:      memunits.NewRing[event](eventRing),
		off:         stats.NewBoundedTable[offCount](offenderTableMax),
		rank:        stats.NewTopK(topK, hotter),
	}
}

// --- mem.Observer -----------------------------------------------------

// Demand/Capture/Deliver/Relocate are part of the raw dataflow stream; the
// recorder keys its event record off the semantic SchemeObserver/
// DemandObserver events instead, so these are no-ops (implementing the
// base interface is what lets the recorder attach to the System).
func (r *Recorder) Demand(pa uint64, loc mem.Location, write bool) {}
func (r *Recorder) Capture(loc mem.Location)                       {}
func (r *Recorder) Deliver(src, dst mem.Location)                  {}
func (r *Recorder) Relocate(src, dst mem.Location)                 {}

// --- mem.SchemeObserver -----------------------------------------------

// Swap records an initiated exchange between two device locations.
func (r *Recorder) Swap(a, b mem.Location) {
	if r == nil {
		return
	}
	r.push(event{
		cycle: r.eng.Now(), kind: evSwap,
		src: a.DevAddr, srcLevel: int8(a.Level),
		dst: b.DevAddr, dstLevel: int8(b.Level),
	})
}

// Lock records an NM frame locking flat block index block.
func (r *Recorder) Lock(frame, block uint64, home bool) {
	if r == nil {
		return
	}
	r.push(event{cycle: r.eng.Now(), kind: evLock, src: frame, dst: block,
		srcLevel: -1, dstLevel: -1, home: home})
}

// Unlock records an NM frame releasing flat block index block.
func (r *Recorder) Unlock(frame, block uint64) {
	if r == nil {
		return
	}
	r.push(event{cycle: r.eng.Now(), kind: evUnlock, src: frame, dst: block,
		srcLevel: -1, dstLevel: -1})
}

// --- mem.DemandObserver -----------------------------------------------

// DemandComplete feeds the per-epoch offender table (every completion) and
// the event ring (bypass and mispredict completions — the paths that mark
// scheme decisions going wrong).
func (r *Recorder) DemandComplete(a *mem.Access, path stats.DemandPath, lat uint64) {
	if r == nil {
		return
	}
	if c := r.off.Get(memunits.BlockOf(a.PAddr)); c != nil {
		c.demands++
		c.lat += lat
	}
	switch path {
	case stats.PathBypass:
		r.push(event{cycle: r.eng.Now(), kind: evBypass,
			src: uint64(memunits.BlockOf(a.PAddr)), srcLevel: -1, dstLevel: -1, dst: lat})
	case stats.PathMispredict:
		r.push(event{cycle: r.eng.Now(), kind: evMispredict,
			src: uint64(memunits.BlockOf(a.PAddr)), srcLevel: -1, dstLevel: -1, dst: lat})
	}
}

// push appends ev to the event ring (overwriting the oldest when full) and,
// during a capture, to the capture's bounded event list.
func (r *Recorder) push(ev event) {
	*r.events.Push() = ev
	if c := r.cap; c != nil {
		if len(c.events) < maxBundleEvents {
			c.events = append(c.events, jsonEvent(&ev))
		} else {
			c.evDropped++
		}
	}
}

// Observe feeds one telemetry epoch boundary: the sample (with gauges and
// attribution delta) and the health status for the same boundary.
// Called by the harness's OnEpoch chain after the detector has stepped.
func (r *Recorder) Observe(st telemetry.EpochState, hs health.Status) {
	if r == nil || st.Sample == nil {
		return
	}
	// Record the epoch into the history ring.
	slot := r.epochs.Push()
	if *slot == nil {
		*slot = new(epochSlot)
	}
	r.fillSlot(*slot, st, hs)

	// Advance the capture state machine.
	if c := r.cap; c != nil {
		if len(c.epochs) < maxCaptureEpochs {
			c.epochs = append(c.epochs, recordOf(*slot))
		} else {
			c.epDropped++
		}
		c.incidents = append(c.incidents, hs.Closed...)
		if len(hs.Open) == 0 {
			c.quiet++
			if c.quiet >= tailEpochs {
				r.finalize(false)
			}
		} else {
			c.quiet = 0
		}
		return
	}
	if len(hs.Opened) > 0 && len(r.bundles) < maxBundles {
		r.openCapture(st.Sample.Epoch, hs)
	}
}

// fillSlot records one epoch into a ring slot without allocating.
func (r *Recorder) fillSlot(slot *epochSlot, st telemetry.EpochState, hs health.Status) {
	slot.sample = st.Sample
	slot.open = health.Ordered(hs.Open)

	// Offender top-K: deterministic selection (hotter) over the table,
	// then clear it for the next epoch.
	slot.offTotal = r.off.Len()
	slot.offDropped = r.off.Dropped()
	r.rank.Reset()
	for i := 0; i < r.off.Len(); i++ {
		v := r.off.Value(i)
		r.cand.Block, r.cand.Demands = r.off.Key(i), v.demands
		if o := r.rank.Insert(&r.cand); o != nil {
			o.LatCycles = v.lat
		}
	}
	slot.nOff = copy(slot.off[:], r.rank.Sorted())
	r.off.Reset()
}

// openCapture freezes the history ring as the pre-trigger window and starts
// recording. The triggering epoch is already in the ring, so it becomes the
// first "during" record; everything older is the pre-window.
func (r *Recorder) openCapture(epoch uint64, hs health.Status) {
	c := &capture{trigger: hs.Opened[0].Kind}
	// Freeze the tail-exemplar reservoirs as they stood when the incident
	// opened: the slow accesses that led INTO the incident, not the ones
	// that followed it.
	if r.cfg.Exemplars != nil {
		c.exemplars = r.cfg.Exemplars()
	}
	c.preEpochs = r.epochs.Len() - 1
	c.epochs = make([]EpochRecord, 0, r.epochs.Len()+tailEpochs+4)
	for i := 0; i < r.epochs.Len(); i++ {
		c.epochs = append(c.epochs, recordOf(*r.epochs.At(i)))
	}
	if len(c.epochs) > 0 {
		c.firstEpoch = c.epochs[0].Sample.Epoch
	} else {
		c.firstEpoch = epoch
	}
	// Pre-trigger events: the ring excerpt inside the pre-window's cycle
	// span, oldest first, bounded by maxBundleEvents (newest kept — the
	// events nearest the trigger explain it best).
	var firstCycle uint64
	if len(c.epochs) > 0 {
		firstCycle = c.epochs[0].Sample.Cycle - c.epochs[0].Sample.SpanCycles
	}
	c.events = make([]EventRecord, 0, maxBundleEvents)
	// Count the in-window events first: the ring may also hold older ones,
	// and only the in-window excess over the bound is dropped.
	inWindow := 0
	for i := 0; i < r.events.Len(); i++ {
		if r.events.At(i).cycle >= firstCycle {
			inWindow++
		}
	}
	skip := max(inWindow-maxBundleEvents, 0)
	c.evDropped = uint64(skip)
	for i := 0; i < r.events.Len(); i++ {
		if ev := r.events.At(i); ev.cycle >= firstCycle {
			if skip > 0 {
				skip--
				continue
			}
			c.events = append(c.events, jsonEvent(ev))
		}
	}
	r.cap = c
}

// finalize closes the active capture into a Bundle. forced marks an
// end-of-run flush with incidents still open.
func (r *Recorder) finalize(forced bool) {
	c := r.cap
	if c == nil {
		return
	}
	r.cap = nil
	b := &Bundle{
		Schema:        BundleSchema,
		Fingerprint:   r.fingerprint,
		Run:           r.run,
		Seq:           r.bundleAllocs,
		Trigger:       c.trigger,
		PreEpochs:     c.preEpochs,
		Forced:        forced,
		Epochs:        c.epochs,
		EpochsDropped: c.epDropped,
		Events:        c.events,
		EventsDropped: c.evDropped,
		Incidents:     c.incidents,
		Exemplars:     c.exemplars,
	}
	r.bundleAllocs++
	if len(c.epochs) > 0 {
		first, last := &c.epochs[0].Sample, &c.epochs[len(c.epochs)-1].Sample
		b.FirstEpoch, b.LastEpoch = first.Epoch, last.Epoch
		b.FirstCycle, b.LastCycle = first.Cycle-first.SpanCycles, last.Cycle
	}
	// Kinds open at the last boundary, in detector order (a capture ends
	// unforced only after tailEpochs boundaries with none open).
	for _, in := range (*r.epochs.At(r.epochs.Len() - 1)).open {
		b.OpenKinds = append(b.OpenKinds, in.Kind)
	}
	b.Rules = ruleTraces(c.epochs)
	b.Offenders = aggregateOffenders(c.epochs, topK)
	r.bundles = append(r.bundles, b)
	if r.cfg.OnBundle != nil {
		r.cfg.OnBundle(b)
	}
}

// ruleTraces reduces the per-epoch rule columns into one trace per rule
// that fired anywhere in the window, in detector order.
func ruleTraces(epochs []EpochRecord) []RuleTrace {
	var out []RuleTrace
	for _, kind := range health.Kinds() {
		tr := RuleTrace{Kind: kind}
		for e := range epochs {
			for _, rs := range epochs[e].Rules {
				if rs.Kind != kind {
					continue
				}
				tr.OpenEpochs++
				if rs.Severity > tr.PeakSeverity {
					tr.PeakSeverity = rs.Severity
				}
				if tr.OpenEpochs == 1 {
					tr.FirstEpoch = epochs[e].Sample.Epoch
				}
				tr.LastEpoch = epochs[e].Sample.Epoch
			}
		}
		if tr.OpenEpochs == 0 {
			continue
		}
		out = append(out, tr)
	}
	return out
}

// aggregateOffenders merges every epoch's top-K into a window-wide top-K
// (hotter order).
func aggregateOffenders(epochs []EpochRecord, k int) []Offender {
	sum := map[uint64]*Offender{}
	for e := range epochs {
		for _, o := range epochs[e].Offenders {
			if a, ok := sum[o.Block]; ok {
				a.Demands += o.Demands
				a.LatCycles += o.LatCycles
			} else {
				c := o
				sum[o.Block] = &c
			}
		}
	}
	top := stats.NewTopK(k, hotter)
	for _, o := range sum {
		top.Insert(o)
	}
	return top.Sorted()
}

// recordOf converts a ring slot into the bundle's JSON-friendly epoch form
// (fresh rows over the shared, immutable sample: bundles outlive the ring).
func recordOf(slot *epochSlot) EpochRecord {
	rec := EpochRecord{Sample: *slot.sample}
	// Bundles outlive the run in the hub's store: keep only what they
	// encode (Attr becomes the per-path rows below).
	rec.Sample.Attr, rec.Sample.BankAccesses = stats.Attribution{}, [2][]uint64{}
	attr := &slot.sample.Attr
	for p := stats.DemandPath(0); p < stats.NumDemandPaths; p++ {
		if attr.Count[p] == 0 && attr.PathTotal(p) == 0 {
			continue
		}
		rec.Attr = append(rec.Attr, PathDelta{
			Path:       p.String(),
			Count:      attr.Count[p],
			Queue:      attr.Spans[p][stats.SpanQueue],
			Service:    attr.Spans[p][stats.SpanService],
			MetaFetch:  attr.Spans[p][stats.SpanMetaFetch],
			SwapSerial: attr.Spans[p][stats.SpanSwapSerial],
			Mispredict: attr.Spans[p][stats.SpanMispredict],
			Other:      attr.Spans[p][stats.SpanOther],
		})
	}
	for i := range slot.open {
		rec.Rules = append(rec.Rules, RuleState{Kind: slot.open[i].Kind, Severity: slot.open[i].PeakSeverity})
	}
	rec.Offenders = append(rec.Offenders, slot.off[:slot.nOff]...)
	rec.OffenderBlocks = slot.offTotal
	rec.OffendersDropped = slot.offDropped
	return rec
}

// jsonEvent converts a compact ring event into its bundle form.
func jsonEvent(ev *event) EventRecord {
	rec := EventRecord{Cycle: ev.cycle, Kind: eventKindNames[ev.kind],
		Src: ev.src, Dst: ev.dst, Home: ev.home}
	if ev.srcLevel >= 0 {
		rec.SrcLevel = stats.MemLevel(ev.srcLevel).String()
		rec.DstLevel = stats.MemLevel(ev.dstLevel).String()
	}
	return rec
}

// Finish flushes an in-flight capture (incidents still open at end of run
// become a forced bundle) and returns every bundle the run produced, in
// emission order. Call once, after telemetry Finish has pumped the final
// partial epoch.
func (r *Recorder) Finish() []Bundle {
	if r == nil {
		return nil
	}
	r.finalize(true)
	out := make([]Bundle, len(r.bundles))
	for i, b := range r.bundles {
		out[i] = *b
	}
	return out
}
