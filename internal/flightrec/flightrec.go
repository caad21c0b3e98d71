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

// Defaults for the zero Config.
const (
	// DefaultHistoryEpochs is the pre-trigger epoch window kept in the
	// history ring.
	DefaultHistoryEpochs = 16
	// DefaultTailEpochs is how many quiet epochs are captured after the
	// last incident of a capture closes.
	DefaultTailEpochs = 4
	// DefaultEventRing bounds the movement-event ring (pre-trigger events).
	DefaultEventRing = 4096
	// DefaultMaxBundleEvents bounds the events captured while an incident
	// is open (the ring excerpt plus live capture); overflow is counted.
	DefaultMaxBundleEvents = 2048
	// DefaultTopK is how many offender blocks each epoch snapshot keeps.
	DefaultTopK = 8
	// DefaultMaxBundles bounds bundles per run; captures past the cap are
	// counted as dropped.
	DefaultMaxBundles = 8
	// DefaultMaxCaptureEpochs bounds one capture's epoch record (pre-window
	// included) so a never-closing incident cannot grow a bundle without
	// bound; later epochs are counted as dropped.
	DefaultMaxCaptureEpochs = 256

	// offenderTableMax bounds the distinct blocks the per-epoch offender
	// table holds. First-come-keeps-slot: the profiled set is a
	// deterministic function of the access stream, overflow is counted.
	offenderTableMax = 1024
)

// Config tunes the recorder's windows and bounds. The zero value means
// "defaults"; harness.Run attaches a recorder to every run unless Disabled
// is set.
type Config struct {
	// Disabled turns the recorder off entirely.
	Disabled bool
	// HistoryEpochs is the pre-trigger window length (default 16).
	HistoryEpochs int
	// TailEpochs is the post-close capture tail (default 4).
	TailEpochs int
	// EventRing bounds the movement-event ring (default 4096).
	EventRing int
	// MaxBundleEvents bounds one bundle's event excerpt (default 2048).
	MaxBundleEvents int
	// TopK is the per-epoch offender table depth (default 8).
	TopK int
	// MaxBundles bounds bundles per run (default 8).
	MaxBundles int
	// MaxCaptureEpochs bounds one capture's epoch window (default 256).
	MaxCaptureEpochs int
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

func (c Config) withDefaults() Config {
	if c.HistoryEpochs <= 0 {
		c.HistoryEpochs = DefaultHistoryEpochs
	}
	if c.TailEpochs <= 0 {
		c.TailEpochs = DefaultTailEpochs
	}
	if c.EventRing <= 0 {
		c.EventRing = DefaultEventRing
	}
	if c.MaxBundleEvents <= 0 {
		c.MaxBundleEvents = DefaultMaxBundleEvents
	}
	if c.TopK <= 0 {
		c.TopK = DefaultTopK
	}
	if c.TopK > offenderTableMax {
		c.TopK = offenderTableMax
	}
	if c.MaxBundles <= 0 {
		c.MaxBundles = DefaultMaxBundles
	}
	if c.MaxCaptureEpochs <= c.HistoryEpochs {
		c.MaxCaptureEpochs = DefaultMaxCaptureEpochs
		if c.MaxCaptureEpochs <= c.HistoryEpochs {
			c.MaxCaptureEpochs = 2 * c.HistoryEpochs
		}
	}
	return c
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

// epochSlot is one history-ring entry: a full value copy of the epoch's
// telemetry sample (gauges rebound into a per-slot reusable buffer), the
// attribution delta, the per-rule health trace and the epoch's offender
// top-K.
type epochSlot struct {
	sample     telemetry.Sample
	gaugeBuf   []mem.Gauge
	attr       stats.Attribution // per-epoch delta, not cumulative
	ruleOpen   []bool            // health.Kinds() order
	ruleSev    []float64
	off        []Offender // top-K, count desc then block asc
	nOff       int
	offTotal   int    // distinct blocks seen this epoch
	offDropped uint64 // table-overflow demands not attributed to a block
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

	kinds   []string // health.Kinds(), index-aligned with slot rule traces
	kindIdx map[string]int

	// Epoch history ring: last HistoryEpochs epochs, oldest at (head) when
	// full. head is the next write position; n <= HistoryEpochs.
	ring []epochSlot
	head int
	n    int

	// Movement-event ring.
	events []event
	evHead int
	evN    int

	prevAttr stats.Attribution

	// Offender table for the current epoch.
	off *stats.BoundedTable[offCount]

	cap          *capture
	bundles      []*Bundle
	dropped      int // captures refused past MaxBundles
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
	incidents  []health.Incident // closes observed during the capture
	openKinds  map[string]bool
	quiet      int                 // consecutive all-closed epochs (tail countdown)
	exemplars  []exemplar.Exemplar // tail reservoirs frozen at open
}

// New builds a recorder over sys with cfg's bounds (zero fields take the
// documented defaults). fingerprint is the run's config fingerprint
// (harness.Spec.Fingerprint) and run its "<scheme>/<workload>" label; both
// are stamped into every bundle. Returns nil when cfg.Disabled is set; all
// Recorder methods are nil-safe.
func New(cfg Config, sys *mem.System, fingerprint, run string) *Recorder {
	if cfg.Disabled {
		return nil
	}
	r := &Recorder{
		cfg:         cfg.withDefaults(),
		eng:         sys.Eng,
		fingerprint: fingerprint,
		run:         run,
		kinds:       health.Kinds(),
		off:         stats.NewBoundedTable[offCount](offenderTableMax),
	}
	r.kindIdx = make(map[string]int, len(r.kinds))
	for i, k := range r.kinds {
		r.kindIdx[k] = i
	}
	r.ring = make([]epochSlot, r.cfg.HistoryEpochs)
	for i := range r.ring {
		r.ring[i].ruleOpen = make([]bool, len(r.kinds))
		r.ring[i].ruleSev = make([]float64, len(r.kinds))
		r.ring[i].off = make([]Offender, r.cfg.TopK)
	}
	r.events = make([]event, r.cfg.EventRing)
	return r
}

// --- mem.Observer -----------------------------------------------------

// Demand/Capture/Deliver/Relocate are part of the raw dataflow stream; the
// recorder keys its event record off the semantic SchemeObserver/
// DemandObserver events instead, so these are no-ops (implementing the
// base interface is what lets the recorder join the fanout).
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
	r.events[r.evHead] = ev
	r.evHead++
	if r.evHead == len(r.events) {
		r.evHead = 0
	}
	if r.evN < len(r.events) {
		r.evN++
	}
	if c := r.cap; c != nil {
		if len(c.events) < r.cfg.MaxBundleEvents {
			c.events = append(c.events, jsonEvent(&ev))
		} else {
			c.evDropped++
		}
	}
}

// Observe feeds one telemetry epoch boundary: the sample (with gauges), the
// live cumulative attribution, and the health status for the same boundary.
// Called by the harness's OnEpoch chain after the detector has stepped.
func (r *Recorder) Observe(st telemetry.EpochState, hs health.Status) {
	if r == nil || st.Sample == nil {
		return
	}
	// Record the epoch into the history ring.
	slot := &r.ring[r.head]
	r.head++
	if r.head == len(r.ring) {
		r.head = 0
	}
	if r.n < len(r.ring) {
		r.n++
	}
	r.fillSlot(slot, st, hs)

	// Advance the capture state machine.
	if c := r.cap; c != nil {
		if len(c.epochs) < r.cfg.MaxCaptureEpochs {
			c.epochs = append(c.epochs, recordOf(slot))
		} else {
			c.epDropped++
		}
		c.incidents = append(c.incidents, hs.Closed...)
		for _, in := range hs.Opened {
			c.openKinds[in.Kind] = true
		}
		for _, in := range hs.Closed {
			delete(c.openKinds, in.Kind)
		}
		if len(hs.Open) == 0 {
			c.quiet++
			if c.quiet >= r.cfg.TailEpochs {
				r.finalize(false)
			}
		} else {
			c.quiet = 0
		}
		return
	}
	if len(hs.Opened) > 0 {
		if len(r.bundles) >= r.cfg.MaxBundles {
			r.dropped++
			return
		}
		r.openCapture(st.Sample.Epoch, hs)
	}
}

// fillSlot copies one epoch into a ring slot without allocating in steady
// state (the gauge buffer is reused once it has grown to the gauge count).
func (r *Recorder) fillSlot(slot *epochSlot, st telemetry.EpochState, hs health.Status) {
	slot.sample = *st.Sample
	slot.gaugeBuf = append(slot.gaugeBuf[:0], st.Sample.Gauges...)
	slot.sample.Gauges = slot.gaugeBuf

	// Attribution delta: cumulative minus previous cumulative.
	if st.Attr != nil {
		cur := *st.Attr
		d := cur
		for p := 0; p < int(stats.NumDemandPaths); p++ {
			d.Count[p] -= r.prevAttr.Count[p]
			for s := 0; s < int(stats.NumSpans); s++ {
				d.Spans[p][s] -= r.prevAttr.Spans[p][s]
			}
		}
		slot.attr = d
		r.prevAttr = cur
	} else {
		slot.attr = stats.Attribution{}
	}

	// Per-rule trace: which kinds are open at this boundary, and the open
	// incident's running peak severity.
	for i := range slot.ruleOpen {
		slot.ruleOpen[i] = false
		slot.ruleSev[i] = 0
	}
	for i := range hs.Open {
		if k, ok := r.kindIdx[hs.Open[i].Kind]; ok {
			slot.ruleOpen[k] = true
			slot.ruleSev[k] = hs.Open[i].PeakSeverity
		}
	}

	// Offender top-K: deterministic selection (count desc, block asc) over
	// the table, then clear it for the next epoch.
	slot.nOff = 0
	slot.offTotal = r.off.Len()
	slot.offDropped = r.off.Dropped()
	vals := r.off.Values()
	for i, b := range r.off.Keys() {
		r.rankOffender(slot, Offender{Block: b, Demands: vals[i].demands, LatCycles: vals[i].lat})
	}
	r.off.Reset()
}

// rankOffender insertion-sorts o into slot's fixed top-K array.
func (r *Recorder) rankOffender(slot *epochSlot, o Offender) {
	worse := func(a, b Offender) bool { // is a ranked below b?
		if a.Demands != b.Demands {
			return a.Demands < b.Demands
		}
		return a.Block > b.Block
	}
	if slot.nOff == len(slot.off) {
		if worse(o, slot.off[slot.nOff-1]) {
			return
		}
		slot.nOff--
	}
	i := slot.nOff
	for i > 0 && worse(slot.off[i-1], o) {
		slot.off[i] = slot.off[i-1]
		i--
	}
	slot.off[i] = o
	slot.nOff++
}

// openCapture freezes the history ring as the pre-trigger window and starts
// recording. The triggering epoch is already in the ring, so it becomes the
// first "during" record; everything older is the pre-window.
func (r *Recorder) openCapture(epoch uint64, hs health.Status) {
	c := &capture{
		trigger:   hs.Opened[0].Kind,
		openKinds: make(map[string]bool, len(r.kinds)),
	}
	// Freeze the tail-exemplar reservoirs as they stood when the incident
	// opened: the slow accesses that led INTO the incident, not the ones
	// that followed it.
	if r.cfg.Exemplars != nil {
		c.exemplars = r.cfg.Exemplars()
	}
	for _, in := range hs.Open {
		c.openKinds[in.Kind] = true
	}
	c.preEpochs = r.n - 1
	c.epochs = make([]EpochRecord, 0, r.n+r.cfg.TailEpochs+4)
	// Oldest-first walk of the ring.
	start := r.head - r.n
	if start < 0 {
		start += len(r.ring)
	}
	for i := 0; i < r.n; i++ {
		j := start + i
		if j >= len(r.ring) {
			j -= len(r.ring)
		}
		c.epochs = append(c.epochs, recordOf(&r.ring[j]))
	}
	if len(c.epochs) > 0 {
		c.firstEpoch = c.epochs[0].Sample.Epoch
	} else {
		c.firstEpoch = epoch
	}
	// Pre-trigger events: the ring excerpt inside the pre-window's cycle
	// span, oldest first, bounded by MaxBundleEvents (newest kept — the
	// events nearest the trigger explain it best).
	var firstCycle uint64
	if len(c.epochs) > 0 {
		firstCycle = c.epochs[0].Sample.Cycle - c.epochs[0].Sample.SpanCycles
	}
	c.events = make([]EventRecord, 0, r.cfg.MaxBundleEvents)
	evStart := r.evHead - r.evN
	if evStart < 0 {
		evStart += len(r.events)
	}
	skip := 0
	if r.evN > r.cfg.MaxBundleEvents {
		skip = r.evN - r.cfg.MaxBundleEvents
	}
	for i := 0; i < r.evN; i++ {
		j := evStart + i
		if j >= len(r.events) {
			j -= len(r.events)
		}
		ev := &r.events[j]
		if ev.cycle < firstCycle {
			continue
		}
		if skip > 0 {
			skip--
			c.evDropped++
			continue
		}
		c.events = append(c.events, jsonEvent(ev))
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
	// Open kinds at finalize, in detector order (forced flushes only).
	for _, k := range r.kinds {
		if c.openKinds[k] {
			b.OpenKinds = append(b.OpenKinds, k)
		}
	}
	b.Rules = r.ruleTraces(c.epochs)
	b.Offenders = aggregateOffenders(c.epochs, r.cfg.TopK)
	r.bundles = append(r.bundles, b)
	if r.cfg.OnBundle != nil {
		r.cfg.OnBundle(b)
	}
}

// ruleTraces reduces the per-epoch rule columns into one trace per rule
// that fired anywhere in the window.
func (r *Recorder) ruleTraces(epochs []EpochRecord) []RuleTrace {
	var out []RuleTrace
	for _, kind := range r.kinds {
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
// (demand-count desc, block asc).
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
	out := make([]Offender, 0, len(sum))
	for _, o := range sum {
		out = append(out, *o)
	}
	sortOffenders(out)
	if len(out) > k {
		out = out[:k]
	}
	return out
}

func sortOffenders(out []Offender) {
	// Insertion sort: the window-wide aggregation is tiny (<= epochs x K).
	for i := 1; i < len(out); i++ {
		o := out[i]
		j := i
		for j > 0 && (out[j-1].Demands < o.Demands ||
			(out[j-1].Demands == o.Demands && out[j-1].Block > o.Block)) {
			out[j] = out[j-1]
			j--
		}
		out[j] = o
	}
}

// recordOf converts a ring slot into the bundle's JSON-friendly epoch form
// (fresh copies: bundles outlive the ring).
func recordOf(slot *epochSlot) EpochRecord {
	rec := EpochRecord{Sample: slot.sample}
	rec.Sample.Gauges = append([]mem.Gauge(nil), slot.sample.Gauges...)
	for p := stats.DemandPath(0); p < stats.NumDemandPaths; p++ {
		if slot.attr.Count[p] == 0 && slot.attr.PathTotal(p) == 0 {
			continue
		}
		rec.Attr = append(rec.Attr, PathDelta{
			Path:       p.String(),
			Count:      slot.attr.Count[p],
			Queue:      slot.attr.Spans[p][stats.SpanQueue],
			Service:    slot.attr.Spans[p][stats.SpanService],
			MetaFetch:  slot.attr.Spans[p][stats.SpanMetaFetch],
			SwapSerial: slot.attr.Spans[p][stats.SpanSwapSerial],
			Mispredict: slot.attr.Spans[p][stats.SpanMispredict],
			Other:      slot.attr.Spans[p][stats.SpanOther],
		})
	}
	kinds := health.Kinds()
	for i := range slot.ruleOpen {
		if !slot.ruleOpen[i] {
			continue
		}
		rec.Rules = append(rec.Rules, RuleState{Kind: kinds[i], Severity: slot.ruleSev[i]})
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

// Bundles returns pointers to the bundles emitted so far (immutable).
func (r *Recorder) Bundles() []*Bundle {
	if r == nil {
		return nil
	}
	return append([]*Bundle(nil), r.bundles...)
}

// DroppedCaptures reports incident opens refused because MaxBundles was
// already reached.
func (r *Recorder) DroppedCaptures() int {
	if r == nil {
		return 0
	}
	return r.dropped
}
