// Package exemplar is the tail-latency exemplar recorder: an always-on,
// bounded capture layer that keeps the complete life of the K slowest
// demand accesses per service path (stats.DemandPath). Aggregates answer
// "how bad is the tail"; exemplars answer "show me one concrete p99.9
// access and its life story" — the full span decomposition stamped by
// attribution plus point-in-time context sampled at issue and completion
// (device location, lock state, DRAM row/bank state, scheme gauges, open
// incidents).
//
// Like every observability layer in this repo the recorder is provably
// inert: it only copies counters into bounded reservoirs on the simulation
// goroutine, never schedules events or touches simulation state, so
// enabling it cannot change Cycles, any stats.Memory counter, or the
// incident stream. Each path's reservoir is a stats.TopK of at most K slots
// that share the epoch's immutable telemetry sample; a completion is ranked
// through one reused candidate and only an admitted one samples its
// context, so the steady-state admission path allocates nothing. For a
// fixed seed its output is byte-deterministic: admission uses a total order
// (latency, then issue cycle, then completion sequence) with no maps in any
// ordered walk.
package exemplar

import (
	"silcfm/internal/health"
	"silcfm/internal/mem"
	"silcfm/internal/memunits"
	"silcfm/internal/sim"
	"silcfm/internal/stats"
	"silcfm/internal/telemetry"
)

// K is the per-path reservoir depth.
const K = 16

// Config wires the recorder into a run. harness.Run attaches a recorder to
// every run unless Disabled is set.
type Config struct {
	// Disabled turns the recorder off entirely.
	Disabled bool
	// OnSnapshot, when set, receives a fresh worst-first snapshot of every
	// reservoir at each telemetry epoch boundary, on the simulation
	// goroutine (the live registry attaches here). Snapshots are immutable
	// once emitted, so the callback may retain and share them freely.
	OnSnapshot func([]Exemplar)
}

// PointContext is the instantaneous system state sampled around one demand
// access: at issue (when the controller dispatched the demand to a device)
// and at completion (when the data returned). All queries behind it are
// pure and O(1).
type PointContext struct {
	// Cycle is when the context was sampled.
	Cycle uint64 `json:"cycle"`
	// Level/DevAddr locate the subblock the demand targeted at sample time
	// (the src side for swaps; the current Locate result at completion).
	Level   string `json:"level"`
	DevAddr uint64 `json:"dev_addr"`
	// Locked/LockHome report the scheme's lock state for the accessed block
	// (mem.LockProbe; false/false when the scheme has no locking).
	Locked   bool `json:"locked"`
	LockHome bool `json:"lock_home"`
	// RowOpen reports whether the target DRAM bank had the demand's row
	// open; BankLoad is the number of requests queued for that bank.
	RowOpen  bool `json:"row_open"`
	BankLoad int  `json:"bank_load"`
}

// SpanCycles is one named component of an exemplar's latency.
type SpanCycles struct {
	Span   string `json:"span"`
	Cycles uint64 `json:"cycles"`
}

// Exemplar is the JSON-friendly record of one captured worst-K access.
// Field order is fixed, so JSONL output is byte-deterministic.
type Exemplar struct {
	Path string `json:"path"`
	// Seq is the monotone demand-completion sequence number, the final
	// determinism tie-break.
	Seq      uint64 `json:"seq"`
	Core     int    `json:"core"`
	PC       uint64 `json:"pc"`
	PAddr    uint64 `json:"paddr"`
	Block    uint64 `json:"block"`
	Subblock uint   `json:"subblock"`
	Write    bool   `json:"write"`
	// StartCycle is when the access entered the memory system;
	// CompleteCycle when its demand data returned. Latency is their
	// difference and exactly equals the sum of Spans (the SpanOther
	// residual is stamped before completion observers run).
	StartCycle    uint64 `json:"start_cycle"`
	CompleteCycle uint64 `json:"complete_cycle"`
	Latency       uint64 `json:"latency"`
	// Spans is the full attribution decomposition in stats.Span order;
	// zero spans are included so waterfalls line up across exemplars.
	Spans [stats.NumSpans]SpanCycles `json:"spans"`
	// Issue is absent for accesses classified without passing through
	// ServiceAccess/SwapAccess (CAMEO's combined remap-read completions).
	Issue    *PointContext `json:"issue,omitempty"`
	Complete PointContext  `json:"complete"`
	// Epoch context as of the last telemetry epoch boundary before
	// completion (zero-valued before the first boundary).
	Epoch         uint64      `json:"epoch"`
	OpenIncidents []string    `json:"open_incidents,omitempty"`
	Gauges        []mem.Gauge `json:"gauges,omitempty"`
}

// slot is one reservoir entry. Admission copies the candidate's rank keys
// into a reservoir slot and fills in the rest there, so the steady state
// never allocates.
type slot struct {
	seq      uint64
	core     int
	pc       uint64
	paddr    uint64
	write    bool
	start    uint64
	complete uint64
	lat      uint64
	spans    [stats.NumSpans]uint64
	hasIssue bool
	issue    mem.DemandContext
	done     mem.DemandContext
	sample   *telemetry.Sample // last epoch boundary before completion; nil before the first
	open     [health.NumKinds]bool
}

// worseFirst ranks reservoir slots worst-first: latency desc, start cycle
// asc, seq asc. Seq is unique, so the order is total, and a candidate,
// whose seq is the largest yet, never displaces an incumbent that ties it
// on latency and start cycle (first-come-keeps).
func worseFirst(a, b *slot) bool {
	if a.lat != b.lat {
		return a.lat > b.lat
	}
	if a.start != b.start {
		return a.start < b.start
	}
	return a.seq < b.seq
}

// Recorder is one run's exemplar recorder. It implements mem.Observer,
// mem.DemandIssueObserver and mem.DemandObserver for the access feed, and
// is fed epoch state + health status by the harness's OnEpoch chain
// (Observe). Not safe for concurrent use: everything runs on the
// simulation goroutine.
type Recorder struct {
	cfg Config
	eng *sim.Engine
	sys *mem.System
	ctl mem.Controller
	lp  mem.LockProbe // ctl's optional lock probe, resolved once

	kinds []string // health.Kinds(), index-aligned with slot.open

	res  [stats.NumDemandPaths]*stats.TopK[slot]
	seq  uint64
	cand slot // ranking candidate, reused so admission does not allocate

	// Epoch context as of the last Observe, stamped into slots at
	// admission (the sample is immutable, so slots share it).
	sample  *telemetry.Sample
	openNow [health.NumKinds]bool
}

// New builds a recorder over sys. ctl, when non-nil, provides completion-time
// Locate and (if it implements mem.LockProbe) lock-state sampling.
// Returns nil when cfg.Disabled is set; all Recorder methods are nil-safe.
func New(cfg Config, sys *mem.System, ctl mem.Controller) *Recorder {
	if cfg.Disabled {
		return nil
	}
	r := &Recorder{
		cfg:   cfg,
		eng:   sys.Eng,
		sys:   sys,
		ctl:   ctl,
		kinds: health.Kinds(),
	}
	r.lp, _ = ctl.(mem.LockProbe)
	for p := range r.res {
		r.res[p] = stats.NewTopK(K, worseFirst)
	}
	return r
}

// --- mem.Observer -----------------------------------------------------

// Demand/Capture/Deliver/Relocate are part of the raw dataflow stream; the
// recorder keys off the demand issue/completion events instead, so these
// are no-ops (implementing the base interface is what lets the recorder
// attach to the System).
func (r *Recorder) Demand(pa uint64, loc mem.Location, write bool) {}
func (r *Recorder) Capture(loc mem.Location)                       {}
func (r *Recorder) Deliver(src, dst mem.Location)                  {}
func (r *Recorder) Relocate(src, dst mem.Location)                 {}

// pointAt samples the instantaneous context of flat address pa serviced at
// loc: lock state plus the target bank's open-row and queue-load state.
func (r *Recorder) pointAt(pa uint64, loc mem.Location) mem.DemandContext {
	p := mem.DemandContext{Cycle: r.eng.Now(), Loc: loc}
	p.RowOpen, p.BankLoad = r.sys.Device(loc.Level).BankState(loc.DevAddr)
	if r.lp != nil {
		p.Locked, p.LockHome = r.lp.LockState(pa)
	}
	return p
}

// --- mem.DemandIssueObserver ------------------------------------------

// DemandIssue captures issue-time context for a demand dispatched through
// ServiceAccess/SwapAccess, before any synchronous completion can fire. The
// context rides on the access itself (mem.Access.Issue) until completion.
func (r *Recorder) DemandIssue(a *mem.Access, path stats.DemandPath, loc mem.Location) {
	if r == nil {
		return
	}
	a.Issue, a.HasIssue = r.pointAt(a.PAddr, loc), true
}

// --- mem.DemandObserver -----------------------------------------------

// DemandComplete considers one completed access for its path's reservoir.
// The access's spans are final here (the SpanOther residual is stamped
// before completion observers run), so the captured span sum equals lat
// exactly.
func (r *Recorder) DemandComplete(a *mem.Access, path stats.DemandPath, lat uint64) {
	if r == nil {
		return
	}
	r.seq++
	if path < 0 || path >= stats.NumDemandPaths {
		return
	}
	c := &r.cand
	c.lat, c.start, c.seq = lat, a.Start, r.seq
	if s := r.res[path].Insert(c); s != nil {
		r.fill(s, a)
	}
}

// fill completes an admitted slot, already holding its rank keys (lat,
// start, seq), with the rest of the access and its completion context.
func (r *Recorder) fill(s *slot, a *mem.Access) {
	s.core, s.pc, s.paddr, s.write = a.Core, a.PC, a.PAddr, a.Write
	s.complete = r.eng.Now()
	s.spans = a.Spans()
	s.hasIssue = a.HasIssue
	s.issue = a.Issue
	loc := r.sys.HomeLocation(a.PAddr)
	if r.ctl != nil {
		loc = r.ctl.Locate(a.PAddr)
	}
	s.done = r.pointAt(a.PAddr, loc)
	s.sample = r.sample
	s.open = r.openNow
}

// Observe feeds one telemetry epoch boundary: the recorder keeps the
// epoch's sample (index and scheme gauges) and open incident kinds as the
// context stamped onto subsequently admitted exemplars. Called by the
// harness's OnEpoch chain after the detector has stepped.
func (r *Recorder) Observe(st telemetry.EpochState, hs health.Status) {
	if r == nil || st.Sample == nil {
		return
	}
	r.sample = st.Sample
	r.openNow = [health.NumKinds]bool{}
	for i := range hs.Open {
		if k := health.KindIndex(hs.Open[i].Kind); k >= 0 {
			r.openNow[k] = true
		}
	}
	if r.cfg.OnSnapshot != nil {
		r.cfg.OnSnapshot(r.Snapshot())
	}
}

// exemplarOf converts a reservoir slot into its JSON form (fresh copies:
// snapshots outlive the reservoir).
func (r *Recorder) exemplarOf(s *slot, path stats.DemandPath) Exemplar {
	e := Exemplar{
		Path:          path.String(),
		Seq:           s.seq,
		Core:          s.core,
		PC:            s.pc,
		PAddr:         s.paddr,
		Block:         uint64(memunits.BlockOf(s.paddr)),
		Subblock:      memunits.SubblockIndex(s.paddr),
		Write:         s.write,
		StartCycle:    s.start,
		CompleteCycle: s.complete,
		Latency:       s.lat,
		Complete:      jsonPoint(&s.done),
	}
	for sp := stats.Span(0); sp < stats.NumSpans; sp++ {
		e.Spans[sp] = SpanCycles{Span: sp.String(), Cycles: s.spans[sp]}
	}
	if s.hasIssue {
		p := jsonPoint(&s.issue)
		e.Issue = &p
	}
	for i, open := range s.open {
		if open {
			e.OpenIncidents = append(e.OpenIncidents, r.kinds[i])
		}
	}
	if s.sample != nil {
		e.Epoch, e.Gauges = s.sample.Epoch, s.sample.Gauges
	}
	return e
}

func jsonPoint(p *mem.DemandContext) PointContext {
	return PointContext{
		Cycle:    p.Cycle,
		Level:    p.Loc.Level.String(),
		DevAddr:  p.Loc.DevAddr,
		Locked:   p.Locked,
		LockHome: p.LockHome,
		RowOpen:  p.RowOpen,
		BankLoad: p.BankLoad,
	}
}

// Snapshot returns every captured exemplar, grouped by path in
// stats.DemandPath order and worst-first within each path (latency desc,
// start cycle asc, seq asc). The result is freshly allocated and immutable;
// safe to retain. Allocation here is fine — snapshots happen at epoch
// boundaries, incident opens and end of run, never on the admission path.
func (r *Recorder) Snapshot() []Exemplar {
	if r == nil {
		return nil
	}
	var total int
	for _, rv := range r.res {
		total += len(rv.Sorted())
	}
	out := make([]Exemplar, 0, total)
	for p, rv := range r.res {
		ss := rv.Sorted()
		for i := range ss {
			out = append(out, r.exemplarOf(&ss[i], stats.DemandPath(p)))
		}
	}
	return out
}

// Finish returns the final snapshot. Call once, after telemetry Finish has
// pumped the final partial epoch.
func (r *Recorder) Finish() []Exemplar {
	if r == nil {
		return nil
	}
	return r.Snapshot()
}
