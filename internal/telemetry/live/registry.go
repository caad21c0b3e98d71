package live

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"silcfm/internal/flightrec"
	"silcfm/internal/health"
	"silcfm/internal/memunits"
	"silcfm/internal/stats"
	"silcfm/internal/telemetry"
	"silcfm/internal/telemetry/exemplar"
)

// runState is the latest published snapshot of one run, taken on the
// simulation goroutine; readers only ever see it under the registry mutex.
type runState struct {
	id      string
	started time.Time

	// sample is the latest epoch record. Samples are never mutated after
	// they are emitted, so readers may share its slices.
	sample      telemetry.Sample
	mem         stats.Memory
	lat         []stats.PathSummary
	done, total uint64

	// exemplars is the latest tail-exemplar snapshot (path-grouped,
	// worst-first). The recorder hands over a freshly built slice each
	// epoch, so the registry stores it without copying and readers may
	// share it.
	exemplars []exemplar.Exemplar

	open           []health.Incident
	finished       bool
	totalIncidents int

	// finalElapsed/finalRate freeze the run's wall time and throughput at
	// Done (computed from the last published cycle), so finished runs keep
	// reporting their real rate instead of zero.
	finalElapsed float64
	finalRate    float64
}

// Registry is the HTTP-free run store at the center of the observability
// hub: every run registers through Hook, publishes one snapshot per
// telemetry epoch, and is marked complete with Done. Readers — the HTTP
// Server and the sweep drivers — take deterministic id-ordered snapshots
// with Runs.
//
// The publish path never blocks on a reader: snapshots are value copies
// taken under a short mutex.
type Registry struct {
	mu   sync.Mutex
	runs map[string]*runState

	// bundles is the hub's postmortem store: finalized flight-recorder
	// bundles in arrival order, the last maxStoredBundles kept. Bundles are
	// immutable, so entries share the pointer the recorder emitted.
	bundles memunits.Ring[bundleEntry]
}

// maxStoredBundles bounds the hub-wide postmortem store.
const maxStoredBundles = 256

// bundleEntry pairs a stored bundle with the hub run id it arrived under
// and its registry-assigned stable id.
type bundleEntry struct {
	id  int
	run string
	b   *flightrec.Bundle
}

// IncidentRef is one row of the /api/incidents listing: a bundle summary
// plus the path serving the full evidence.
type IncidentRef struct {
	// ID is the registry-assigned stable bundle id (monotone per hub).
	ID int `json:"id"`
	// Run is the hub run id the bundle arrived under; Source is the label
	// the recorder itself stamped ("<scheme>/<workload>").
	Run        string `json:"run"`
	Source     string `json:"source,omitempty"`
	Trigger    string `json:"trigger"`
	FirstEpoch uint64 `json:"first_epoch"`
	LastEpoch  uint64 `json:"last_epoch"`
	PreEpochs  int    `json:"pre_epochs"`
	Epochs     int    `json:"epochs"`
	Events     int    `json:"events"`
	Incidents  int    `json:"incidents"`
	Forced     bool   `json:"forced,omitempty"`
	// Path serves the full bundle JSON.
	Path string `json:"path"`
}

// AddBundle stores one finalized postmortem bundle under hub run id run.
// Called from the simulation goroutine via flightrec.Config.OnBundle; the
// bundle must be immutable (flight-recorder bundles are). Nil-safe on both
// receiver and bundle.
func (g *Registry) AddBundle(run string, b *flightrec.Bundle) {
	if g == nil || b == nil {
		return
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	id := g.bundles.Len() + int(g.bundles.Dropped()) // bundles ever stored
	*g.bundles.Push() = bundleEntry{id: id, run: run, b: b}
}

// Incidents lists the stored bundles in arrival order.
func (g *Registry) Incidents() []IncidentRef {
	if g == nil {
		return nil
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]IncidentRef, 0, g.bundles.Len())
	for i := 0; i < g.bundles.Len(); i++ {
		e := g.bundles.At(i)
		out = append(out, IncidentRef{
			ID:         e.id,
			Run:        e.run,
			Source:     e.b.Run,
			Trigger:    e.b.Trigger,
			FirstEpoch: e.b.FirstEpoch,
			LastEpoch:  e.b.LastEpoch,
			PreEpochs:  e.b.PreEpochs,
			Epochs:     len(e.b.Epochs),
			Events:     len(e.b.Events),
			Incidents:  len(e.b.Incidents),
			Forced:     e.b.Forced,
			Path:       fmt.Sprintf("/api/incidents/%d", e.id),
		})
	}
	return out
}

// Bundle returns the stored bundle with the given registry id, or nil when
// it never existed or has been dropped by the store bound.
func (g *Registry) Bundle(id int) *flightrec.Bundle {
	if g == nil {
		return nil
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	for i := 0; i < g.bundles.Len(); i++ {
		if e := g.bundles.At(i); e.id == id {
			return e.b
		}
	}
	return nil
}

// SetExemplars replaces run id's tail-exemplar snapshot. Called from the
// simulation goroutine via exemplar.Config.OnSnapshot; the slice must not
// be mutated afterwards (the recorder's Snapshot builds a fresh one each
// call). Nil-safe. A run unknown to the registry is created so exemplars
// survive even when the publish hook was not installed.
func (g *Registry) SetExemplars(run string, es []exemplar.Exemplar) {
	if g == nil {
		return
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	rs := g.runs[run]
	if rs == nil {
		rs = &runState{id: run, started: time.Now()}
		g.runs[run] = rs
	}
	rs.exemplars = es
}

// ExemplarSet is one run's slice of the /api/exemplars body.
type ExemplarSet struct {
	Run       string              `json:"run"`
	Exemplars []exemplar.Exemplar `json:"exemplars"`
}

// Exemplars returns every run's latest tail-exemplar snapshot in id order;
// runs that have not published a snapshot are omitted.
func (g *Registry) Exemplars() []ExemplarSet {
	if g == nil {
		return nil
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	var out []ExemplarSet
	for _, rs := range g.sortedLocked() {
		if rs.exemplars == nil {
			continue
		}
		out = append(out, ExemplarSet{Run: rs.id, Exemplars: rs.exemplars})
	}
	return out
}

// NewRegistry returns an empty run registry.
func NewRegistry() *Registry {
	return &Registry{runs: map[string]*runState{}, bundles: memunits.NewRing[bundleEntry](maxStoredBundles)}
}

// ProgressRun is one run's public snapshot: the /progress row.
type ProgressRun struct {
	Run        string  `json:"run"`
	State      string  `json:"state"` // "running" or "done"
	Cycle      uint64  `json:"cycle"`
	InstrDone  uint64  `json:"instr_done"`
	InstrTotal uint64  `json:"instr_total"`
	Pct        float64 `json:"pct"`
	McycPerSec float64 `json:"mcyc_per_sec"`
	EtaSeconds float64 `json:"eta_seconds"`
	// ElapsedSeconds is wall time since the run registered; frozen at Done
	// (finished runs report total wall time, and McycPerSec their final
	// whole-run rate, rather than zeros).
	ElapsedSeconds float64 `json:"elapsed_seconds"`
}

// Hook registers run id and returns the per-epoch publish callback to
// install as harness.Spec.Publish. Re-registering an id (bench reps) resets
// its snapshot. Nil-safe: a nil registry returns a nil hook, which the
// harness treats as "no publisher".
func (g *Registry) Hook(id string) func(telemetry.EpochState, health.Status) {
	if g == nil {
		return nil
	}
	g.mu.Lock()
	g.runs[id] = &runState{id: id, started: time.Now()}
	g.mu.Unlock()
	return func(st telemetry.EpochState, hs health.Status) {
		// Reduce the live state to value copies before taking the lock:
		// summarizing histograms is the expensive part and needs no mutex
		// (it runs on the sim goroutine that owns the state).
		lat := st.Lat.Summaries()
		memCopy := *st.Mem
		openCopy := append([]health.Incident(nil), hs.Open...)

		g.mu.Lock()
		defer g.mu.Unlock()
		rs := g.runs[id]
		if rs == nil || rs.finished {
			return
		}
		rs.sample = *st.Sample
		rs.mem = memCopy
		rs.lat = lat
		rs.done, rs.total = st.Done, st.Total
		rs.open = openCopy
	}
}

// Done marks run id complete with its final incident list; open incidents
// clear (the run can no longer be unhealthy), and the last published cycle
// is frozen into a final elapsed/throughput figure so /progress keeps
// reporting it.
func (g *Registry) Done(id string, final []health.Incident) {
	if g == nil {
		return
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	rs := g.runs[id]
	if rs == nil {
		rs = &runState{id: id, started: time.Now()}
		g.runs[id] = rs
	}
	if !rs.finished {
		rs.finalElapsed = time.Since(rs.started).Seconds()
		rs.finalRate = stats.Ratio(float64(rs.sample.Cycle), rs.finalElapsed) / 1e6
	}
	rs.finished = true
	rs.open = nil
	rs.totalIncidents = len(final)
}

// Runs returns every run's /progress row in id order (deterministic
// reads).
func (g *Registry) Runs() []ProgressRun {
	if g == nil {
		return nil
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]ProgressRun, 0, len(g.runs))
	for _, rs := range g.sortedLocked() {
		out = append(out, rs.progress())
	}
	return out
}

// progress reduces a runState to its /progress row. Caller holds the
// registry mutex.
func (rs *runState) progress() ProgressRun {
	st := ProgressRun{
		Run:        rs.id,
		State:      "running",
		Cycle:      rs.sample.Cycle,
		InstrDone:  rs.done,
		InstrTotal: rs.total,
		Pct:        pct(rs.done, rs.total),
	}
	if rs.finished {
		st.State = "done"
		st.ElapsedSeconds = rs.finalElapsed
		st.McycPerSec = rs.finalRate
		return st
	}
	elapsed := time.Since(rs.started).Seconds()
	st.ElapsedSeconds = elapsed
	st.McycPerSec = stats.Ratio(float64(rs.sample.Cycle), elapsed) / 1e6
	if rs.done > 0 && rs.total > rs.done {
		st.EtaSeconds = elapsed * float64(rs.total-rs.done) / float64(rs.done)
	}
	return st
}

// sortedLocked returns the run snapshots in id order. Caller holds g.mu.
func (g *Registry) sortedLocked() []*runState {
	out := make([]*runState, 0, len(g.runs))
	for _, rs := range g.runs {
		out = append(out, rs)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

func pct(done, total uint64) float64 {
	if total == 0 {
		return 0
	}
	return 100 * float64(done) / float64(total)
}
