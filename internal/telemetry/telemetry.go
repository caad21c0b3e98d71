// Package telemetry is the observability layer of the simulator: an epoch
// sampler that differences every ledger once per epoch into an immutable
// Sample (stats.Memory counter deltas, DRAM row and bus activity, span
// attribution, scheme gauges), streams it as JSONL or CSV and hands it to
// the health detector, flight recorder, exemplar recorder and live hub,
// which keep it instead of copying it; a movement-event tracer that records
// the semantic mem.Observer stream as Chrome trace-event JSON viewable in
// Perfetto; a bounded per-block / per-PC hotness profiler; and periodic
// progress reporting for long runs.
//
// All instrumentation is read-only with respect to simulation state: the
// sampler pump schedules zero-work events on the engine (which never change
// the relative order of real events, see sim.Engine's (when, seq) ordering),
// the tracer only appends to a ring buffer, and the profiler only bumps
// counters in bounded tables. Enabling telemetry therefore cannot change
// Cycles or any counter, and all output is byte-deterministic for a fixed
// seed.
package telemetry

import (
	"fmt"
	"io"
	"time"

	"silcfm/internal/mem"
	"silcfm/internal/stats"
)

// Config selects which telemetry outputs a run produces. A nil Config (or
// one with no writers) disables everything at zero cost.
type Config struct {
	// MetricsW receives one epoch sample per line (JSONL by default).
	MetricsW io.Writer
	// MetricsCSV switches the sample stream to CSV with a header row.
	MetricsCSV bool
	// EpochCycles is the sampling period in simulated cycles (default
	// 200_000: roughly 100 samples for the default single-workload run).
	EpochCycles uint64
	// TraceW receives the Chrome trace-event JSON at end of run.
	TraceW io.Writer
	// TraceLimit bounds the trace ring buffer (default 1<<18 events); the
	// oldest events are dropped first and the drop count is reported in the
	// trace's otherData. The ring grows as events arrive, 32 B per event
	// kept.
	TraceLimit int
	// ProgressW receives a progress line each epoch.
	ProgressW io.Writer
	// ProfileW receives the per-block / per-PC hotness profile as JSONL at
	// end of run.
	ProfileW io.Writer
	// Profile collects the hotness profile without writing it (for callers
	// that only render TopOffenders); implied by ProfileW != nil.
	Profile bool
	// OnEpoch, when non-nil, receives every epoch sample in memory — the
	// feed for the health detector (internal/health) and the live
	// observability server (internal/telemetry/live). It runs on the
	// simulation goroutine at the epoch boundary. The Sample may be kept;
	// Mem and Lat are only valid for the duration of the call.
	OnEpoch func(EpochState)
}

// EpochState is one epoch-boundary snapshot handed to Config.OnEpoch.
// Sample is this epoch's fresh, never-mutated record, safe to keep; Mem and
// Lat point at the live cumulative state, valid only during the callback.
type EpochState struct {
	Sample *Sample
	Mem    *stats.Memory
	Lat    *stats.PathLatencies
	// Done/Total are the instruction-progress probe's values (zero when
	// no probe is installed; see T.SetProgress).
	Done, Total uint64
}

// DefaultEpochCycles is the sampling period used when Config.EpochCycles is
// zero.
const DefaultEpochCycles = 200_000

// DefaultTraceLimit is the trace ring bound used when Config.TraceLimit is
// zero.
const DefaultTraceLimit = 1 << 18

// T is one run's attached telemetry. All methods are nil-safe so callers
// can thread a nil *T through unconditionally.
type T struct {
	cfg     Config
	sys     *mem.System
	sampler *sampler
	tracer  *Tracer
	prof    *Profiler
	// progress reports retired and target instructions across cores.
	progress func() (done, total uint64)
	// wallStart anchors the ETA / Mcyc-per-second figures in the progress
	// line (host wall clock; never influences simulation state).
	wallStart time.Time
	err       error
}

// Attach wires telemetry onto a system before the simulation starts. ctl is
// the raw (unwrapped) controller; if it implements mem.GaugeProvider its
// gauges ride along in every sample. Returns nil when cfg requests nothing.
func Attach(cfg *Config, sys *mem.System, ctl mem.Controller) *T {
	if cfg == nil || (cfg.MetricsW == nil && cfg.TraceW == nil && cfg.ProgressW == nil &&
		cfg.ProfileW == nil && !cfg.Profile && cfg.OnEpoch == nil) {
		return nil
	}
	t := &T{cfg: *cfg, sys: sys}
	if t.cfg.EpochCycles == 0 {
		t.cfg.EpochCycles = DefaultEpochCycles
	}
	if t.cfg.TraceLimit <= 0 {
		t.cfg.TraceLimit = DefaultTraceLimit
	}
	if t.cfg.MetricsW != nil || t.cfg.OnEpoch != nil {
		gp, _ := ctl.(mem.GaugeProvider)
		t.sampler = newSampler(t.cfg.MetricsW, t.cfg.MetricsCSV, sys, gp)
	}
	if t.cfg.TraceW != nil {
		t.tracer = NewTracer(sys.Eng, t.cfg.TraceLimit)
		sys.AttachObserver(t.tracer)
	}
	if t.cfg.ProfileW != nil || t.cfg.Profile {
		t.prof = NewProfiler(sys, 0)
		sys.AttachObserver(t.prof)
	}
	return t
}

// Profiler returns the attached hotness profiler, or nil when profiling was
// not requested.
func (t *T) Profiler() *Profiler {
	if t == nil {
		return nil
	}
	return t.prof
}

// Tracer returns the attached movement tracer, or nil when tracing was not
// requested. The harness uses it to inject exemplar span waterfalls after
// the engine stops, before Finish writes the trace.
func (t *T) Tracer() *Tracer {
	if t == nil {
		return nil
	}
	return t.tracer
}

// SetProgress installs the instruction-progress probe used by ProgressW.
func (t *T) SetProgress(fn func() (done, total uint64)) {
	if t != nil {
		t.progress = fn
	}
}

// Start schedules the epoch pump. Call after the cores are wired (so the
// progress probe is live) and before the engine runs.
func (t *T) Start() {
	if t == nil || (t.sampler == nil && t.cfg.ProgressW == nil) {
		return
	}
	t.wallStart = time.Now()
	var pump func()
	pump = func() {
		t.tick()
		t.sys.Eng.After(t.cfg.EpochCycles, pump)
	}
	t.sys.Eng.After(t.cfg.EpochCycles, pump)
}

// tick emits one epoch sample and/or progress line at the current cycle.
func (t *T) tick() {
	t.epochSample()
	if t.cfg.ProgressW != nil {
		now := t.sys.Eng.Now()
		if t.progress != nil {
			done, total := t.progress()
			pct := 0.0
			if total > 0 {
				pct = 100 * float64(done) / float64(total)
			}
			fmt.Fprintf(t.cfg.ProgressW, "progress: cycle=%d instr=%d/%d (%.1f%%)%s\n",
				now, done, total, pct, t.wallNote(now, done, total))
		} else {
			fmt.Fprintf(t.cfg.ProgressW, "progress: cycle=%d%s\n",
				now, t.wallNote(now, 0, 0))
		}
	}
}

// epochSample takes one sampler reading and feeds OnEpoch.
func (t *T) epochSample() {
	if t.sampler == nil || t.err != nil {
		return
	}
	sm, err := t.sampler.sample()
	if err != nil {
		t.err = err
		return
	}
	t.emit(sm)
}

// emit hands one fresh sample to the OnEpoch consumer. The sampler has just
// folded the DRAM ledgers into sys.Stats to take it, so Mem needs no second
// fold.
func (t *T) emit(sm *Sample) {
	if sm == nil || t.cfg.OnEpoch == nil {
		return
	}
	st := EpochState{Sample: sm, Mem: t.sys.Stats, Lat: t.sys.Lat}
	if t.progress != nil {
		st.Done, st.Total = t.progress()
	}
	t.cfg.OnEpoch(st)
}

// wallNote renders the host-side rate and ETA suffix of a progress line
// (same arithmetic as harness.SweepResult.WallFooter): simulated Mcyc per
// host second, and the wall time left assuming retirement stays linear.
func (t *T) wallNote(cycle, done, total uint64) string {
	elapsed := time.Since(t.wallStart).Seconds()
	if elapsed <= 0 {
		return ""
	}
	// stats.Ratio guards the sub-millisecond-run and zero-done edges: a
	// zero or non-finite quotient renders as 0 instead of NaN/Inf.
	note := fmt.Sprintf(" %.1f Mcyc/s", stats.Ratio(float64(cycle), elapsed)/1e6)
	if done > 0 && total > done {
		eta := time.Duration(elapsed * stats.Ratio(float64(total-done), float64(done)) * float64(time.Second))
		note += " eta " + eta.Round(time.Second).String()
	}
	return note
}

// Finish flushes the final partial epoch (so per-epoch deltas sum exactly to
// the end-of-run totals) and writes the trace JSON. Call once, after the
// engine stops and before results are read.
func (t *T) Finish() error {
	if t == nil {
		return nil
	}
	if t.sampler != nil && t.err == nil {
		sm, err := t.sampler.finish()
		if err != nil {
			t.err = err
		} else {
			t.emit(sm)
		}
	}
	if t.tracer != nil && t.err == nil {
		t.err = t.tracer.Write(t.cfg.TraceW)
	}
	if t.prof != nil && t.cfg.ProfileW != nil && t.err == nil {
		t.err = t.prof.WriteJSONL(t.cfg.ProfileW)
	}
	return t.err
}
