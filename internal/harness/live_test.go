package harness

import (
	"errors"
	"strings"
	"testing"

	"silcfm/internal/config"
	"silcfm/internal/telemetry"
	"silcfm/internal/telemetry/live"
)

// TestResultErrOrder: Err reports the data-integrity audit first, then the
// shadow checker, then conservation, each wrapped so errors.Is sees the
// cause; a clean run has no verdict.
func TestResultErrOrder(t *testing.T) {
	audit, shadow, cons := errors.New("audit"), errors.New("shadow"), errors.New("cons")
	cases := []struct {
		r    Result
		want error
		text string
	}{
		{Result{AuditErr: audit, ShadowErr: shadow, ConservationErr: cons}, audit, "data-integrity audit failed: audit"},
		{Result{ShadowErr: shadow, ConservationErr: cons}, shadow, "shadow integrity check failed: shadow"},
		{Result{ConservationErr: cons}, cons, "counter-conservation audit failed: cons"},
	}
	for _, c := range cases {
		err := c.r.Err()
		if !errors.Is(err, c.want) || err.Error() != c.text {
			t.Errorf("Err() = %v, want %q wrapping %v", err, c.text, c.want)
		}
	}
	if err := (&Result{}).Err(); err != nil {
		t.Errorf("clean run Err() = %v, want nil", err)
	}
}

// thrashConfig is the postmortem thrash geometry (8 MB NM under a milc
// footprint slice) as a one-workload SILC-FM sweep; it reliably opens
// health incidents and captures flight-recorder bundles.
func thrashConfig() ExpConfig {
	m := config.Default()
	m.NM = config.HBM(8 << 20)
	m.FM = config.DDR3(32 << 20)
	return ExpConfig{
		Machine:      m,
		InstrPerCore: 100_000,
		Workloads:    []string{"milc"},
		FootScaleNum: 1,
		FootScaleDen: 16,
		Parallelism:  2,
	}
}

// TestSweepFeedsLiveHub: a sweep attached to a live hub streams its
// flight-recorder bundles into the incident store and its tail-exemplar
// snapshots into the exemplar store, under "<label>/<workload>" run ids.
func TestSweepFeedsLiveHub(t *testing.T) {
	srv, err := live.New("127.0.0.1:0")
	if err != nil {
		t.Fatalf("live.New: %v", err)
	}
	defer srv.Close()
	cfg := thrashConfig()
	cfg.Live = srv
	sw, err := Sweep(cfg, []Variant{SchemeVariant(config.SchemeSILCFM)})
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}
	res := sw.Runs["silc"]["milc"]
	if len(res.Bundles) == 0 {
		t.Fatal("thrash sweep captured no bundles")
	}
	reg := srv.Registry()
	var refs int
	for _, ref := range reg.Incidents() {
		if ref.Run == "silc/milc" {
			refs++
		}
	}
	if refs != len(res.Bundles) {
		t.Errorf("hub lists %d silc/milc incidents, run produced %d bundles", refs, len(res.Bundles))
	}
	var found bool
	for _, set := range reg.Exemplars() {
		if set.Run == "silc/milc" && len(set.Exemplars) > 0 {
			found = true
		}
	}
	if !found {
		t.Error("hub holds no exemplars for silc/milc")
	}
	if runs := reg.Runs(); len(runs) != 2 {
		t.Errorf("hub tracks %d runs, want baseline/milc and silc/milc", len(runs))
	}
	for _, rs := range reg.Runs() {
		if rs.State != "done" {
			t.Errorf("run %s state %q, want done", rs.Run, rs.State)
		}
	}
}

// failCloser is a telemetry writer whose flush on Close fails.
type failCloser struct{}

var errFlush = errors.New("flush failed")

func (failCloser) Write(p []byte) (int, error) { return len(p), nil }
func (failCloser) Close() error                { return errFlush }

// TestSweepReportsTelemetryCloseError: a per-run telemetry writer that
// fails to close leaves its output truncated, so the sweep must fail.
func TestSweepReportsTelemetryCloseError(t *testing.T) {
	cfg := ExpConfig{
		Machine:      config.Small(),
		InstrPerCore: 20_000,
		Workloads:    []string{"milc"},
		FootScaleNum: 1,
		FootScaleDen: 16,
		Parallelism:  1,
		Telemetry: func(label, wl string) (*telemetry.Config, error) {
			return &telemetry.Config{MetricsW: failCloser{}}, nil
		},
	}
	_, err := Sweep(cfg, []Variant{SchemeVariant(config.SchemeSILCFM)})
	if !errors.Is(err, errFlush) || !strings.Contains(err.Error(), "telemetry output") {
		t.Fatalf("Sweep error = %v, want a telemetry output error wrapping %v", err, errFlush)
	}
}

// closeCounter is a telemetry writer that counts its writes and closes.
type closeCounter struct{ writes, closes int }

func (c *closeCounter) Write(p []byte) (int, error) { c.writes++; return len(p), nil }
func (c *closeCounter) Close() error                { c.closes++; return nil }

// TestSweepFailsCellWhoseOutputCannotBeCreated: a telemetry factory error
// (a per-run output file that could not be created) fails that cell and
// the sweep instead of running the cell without its outputs, and the
// writers the factory had already opened are closed unwritten.
func TestSweepFailsCellWhoseOutputCannotBeCreated(t *testing.T) {
	errCreate := errors.New("create failed")
	opened := map[string]*closeCounter{}
	cfg := ExpConfig{
		Machine:      config.Small(),
		InstrPerCore: 20_000,
		Workloads:    []string{"milc"},
		FootScaleNum: 1,
		FootScaleDen: 16,
		Parallelism:  1,
		Telemetry: func(label, wl string) (*telemetry.Config, error) {
			w := &closeCounter{}
			opened[label] = w
			tc := &telemetry.Config{MetricsW: w}
			if label == "baseline" {
				return tc, errCreate
			}
			return tc, nil
		},
	}
	_, err := Sweep(cfg, []Variant{SchemeVariant(config.SchemeSILCFM)})
	if !errors.Is(err, errCreate) || !strings.Contains(err.Error(), "baseline/milc") {
		t.Fatalf("Sweep error = %v, want the baseline/milc cell failing with %v", err, errCreate)
	}
	if w := opened["baseline"]; w == nil || w.closes != 1 || w.writes != 0 {
		t.Fatalf("failed cell's writer = %+v, want closed once and never written", w)
	}
}

// TestTableIIIHonoursPerRunOptions: Table III runs through Sweep, so every
// workload gets its per-run telemetry outputs, progress line and live-hub
// run, like any other sweep's baseline leg.
func TestTableIIIHonoursPerRunOptions(t *testing.T) {
	srv, err := live.New("127.0.0.1:0")
	if err != nil {
		t.Fatalf("live.New: %v", err)
	}
	defer srv.Close()
	var progress strings.Builder
	metrics := map[string]*closeCounter{}
	cfg := tinyExp()
	cfg.Parallelism = 1
	cfg.Live = srv
	cfg.Progress = &progress
	cfg.Telemetry = func(label, wl string) (*telemetry.Config, error) {
		w := &closeCounter{}
		metrics[label+"/"+wl] = w
		return &telemetry.Config{MetricsW: w}, nil
	}
	if _, _, err := TableIII(cfg); err != nil {
		t.Fatal(err)
	}
	for _, wl := range cfg.Workloads {
		id := "baseline/" + wl
		if w := metrics[id]; w == nil || w.writes == 0 || w.closes != 1 {
			t.Errorf("%s metrics writer = %+v, want written and closed once", id, w)
		}
		if !strings.Contains(progress.String(), "done "+id+": ok") {
			t.Errorf("progress %q lacks %s", progress.String(), id)
		}
	}
	if len(metrics) != len(cfg.Workloads) {
		t.Errorf("factory built %d configs, want one per workload (%d)", len(metrics), len(cfg.Workloads))
	}
	if runs := srv.Registry().Runs(); len(runs) != len(cfg.Workloads) {
		t.Errorf("live hub saw %d runs, want %d", len(runs), len(cfg.Workloads))
	}
}
