package telemetry_test

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"silcfm/internal/config"
	"silcfm/internal/harness"
	"silcfm/internal/mem"
	"silcfm/internal/stats"
	"silcfm/internal/telemetry"
)

// runTiny executes a small SILC-FM simulation with telemetry into buffers.
func runTiny(t *testing.T, shadow bool, cfg *telemetry.Config) *harness.Result {
	t.Helper()
	m := config.Small()
	m.Scheme = config.SchemeSILCFM
	r, err := harness.Run(harness.Spec{
		Machine:      m,
		Workload:     "milc",
		InstrPerCore: 100_000,
		FootScaleNum: 1,
		FootScaleDen: 16,
		ShadowCheck:  shadow,
		Telemetry:    cfg,
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if r.ShadowErr != nil {
		t.Fatalf("shadow: %v", r.ShadowErr)
	}
	return r
}

func TestOutputsAreByteDeterministic(t *testing.T) {
	run := func() (metrics, trace []byte) {
		var mb, tb bytes.Buffer
		runTiny(t, true, &telemetry.Config{
			MetricsW:    &mb,
			EpochCycles: 20_000,
			TraceW:      &tb,
		})
		return mb.Bytes(), tb.Bytes()
	}
	m1, t1 := run()
	m2, t2 := run()
	if len(m1) == 0 || len(t1) == 0 {
		t.Fatal("empty telemetry output")
	}
	if !bytes.Equal(m1, m2) {
		t.Error("metrics JSONL differs between identical runs")
	}
	if !bytes.Equal(t1, t2) {
		t.Error("trace JSON differs between identical runs")
	}
}

func TestEpochDeltasSumToRunTotals(t *testing.T) {
	var mb bytes.Buffer
	r := runTiny(t, false, &telemetry.Config{MetricsW: &mb, EpochCycles: 20_000})

	var n int
	var sums telemetry.Sample
	dec := json.NewDecoder(&mb)
	for dec.More() {
		var s telemetry.Sample
		if err := dec.Decode(&s); err != nil {
			t.Fatalf("sample %d: %v", n, err)
		}
		n++
		sums.LLCMisses += s.LLCMisses
		sums.ServicedNM += s.ServicedNM
		sums.ServicedFM += s.ServicedFM
		sums.SwapsIn += s.SwapsIn
		sums.SwapsOut += s.SwapsOut
		sums.Locks += s.Locks
		sums.Unlocks += s.Unlocks
		sums.Migrations += s.Migrations
		sums.Bypassed += s.Bypassed
		sums.PredictorHits += s.PredictorHits
		sums.PredictorMisses += s.PredictorMisses
		sums.DemandBytesNM += s.DemandBytesNM
		sums.DemandBytesFM += s.DemandBytesFM
	}
	if n < 2 {
		t.Fatalf("want multiple epoch samples, got %d", n)
	}
	mem := r.Mem
	check := func(name string, got, want uint64) {
		if got != want {
			t.Errorf("%s: epoch deltas sum to %d, run total %d", name, got, want)
		}
	}
	check("llc_misses", sums.LLCMisses, mem.LLCMisses)
	check("serviced_nm", sums.ServicedNM, mem.ServicedNM)
	check("serviced_fm", sums.ServicedFM, mem.ServicedFM)
	check("swaps_in", sums.SwapsIn, mem.SwapsIn)
	check("swaps_out", sums.SwapsOut, mem.SwapsOut)
	check("locks", sums.Locks, mem.Locks)
	check("unlocks", sums.Unlocks, mem.Unlocks)
	check("migrations", sums.Migrations, mem.Migrations)
	check("bypassed", sums.Bypassed, mem.BypassedAccesses)
	check("predictor_hits", sums.PredictorHits, mem.PredictorHits)
	check("predictor_misses", sums.PredictorMisses, mem.PredictorMisses)
	check("demand_bytes_nm", sums.DemandBytesNM, mem.Bytes[0][0])
	check("demand_bytes_fm", sums.DemandBytesFM, mem.Bytes[1][0])
}

func TestTraceRingBoundAndValidity(t *testing.T) {
	var tb bytes.Buffer
	const limit = 64
	runTiny(t, false, &telemetry.Config{TraceW: &tb, TraceLimit: limit})

	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			Ts   uint64 `json:"ts"`
		} `json:"traceEvents"`
		OtherData struct {
			Events  uint64 `json:"events"`
			Dropped uint64 `json:"dropped"`
		} `json:"otherData"`
	}
	if err := json.Unmarshal(tb.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	var real int
	lastTs := uint64(0)
	for _, e := range doc.TraceEvents {
		if e.Ph != "i" {
			// Metadata ("M") and injected exemplar spans ("X", laid in
			// after the run at their own start cycles) are outside the
			// ring's bound and arrival order.
			continue
		}
		real++
		if e.Ts < lastTs {
			t.Fatalf("trace timestamps not monotonic: %d after %d", e.Ts, lastTs)
		}
		lastTs = e.Ts
	}
	if real > limit {
		t.Errorf("ring bound violated: %d events kept, limit %d", real, limit)
	}
	if doc.OtherData.Dropped == 0 {
		t.Errorf("expected drops with limit %d (events=%d)", limit, doc.OtherData.Events)
	}
	if doc.OtherData.Events != doc.OtherData.Dropped+uint64(real) {
		t.Errorf("event accounting: total %d != dropped %d + kept %d",
			doc.OtherData.Events, doc.OtherData.Dropped, real)
	}
}

func TestCSVModeMatchesSampleCount(t *testing.T) {
	var jb, cb bytes.Buffer
	runTiny(t, false, &telemetry.Config{MetricsW: &jb, EpochCycles: 20_000})
	runTiny(t, false, &telemetry.Config{MetricsW: &cb, MetricsCSV: true, EpochCycles: 20_000})

	jn := strings.Count(jb.String(), "\n")
	lines := strings.Split(strings.TrimRight(cb.String(), "\n"), "\n")
	if len(lines) < 2 {
		t.Fatalf("CSV output too short: %q", cb.String())
	}
	header := lines[0]
	if !strings.HasPrefix(header, "epoch,cycle,span_cycles,") {
		t.Errorf("unexpected CSV header: %q", header)
	}
	if !strings.Contains(header, "g:locked_frames") {
		t.Errorf("CSV header missing gauge columns: %q", header)
	}
	if got := len(lines) - 1; got != jn {
		t.Errorf("CSV rows %d != JSONL samples %d", got, jn)
	}
	cols := strings.Count(header, ",")
	for i, l := range lines[1:] {
		if strings.Count(l, ",") != cols {
			t.Fatalf("CSV row %d has %d separators, header has %d", i, strings.Count(l, ","), cols)
		}
	}
}

// TestRetainedSamplesAddUpToTheRun keeps every Sample OnEpoch hands over
// (samples are never mutated after they are emitted) and checks that the
// kept records still add up to the run: per-bank row activity to each
// device's row operations, attribution deltas to the run's attribution,
// and the first sample's gauges to a copy taken inside its own callback.
// The record's non-stream fields stay out of the CSV header.
func TestRetainedSamplesAddUpToTheRun(t *testing.T) {
	var kept []*telemetry.Sample
	var firstGauges []mem.Gauge
	var cb bytes.Buffer
	r := runTiny(t, false, &telemetry.Config{
		MetricsW: &cb, MetricsCSV: true, EpochCycles: 20_000,
		OnEpoch: func(st telemetry.EpochState) {
			if kept == nil {
				firstGauges = append([]mem.Gauge(nil), st.Sample.Gauges...)
			}
			kept = append(kept, st.Sample)
		},
	})
	if len(kept) < 2 || len(firstGauges) == 0 {
		t.Fatalf("kept %d samples, first with %d gauges; want several epochs with gauges", len(kept), len(firstGauges))
	}
	if !reflect.DeepEqual(kept[0].Gauges, firstGauges) {
		t.Errorf("first sample's gauges changed after its callback:\n got %v\nwant %v", kept[0].Gauges, firstGauges)
	}

	var banks [2]uint64
	var attr stats.Attribution
	for _, sm := range kept {
		for lv := range sm.BankAccesses {
			if sm.BanksPerChannel[lv] == 0 || len(sm.BankAccesses[lv])%sm.BanksPerChannel[lv] != 0 {
				t.Fatalf("epoch %d level %d: %d banks at %d per channel", sm.Epoch, lv, len(sm.BankAccesses[lv]), sm.BanksPerChannel[lv])
			}
			for _, v := range sm.BankAccesses[lv] {
				banks[lv] += v
			}
		}
		for p := range attr.Count {
			attr.Count[p] += sm.Attr.Count[p]
			for s := range attr.Spans[p] {
				attr.Spans[p][s] += sm.Attr.Spans[p][s]
			}
		}
	}
	for _, lv := range []stats.MemLevel{stats.NM, stats.FM} {
		if want := r.Mem.RowHits[lv] + r.Mem.RowMisses[lv]; banks[lv] != want || want == 0 {
			t.Errorf("%s: per-bank epoch activity sums to %d, device row operations %d", lv, banks[lv], want)
		}
	}
	if attr != *r.Attr {
		t.Errorf("attribution deltas sum to %+v, run attribution %+v", attr, *r.Attr)
	}

	header, _, _ := strings.Cut(cb.String(), "\n")
	const want = "epoch,cycle,span_cycles,llc_misses,serviced_nm,serviced_fm,access_rate," +
		"demand_bytes_nm,demand_bytes_fm,migration_bytes_nm,migration_bytes_fm,metadata_bytes_nm,metadata_bytes_fm," +
		"swaps_in,swaps_out,locks,unlocks,migrations,bypassed,predictor_hits,predictor_misses," +
		"row_hits_nm,row_misses_nm,row_hits_fm,row_misses_fm,row_conflicts_nm,row_conflicts_fm," +
		"row_hit_rate_nm,row_hit_rate_fm,bus_util_nm,bus_util_fm,bank_imbalance_nm,bank_imbalance_fm," +
		"queue_nm,queue_fm,peak_queue_nm,peak_queue_fm,g:"
	if !strings.HasPrefix(header, want) {
		t.Errorf("CSV header = %q, want the scalar columns %q then the gauges", header, want)
	}
}
