package manifest

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"silcfm/internal/config"
	"silcfm/internal/harness"
	"silcfm/internal/health"
	"silcfm/internal/stats"
	"silcfm/internal/telemetry/exemplar"
)

// testEntry builds a fully-populated synthetic entry without running a
// simulation.
func testEntry(id string) Entry {
	spec := harness.Spec{
		Machine:           config.Small(),
		Workload:          "milc",
		InstrPerCore:      20000,
		ScaleInstrByClass: true,
		FootScaleNum:      1,
		FootScaleDen:      8,
	}
	res := &harness.Result{Spec: spec}
	res.Workload = "milc"
	res.Scheme = "silc"
	res.Cycles = 123456
	res.Cores = []stats.Core{{Instructions: 20000, LLCMisses: 700}}
	res.Mem = stats.Memory{
		LLCMisses:  700,
		ServicedNM: 400,
		ServicedFM: 300,
		SwapsIn:    55,
		Locks:      3,
	}
	res.Mem.Bytes[stats.NM][stats.Demand] = 400 * 64
	res.Mem.Bytes[stats.FM][stats.Demand] = 300 * 64
	res.Mem.Bytes[stats.NM][stats.Migration] = 55 * 64
	res.FootprintPages = 77
	res.EnergyNJ = 1234.5
	res.Energy.NMDynamicNJ = 1000
	res.Energy.BackgroundNJ = 234.5
	res.Lat = stats.NewPathLatencies()
	res.Attr = &stats.Attribution{}
	for i := 0; i < 400; i++ {
		res.Lat.Observe(stats.PathNMHit, 100)
		res.Attr.Observe(stats.PathNMHit, &[stats.NumSpans]uint64{stats.SpanQueue: 40, stats.SpanService: 60})
	}
	res.WallSeconds = 0.5
	res.SimCyclesPerSec = 2e6
	res.Health = []health.Incident{{
		Kind:         health.KindSwapThrash,
		FirstEpoch:   2,
		LastEpoch:    5,
		FirstCycle:   40000,
		LastCycle:    120000,
		Epochs:       4,
		PeakSeverity: 2.25,
		Evidence:     health.Evidence{SwapBytes: 55 * 64, DemandBytes: 700 * 64},
	}}
	return FromResult(id, res)
}

func testManifest(label string, ids ...string) *Manifest {
	m := New("test", label)
	for _, id := range ids {
		m.Add(testEntry(id))
	}
	return m
}

func TestRoundTripByteIdentical(t *testing.T) {
	m := testManifest("PR0", "silc/milc", "base/milc")
	b1, err := m.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(b1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m, got) {
		t.Fatalf("decode round trip not deep-equal:\nin:  %+v\nout: %+v", m, got)
	}
	b2, err := got.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatalf("re-encode not byte-identical:\n%s\nvs\n%s", b1, b2)
	}
}

func TestDecodeRejectsWrongSchema(t *testing.T) {
	if _, err := Decode([]byte(`{"schema": 99, "tool": "x"}`)); err == nil {
		t.Fatal("want schema-version error, got nil")
	}
}

func TestAddKeepsEntriesSorted(t *testing.T) {
	m := New("test", "")
	for _, id := range []string{"c/w", "a/w", "b/w"} {
		m.Add(testEntry(id))
	}
	for i, want := range []string{"a/w", "b/w", "c/w"} {
		if m.Entries[i].ID != want {
			t.Fatalf("entry %d = %q, want %q", i, m.Entries[i].ID, want)
		}
	}
}

func TestFingerprintTracksConfig(t *testing.T) {
	e1, e2 := testEntry("x"), testEntry("x")
	if e1.Config.Fingerprint != e2.Config.Fingerprint {
		t.Fatal("same spec must fingerprint identically")
	}
	spec := harness.Spec{Machine: config.Small(), Workload: "milc", InstrPerCore: 20000}
	f1 := ConfigOf(spec).Fingerprint
	spec.Machine.SILC.HotThreshold++
	if f2 := ConfigOf(spec).Fingerprint; f1 == f2 {
		t.Fatal("changing a machine parameter must change the fingerprint")
	}
	spec.Machine.SILC.HotThreshold--
	spec.InstrPerCore++
	if f2 := ConfigOf(spec).Fingerprint; f1 == f2 {
		t.Fatal("changing the instruction target must change the fingerprint")
	}
}

func TestCompareIdenticalPasses(t *testing.T) {
	old := testManifest("a", "silc/milc")
	new := testManifest("b", "silc/milc")
	d, err := Compare(old, new, DiffOptions{Noise: 0.10})
	if err != nil {
		t.Fatal(err)
	}
	if !d.OK() || d.EntriesCompared != 1 {
		t.Fatalf("identical manifests must pass: %s", d.Summary())
	}
}

func TestCompareDetectsDeterministicMismatch(t *testing.T) {
	old := testManifest("a", "silc/milc")
	new := testManifest("b", "silc/milc")
	new.Entries[0].Sim.Cycles++
	d, err := Compare(old, new, DiffOptions{Noise: 0.10})
	if err != nil {
		t.Fatal(err)
	}
	if d.OK() || d.DeterministicFails != 1 {
		t.Fatalf("cycle drift must fail exactly once: %s", d.Summary())
	}
	found := false
	for _, row := range d.Table.Rows {
		if row[1] == "sim.cycles" && strings.HasPrefix(row[5], "FAIL") {
			found = true
		}
	}
	if !found {
		t.Fatalf("diff table missing sim.cycles failure: %+v", d.Table.Rows)
	}
}

func TestCompareDetectsIncidentDrift(t *testing.T) {
	// A severity change in an existing incident is a deterministic mismatch.
	old := testManifest("a", "silc/milc")
	new := testManifest("b", "silc/milc")
	new.Entries[0].Sim.Incidents[0].PeakSeverity *= 2
	d, err := Compare(old, new, DiffOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if d.OK() {
		t.Fatalf("incident severity drift must fail: %s", d.Summary())
	}
	found := false
	for _, row := range d.Table.Rows {
		if strings.HasPrefix(row[1], "sim.incidents[0].peak_severity") && strings.HasPrefix(row[5], "FAIL") {
			found = true
		}
	}
	if !found {
		t.Fatalf("diff table missing incident failure: %+v", d.Table.Rows)
	}

	// An incident vanishing entirely is a behavior change too.
	gone := testManifest("c", "silc/milc")
	gone.Entries[0].Sim.Incidents = nil
	d, err = Compare(old, gone, DiffOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if d.OK() {
		t.Fatalf("vanished incident must fail: %s", d.Summary())
	}
}

func TestCompareDetectsLatencyHistogramDrift(t *testing.T) {
	old := testManifest("a", "silc/milc")
	new := testManifest("b", "silc/milc")
	new.Entries[0].Sim.Latency[0].Sum += 7
	d, err := Compare(old, new, DiffOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if d.OK() {
		t.Fatalf("histogram sum drift must fail: %s", d.Summary())
	}
}

func TestCompareConfigChangeIsSingleRootCause(t *testing.T) {
	old := testManifest("a", "silc/milc")
	new := New("test", "b")
	spec := harness.Spec{Machine: config.Small(), Workload: "milc", InstrPerCore: 30000}
	res := &harness.Result{Spec: spec}
	res.Cycles = 999 // would mismatch too, but must be masked by the config row
	new.Add(FromResult("silc/milc", res))
	d, err := Compare(old, new, DiffOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if d.DeterministicFails != 1 {
		t.Fatalf("config change must report one root-cause failure, got %d: %+v",
			d.DeterministicFails, d.Table.Rows)
	}
	if d.Table.Rows[0][1] != "config.fingerprint" {
		t.Fatalf("want config.fingerprint row, got %+v", d.Table.Rows[0])
	}
}

func TestCompareHostNoiseBand(t *testing.T) {
	old := testManifest("a", "silc/milc")

	within := testManifest("b", "silc/milc")
	within.Entries[0].Host.WallSeconds *= 1.05
	d, err := Compare(old, within, DiffOptions{Noise: 0.10})
	if err != nil {
		t.Fatal(err)
	}
	if !d.OK() {
		t.Fatalf("+5%% wall inside ±10%% band must pass: %s", d.Summary())
	}

	slower := testManifest("c", "silc/milc")
	slower.Entries[0].Host.WallSeconds *= 1.5
	slower.Entries[0].Host.SimCyclesPerSec /= 1.5
	d, err = Compare(old, slower, DiffOptions{Noise: 0.10})
	if err != nil {
		t.Fatal(err)
	}
	if d.OK() || d.HostBreaches != 2 {
		t.Fatalf("+50%% wall and -33%% throughput must breach twice: %s", d.Summary())
	}

	// Getting faster is never a regression.
	faster := testManifest("d", "silc/milc")
	faster.Entries[0].Host.WallSeconds /= 2
	faster.Entries[0].Host.SimCyclesPerSec *= 2
	d, err = Compare(old, faster, DiffOptions{Noise: 0.10})
	if err != nil {
		t.Fatal(err)
	}
	if !d.OK() {
		t.Fatalf("a faster run must pass: %s", d.Summary())
	}

	// Noise 0 skips host comparison entirely (cross-machine diffs).
	d, err = Compare(old, slower, DiffOptions{Noise: 0})
	if err != nil {
		t.Fatal(err)
	}
	if !d.OK() || d.HostBreaches != 0 {
		t.Fatalf("noise 0 must skip host metrics: %s", d.Summary())
	}
}

// TestCompareSpeedAllocBands pins the direction-aware perf gates: SpeedNoise
// bounds how much slower sim_cycles_per_sec may get, AllocNoise bounds how
// much alloc_objects/alloc_bytes may grow, and each works with Noise 0 (the
// cross-machine setting where wall-clock sanity checks are meaningless).
func TestCompareSpeedAllocBands(t *testing.T) {
	base := func() *Manifest {
		m := testManifest("a", "silc/milc")
		m.Entries[0].Host.AllocObjects = 10_000
		m.Entries[0].Host.AllocBytes = 1 << 20
		return m
	}
	old := base()

	// 40% slower: inside a ±60% speed band, outside ±10%.
	slower := base()
	slower.Entries[0].Host.SimCyclesPerSec *= 0.6
	d, err := Compare(old, slower, DiffOptions{Noise: 0, SpeedNoise: 0.60})
	if err != nil {
		t.Fatal(err)
	}
	if !d.OK() {
		t.Fatalf("-40%% speed inside ±60%% band must pass: %s", d.Summary())
	}
	d, err = Compare(old, slower, DiffOptions{Noise: 0, SpeedNoise: 0.10})
	if err != nil {
		t.Fatal(err)
	}
	if d.OK() || d.HostBreaches != 1 {
		t.Fatalf("-40%% speed outside ±10%% band must breach once: %s", d.Summary())
	}

	// Allocating double breaches a tight alloc band (objects and bytes),
	// even with Noise and SpeedNoise unset.
	leaky := base()
	leaky.Entries[0].Host.AllocObjects *= 2
	leaky.Entries[0].Host.AllocBytes *= 2
	d, err = Compare(old, leaky, DiffOptions{Noise: 0, AllocNoise: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	if d.OK() || d.HostBreaches != 2 {
		t.Fatalf("2x allocs outside ±25%% band must breach twice: %s", d.Summary())
	}

	// Getting faster and leaner is never a regression, however tight the
	// bands.
	better := base()
	better.Entries[0].Host.SimCyclesPerSec *= 4
	better.Entries[0].Host.AllocObjects /= 4
	better.Entries[0].Host.AllocBytes /= 4
	d, err = Compare(old, better, DiffOptions{Noise: 0, SpeedNoise: 0.01, AllocNoise: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if !d.OK() {
		t.Fatalf("faster+leaner must pass any band: %s", d.Summary())
	}

	// With no per-metric override, SpeedNoise/AllocNoise fall back to Noise.
	d, err = Compare(old, leaky, DiffOptions{Noise: 0.10})
	if err != nil {
		t.Fatal(err)
	}
	if d.OK() {
		t.Fatalf("alloc growth must fall back to the Noise band: %s", d.Summary())
	}
}

func TestCompareEntryCoverage(t *testing.T) {
	old := testManifest("a", "silc/milc", "silc/mcf")
	short := testManifest("b", "silc/milc")

	d, err := Compare(old, short, DiffOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if d.OK() {
		t.Fatal("missing entry must fail without Subset")
	}
	d, err = Compare(old, short, DiffOptions{Subset: true})
	if err != nil {
		t.Fatal(err)
	}
	if !d.OK() || len(d.Uncovered) != 1 || d.Uncovered[0] != "silc/mcf" {
		t.Fatalf("subset mode must tolerate missing entries: %s %v", d.Summary(), d.Uncovered)
	}

	// A brand-new entry always fails: the baseline must be refreshed
	// deliberately, even in subset mode.
	grown := testManifest("c", "silc/milc", "pom/milc")
	d, err = Compare(testManifest("a", "silc/milc"), grown, DiffOptions{Subset: true})
	if err != nil {
		t.Fatal(err)
	}
	if d.OK() {
		t.Fatal("new entry without baseline must fail")
	}
}

// TestRealRunManifestDeterminism runs the same small simulation twice and
// asserts the deterministic sections encode byte-identically — the property
// the whole regression watchdog rests on.
func TestRealRunManifestDeterminism(t *testing.T) {
	spec := harness.Spec{
		Machine:           config.Small(),
		Workload:          "milc",
		InstrPerCore:      20000,
		ScaleInstrByClass: true,
		FootScaleNum:      1,
		FootScaleDen:      8,
	}
	run := func() Entry {
		res, err := harness.Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		if err := res.Err(); err != nil {
			t.Fatal(err)
		}
		if res.WallSeconds <= 0 || res.SimCyclesPerSec <= 0 {
			t.Fatalf("host metrics not stamped: wall=%v cps=%v", res.WallSeconds, res.SimCyclesPerSec)
		}
		return FromResult("silc/milc", res)
	}
	a, b := run(), run()
	det := func(e Entry) []byte {
		e.Host = Host{}
		enc, err := Canonical(e)
		if err != nil {
			t.Fatal(err)
		}
		return enc
	}
	if !bytes.Equal(det(a), det(b)) {
		t.Fatalf("deterministic sections differ across identical runs:\n%s\nvs\n%s", det(a), det(b))
	}
	if a.Sim.Latency == nil || a.Sim.Attribution == nil {
		t.Fatal("real run must populate latency and attribution summaries")
	}
	d, err := Compare(&Manifest{Schema: Schema, Entries: []Entry{a}},
		&Manifest{Schema: Schema, Entries: []Entry{b}}, DiffOptions{Noise: 0})
	if err != nil {
		t.Fatal(err)
	}
	if !d.OK() {
		t.Fatalf("identical runs must diff clean: %s\n%s", d.Summary(), d.Table)
	}
}

// TestExemplarsOnOffManifestByteInert pins the exemplar recorder's
// inertness at the manifest level: the same cell run with the recorder on
// and off must produce byte-identical deterministic sections once the
// exemplars leaf itself is set aside. Any counter the recorder perturbed
// would surface here.
func TestExemplarsOnOffManifestByteInert(t *testing.T) {
	spec := harness.Spec{
		Machine:           config.Small(),
		Workload:          "milc",
		InstrPerCore:      20000,
		ScaleInstrByClass: true,
		FootScaleNum:      1,
		FootScaleDen:      8,
	}
	run := func(disabled bool) Entry {
		s := spec
		s.Exemplars = &exemplar.Config{Disabled: disabled}
		res, err := harness.Run(s)
		if err != nil {
			t.Fatal(err)
		}
		return FromResult("silc/milc", res)
	}
	on, off := run(false), run(true)
	if len(on.Sim.Exemplars) == 0 {
		t.Fatal("recorder-on manifest carries no exemplar summaries")
	}
	if off.Sim.Exemplars != nil {
		t.Fatal("recorder-off manifest carries exemplar summaries")
	}
	det := func(e Entry) []byte {
		e.Host = Host{}
		e.Sim.Exemplars = nil
		enc, err := Canonical(e)
		if err != nil {
			t.Fatal(err)
		}
		return enc
	}
	a, b := det(on), det(off)
	if !bytes.Equal(a, b) {
		t.Fatalf("recorder on/off manifests differ outside the exemplars leaf:\n%s\nvs\n%s", a, b)
	}
	// The summary leaf itself is sim-exact: worst latency per path matches
	// the latency histogram's exact max.
	maxByPath := map[string]uint64{}
	for _, l := range on.Sim.Latency {
		maxByPath[l.Path] = l.Max
	}
	for _, s := range on.Sim.Exemplars {
		if s.Count == 0 || s.WorstLatency != maxByPath[s.Path] {
			t.Fatalf("exemplar summary %+v disagrees with histogram max %d", s, maxByPath[s.Path])
		}
	}
}
