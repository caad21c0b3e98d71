package exemplar_test

import (
	"bytes"
	"reflect"
	"testing"

	"silcfm/internal/config"
	"silcfm/internal/health"
	"silcfm/internal/mem"
	"silcfm/internal/sim"
	"silcfm/internal/stats"
	"silcfm/internal/telemetry"
	"silcfm/internal/telemetry/exemplar"
)

// newRecorder builds a recorder over a bare idle system, so tests can feed
// the observer hooks directly with hand-built accesses.
func newRecorder(t *testing.T) (*sim.Engine, *mem.System, *exemplar.Recorder) {
	t.Helper()
	eng := sim.NewEngine()
	sys := mem.NewSystem(config.Small(), eng)
	r := exemplar.New(exemplar.Config{}, sys, nil)
	if r == nil {
		t.Fatal("New returned nil for an enabled config")
	}
	return eng, sys, r
}

// feed issues and completes one access at the given cycle with the given
// latency. Spans are stamped so they sum exactly to lat (all SpanService),
// mirroring the attribution invariant the recorder relies on.
func feed(eng *sim.Engine, sys *mem.System, r *exemplar.Recorder,
	path stats.DemandPath, pa, at, lat uint64) {
	eng.At(at, func() {
		a := &mem.Access{PAddr: pa, Start: at - lat}
		a.AddSpan(stats.SpanService, lat)
		r.DemandIssue(a, path, sys.HomeLocation(pa))
		r.DemandComplete(a, path, lat)
	})
}

func latenciesOf(es []exemplar.Exemplar) []uint64 {
	var out []uint64
	for i := range es {
		out = append(out, es[i].Latency)
	}
	return out
}

func TestDisabledIsNilAndNilSafe(t *testing.T) {
	eng := sim.NewEngine()
	sys := mem.NewSystem(config.Small(), eng)
	r := exemplar.New(exemplar.Config{Disabled: true}, sys, nil)
	if r != nil {
		t.Fatal("Disabled config did not return nil")
	}
	// Every method must be a no-op on the nil receiver.
	a := &mem.Access{PAddr: 64}
	r.DemandIssue(a, stats.PathNMHit, sys.HomeLocation(64))
	r.DemandComplete(a, stats.PathNMHit, 10)
	if got := r.Snapshot(); got != nil {
		t.Fatalf("nil recorder Snapshot = %v, want nil", got)
	}
	if got := r.Finish(); got != nil {
		t.Fatalf("nil recorder Finish = %v, want nil", got)
	}
}

func TestFewerThanKKeepsAll(t *testing.T) {
	eng, sys, r := newRecorder(t)
	for i, lat := range []uint64{30, 10, 20} {
		feed(eng, sys, r, stats.PathNMHit, uint64(i)*64, 100+uint64(i)*100, lat)
	}
	eng.Run()
	es := r.Finish()
	if len(es) != 3 {
		t.Fatalf("captured %d exemplars, want 3", len(es))
	}
	want := []uint64{30, 20, 10}
	for i, w := range want {
		if es[i].Latency != w {
			t.Fatalf("snapshot latencies %v, want worst-first %v", latenciesOf(es), want)
		}
	}
}

// TestFullReservoirKeepsOnlyTheWorstK: once K accesses fill a path's
// reservoir, a later access enters only by outranking the least-bad
// survivor, and on a latency tie the incumbent keeps its slot.
func TestFullReservoirKeepsOnlyTheWorstK(t *testing.T) {
	eng, sys, r := newRecorder(t)
	var lats []uint64
	for i := uint64(0); i < exemplar.K-1; i++ {
		lats = append(lats, 100+i)
	}
	// 5 fills the reservoir; 90 evicts it; 12, the second 90 and 41 do
	// not outrank the first 90.
	lats = append(lats, 5, 90, 12, 90, 41)
	for i, lat := range lats {
		feed(eng, sys, r, stats.PathFM, uint64(i)*64, 100+uint64(i)*100, lat)
	}
	eng.Run()
	es := r.Finish()
	if len(es) != exemplar.K {
		t.Fatalf("full reservoir holds %d exemplars, want K=%d", len(es), exemplar.K)
	}
	for i, e := range es[:exemplar.K-1] {
		if want := uint64(100 + exemplar.K - 2 - i); e.Latency != want {
			t.Fatalf("snapshot latencies %v, want 100-%d worst-first then 90", latenciesOf(es), 100+exemplar.K-2)
		}
	}
	last := es[exemplar.K-1]
	if last.Latency != 90 {
		t.Fatalf("least-bad survivor latency %d, want 90", last.Latency)
	}
	// On the full-reservoir latency tie (the second 90), the incumbent
	// keeps its slot: the survivor must be the first 90 (earlier start).
	firstNinety := uint64(100+exemplar.K*100) - 90
	if last.StartCycle != firstNinety {
		t.Fatalf("tie broke toward the later access: start=%d, want %d", last.StartCycle, firstNinety)
	}
}

func TestEvictionBoundary(t *testing.T) {
	eng, sys, r := newRecorder(t)
	// K+1 accesses at 10, 20, ...: the last evicts 10, leaving 20 the root.
	var i uint64
	for ; i <= exemplar.K; i++ {
		feed(eng, sys, r, stats.PathSwap, i*64, 100+i*100, 10*(i+1))
	}
	// Above the root: must evict it, leaving 25 the root. Below the new
	// root: must be rejected.
	feed(eng, sys, r, stats.PathSwap, i*64, 100+i*100, 25)
	feed(eng, sys, r, stats.PathSwap, (i+1)*64, 200+i*100, 15)
	eng.Run()
	got := latenciesOf(r.Finish())
	var want []uint64
	for lat := uint64(10 * (exemplar.K + 1)); lat >= 30; lat -= 10 {
		want = append(want, lat)
	}
	want = append(want, 25)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("reservoir after boundary churn holds %v, want %v", got, want)
	}
}

func TestExactTieOrderIsPinned(t *testing.T) {
	eng, sys, r := newRecorder(t)
	// Three accesses with identical latency, distinct start cycles, fed
	// out of start order. Worst-first order pins start asc then seq asc.
	for _, at := range []uint64{300, 100, 200} {
		feed(eng, sys, r, stats.PathNMHit, at, at, 50)
	}
	eng.Run()
	es := r.Finish()
	if len(es) != 3 {
		t.Fatalf("captured %d, want 3", len(es))
	}
	for i, wantStart := range []uint64{50, 150, 250} {
		if es[i].StartCycle != wantStart {
			t.Fatalf("tie order: snapshot[%d].StartCycle=%d, want %d",
				i, es[i].StartCycle, wantStart)
		}
	}
	for i := 1; i < len(es); i++ {
		if es[i].Seq <= es[i-1].Seq {
			t.Fatalf("equal-start tie must order by seq asc: %d after %d",
				es[i].Seq, es[i-1].Seq)
		}
	}
}

func TestPathsAreIndependentAndGrouped(t *testing.T) {
	eng, sys, r := newRecorder(t)
	feed(eng, sys, r, stats.PathFM, 64, 100, 10)
	feed(eng, sys, r, stats.PathNMHit, 128, 200, 99)
	feed(eng, sys, r, stats.PathFM, 192, 300, 20)
	eng.Run()
	es := r.Finish()
	if len(es) != 3 {
		t.Fatalf("captured %d, want 3", len(es))
	}
	// Snapshot is grouped in stats.DemandPath order: nm-hit before fm,
	// worst-first inside each group.
	wantPaths := []string{stats.PathNMHit.String(), stats.PathFM.String(), stats.PathFM.String()}
	wantLats := []uint64{99, 20, 10}
	for i := range es {
		if es[i].Path != wantPaths[i] || es[i].Latency != wantLats[i] {
			t.Fatalf("snapshot[%d] = %s/%d, want %s/%d",
				i, es[i].Path, es[i].Latency, wantPaths[i], wantLats[i])
		}
	}
}

// TestEpochContextStampsOpenIncidents: an admitted exemplar carries the
// epoch index, gauges and open incident kinds (in detector order) of the
// last epoch boundary before it completed, and a later boundary with
// nothing open clears them.
func TestEpochContextStampsOpenIncidents(t *testing.T) {
	eng, sys, r := newRecorder(t)
	open := []health.Incident{{Kind: health.KindRowThrash}, {Kind: health.KindSwapThrash}}
	gauges := []mem.Gauge{{Name: "locked_frames", Value: 7}}
	r.Observe(telemetry.EpochState{Sample: &telemetry.Sample{Epoch: 3, Gauges: gauges}}, health.Status{Open: open})
	feed(eng, sys, r, stats.PathNMHit, 64, 100, 50)
	eng.Run()
	r.Observe(telemetry.EpochState{Sample: &telemetry.Sample{Epoch: 4}}, health.Status{})
	feed(eng, sys, r, stats.PathFM, 128, 200, 60)
	eng.Run()
	es := r.Finish()
	if len(es) != 2 {
		t.Fatalf("captured %d, want 2", len(es))
	}
	wantOpen := []string{health.KindSwapThrash, health.KindRowThrash}
	if e := es[0]; e.Epoch != 3 || !reflect.DeepEqual(e.OpenIncidents, wantOpen) || !reflect.DeepEqual(e.Gauges, gauges) {
		t.Errorf("first exemplar context = epoch %d, open %v, gauges %v; want 3, %v, %v",
			e.Epoch, e.OpenIncidents, e.Gauges, wantOpen, gauges)
	}
	if e := es[1]; e.Epoch != 4 || e.OpenIncidents != nil || e.Gauges != nil {
		t.Errorf("second exemplar context = epoch %d, open %v, gauges %v; want 4 with none open",
			e.Epoch, e.OpenIncidents, e.Gauges)
	}
}

// TestAdmittedExemplarKeepsItsIncidents: an exemplar admitted after one
// boundary keeps that boundary's open incidents when the next boundary
// opens others (the recorder keeps each boundary's open set, which the
// next one never changes), and the recorder leaves the kept set as it was.
func TestAdmittedExemplarKeepsItsIncidents(t *testing.T) {
	eng, sys, r := newRecorder(t)
	first := []health.Incident{{Kind: health.KindSwapThrash, FirstEpoch: 1}, {Kind: health.KindLockChurn, FirstEpoch: 2}}
	r.Observe(telemetry.EpochState{Sample: &telemetry.Sample{Epoch: 3}}, health.Status{Open: first})
	feed(eng, sys, r, stats.PathNMHit, 64, 100, 50)
	eng.Run()
	r.Observe(telemetry.EpochState{Sample: &telemetry.Sample{Epoch: 4}},
		health.Status{Open: []health.Incident{{Kind: health.KindRowThrash, FirstEpoch: 4}}})
	feed(eng, sys, r, stats.PathNMHit, 128, 200, 40)
	eng.Run()
	r.Observe(telemetry.EpochState{Sample: &telemetry.Sample{Epoch: 5}}, health.Status{})
	es := r.Finish()
	if len(es) != 2 {
		t.Fatalf("captured %d, want 2", len(es))
	}
	if want := []string{health.KindSwapThrash, health.KindLockChurn}; es[0].Epoch != 3 || !reflect.DeepEqual(es[0].OpenIncidents, want) {
		t.Errorf("first exemplar = epoch %d, open %v; want 3, %v", es[0].Epoch, es[0].OpenIncidents, want)
	}
	if want := []string{health.KindRowThrash}; es[1].Epoch != 4 || !reflect.DeepEqual(es[1].OpenIncidents, want) {
		t.Errorf("second exemplar = epoch %d, open %v; want 4, %v", es[1].Epoch, es[1].OpenIncidents, want)
	}
	if first[0].Kind != health.KindSwapThrash || first[1].Kind != health.KindLockChurn {
		t.Errorf("the recorder changed the open set it kept: %+v", first)
	}
}

func TestSpanSumEqualsLatency(t *testing.T) {
	eng, _, r := newRecorder(t)
	eng.At(100, func() {
		a := &mem.Access{PAddr: 64, Start: 40}
		a.AddSpan(stats.SpanQueue, 13)
		a.AddSpan(stats.SpanService, 27)
		a.AddSpan(stats.SpanMetaFetch, 11)
		a.AddSpan(stats.SpanOther, 9)
		r.DemandComplete(a, stats.PathMispredict, 60)
	})
	eng.Run()
	es := r.Finish()
	if len(es) != 1 {
		t.Fatalf("captured %d, want 1", len(es))
	}
	var sum uint64
	for _, sp := range es[0].Spans {
		sum += sp.Cycles
	}
	if sum != es[0].Latency {
		t.Fatalf("span sum %d != latency %d", sum, es[0].Latency)
	}
	if es[0].Issue != nil {
		t.Fatal("completion without DemandIssue must leave Issue nil")
	}
}

func TestSnapshotJSONLIsByteDeterministic(t *testing.T) {
	run := func() []byte {
		eng, sys, r := newRecorder(t)
		for i, lat := range []uint64{40, 40, 7, 93, 21, 40} {
			feed(eng, sys, r, stats.DemandPath(i%3), uint64(i)*64, 100+uint64(i)*50, lat)
		}
		eng.Run()
		var b bytes.Buffer
		if err := exemplar.WriteJSONL(&b, r.Finish()); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	a, b := run(), run()
	if len(a) == 0 {
		t.Fatal("empty JSONL")
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("JSONL differs between identical runs:\n%s\nvs\n%s", a, b)
	}
}

func TestSteadyStateAdmissionDoesNotAllocate(t *testing.T) {
	eng, sys, r := newRecorder(t)
	loc := sys.HomeLocation(64)
	a := &mem.Access{}
	lat := uint64(100)
	// Warm up: fill the reservoir.
	for i := 0; i < 2*exemplar.K; i++ {
		lat++
		a.Reset(0, 0, 64, false, 0, nil)
		r.DemandIssue(a, stats.PathSwap, loc)
		r.DemandComplete(a, stats.PathSwap, lat)
	}
	// Every iteration admits (latency strictly increasing), exercising the
	// full issue → evict-root → fill path. Must be allocation-free.
	allocs := testing.AllocsPerRun(200, func() {
		lat++
		a.Reset(0, 0, 64, false, 0, nil)
		r.DemandIssue(a, stats.PathSwap, loc)
		r.DemandComplete(a, stats.PathSwap, lat)
	})
	if allocs != 0 {
		t.Fatalf("steady-state admission allocates %.1f per access, want 0", allocs)
	}
	_ = eng
}

// TestIssueContextRidesOnPooledAccess pins where issue-time context lives:
// on the access itself. A pool of accesses, all in flight at once, issues
// and completes with no allocation from the very first round (there is no
// side table to grow), and a pooled access reused through Reset without a
// new DemandIssue carries no stale context into its next exemplar.
func TestIssueContextRidesOnPooledAccess(t *testing.T) {
	_, sys, r := newRecorder(t)
	pool := make([]mem.Access, 64)
	lat := uint64(1000)
	allocs := testing.AllocsPerRun(50, func() {
		for i := range pool {
			pool[i].Reset(i%4, 0, uint64(i)*64, false, 0, nil)
			r.DemandIssue(&pool[i], stats.PathNMHit, sys.HomeLocation(uint64(i)*64))
		}
		for i := range pool {
			lat++
			r.DemandComplete(&pool[i], stats.PathNMHit, lat)
		}
	})
	if allocs != 0 {
		t.Fatalf("issue+complete over %d in-flight pooled accesses allocates %.1f per round, want 0",
			len(pool), allocs)
	}
	for _, e := range r.Snapshot() {
		if e.Issue == nil {
			t.Fatalf("exemplar seq %d lost its issue context", e.Seq)
		}
	}

	a := &pool[0]
	a.Reset(0, 0, 64, false, 0, nil)
	if a.HasIssue {
		t.Fatal("Reset kept the previous demand's issue context")
	}
	r.DemandComplete(a, stats.PathFM, 1)
	if es := r.Finish(); len(es) == 0 || es[len(es)-1].Path != stats.PathFM.String() || es[len(es)-1].Issue != nil {
		t.Fatal("a reused access completing without DemandIssue must record no issue context")
	}
}

func TestSummarizeCountsAndWorst(t *testing.T) {
	eng, sys, r := newRecorder(t)
	feed(eng, sys, r, stats.PathNMHit, 64, 100, 10)
	feed(eng, sys, r, stats.PathNMHit, 128, 200, 30)
	feed(eng, sys, r, stats.PathBypass, 192, 300, 77)
	eng.Run()
	sums := exemplar.Summarize(r.Finish())
	if len(sums) != 2 {
		t.Fatalf("got %d path summaries, want 2", len(sums))
	}
	if sums[0].Path != stats.PathNMHit.String() || sums[0].Count != 2 || sums[0].WorstLatency != 30 {
		t.Fatalf("nm-hit summary %+v", sums[0])
	}
	if sums[1].Path != stats.PathBypass.String() || sums[1].Count != 1 || sums[1].WorstLatency != 77 {
		t.Fatalf("bypass summary %+v", sums[1])
	}
	if sums[1].WorstSpan != stats.SpanService.String() {
		t.Fatalf("worst span %q, want %q", sums[1].WorstSpan, stats.SpanService)
	}
}
