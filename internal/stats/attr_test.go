package stats

import (
	"strings"
	"testing"
)

func TestSpanStrings(t *testing.T) {
	want := map[Span]string{
		SpanQueue:      "queue",
		SpanService:    "service",
		SpanMetaFetch:  "meta-fetch",
		SpanSwapSerial: "swap-serial",
		SpanMispredict: "mispredict",
		SpanOther:      "other",
	}
	for s := Span(0); s < NumSpans; s++ {
		if got := s.String(); got != want[s] {
			t.Errorf("Span(%d).String() = %q, want %q", s, got, want[s])
		}
	}
	if NumSpans.String() != "unknown" {
		t.Errorf("out-of-range span should stringify as unknown")
	}
}

func TestAttributionObserveAndSummaries(t *testing.T) {
	a := &Attribution{}
	s1 := [NumSpans]uint64{}
	s1[SpanQueue], s1[SpanService], s1[SpanOther] = 10, 30, 2
	s2 := [NumSpans]uint64{}
	s2[SpanMetaFetch], s2[SpanService] = 50, 25
	a.Observe(PathNMHit, &s1)
	a.Observe(PathMispredict, &s2)
	a.Observe(DemandPath(-1), &s1) // ignored
	a.Observe(NumDemandPaths, &s1) // ignored

	if got := a.PathTotal(PathNMHit); got != 42 {
		t.Errorf("PathTotal(nm-hit) = %d, want 42", got)
	}
	if got := a.PathTotal(PathMispredict); got != 75 {
		t.Errorf("PathTotal(mispredict) = %d, want 75", got)
	}
	sums := a.Summaries()
	if len(sums) != 2 {
		t.Fatalf("Summaries: got %d entries, want 2", len(sums))
	}
	if sums[0].Path != "nm-hit" || sums[0].Count != 1 || sums[0].Total != 42 {
		t.Errorf("unexpected nm-hit summary: %+v", sums[0])
	}
	if sums[1].Path != "mispredict" || sums[1].MetaFetch != 50 {
		t.Errorf("unexpected mispredict summary: %+v", sums[1])
	}
}

// consistent builds a Conservation whose counters all balance: two NM-hit
// demands completed, one FM demand in flight, bytes matching.
func consistent() Conservation {
	m := &Memory{LLCMisses: 3, ServicedNM: 2, ServicedFM: 1}
	m.AddBytes(NM, Demand, 128)
	m.AddBytes(FM, Migration, 64)
	lat := NewPathLatencies()
	lat.Observe(PathNMHit, 40)
	lat.Observe(PathNMHit, 60)
	attr := &Attribution{}
	sp := [NumSpans]uint64{}
	sp[SpanQueue], sp[SpanService] = 10, 30
	attr.Observe(PathNMHit, &sp)
	sp[SpanQueue], sp[SpanService] = 20, 40
	attr.Observe(PathNMHit, &sp)
	return Conservation{
		Mem: m, Lat: lat, Attr: attr,
		InflightDemands: 1,
		DeviceBytes:     [2]uint64{128, 64},
	}
}

func TestCheckConservationPasses(t *testing.T) {
	if err := CheckConservation(consistent()); err != nil {
		t.Fatalf("consistent counters rejected: %v", err)
	}
}

func TestCheckConservationDetectsImbalance(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Conservation)
		want string
	}{
		{"span sum mismatch", func(c *Conservation) { c.Attr.Spans[PathNMHit][SpanOther] += 5 }, "span sum"},
		{"count mismatch", func(c *Conservation) { c.Attr.Count[PathNMHit]++ }, "latency samples"},
		{"inflight mismatch", func(c *Conservation) { c.InflightDemands = 0 }, "in flight"},
		{"serviced over misses", func(c *Conservation) { c.Mem.LLCMisses = 2 }, "exceed"},
		{"byte mismatch", func(c *Conservation) { c.DeviceBytes[NM] -= 64 }, "bytes"},
		{"ride-along imbalance", func(c *Conservation) { c.RideAlongBytes[FM] = 8 }, "bytes"},
	}
	for _, tc := range cases {
		c := consistent()
		tc.mut(&c)
		err := CheckConservation(c)
		if err == nil {
			t.Errorf("%s: imbalance not detected", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

func TestCheckConservationQuiesced(t *testing.T) {
	c := consistent()
	c.Quiesced = true
	if err := CheckConservation(c); err == nil {
		t.Fatal("quiesced check must reject an in-flight demand")
	}
	// Complete the in-flight FM demand; now strict equalities hold.
	c = consistent()
	c.Lat.Observe(PathFM, 100)
	sp := [NumSpans]uint64{}
	sp[SpanOther] = 100
	c.Attr.Observe(PathFM, &sp)
	c.InflightDemands = 0
	c.Quiesced = true
	if err := CheckConservation(c); err != nil {
		t.Fatalf("quiesced consistent counters rejected: %v", err)
	}
	// A deferred demand (serviced < misses) is tolerated only while running.
	c.Mem.LLCMisses++
	if err := CheckConservation(c); err == nil {
		t.Fatal("quiesced check must reject serviced != LLC misses")
	}
	c.Quiesced = false
	if err := CheckConservation(c); err != nil {
		t.Fatalf("running check should tolerate a deferred demand: %v", err)
	}
}

func TestCheckConservationRideAlongBalances(t *testing.T) {
	c := consistent()
	// 8 metadata bytes accounted memory-side that rode an existing request.
	c.Mem.AddBytes(NM, Metadata, 8)
	if err := CheckConservation(c); err == nil {
		t.Fatal("unbalanced metadata bytes not detected")
	}
	c.RideAlongBytes[NM] = 8
	if err := CheckConservation(c); err != nil {
		t.Fatalf("ride-along bytes should balance: %v", err)
	}
}
