package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestAccessRate(t *testing.T) {
	var m Memory
	if m.AccessRate() != 0 {
		t.Fatal("idle access rate must be 0")
	}
	m.LLCMisses = 100
	m.ServicedNM = 80
	m.ServicedFM = 20
	if got := m.AccessRate(); math.Abs(got-0.8) > 1e-12 {
		t.Fatalf("AccessRate = %v, want 0.8", got)
	}
}

func TestDemandNMFraction(t *testing.T) {
	var m Memory
	m.AddBytes(NM, Demand, 300)
	m.AddBytes(FM, Demand, 100)
	m.AddBytes(NM, Migration, 9999) // must not count (Figure 8 is demand-only)
	m.AddBytes(FM, Metadata, 9999)
	if got := m.DemandNMFraction(); math.Abs(got-0.75) > 1e-12 {
		t.Fatalf("DemandNMFraction = %v, want 0.75", got)
	}
}

func TestMigrationOverheadRatio(t *testing.T) {
	var m Memory
	m.AddBytes(NM, Demand, 50)
	m.AddBytes(FM, Demand, 50)
	m.AddBytes(NM, Migration, 150)
	m.AddBytes(FM, Metadata, 50)
	if got := m.MigrationOverheadRatio(); math.Abs(got-2.0) > 1e-12 {
		t.Fatalf("MigrationOverheadRatio = %v, want 2.0", got)
	}
}

func TestLevelAndClassNames(t *testing.T) {
	if NM.String() != "NM" || FM.String() != "FM" {
		t.Fatal("level names")
	}
	if Demand.String() != "demand" || Migration.String() != "migration" || Metadata.String() != "metadata" {
		t.Fatal("class names")
	}
}

func TestCoreMPKI(t *testing.T) {
	c := Core{Instructions: 2_000_000, LLCMisses: 50_000}
	if got := c.MPKI(); math.Abs(got-25) > 1e-9 {
		t.Fatalf("MPKI = %v, want 25", got)
	}
	var z Core
	if z.MPKI() != 0 {
		t.Fatal("zero-instruction MPKI must be 0")
	}
}

func TestRunAggregates(t *testing.T) {
	r := Run{
		Cores:  []Core{{Instructions: 1000, LLCMisses: 10}, {Instructions: 1000, LLCMisses: 30}},
		Cycles: 500,
	}
	if r.TotalInstructions() != 2000 {
		t.Fatal("TotalInstructions")
	}
	if got := r.AvgMPKI(); math.Abs(got-20) > 1e-9 {
		t.Fatalf("AvgMPKI = %v, want 20", got)
	}
	if got := r.Speedup(1000); math.Abs(got-2.0) > 1e-12 {
		t.Fatalf("Speedup = %v, want 2", got)
	}
	r.EnergyNJ = 3
	if got := r.EDP(); math.Abs(got-1500) > 1e-9 {
		t.Fatalf("EDP = %v, want 1500", got)
	}
}

func TestEDPScalesWithDelay(t *testing.T) {
	r := Run{EnergyNJ: 10, Cycles: 100}
	if r.EDP() != 1000 {
		t.Fatalf("EDP = %v", r.EDP())
	}
	slow := r
	slow.Cycles = 200
	if slow.EDP() <= r.EDP() {
		t.Fatal("EDP must grow with delay")
	}
}

func TestGeoMean(t *testing.T) {
	if got := GeoMean([]float64{1, 4}); math.Abs(got-2) > 1e-12 {
		t.Fatalf("GeoMean = %v, want 2", got)
	}
	if got := GeoMean([]float64{2, 0, -5, 8}); math.Abs(got-4) > 1e-12 {
		t.Fatalf("GeoMean ignoring nonpositive = %v, want 4", got)
	}
	if GeoMean(nil) != 0 {
		t.Fatal("empty GeoMean must be 0")
	}
}

// Property: geomean lies between min and max of positive inputs.
func TestGeoMeanBounded(t *testing.T) {
	f := func(raw []uint16) bool {
		var xs []float64
		mn, mx := math.Inf(1), math.Inf(-1)
		for _, r := range raw {
			x := float64(r) + 1
			xs = append(xs, x)
			mn, mx = math.Min(mn, x), math.Max(mx, x)
		}
		if len(xs) == 0 {
			return true
		}
		g := GeoMean(xs)
		return g >= mn-1e-9 && g <= mx+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram(10, 5)
	for _, v := range []uint64{1, 5, 15, 25, 1000} {
		h.Add(v)
	}
	if h.N != 5 || h.Max != 1000 {
		t.Fatalf("N=%d Max=%d", h.N, h.Max)
	}
	if got := h.Mean(); math.Abs(got-209.2) > 1e-9 {
		t.Fatalf("Mean = %v", got)
	}
	if h.Counts[0] != 2 || h.Counts[1] != 1 || h.Counts[2] != 1 || h.Counts[4] != 1 {
		t.Fatalf("bucket counts: %v", h.Counts)
	}
	if p := h.Percentile(50); p != 20 {
		t.Fatalf("P50 = %d, want 20", p)
	}
	var empty Histogram
	if empty.Mean() != 0 {
		t.Fatal("empty mean")
	}
}

// TestHistogramDegenerateShapes pins the fixed edge cases: a zero-valued
// Histogram (BucketWidth 0, no Counts) must accept samples without a
// divide-by-zero panic, and a zero-width histogram with buckets treats the
// width as 1.
func TestHistogramDegenerateShapes(t *testing.T) {
	var h Histogram // BucketWidth 0, Counts nil
	h.Add(7)
	h.Add(3)
	if h.N != 2 || h.Sum != 10 || h.Max != 7 {
		t.Fatalf("zero-value histogram accounting: N=%d Sum=%d Max=%d", h.N, h.Sum, h.Max)
	}
	if p := h.Percentile(99); p != 7 {
		t.Fatalf("bucketless P99 = %d, want Max", p)
	}

	hw := Histogram{Counts: make([]uint64, 4)} // width 0 -> 1
	for _, v := range []uint64{0, 1, 2, 3} {
		hw.Add(v)
	}
	for i, c := range hw.Counts {
		if c != 1 {
			t.Fatalf("width-1 bucket %d count = %d", i, c)
		}
	}
}

// TestHistogramPercentileOverflowBucket: samples clamped into the last
// bucket can exceed its nominal upper edge; the percentile answer must not
// undershoot the observed Max.
func TestHistogramPercentileOverflowBucket(t *testing.T) {
	h := NewHistogram(10, 4)
	for i := 0; i < 10; i++ {
		h.Add(1_000_000)
	}
	if p := h.Percentile(100); p != 1_000_000 {
		t.Fatalf("P100 = %d, want the true Max 1000000", p)
	}
	if p := h.Percentile(50); p != 1_000_000 {
		t.Fatalf("P50 = %d, want the true Max for an all-overflow histogram", p)
	}
	// Percentiles that resolve inside interior buckets keep the edge bound.
	h2 := NewHistogram(10, 4)
	for _, v := range []uint64{1, 1, 1, 99} {
		h2.Add(v)
	}
	if p := h2.Percentile(50); p != 10 {
		t.Fatalf("interior P50 = %d, want 10", p)
	}
}

func TestPredictorAccuracy(t *testing.T) {
	var m Memory
	if m.PredictorAccuracy() != 0 {
		t.Fatal("no samples -> 0")
	}
	m.PredictorHits, m.PredictorMisses = 9, 1
	if got := m.PredictorAccuracy(); math.Abs(got-0.9) > 1e-12 {
		t.Fatalf("accuracy = %v", got)
	}
}

func TestTableRendering(t *testing.T) {
	tb := Table{Title: "T", Columns: []string{"name", "value"}}
	tb.AddRow("bwaves", F2(1.5))
	tb.AddRow("mcf", F2(2.25))
	s := tb.String()
	if !strings.Contains(s, "bwaves") || !strings.Contains(s, "2.25") {
		t.Fatalf("table output missing cells:\n%s", s)
	}
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("want 4 lines, got %d:\n%s", len(lines), s)
	}
}

func TestTableCSV(t *testing.T) {
	tb := Table{Title: "T", Columns: []string{"name", "value"}}
	tb.AddRow("plain", "1.5")
	tb.AddRow(`quo"ted`, "a,b")
	csv := tb.CSV()
	want := "name,value\nplain,1.5\n\"quo\"\"ted\",\"a,b\"\n"
	if csv != want {
		t.Fatalf("CSV:\n%q\nwant\n%q", csv, want)
	}
}

func TestRatio(t *testing.T) {
	inf := math.Inf(1)
	nan := math.NaN()
	cases := []struct {
		num, den, want float64
	}{
		{6, 3, 2},
		{0, 5, 0},
		{5, 0, 0},  // zero denominator: the idle-epoch / empty-trace case
		{0, 0, 0},  // 0/0 would be NaN
		{-3, 0, 0}, // -3/0 would be -Inf
		{nan, 2, 0},
		{2, nan, 0},
		{inf, 2, 0},
		{2, inf, 0},
		{-8, 4, -2},
	}
	for _, c := range cases {
		if got := Ratio(c.num, c.den); got != c.want {
			t.Errorf("Ratio(%v, %v) = %v, want %v", c.num, c.den, got, c.want)
		}
	}
	if v := Ratio(1, 3); math.IsNaN(v) || math.IsInf(v, 0) {
		t.Fatalf("finite inputs produced non-finite %v", v)
	}
}
