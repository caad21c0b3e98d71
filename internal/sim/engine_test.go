package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"unsafe"

	"silcfm/internal/memunits"
)

func TestEngineOrdering(t *testing.T) {
	e := NewEngine()
	var got []int
	e.At(30, func() { got = append(got, 3) })
	e.At(10, func() { got = append(got, 1) })
	e.At(20, func() { got = append(got, 2) })
	e.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("events out of order: %v", got)
	}
	if e.Now() != 30 {
		t.Fatalf("clock = %d, want 30", e.Now())
	}
}

func TestEngineFIFOTieBreak(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		e.At(5, func() { got = append(got, i) })
	}
	e.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-cycle events not FIFO: pos %d got %d", i, v)
		}
	}
}

func TestEngineAfterNesting(t *testing.T) {
	e := NewEngine()
	var trace []Cycle
	e.After(10, func() {
		trace = append(trace, e.Now())
		e.After(5, func() { trace = append(trace, e.Now()) })
	})
	e.Run()
	if len(trace) != 2 || trace[0] != 10 || trace[1] != 15 {
		t.Fatalf("nested scheduling wrong: %v", trace)
	}
}

func TestEnginePastSchedulingClamps(t *testing.T) {
	e := NewEngine()
	ran := false
	e.At(100, func() {
		e.At(50, func() {
			ran = true
			if e.Now() != 100 {
				t.Errorf("past event ran at %d, want clamp to 100", e.Now())
			}
		})
	})
	e.Run()
	if !ran {
		t.Fatal("past-scheduled event never ran")
	}
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine()
	var got []Cycle
	for _, c := range []Cycle{5, 10, 15, 20} {
		c := c
		e.At(c, func() { got = append(got, c) })
	}
	e.RunUntil(12)
	if len(got) != 2 {
		t.Fatalf("RunUntil(12) dispatched %d events, want 2", len(got))
	}
	if e.Now() != 12 {
		t.Fatalf("clock after RunUntil = %d, want 12", e.Now())
	}
	e.RunUntil(100)
	if len(got) != 4 {
		t.Fatalf("remaining events not dispatched: %v", got)
	}
}

func TestEngineRunWhile(t *testing.T) {
	e := NewEngine()
	count := 0
	for i := 0; i < 10; i++ {
		e.At(Cycle(i), func() { count++ })
	}
	e.RunWhile(func() bool { return count < 4 })
	if count != 4 {
		t.Fatalf("RunWhile stopped at count=%d, want 4", count)
	}
}

func TestEnginePending(t *testing.T) {
	e := NewEngine()
	if e.Pending() != 0 {
		t.Fatal("fresh engine has pending events")
	}
	e.At(1, func() {})
	e.At(2, func() {})
	if e.Pending() != 2 {
		t.Fatalf("Pending = %d, want 2", e.Pending())
	}
	e.Step()
	if e.Pending() != 1 {
		t.Fatalf("Pending after Step = %d, want 1", e.Pending())
	}
}

// Property: for any set of scheduled times, dispatch order is the sorted
// order of those times.
func TestEngineDispatchSortedProperty(t *testing.T) {
	f := func(times []uint16) bool {
		e := NewEngine()
		var got []Cycle
		for _, tm := range times {
			c := Cycle(tm)
			e.At(c, func() { got = append(got, c) })
		}
		e.Run()
		want := make([]Cycle, len(times))
		for i, tm := range times {
			want[i] = Cycle(tm)
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestEngineDeterminism(t *testing.T) {
	run := func(seed int64) []Cycle {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()
		var got []Cycle
		var rec func(depth int)
		rec = func(depth int) {
			got = append(got, e.Now())
			if depth < 3 {
				for i := 0; i < 2; i++ {
					e.After(Cycle(rng.Intn(10)), func() { rec(depth + 1) })
				}
			}
		}
		e.At(0, func() { rec(0) })
		e.Run()
		return got
	}
	a, b := run(42), run(42)
	if len(a) != len(b) {
		t.Fatal("nondeterministic event count")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

// TestWheelSlabReusesNodes schedules a burst of events into one wheel
// bucket, drains it, and repeats the identical burst: the second burst must
// allocate nothing, the slab must hold no more pages than the peak pending
// count needs, and same-cycle events must still dispatch in FIFO order.
func TestWheelSlabReusesNodes(t *testing.T) {
	const burst = 3000
	e := NewEngine()
	var got []int
	run := func() {
		got = got[:0]
		for i := 0; i < burst; i++ {
			i := i
			e.After(5, func() { got = append(got, i) })
		}
		e.Run()
	}
	run()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-bucket events not FIFO: pos %d got %d", i, v)
		}
	}
	if a := testing.AllocsPerRun(3, func() {
		for i := 0; i < burst; i++ {
			e.After(5, fn0)
		}
		e.Run()
	}); a != 0 {
		t.Fatalf("a repeated burst allocates %.1f objects, want 0", a)
	}
	const per = memunits.SlabPageLen
	if pages := (burst + per - 1) / per; e.slab.Cap() != pages*per {
		size := int(unsafe.Sizeof(node{}))
		t.Fatalf("slab holds %d B for a peak of %d pending, want %d pages of %d B",
			e.slab.Cap()*size, burst, pages, per*size)
	}
}

func fn0() {}

func BenchmarkEngineScheduleDispatch(b *testing.B) {
	e := NewEngine()
	fn := func() {}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.After(Cycle(i%64), fn)
		if e.Pending() > 1024 {
			for e.Pending() > 0 {
				e.Step()
			}
		}
	}
}
