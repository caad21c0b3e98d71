package sim

import (
	"fmt"
	"math/rand"
	"testing"
)

// sched abstracts the two scheduler implementations under differential
// test: the production wheel+heap Engine and the reference plain-heap
// scheduler below (the semantics of the pre-wheel implementation).
type sched interface {
	Now() Cycle
	At(when Cycle, fn func())
	Step() bool
	AdvanceTo(t Cycle) bool
}

// refSched is a deliberately simple reference scheduler: one flat event
// list, minimum by exact (when, seq) scan, identical past-clamp semantics.
// It is observably equivalent to the old container/heap implementation and
// slow enough that nobody will be tempted to ship it.
type refSched struct {
	now Cycle
	seq uint64
	evs []event
}

func (r *refSched) Now() Cycle { return r.now }

func (r *refSched) At(when Cycle, fn func()) {
	if when < r.now {
		when = r.now
	}
	r.seq++
	r.evs = append(r.evs, event{when: when, seq: r.seq, fn: fn})
}

// AdvanceTo never advances: the reference always takes the long way and
// schedules the continuation, which is what a successful AdvanceTo must be
// indistinguishable from.
func (r *refSched) AdvanceTo(Cycle) bool { return false }

func (r *refSched) Step() bool {
	if len(r.evs) == 0 {
		return false
	}
	min := 0
	for i := 1; i < len(r.evs); i++ {
		if eventLess(r.evs[i], r.evs[min]) {
			min = i
		}
	}
	ev := r.evs[min]
	r.evs = append(r.evs[:min], r.evs[min+1:]...)
	r.now = ev.when
	ev.fn()
	return true
}

// splitmix64 gives each event a deterministic decision stream derived only
// from its ID, so both schedulers replay identical re-entrant behavior as
// long as their dispatch orders agree (and diverge visibly when not).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// dispatch is one dispatch record: the event's ID and the clock it ran at.
type dispatch struct {
	id  int
	now Cycle
}

// scriptedRun drives s with a deterministic event program: roots scheduled
// from seed, and every fired event re-entrantly scheduling 0-3 children at
// offsets that exercise same-cycle ties (0), short delays (wheel), past
// times (clamp), and far-future delays (heap fallback). With yields set,
// an event may also end by continuing itself at a later time the way a
// core does: AdvanceTo the target and run the continuation inline, or
// schedule it when AdvanceTo refuses. drain runs the scheduler to
// completion (nil: Step until empty). It returns the dispatch records.
func scriptedRun(s sched, seed uint64, roots, maxEvents int, yields bool, drain func()) []dispatch {
	var order []dispatch
	nextID := 0
	total := 0

	// offset picks a target time from hc: same cycle, past, short,
	// anywhere in the wheel, or beyond the wheel horizon.
	offset := func(hc uint64) Cycle {
		switch hc % 5 {
		case 0:
			return s.Now() // same-cycle tie with anything pending
		case 1:
			// Past time: must clamp to now and dispatch after
			// already-pending same-cycle events.
			back := Cycle(hc >> 8 % 100)
			if back > s.Now() {
				back = s.Now()
			}
			return s.Now() - back
		case 2:
			return s.Now() + Cycle(hc>>8%8) // short: wheel path
		case 3:
			return s.Now() + Cycle(hc>>8%(wheelSize-1)) + 1
		default:
			// Far future: beyond the wheel horizon, heap path.
			return s.Now() + wheelSize + Cycle(hc>>8%5000)
		}
	}

	var fire func(id int) func()
	fire = func(id int) func() {
		return func() {
			order = append(order, dispatch{id, s.Now()})
			h := splitmix64(seed ^ uint64(id)*0x9e3779b9)
			children := int(h % 4) // 0..3
			for c := 0; c < children && total < maxEvents; c++ {
				id := nextID
				nextID++
				total++
				s.At(offset(splitmix64(h+uint64(c))), fire(id))
			}
			if hy := splitmix64(h ^ 0x5eed); yields && hy%3 == 0 && total < maxEvents {
				id := nextID
				nextID++
				total++
				// Nothing follows the continuation in this callback, so
				// running it inline is a top-level continuation.
				if t := offset(hy >> 2); s.AdvanceTo(t) {
					fire(id)()
				} else {
					s.At(t, fire(id))
				}
			}
		}
	}

	rng := rand.New(rand.NewSource(int64(seed)))
	for i := 0; i < roots; i++ {
		id := nextID
		nextID++
		total++
		when := Cycle(rng.Intn(3 * wheelSize))
		s.At(when, fire(id))
	}
	if drain == nil {
		drain = func() {
			for s.Step() {
			}
		}
	}
	drain()
	return order
}

// sameOrder fails t at the first dispatch where got and want differ.
func sameOrder(t *testing.T, label string, got, want []dispatch) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: dispatched %d events, reference dispatched %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: dispatch diverges at position %d: engine=%+v reference=%+v",
				label, i, got[i], want[i])
		}
	}
}

// TestDifferentialWheelVsHeap runs the production Engine against the
// reference heap scheduler on many random event programs and requires
// identical dispatch order, event for event.
func TestDifferentialWheelVsHeap(t *testing.T) {
	for seed := uint64(1); seed <= 60; seed++ {
		got := scriptedRun(NewEngine(), seed, 40, 4000, false, nil)
		want := scriptedRun(&refSched{}, seed, 40, 4000, false, nil)
		sameOrder(t, fmt.Sprintf("seed %d", seed), got, want)
	}
}

// TestDifferentialAdvanceTo runs event programs whose events continue
// themselves through AdvanceTo — into same-cycle ties, past times, the
// wheel and beyond it, where far-heap events may already be due — and
// requires the engine to match the reference, which always schedules the
// continuation, event for event and clock for clock. The programs run
// under Step and under RunUntil in short chunks, whose limit AdvanceTo
// must respect.
func TestDifferentialAdvanceTo(t *testing.T) {
	advanced := 0
	for seed := uint64(1); seed <= 60; seed++ {
		want := scriptedRun(&refSched{}, seed, 40, 4000, true, nil)
		e := NewEngine()
		got := scriptedRun(e, seed, 40, 4000, true, nil)
		sameOrder(t, fmt.Sprintf("seed %d, Step", seed), got, want)
		advanced += len(got) - int(e.seq)

		e = NewEngine()
		chunk := Cycle(1 + seed*37%700)
		got = scriptedRun(e, seed, 40, 4000, true, func() {
			for e.Pending() > 0 {
				e.RunUntil(e.Now() + chunk)
			}
		})
		sameOrder(t, fmt.Sprintf("seed %d, RunUntil chunk %d", seed, chunk), got, want)
	}
	// Every dispatch record without a scheduled event was an inline
	// continuation: the programs must actually exercise the fast path.
	if advanced == 0 {
		t.Fatal("no AdvanceTo call succeeded; the test exercises nothing")
	}
}

// TestAdvanceToRefusals pins AdvanceTo's guards directly: it refuses when
// a wheel or far-heap event is due at or before the target (including a
// same-cycle tie) or when the target passes the running dispatch's limit,
// and leaves the clock untouched when it refuses.
func TestAdvanceToRefusals(t *testing.T) {
	e := NewEngine()
	var res []bool
	probe := func(target Cycle) func() {
		return func() {
			before := e.Now()
			ok := e.AdvanceTo(target)
			if !ok && e.Now() != before {
				t.Errorf("refused AdvanceTo(%d) moved the clock %d -> %d", target, before, e.Now())
			}
			if ok && e.Now() != max(target, before) {
				t.Errorf("AdvanceTo(%d) left the clock at %d", target, e.Now())
			}
			res = append(res, ok)
		}
	}
	e.At(10, probe(50))    // wheel event at 50 pending: tie refuses
	e.At(50, func() {})    //
	e.At(60, probe(99))    // nothing due by 99: advances
	e.At(100, probe(2000)) // far event at 1500 due first: refuses
	e.At(1500, func() {})
	e.At(1600, probe(1700)) // nothing due by 1700: advances
	e.At(1800, probe(1800)) // same cycle, nothing else pending: succeeds
	e.Run()
	want := []bool{false, true, false, true, true}
	if fmt.Sprint(res) != fmt.Sprint(want) {
		t.Fatalf("AdvanceTo results %v, want %v", res, want)
	}

	e = NewEngine()
	res = res[:0]
	e.At(5, probe(40))
	e.RunUntil(20) // limit 20: advancing to 40 would pass it
	if len(res) != 1 || res[0] || e.Now() != 20 {
		t.Fatalf("AdvanceTo past the RunUntil limit: result %v, clock %d", res, e.Now())
	}
}

// TestAtPastClampReentrantOrder pins the dispatch position of a
// past-clamped event scheduled while its target cycle is already being
// drained: it keeps its fresh sequence number and therefore runs after
// every same-cycle event that was already pending — on both schedulers.
func TestAtPastClampReentrantOrder(t *testing.T) {
	run := func(s sched) []string {
		var order []string
		s.At(100, func() {
			order = append(order, "a")
			// Already-pending same-cycle events b and c are below; this
			// past-scheduled event must clamp to 100 and run after them.
			s.At(10, func() { order = append(order, "past") })
			// A same-cycle event scheduled after the past one: later seq,
			// dispatches last.
			s.At(100, func() { order = append(order, "tail") })
		})
		s.At(100, func() { order = append(order, "b") })
		s.At(100, func() { order = append(order, "c") })
		for s.Step() {
		}
		return order
	}
	want := []string{"a", "b", "c", "past", "tail"}
	for name, s := range map[string]sched{"engine": NewEngine(), "reference": &refSched{}} {
		got := run(s)
		if len(got) != len(want) {
			t.Fatalf("%s: order %v, want %v", name, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: order %v, want %v", name, got, want)
			}
		}
	}
}

// TestSteadyStateSchedulingAllocs pins the allocation-free steady state of
// the wheel path: once the buckets exist, a schedule/dispatch cycle must
// not allocate.
func TestSteadyStateSchedulingAllocs(t *testing.T) {
	e := NewEngine()
	fn := func() {}
	// Warm up: materialize the wheel and grow each touched bucket.
	for i := 0; i < 10_000; i++ {
		e.After(Cycle(i%64), fn)
	}
	e.Run()
	avg := testing.AllocsPerRun(1000, func() {
		e.After(7, fn)
		e.Step()
	})
	if avg > 0 {
		t.Fatalf("steady-state wheel scheduling allocates %.2f objects/op, want 0", avg)
	}
}
