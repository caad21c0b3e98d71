// Package sim provides a deterministic discrete-event simulation engine.
//
// All simulator components (cores, caches, memory controllers, DRAM
// channels) share one Engine. Components schedule callbacks at absolute or
// relative cycle times; the engine dispatches them in time order, breaking
// ties by scheduling order so that a given seed always produces the same
// simulation. Everything runs on the calling goroutine.
//
// The scheduler is a bucketed time wheel with a binary-heap fallback, built
// for the simulator's hot path: almost every event lands within a few
// hundred cycles of now (DRAM timing, core wakeups), so it is linked onto
// the tail of a per-cycle wheel bucket's FIFO — no comparisons, no
// container/heap interface boxing. Every wheel event lives in one slab of
// nodes (memunits.Slab, grown by page) and a dispatched node goes on a free
// list, so the wheel's storage stops growing at the peak pending count and
// steady-state scheduling allocates nothing. Rare
// far-future events (telemetry epoch pumps, refresh horizons) go to a
// hand-rolled min-heap. Dispatch merges the two sources by exact
// (when, seq) order, so the hybrid is observably identical — event for
// event — to a single priority queue.
//
// A 1024-bit occupancy bitmap, one bit per wheel bucket, finds the next
// occupied bucket: dispatch masks off the buckets before now and takes
// TrailingZeros64 of the first nonzero word, wrapping once around the
// wheel, so a sparse wheel costs at most 17 word tests instead of a
// bucket-by-bucket scan.
//
// AdvanceTo(t) moves the clock forward to t without dispatching, and only
// when no pending event is due at or before t and t lies within the limit
// of the dispatch in progress. A component running as a top-level event
// uses it to keep running where it would otherwise schedule a wakeup at t
// and return: that wakeup would carry the newest sequence number and so
// dispatch right after every event due at or before t, which is none, and
// nothing can run in between. The merge is only exact at top level. Code
// running nested inside another event's callback must schedule instead,
// since the enclosing callback still runs after it and would see the
// advanced clock: a core resumed by a DRAM completion, for example,
// returns into the device, which re-kicks its channel at Now(). The merge
// also skips the RunWhile condition check that would have preceded the
// wakeup; the harness condition (every core done) cannot flip while a core
// is still running.
package sim

import (
	"math/bits"

	"silcfm/internal/memunits"
)

// Cycle is a point in simulated time, measured in CPU clock cycles.
type Cycle = uint64

// wheelBits sizes the near-term scheduling window: events within
// 2^wheelBits cycles of now take the O(1) wheel path. 1024 cycles covers
// every DRAM timing constant and typical core wakeup in the model;
// anything farther (deep-queue completions, epoch pumps at 200k cycles) is
// rare enough for the heap. Measured on the bench suite, a small wheel
// beats a larger one: the bucket working set stays cache-resident.
const (
	wheelBits = 10
	wheelSize = 1 << wheelBits
	wheelMask = wheelSize - 1

	wheelWords = wheelSize / 64
)

type event struct {
	when Cycle
	seq  uint64 // tie-break: FIFO among same-cycle events
	fn   func()
}

// node is a wheel event in the slab, linked into its bucket's FIFO or, once
// dispatched, into the free list. Slab entries never move, so the links
// are plain pointers.
type node struct {
	event
	next *node
}

// Engine is a discrete-event scheduler. The zero value is ready to use.
type Engine struct {
	now Cycle
	seq uint64

	// Bucket t&wheelMask holds the events scheduled for cycle t, for t in
	// [now, now+wheelSize), as a FIFO of slab nodes in seq order from
	// heads[b] to tails[b] (nil = empty). free heads the list of dispatched
	// nodes. occ has bit b set while bucket b holds undispatched events;
	// wheelCount totals them.
	slab       memunits.Slab[node]
	heads      [wheelSize]*node
	tails      [wheelSize]*node
	free       *node
	occ        [wheelWords]uint64
	wheelCount int

	// limit is the bound of the dispatch in progress (see AdvanceTo).
	limit Cycle

	// far is a hand-rolled min-heap ordered by (when, seq) for events at
	// least wheelSize cycles out. Events are popped directly from it when
	// due — they never migrate into the wheel — so dispatch is a two-way
	// (when, seq) merge between the wheel and this heap.
	far []event
}

// NewEngine returns an empty engine at cycle 0.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current simulation time.
func (e *Engine) Now() Cycle { return e.now }

// Pending reports the number of scheduled events not yet dispatched.
func (e *Engine) Pending() int { return e.wheelCount + len(e.far) }

// At schedules fn to run at absolute cycle when. Scheduling in the past
// (when < Now) runs fn at the current cycle instead; the simulation clock
// never moves backwards. A past-clamped event keeps its fresh sequence
// number, so it dispatches after any same-cycle events already pending —
// including events scheduled earlier for the cycle currently being drained.
func (e *Engine) At(when Cycle, fn func()) {
	if when < e.now {
		when = e.now
	}
	e.seq++
	if when-e.now < wheelSize {
		n := e.free
		if n != nil {
			e.free = n.next
			n.next = nil
		} else {
			_, n = e.slab.Push()
		}
		n.event = event{when: when, seq: e.seq, fn: fn}
		b := int(when & wheelMask)
		if t := e.tails[b]; t != nil {
			t.next = n
		} else {
			e.heads[b] = n
			e.occ[b>>6] |= 1 << (b & 63)
		}
		e.tails[b] = n
		e.wheelCount++
		return
	}
	e.farPush(event{when: when, seq: e.seq, fn: fn})
}

// After schedules fn to run delay cycles from now.
func (e *Engine) After(delay Cycle, fn func()) { e.At(e.now+delay, fn) }

// Step dispatches the earliest pending event, advancing the clock to its
// time. It reports whether an event was dispatched.
func (e *Engine) Step() bool {
	return e.dispatchUpTo(^Cycle(0))
}

// nextWheel returns the earliest cycle holding a wheel event, if any. The
// wheel only holds [now, now+wheelSize), so the first occupied bucket in
// circular order from now's bucket is the earliest.
func (e *Engine) nextWheel() (Cycle, bool) {
	if e.wheelCount == 0 {
		return 0, false
	}
	start := int(e.now & wheelMask)
	w := start >> 6
	word := e.occ[w] &^ (1<<(start&63) - 1)
	// wheelWords+1 probes: the start word's bits below start (the cycles a
	// full revolution away) are tested again last.
	for i := 0; i <= wheelWords; i++ {
		if word != 0 {
			b := w<<6 | bits.TrailingZeros64(word)
			return e.now + Cycle((b-start)&wheelMask), true
		}
		w = (w + 1) & (wheelWords - 1)
		word = e.occ[w]
	}
	panic("sim: wheel count and occupancy bitmap disagree")
}

// dispatchUpTo dispatches the single earliest pending event if its time is
// <= limit, advancing the clock to it. The earliest event is the (when, seq)
// minimum across the wheel and the far heap.
func (e *Engine) dispatchUpTo(limit Cycle) bool {
	e.limit = limit
	t, wheelOK := e.nextWheel()
	if wheelOK && t <= limit {
		b := int(t & wheelMask)
		n := e.heads[b]
		if len(e.far) == 0 || t < e.far[0].when ||
			(t == e.far[0].when && n.seq < e.far[0].seq) {
			fn := n.fn
			n.fn = nil // release the reference; At rewrites when and seq
			if e.heads[b] = n.next; n.next == nil {
				e.tails[b] = nil
				e.occ[b>>6] &^= 1 << (b & 63)
			}
			n.next = e.free
			e.free = n
			e.wheelCount--
			e.now = t
			fn()
			return true
		}
	}
	if len(e.far) == 0 || e.far[0].when > limit {
		return false
	}
	ev := e.farPop()
	e.now = ev.when
	ev.fn()
	return true
}

// AdvanceTo moves the clock to t and reports true when no pending event is
// due at or before t and t is within the limit of the dispatch in
// progress; otherwise it changes nothing and reports false. A t in the
// past means Now, as in At. Only a top-level event callback may use it in
// place of scheduling its own continuation at t (see the package comment).
func (e *Engine) AdvanceTo(t Cycle) bool {
	if t < e.now {
		t = e.now
	}
	if t > e.limit {
		return false
	}
	if w, ok := e.nextWheel(); ok && w <= t {
		return false
	}
	if len(e.far) > 0 && e.far[0].when <= t {
		return false
	}
	e.now = t
	return true
}

// Run dispatches events until none remain.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// RunUntil dispatches events with time <= limit. The clock ends at the time
// of the last dispatched event (or limit if the next event lies beyond it).
func (e *Engine) RunUntil(limit Cycle) {
	for e.dispatchUpTo(limit) {
	}
	if e.now < limit {
		e.now = limit
	}
}

// RunWhile dispatches events until cond reports false or no events remain.
// cond is checked before every event dispatch.
func (e *Engine) RunWhile(cond func() bool) {
	for cond() && e.Step() {
	}
}

// farPush inserts ev into the far heap (sift-up on a plain slice; no
// interface boxing, unlike container/heap).
func (e *Engine) farPush(ev event) {
	e.far = append(e.far, ev)
	i := len(e.far) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !eventLess(e.far[i], e.far[p]) {
			break
		}
		e.far[i], e.far[p] = e.far[p], e.far[i]
		i = p
	}
}

// farPop removes and returns the (when, seq) minimum of the far heap.
func (e *Engine) farPop() event {
	top := e.far[0]
	n := len(e.far) - 1
	e.far[0] = e.far[n]
	e.far[n] = event{} // release the fn reference
	e.far = e.far[:n]
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		min := l
		if r := l + 1; r < n && eventLess(e.far[r], e.far[l]) {
			min = r
		}
		if !eventLess(e.far[min], e.far[i]) {
			break
		}
		e.far[i], e.far[min] = e.far[min], e.far[i]
		i = min
	}
	return top
}

func eventLess(a, b event) bool {
	if a.when != b.when {
		return a.when < b.when
	}
	return a.seq < b.seq
}
