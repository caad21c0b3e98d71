package main

import (
	"time"

	"silcfm/internal/mem"
	"silcfm/internal/stats"
	"silcfm/internal/workload"
)

// span accumulates one layer's host time: the calls into it and their self
// time (duration minus the nested spans of other layers), corrected for the
// clock's own cost.
type span struct {
	calls  uint64
	selfNS int64
	hist   *nsHist // per-call self time, when the layer reports percentiles
}

func (s *span) seconds() float64 {
	if s.selfNS < 0 {
		return 0
	}
	return float64(s.selfNS) / 1e9
}

// frame is one open span on the clock's stack: the time and number of
// spans nested directly beneath it so far.
type frame struct {
	childNS int64
	kids    int64
}

// spanClock times nested spans on the simulation goroutine. Every wrapper
// below brackets its forwarded call with enter/exit. The calibrated costs
// let self times and the loop residual exclude the clock itself:
//   - emptyNS is what an empty span measures (one clock read);
//   - pairNS is what one enter/exit pair adds to the enclosing interval.
type spanClock struct {
	calibration
	base  time.Time
	stack []frame
	spans uint64 // total spans closed
}

type calibration struct {
	emptyNS int64
	pairNS  int64
}

func newSpanClock(cal calibration) *spanClock {
	return &spanClock{calibration: cal, base: time.Now()}
}

func (c *spanClock) now() int64 { return int64(time.Since(c.base)) }

func (c *spanClock) enter() int64 {
	c.stack = append(c.stack, frame{})
	return c.now()
}

func (c *spanClock) exit(s *span, start int64) {
	d := c.now() - start
	n := len(c.stack) - 1
	f := c.stack[n]
	c.stack = c.stack[:n]
	if n > 0 {
		c.stack[n-1].childNS += d
		c.stack[n-1].kids++
	}
	self := d - f.childNS - c.emptyNS - f.kids*(c.pairNS-c.emptyNS)
	s.calls++
	s.selfNS += self
	c.spans++
	if s.hist != nil {
		s.hist.add(self)
	}
}

// calibrate measures the clock's cost with batches of empty spans and keeps
// the median batch, so one preempted batch does not skew it.
func calibrate() calibration {
	const batches, perBatch = 9, 20000
	c := newSpanClock(calibration{})
	empties := make([]float64, batches)
	pairs := make([]float64, batches)
	for b := range empties {
		var s span
		t0 := c.now()
		for i := 0; i < perBatch; i++ {
			c.exit(&s, c.enter())
		}
		pairs[b] = float64(c.now()-t0) / perBatch
		empties[b] = float64(s.selfNS) / perBatch
	}
	return calibration{emptyNS: int64(median(empties)), pairNS: int64(median(pairs))}
}

// overheadSeconds is the clock cost the closed spans added to the loop.
func (c *spanClock) overheadSeconds() float64 {
	return float64(c.spans) * float64(c.pairNS) / 1e9
}

// timedGen times workload.Generator.Next and remembers each reference's
// write flag for the cache-replay capture at the translate wrapper.
type timedGen struct {
	workload.Generator
	clk       *spanClock
	s         *span
	lastWrite *bool
}

func (g *timedGen) Next(r *workload.Ref) {
	t := g.clk.enter()
	g.Generator.Next(r)
	g.clk.exit(g.s, t)
	*g.lastWrite = r.Write
}

// timedCtl times mem.Controller.Handle. wrapController exposes the optional
// controller interfaces exactly when the wrapped controller has them.
type timedCtl struct {
	mem.Controller
	clk *spanClock
	s   *span
}

func (c *timedCtl) Handle(a *mem.Access) {
	t := c.clk.enter()
	c.Controller.Handle(a)
	c.clk.exit(c.s, t)
}

func wrapController(ctl mem.Controller, clk *spanClock, s *span) mem.Controller {
	t := &timedCtl{Controller: ctl, clk: clk, s: s}
	gp, isGauge := ctl.(mem.GaugeProvider)
	lp, isLock := ctl.(mem.LockProbe)
	switch {
	case isGauge && isLock:
		return struct {
			*timedCtl
			mem.GaugeProvider
			mem.LockProbe
		}{t, gp, lp}
	case isGauge:
		return struct {
			*timedCtl
			mem.GaugeProvider
		}{t, gp}
	case isLock:
		return struct {
			*timedCtl
			mem.LockProbe
		}{t, lp}
	}
	return t
}

// timedObs times every event a mem.Observer receives. wrapObserver adds the
// optional observer interfaces (scheme, demand-completion, demand-issue)
// exactly when the wrapped observer implements them, so System's fanout
// routes the same event streams to the wrapper as to the plane itself.
type timedObs struct {
	o   mem.Observer
	clk *spanClock
	s   *span
}

func (w *timedObs) Demand(pa uint64, loc mem.Location, write bool) {
	t := w.clk.enter()
	w.o.Demand(pa, loc, write)
	w.clk.exit(w.s, t)
}

func (w *timedObs) Capture(loc mem.Location) {
	t := w.clk.enter()
	w.o.Capture(loc)
	w.clk.exit(w.s, t)
}

func (w *timedObs) Deliver(src, dst mem.Location) {
	t := w.clk.enter()
	w.o.Deliver(src, dst)
	w.clk.exit(w.s, t)
}

func (w *timedObs) Relocate(src, dst mem.Location) {
	t := w.clk.enter()
	w.o.Relocate(src, dst)
	w.clk.exit(w.s, t)
}

type schemeHooks struct {
	w  *timedObs
	so mem.SchemeObserver
}

func (h schemeHooks) Swap(a, b mem.Location) {
	t := h.w.clk.enter()
	h.so.Swap(a, b)
	h.w.clk.exit(h.w.s, t)
}

func (h schemeHooks) Lock(frame, block uint64, home bool) {
	t := h.w.clk.enter()
	h.so.Lock(frame, block, home)
	h.w.clk.exit(h.w.s, t)
}

func (h schemeHooks) Unlock(frame, block uint64) {
	t := h.w.clk.enter()
	h.so.Unlock(frame, block)
	h.w.clk.exit(h.w.s, t)
}

type completeHook struct {
	w  *timedObs
	do mem.DemandObserver
}

func (h completeHook) DemandComplete(a *mem.Access, path stats.DemandPath, lat uint64) {
	t := h.w.clk.enter()
	h.do.DemandComplete(a, path, lat)
	h.w.clk.exit(h.w.s, t)
}

type issueHook struct {
	w  *timedObs
	io mem.DemandIssueObserver
}

func (h issueHook) DemandIssue(a *mem.Access, path stats.DemandPath, loc mem.Location) {
	t := h.w.clk.enter()
	h.io.DemandIssue(a, path, loc)
	h.w.clk.exit(h.w.s, t)
}

func wrapObserver(o mem.Observer, clk *spanClock, s *span) mem.Observer {
	w := &timedObs{o: o, clk: clk, s: s}
	so, isScheme := o.(mem.SchemeObserver)
	do, isDemand := o.(mem.DemandObserver)
	io, isIssue := o.(mem.DemandIssueObserver)
	sh, ch, ih := schemeHooks{w, so}, completeHook{w, do}, issueHook{w, io}
	switch {
	case isScheme && isDemand && isIssue:
		return struct {
			*timedObs
			schemeHooks
			completeHook
			issueHook
		}{w, sh, ch, ih}
	case isScheme && isDemand:
		return struct {
			*timedObs
			schemeHooks
			completeHook
		}{w, sh, ch}
	case isScheme && isIssue:
		return struct {
			*timedObs
			schemeHooks
			issueHook
		}{w, sh, ih}
	case isDemand && isIssue:
		return struct {
			*timedObs
			completeHook
			issueHook
		}{w, ch, ih}
	case isScheme:
		return struct {
			*timedObs
			schemeHooks
		}{w, sh}
	case isDemand:
		return struct {
			*timedObs
			completeHook
		}{w, ch}
	case isIssue:
		return struct {
			*timedObs
			issueHook
		}{w, ih}
	}
	return w
}
