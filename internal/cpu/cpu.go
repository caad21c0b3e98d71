// Package cpu models the processor side of the evaluation (§IV-A): 4-wide
// out-of-order cores with a 128-entry ROB, driven by workload reference
// streams in SPEC rate mode (one instance per core, private address
// spaces). The model is an ROB-occupancy model: a core retires up to
// IssueWidth instructions per cycle, may run at most ROBSize instructions
// past its oldest outstanding LLC miss, and holds at most MSHRs outstanding
// misses — reproducing the memory-level-parallelism, latency- and
// bandwidth-sensitivity that the paper's figures measure, without
// simulating an ISA.
package cpu

import (
	"silcfm/internal/cache"
	"silcfm/internal/config"
	"silcfm/internal/mem"
	"silcfm/internal/sim"
	"silcfm/internal/stats"
	"silcfm/internal/workload"
)

// Translate maps a core's virtual address to a flat physical address.
type Translate func(core int, va uint64) uint64

// Core executes one workload instance.
type Core struct {
	id     int
	cfg    config.CoreConfig
	eng    *sim.Engine
	gen    workload.Generator
	hier   *cache.Hierarchy
	xlate  Translate
	ctl    mem.Controller
	target uint64

	clock       sim.Cycle // local logical time; may run ahead of the engine briefly
	instr       uint64
	outstanding []uint64 // instruction numbers of in-flight LLC misses, ascending
	waiting     bool
	blockedAt   sim.Cycle
	finished    bool

	// runFn is c.runTop bound once, so rescheduling the core never
	// allocates.
	runFn func()
	// ref is the reference-stream scratch slot. It lives on the core (not
	// the run loop's stack) because its address crosses the Generator
	// interface boundary, which would otherwise heap-allocate it per
	// reference.
	ref workload.Ref
	// freeMiss recycles miss tokens (the Access plus its completion
	// callback) so a steady stream of LLC misses allocates nothing.
	freeMiss *missToken
	// doneCtr, when wired by NewComplexTargets, is bumped once when the
	// core retires its target, giving Complex.AllDone an O(1) answer.
	doneCtr *int

	Stats stats.Core
}

// missToken is a pooled in-flight LLC miss: the mem.Access handed to the
// controller and the completion callback, recycled through the core's free
// list. doneFn is the method value bound once at token creation.
type missToken struct {
	c       *Core
	instrAt uint64
	acc     mem.Access
	doneFn  func()
	next    *missToken
}

// fire recycles the token and retires the miss. The token is released first
// so the resumed core can reuse it for its next miss.
func (t *missToken) fire() {
	c := t.c
	instrAt := t.instrAt
	t.next = c.freeMiss
	c.freeMiss = t
	c.completeMiss(instrAt)
}

// NewCore wires one core. target is the instruction count to retire.
func NewCore(id int, cfg config.CoreConfig, eng *sim.Engine, gen workload.Generator,
	hier *cache.Hierarchy, xlate Translate, ctl mem.Controller, target uint64) *Core {
	c := &Core{
		id: id, cfg: cfg, eng: eng, gen: gen, hier: hier,
		xlate: xlate, ctl: ctl, target: target,
	}
	c.runFn = c.runTop
	return c
}

// Start schedules the core's first step.
func (c *Core) Start() { c.eng.At(0, c.runFn) }

// Done reports whether the core has retired its target.
func (c *Core) Done() bool { return c.finished }

// runTop is the core's scheduled event: run at top level of the engine's
// dispatch.
func (c *Core) runTop() { c.run(true) }

// run executes references until the core must wait for simulated time or
// for a miss to complete. top reports that run is the engine's top-level
// event callback, the only place it may advance the clock itself.
func (c *Core) run(top bool) {
	if c.finished {
		return
	}
	if c.clock < c.eng.Now() {
		c.clock = c.eng.Now()
	}
	for {
		if c.instr >= c.target {
			c.finished = true
			c.Stats.FinishCycle = c.clock
			if c.doneCtr != nil {
				*c.doneCtr++
			}
			return
		}
		// Structural stalls: MSHRs exhausted, or the ROB window has run
		// ahead of the oldest outstanding miss.
		if len(c.outstanding) >= c.cfg.MSHRs ||
			(len(c.outstanding) > 0 && c.instr-c.outstanding[0] >= uint64(c.cfg.ROBSize)) {
			c.waiting = true
			c.blockedAt = c.eng.Now()
			return
		}
		// The core's logical clock has outrun the simulation: yield and
		// resume when the engine catches up. At top level, when nothing
		// else is due by then, the wakeup would be the very next event,
		// so the core advances the clock and keeps going instead. A
		// nested run (resumed inside a miss completion) must schedule:
		// its caller still runs after it at the completion's cycle.
		if c.clock > c.eng.Now() && !(top && c.eng.AdvanceTo(c.clock)) {
			c.eng.At(c.clock, c.runFn)
			return
		}

		r := &c.ref
		c.gen.Next(r)
		c.instr += uint64(r.Gap)
		c.Stats.Instructions += uint64(r.Gap)
		c.Stats.MemRefs++
		// ceil(Gap/IssueWidth) as quotient plus remainder carry: adding
		// IssueWidth-1 first would wrap for a gap near 2^32.
		w := uint32(c.cfg.IssueWidth)
		adv := sim.Cycle(r.Gap / w)
		if r.Gap%w != 0 {
			adv++
		}
		c.clock += adv

		pa := c.xlate(c.id, r.VAddr)
		outcome, _ := c.hier.Access(c.id, pa, r.Write)
		switch outcome {
		case cache.HitL1:
			c.Stats.L1Hits++
		case cache.HitL2:
			c.Stats.L2Hits++
		default:
			c.Stats.LLCMisses++
			instrAt := c.instr
			c.insertOutstanding(instrAt)
			// Write-allocate: a store miss fetches the line like a load
			// miss; memory-level writes happen only on dirty evictions
			// (the hierarchy's Writeback path).
			t := c.freeMiss
			if t == nil {
				t = &missToken{c: c}
				t.doneFn = t.fire
			} else {
				c.freeMiss = t.next
			}
			t.instrAt = instrAt
			t.acc.Reset(c.id, r.PC, pa, false, c.eng.Now(), t.doneFn)
			c.ctl.Handle(&t.acc)
		}
	}
}

func (c *Core) insertOutstanding(instrAt uint64) {
	c.outstanding = append(c.outstanding, instrAt)
}

// completeMiss retires an outstanding miss and resumes a waiting core.
func (c *Core) completeMiss(instrAt uint64) {
	for i, v := range c.outstanding {
		if v == instrAt {
			c.outstanding = append(c.outstanding[:i], c.outstanding[i+1:]...)
			break
		}
	}
	if c.waiting {
		c.waiting = false
		c.Stats.StallCycles += c.eng.Now() - c.blockedAt
		// The core resumes at the later of its own logical time (pending
		// compute) and the engine clock; never rewind.
		if c.clock < c.eng.Now() {
			c.clock = c.eng.Now()
		}
		c.run(false)
	}
}

// Complex ties cores, caches and the memory controller together for one
// simulation.
type Complex struct {
	Cores []*Core
	Hier  *cache.Hierarchy

	// doneCount tracks retired cores (see Core.doneCtr); freeWB recycles
	// writeback tokens the same way cores recycle miss tokens.
	doneCount int
	freeWB    *wbToken
}

// wbToken is a pooled dirty-LLC-victim writeback Access; its only
// completion work is returning itself to the free list.
type wbToken struct {
	cx     *Complex
	acc    mem.Access
	doneFn func()
	next   *wbToken
}

func (t *wbToken) fire() {
	t.next = t.cx.freeWB
	t.cx.freeWB = t
}

// NewComplexTargets builds one core per generator against a shared
// hierarchy and controller; core i retires targets[i] instructions (per-core
// targets serve heterogeneous multiprogrammed mixes, where each instance
// runs a different benchmark and so a different class-scaled target). Dirty
// LLC victims are written back through the controller.
func NewComplexTargets(m config.Machine, eng *sim.Engine, gens []workload.Generator,
	xlate Translate, ctl mem.Controller, targets []uint64) *Complex {
	hier := cache.NewHierarchy(len(gens), m.L1D, m.L2)
	cx := &Complex{Hier: hier}
	hier.Writeback = func(pa uint64) {
		t := cx.freeWB
		if t == nil {
			t = &wbToken{cx: cx}
			t.doneFn = t.fire
		} else {
			cx.freeWB = t.next
		}
		t.acc.Reset(0, 0, pa, true, eng.Now(), t.doneFn)
		ctl.Handle(&t.acc)
	}
	for i, g := range gens {
		c := NewCore(i, m.Core, eng, g, hier, xlate, ctl, targets[i])
		c.doneCtr = &cx.doneCount
		cx.Cores = append(cx.Cores, c)
	}
	return cx
}

// Start launches all cores.
func (cx *Complex) Start() {
	for _, c := range cx.Cores {
		c.Start()
	}
}

// AllDone reports whether every core finished. O(1): cores built by
// NewComplexTargets bump doneCount as they retire their targets.
func (cx *Complex) AllDone() bool { return cx.doneCount == len(cx.Cores) }

// ExecutionCycles returns the rate-mode execution time: the cycle at which
// the last core retired its target.
func (cx *Complex) ExecutionCycles() sim.Cycle {
	var max sim.Cycle
	for _, c := range cx.Cores {
		if c.Stats.FinishCycle > max {
			max = c.Stats.FinishCycle
		}
	}
	return max
}
