package shadow

import (
	"fmt"
	"math/rand"

	"silcfm/internal/config"
	"silcfm/internal/core"
	"silcfm/internal/dram"
	"silcfm/internal/mem"
	"silcfm/internal/memunits"
	"silcfm/internal/schemes/cameo"
	"silcfm/internal/schemes/flat"
	"silcfm/internal/schemes/hma"
	"silcfm/internal/schemes/pom"
	"silcfm/internal/sim"
	"silcfm/internal/stats"
)

// StressOptions parameterize RunStress.
type StressOptions struct {
	Scheme config.SchemeName
	Seed   int64
	// Ops is the number of demand accesses to drive (default 20000).
	Ops int
	// NMRatio is FM/NM over the 1 MiB FM (default 4; FuzzSchemes also
	// drives 16).
	NMRatio uint64
	// FaultInjectSwapOrder seeds the pre-fix write-path SwapAccess ordering
	// bug so tests can prove the checker catches it.
	FaultInjectSwapOrder bool
}

// RunStress drives one controller directly (no CPU model) with an
// adversarial access mix — uniform noise, hot-block hammering, sequential
// sweeps and congruence-set ping-pong, 30% writes — under the shadow
// checker, with periodic mapping audits and, for SILC-FM, checks that its
// incrementally kept frame gauges equal a full recount. It returns the
// first integrity violation found, or nil. Aggressive scheme tunings (low
// thresholds, short epochs) make every movement path fire within a short
// run.
func RunStress(o StressOptions) error {
	ops := o.Ops
	if ops <= 0 {
		ops = 20000
	}
	ratio := o.NMRatio
	if ratio == 0 {
		ratio = 4
	}
	m := config.Small()
	m.Scheme = o.Scheme
	m.FM = config.DDR3(1 << 20)
	m = m.WithNMRatio(ratio)
	m.SILC.HotThreshold = 3
	m.SILC.AgingInterval = 1 << 10
	m.HMA.EpochCycles = 1 << 14
	m.HMA.HotThreshold = 2
	m.PoM.MigrationThreshold = 4
	if err := m.Validate(); err != nil {
		return err
	}

	eng := sim.NewEngine()
	sys := mem.NewSystem(m, eng)
	sys.FaultInjectSwapOrder = o.FaultInjectSwapOrder

	var ctl mem.Controller
	switch o.Scheme {
	case config.SchemeBaseline:
		ctl = flat.NewBaseline(sys)
	case config.SchemeRandom:
		ctl = flat.NewStatic(sys)
	case config.SchemeHMA:
		ctl = hma.New(sys, m.HMA)
	case config.SchemeCAMEO:
		ctl = cameo.New(sys, config.CAMEOConfig{})
	case config.SchemeCAMEOP:
		ctl = cameo.New(sys, config.CAMEOConfig{PrefetchLines: 3})
	case config.SchemePoM:
		ctl = pom.New(sys, m.PoM)
	case config.SchemeSILCFM:
		ctl = core.New(sys, m.SILC)
	default:
		return fmt.Errorf("shadow: unknown scheme %q", o.Scheme)
	}

	nmFlat := sys.NMCap
	if o.Scheme == config.SchemeBaseline {
		nmFlat = 0
	}
	chk := New(ctl, sys, nmFlat, sys.FMCap)
	flatCap := nmFlat + sys.FMCap
	totalBlocks := flatCap / memunits.BlockSize

	rng := rand.New(rand.NewSource(o.Seed))
	hot := make([]uint64, 4)
	for i := range hot {
		hot[i] = rng.Uint64() % totalBlocks
	}
	// Congruence-conflict stride: SILC-FM's default geometry has NM-blocks /
	// ways sets, so blocks this far apart collide in one set; harmless noise
	// for the other schemes.
	const conflictStride = 32
	randSub := func() uint64 {
		return uint64(rng.Intn(int(memunits.SubblocksPerBlock))) * memunits.SubblockSize
	}
	// The SILC-FM metadata channel is a separate device whose traffic joins
	// NM's side of the byte-conservation ledger.
	var extraNM []*dram.Device
	if sc, ok := ctl.(*core.Controller); ok {
		extraNM = append(extraNM, sc.MetaDevice())
	}
	conserve := func(quiesced bool) error {
		if err := stats.CheckConservation(sys.Conservation(quiesced, extraNM...)); err != nil {
			return fmt.Errorf("shadow stress [%s]: %w", ctl.Name(), err)
		}
		if sc, ok := ctl.(*core.Controller); ok {
			return frameGaugesMatchSnapshot(sc)
		}
		return nil
	}

	var seq uint64
	for i := 0; i < ops; i++ {
		var pa uint64
		switch (i / 512) % 4 {
		case 0: // uniform noise
			pa = (rng.Uint64() % flatCap) &^ (memunits.SubblockSize - 1)
		case 1: // hot-block hammering (drives locking / migration thresholds)
			pa = hot[rng.Intn(len(hot))]*memunits.BlockSize + randSub()
		case 2: // sequential sweep (drives prefetch / history replay)
			pa = seq % flatCap
			seq += memunits.SubblockSize
		case 3: // congruence-set ping-pong (drives victimization / restore)
			b := (hot[0] + uint64(rng.Intn(8))*conflictStride) % totalBlocks
			pa = b*memunits.BlockSize + randSub()
		}
		chk.Handle(&mem.Access{
			PC:    uint64(1 + rng.Intn(8)),
			PAddr: pa,
			Write: rng.Intn(100) < 30,
			Start: eng.Now(),
		})
		if i%64 == 63 {
			eng.Run()
		}
		if i%4096 == 4095 {
			if err := chk.Err(); err != nil {
				return err
			}
			if err := mem.AuditSample(chk, nmFlat, sys.FMCap, 13); err != nil {
				return fmt.Errorf("shadow stress [%s]: %w", ctl.Name(), err)
			}
			// Mid-run the engine still holds scheduled work, so the tolerant
			// conservation invariants apply.
			if err := conserve(false); err != nil {
				return err
			}
		}
	}
	eng.Run()
	if err := mem.Audit(chk, nmFlat, sys.FMCap); err != nil {
		return fmt.Errorf("shadow stress [%s]: %w", ctl.Name(), err)
	}
	// Fully drained: the strict quiesced invariants must hold — every miss
	// serviced, nothing in flight, every byte accounted.
	if err := conserve(true); err != nil {
		return err
	}
	return chk.Check()
}

// frameGaugesMatchSnapshot checks the frame counts SILC-FM's Gauges report,
// kept up to date at each state change, against Snapshot's full recount.
func frameGaugesMatchSnapshot(sc *core.Controller) error {
	snap := sc.Snapshot()
	want := map[string]int{
		"locked_frames":      snap.Locked,
		"locked_home_frames": snap.LockedHome,
		"interleaved_frames": snap.Interleaved,
		"resident_subblocks": snap.ResidentSubblocks,
	}
	for _, g := range sc.Gauges() {
		if w, ok := want[g.Name]; ok && g.Value != float64(w) {
			return fmt.Errorf("shadow stress [silc]: gauge %s = %v, recount %d", g.Name, g.Value, w)
		}
	}
	return nil
}
