package energy

import (
	"math"
	"testing"

	"silcfm/internal/config"
	"silcfm/internal/dram"
	"silcfm/internal/stats"
)

func TestComputeComponents(t *testing.T) {
	nmCfg, fmCfg := config.HBM(1<<20), config.DDR3(4<<20)
	nm := &dram.Stats{DynamicEnergyPJ: 2_000}
	fm := &dram.Stats{DynamicEnergyPJ: 6_000}
	ms := &stats.Memory{ExtraEnergyPJ: 1_000}
	b := Compute(nmCfg, fmCfg, nm, fm, ms, 3_200_000) // 1 ms at 3.2 GHz

	if math.Abs(b.NMDynamicNJ-2) > 1e-9 || math.Abs(b.FMDynamicNJ-6) > 1e-9 {
		t.Fatalf("dynamic: %+v", b)
	}
	if math.Abs(b.AggregateNJ-1) > 1e-9 {
		t.Fatalf("aggregate: %+v", b)
	}
	// Background: (55*8 + 90*4) mW = 800 mW over 1 ms = 0.8 mJ = 8e5 nJ.
	if math.Abs(b.BackgroundNJ-8e5) > 1 {
		t.Fatalf("background = %v, want 8e5", b.BackgroundNJ)
	}
	if math.Abs(b.TotalNJ()-(2+6+1+8e5)) > 1e-6 {
		t.Fatalf("total = %v", b.TotalNJ())
	}
}

func TestBackgroundDominatesLongIdleRuns(t *testing.T) {
	nmCfg, fmCfg := config.HBM(1<<20), config.DDR3(4<<20)
	short := Compute(nmCfg, fmCfg, &dram.Stats{}, &dram.Stats{}, &stats.Memory{}, 1000)
	long := Compute(nmCfg, fmCfg, &dram.Stats{}, &dram.Stats{}, &stats.Memory{}, 1_000_000)
	if long.BackgroundNJ <= short.BackgroundNJ {
		t.Fatal("background energy must scale with time")
	}
}
