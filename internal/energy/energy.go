// Package energy computes the memory-system energy behind the Energy-Delay
// Product the paper reports (abstract, §V: SILC-FM reduces EDP by 13%
// versus the best state-of-the-art scheme thanks to die-stacked DRAM's low
// per-bit energy); stats.Run.EDP multiplies it by the delay. Dynamic energy comes from the DRAM devices' per-access
// accounting (bit transfer + row activations); background power is charged
// per channel over the execution time; traffic accounted in aggregate by a
// scheme (HMA's bulk migrations) arrives via stats.Memory.ExtraEnergyPJ.
package energy

import (
	"silcfm/internal/config"
	"silcfm/internal/dram"
	"silcfm/internal/stats"
)

// Breakdown itemizes the energy of one simulation run, in nanojoules.
type Breakdown struct {
	NMDynamicNJ  float64
	FMDynamicNJ  float64
	BackgroundNJ float64
	AggregateNJ  float64 // scheme-level aggregate traffic (HMA migrations)
}

// TotalNJ sums the components.
func (b Breakdown) TotalNJ() float64 {
	return b.NMDynamicNJ + b.FMDynamicNJ + b.BackgroundNJ + b.AggregateNJ
}

// Compute derives the run energy from device counters, the memory stats and
// the execution time.
func Compute(nmCfg, fmCfg config.DRAMConfig, nmStats, fmStats *dram.Stats,
	memStats *stats.Memory, cycles uint64) Breakdown {

	seconds := float64(cycles) / (config.CPUFreqMHz * 1e6)
	bgMW := nmCfg.BackgroundMWPerChan*float64(nmCfg.Channels) +
		fmCfg.BackgroundMWPerChan*float64(fmCfg.Channels)
	return Breakdown{
		NMDynamicNJ:  nmStats.DynamicEnergyPJ / 1e3,
		FMDynamicNJ:  fmStats.DynamicEnergyPJ / 1e3,
		BackgroundNJ: bgMW * 1e-3 * seconds * 1e9, // W * s -> J -> nJ
		AggregateNJ:  memStats.ExtraEnergyPJ / 1e3,
	}
}
