// Package config describes the simulated machine (paper Table II) and the
// parameters of every memory-organization scheme, at capacities scaled down
// proportionally so simulations finish in seconds rather than days. The
// NM:FM capacity ratio (1:4 by default), the HBM:DDR3 bandwidth ratio (4:1)
// and all timing relationships from the paper are preserved.
package config

import (
	"fmt"
	"math"
	"math/bits"

	"silcfm/internal/memunits"
)

// DRAMTiming holds per-device timing parameters in *memory bus* cycles,
// following Table II's tCAS-tRCD-tRP-tRAS row.
type DRAMTiming struct {
	TCAS uint64 // column access (read latency from open row)
	TRCD uint64 // row activate to column
	TRP  uint64 // precharge
	TRAS uint64 // minimum row-open time
	TWR  uint64 // write recovery
	// Refresh: every TREFI cycles all banks of a channel are unavailable
	// for TRFC cycles (0 disables refresh).
	TREFI uint64
	TRFC  uint64
}

// PagePolicy selects the row-buffer management policy.
type PagePolicy int

const (
	// OpenPage keeps rows open after access (Table II's policy).
	OpenPage PagePolicy = iota
	// ClosedPage auto-precharges after every access: no row hits, no row
	// conflicts. Provided for ablation studies.
	ClosedPage
)

// DRAMConfig describes one memory device per Table II.
type DRAMConfig struct {
	Name          string
	Capacity      uint64 // bytes
	BusMHz        uint64 // bus clock (DDR: data rate is 2x)
	BusWidthBits  uint64 // per channel
	Channels      int
	RanksPerChan  int
	BanksPerRank  int
	RowBufferSize uint64
	Policy        PagePolicy // row-buffer policy (default OpenPage)
	Timing        DRAMTiming
	ReadQueueLen  int // FR-FCFS scheduling window, per channel
	WriteQueueLen int

	// Energy model (per-device technology constants).
	ReadEnergyPJPerBit  float64
	WriteEnergyPJPerBit float64
	ActivateEnergyPJ    float64 // per row activation
	BackgroundMWPerChan float64 // static power per channel, milliwatts
}

// CPUFreqMHz is the core clock (Table II: 3.2 GHz).
const CPUFreqMHz = 3200

// MemCyclesToCPU converts memory-bus cycles to CPU cycles for a device.
func (d DRAMConfig) MemCyclesToCPU(mc uint64) uint64 {
	return mc * CPUFreqMHz / d.BusMHz
}

// BurstCPUCycles returns the CPU cycles the data bus is occupied
// transferring `bytes` on one channel (DDR: two beats per bus cycle).
func (d DRAMConfig) BurstCPUCycles(bytes uint64) uint64 {
	beats := (bytes*8 + d.BusWidthBits - 1) / d.BusWidthBits
	memCycles := (beats + 1) / 2 // DDR
	if memCycles == 0 {
		memCycles = 1
	}
	return d.MemCyclesToCPU(memCycles)
}

// PeakBandwidthGBs returns the theoretical peak bandwidth in GB/s.
func (d DRAMConfig) PeakBandwidthGBs() float64 {
	bytesPerSec := float64(d.BusMHz) * 1e6 * 2 * float64(d.BusWidthBits) / 8 * float64(d.Channels)
	return bytesPerSec / 1e9
}

// HBM returns the near-memory device configuration (Table II, HBM gen2,
// JEDEC 235A-derived timings) at the given capacity.
func HBM(capacity uint64) DRAMConfig {
	return DRAMConfig{
		Name:          "HBM",
		Capacity:      capacity,
		BusMHz:        800,
		BusWidthBits:  128,
		Channels:      8,
		RanksPerChan:  1,
		BanksPerRank:  8,
		RowBufferSize: 8 << 10,
		Timing:        DRAMTiming{TCAS: 9, TRCD: 9, TRP: 9, TRAS: 22, TWR: 10, TREFI: 6240, TRFC: 208},
		ReadQueueLen:  32,
		WriteQueueLen: 32,

		ReadEnergyPJPerBit:  4.0,
		WriteEnergyPJPerBit: 4.4,
		ActivateEnergyPJ:    900,
		BackgroundMWPerChan: 55,
	}
}

// DDR3 returns the far-memory device configuration (Table II, DDR3-1600,
// JEDEC/vendor datasheet timings) at the given capacity.
func DDR3(capacity uint64) DRAMConfig {
	return DRAMConfig{
		Name:          "DDR3",
		Capacity:      capacity,
		BusMHz:        800,
		BusWidthBits:  64,
		Channels:      4,
		RanksPerChan:  1,
		BanksPerRank:  8,
		RowBufferSize: 8 << 10,
		Timing:        DRAMTiming{TCAS: 11, TRCD: 11, TRP: 11, TRAS: 28, TWR: 12, TREFI: 6240, TRFC: 208},
		ReadQueueLen:  32,
		WriteQueueLen: 32,

		ReadEnergyPJPerBit:  19.5,
		WriteEnergyPJPerBit: 21.1,
		ActivateEnergyPJ:    2500,
		BackgroundMWPerChan: 90,
	}
}

// CacheConfig describes one cache level (Table II).
type CacheConfig struct {
	Size       uint64
	Ways       int
	LatencyCyc uint64
	LineSize   uint64
	WriteBack  bool
}

// CoreConfig describes the core model (Table II: 4-wide OoO, 128-entry ROB).
type CoreConfig struct {
	IssueWidth int // retired instructions per cycle when unblocked
	ROBSize    int // max instructions in flight past oldest outstanding miss
	MSHRs      int // max outstanding LLC misses per core
}

// SchemeName identifies a memory-organization scheme.
type SchemeName string

const (
	SchemeBaseline SchemeName = "base" // FM only (no die-stacked DRAM)
	SchemeRandom   SchemeName = "rand" // random static placement, no migration
	SchemeHMA      SchemeName = "hma"  // epoch-based OS migration
	SchemeCAMEO    SchemeName = "cam"  // 64B hardware swapping
	SchemeCAMEOP   SchemeName = "camp" // CAMEO + next-3-line prefetch
	SchemePoM      SchemeName = "pom"  // 2KB hardware migration
	SchemeSILCFM   SchemeName = "silc" // the paper's scheme
)

// AllSchemes lists every implemented scheme in the order the paper plots
// them (Figure 7).
var AllSchemes = []SchemeName{
	SchemeRandom, SchemeHMA, SchemeCAMEO, SchemeCAMEOP, SchemePoM, SchemeSILCFM,
}

// SILCFeatures selects which SILC-FM mechanisms are active, enabling the
// Figure 6 breakdown (swap -> +locking -> +associativity -> +bypass).
type SILCFeatures struct {
	Locking       bool
	Ways          int // NM set associativity: 1 (direct-mapped) .. 4
	Bypass        bool
	Predictor     bool // way/location predictor (latency optimization, §III-F)
	BitVecHistory bool // bit vector history table replay (§III-A)
}

// FullSILC enables every feature at the paper's chosen design point.
func FullSILC() SILCFeatures {
	return SILCFeatures{Locking: true, Ways: 4, Bypass: true, Predictor: true, BitVecHistory: true}
}

// SILCConfig holds SILC-FM tuning parameters (§III-B/C/E/F).
type SILCConfig struct {
	Features SILCFeatures

	HotThreshold     uint32  // counter value at which a block is locked (paper: 50)
	CounterBits      int     // aging counter width (paper: 6)
	AgingInterval    uint64  // memory accesses between right-shifts (paper: 1M)
	BypassTarget     float64 // access-rate ceiling (paper: 0.8 for 4:1 bandwidth)
	HistoryEntries   int     // bit vector history table entries
	PredictorEntries int     // way/location predictor entries (paper: 4K)
}

// DefaultSILC returns the paper's design point, scaled where noted.
func DefaultSILC() SILCConfig {
	return SILCConfig{
		Features:         FullSILC(),
		HotThreshold:     16, // paper: 50 at 16 B instructions; scaled with run length
		CounterBits:      6,
		AgingInterval:    1 << 19, // paper: 1M accesses; scaled with run length
		BypassTarget:     0.8,
		HistoryEntries:   1 << 16, // scaled from 1M with capacity
		PredictorEntries: 4096,
	}
}

// HMAConfig holds the epoch-based OS scheme's parameters (§II-C).
type HMAConfig struct {
	EpochCycles        uint64 // epoch length in CPU cycles
	HotThreshold       uint32 // per-page access count to mark hot
	PerPageOSOverhead  uint64 // CPU cycles per migrated page (PTE+TLB shootdown)
	EpochFixedOverhead uint64 // CPU cycles per epoch (sweep, context switch)
}

// DefaultHMA scales the paper's hundreds-of-ms epochs down with capacity.
func DefaultHMA() HMAConfig {
	return HMAConfig{
		EpochCycles:        4 << 20, // ~4.2M cycles (~1.3ms at 3.2GHz), scaled
		HotThreshold:       10,      // scaled with the shortened epoch
		PerPageOSOverhead:  250,     // PTE update + amortized, batched TLB shootdown
		EpochFixedOverhead: 50000,
	}
}

// PoMConfig holds Part-of-Memory parameters (§II-B).
type PoMConfig struct {
	MigrationThreshold uint32 // accesses before a 2KB block migrates
	Ways               int    // remap associativity within a congruence set
}

// DefaultPoM mirrors the PoM paper's threshold-triggered migration.
func DefaultPoM() PoMConfig { return PoMConfig{MigrationThreshold: 16, Ways: 1} }

// Geometry returns the congruence sets PoM builds over NM and FM: ways NM
// frames per set (Ways clamped to 1..NM blocks), NM blocks / ways sets, and
// members blocks per set (its NM frames and the FM blocks congruent to them).
func (p PoMConfig) Geometry(nmCap, fmCap uint64) (ways int, sets, members uint64) {
	nmBlks := memunits.BlocksIn(nmCap)
	ways = int(min(uint64(max(p.Ways, 1)), nmBlks))
	sets = nmBlks / uint64(ways)
	return ways, sets, memunits.BlocksIn(nmCap+fmCap) / sets
}

// CAMEOConfig holds CAMEO parameters.
type CAMEOConfig struct {
	PrefetchLines int // 0 for original CAMEO; 3 for CAMEOP (paper §IV-A)
}

// Machine is the complete simulated system configuration.
type Machine struct {
	Cores    int
	Core     CoreConfig
	L1D      CacheConfig
	L2       CacheConfig // shared LLC
	NM       DRAMConfig
	FM       DRAMConfig
	PageSize uint64 // OS page size == large block size (2KB)
	Scheme   SchemeName
	SILC     SILCConfig
	HMA      HMAConfig
	PoM      PoMConfig
	CAMEO    CAMEOConfig
	Seed     int64
}

// Default returns the scaled Table II machine: 16 cores, 8MB shared LLC,
// NM = 128 MB HBM, FM = 512 MB DDR3 (1:4, as in the paper's main results).
func Default() Machine {
	return Machine{
		Cores:    16,
		Core:     CoreConfig{IssueWidth: 4, ROBSize: 128, MSHRs: 16},
		L1D:      CacheConfig{Size: 16 << 10, Ways: 4, LatencyCyc: 4, LineSize: 64, WriteBack: true},
		L2:       CacheConfig{Size: 8 << 20, Ways: 16, LatencyCyc: 11, LineSize: 64, WriteBack: true},
		NM:       HBM(128 << 20),
		FM:       DDR3(512 << 20),
		PageSize: memunits.BlockSize,
		Scheme:   SchemeSILCFM,
		SILC:     DefaultSILC(),
		HMA:      DefaultHMA(),
		PoM:      DefaultPoM(),
		CAMEO:    CAMEOConfig{},
		Seed:     1,
	}
}

// Small returns a reduced machine for fast unit/integration tests:
// 4 cores, NM 4 MB, FM 16 MB, 1 MB LLC.
func Small() Machine {
	m := Default()
	m.Cores = 4
	m.L2 = CacheConfig{Size: 512 << 10, Ways: 16, LatencyCyc: 11, LineSize: 64, WriteBack: true}
	m.NM = HBM(4 << 20)
	m.FM = DDR3(16 << 20)
	m.SILC.AgingInterval = 1 << 16
	m.SILC.HistoryEntries = 1 << 12
	m.HMA.EpochCycles = 1 << 18
	return m
}

// WithNMRatio returns a copy of m with NM capacity set to FM/den (Figure 9
// sweeps den = 16, 8, 4).
func (m Machine) WithNMRatio(den uint64) Machine {
	m.NM = HBM(m.FM.Capacity / den)
	return m
}

// TotalCapacity returns the capacity first-touch allocation hands out: NM +
// FM for part-of-memory schemes; FM alone for the no-NM baseline and for
// HMA, whose OS places pages in FM and keeps NM for its migrator.
func (m Machine) TotalCapacity() uint64 {
	if m.Scheme == SchemeBaseline || m.Scheme == SchemeHMA {
		return m.FM.Capacity
	}
	return m.NM.Capacity + m.FM.Capacity
}

// Validate checks internal consistency.
func (m Machine) Validate() error {
	if m.Cores <= 0 {
		return fmt.Errorf("config: cores = %d", m.Cores)
	}
	if m.PageSize != memunits.BlockSize {
		return fmt.Errorf("config: page size %d != large block size %d", m.PageSize, memunits.BlockSize)
	}
	if m.NM.Capacity%memunits.BlockSize != 0 || m.FM.Capacity%memunits.BlockSize != 0 {
		return fmt.Errorf("config: capacities must be multiples of %d", memunits.BlockSize)
	}
	if m.NM.Capacity == 0 {
		return fmt.Errorf("config: NM capacity must be positive")
	}
	if m.FM.Capacity%m.NM.Capacity != 0 {
		return fmt.Errorf("config: FM capacity %d not a multiple of NM capacity %d", m.FM.Capacity, m.NM.Capacity)
	}
	// HMA's remap tables and the VM page table hold block numbers (and
	// frame+1) as uint32.
	if blocks := memunits.BlocksIn(m.NM.Capacity) + memunits.BlocksIn(m.FM.Capacity); blocks > math.MaxUint32 {
		return fmt.Errorf("config: %d blocks of %d B exceed the limit of 2^32-1", blocks, memunits.BlockSize)
	}
	// CAMEO holds each congruence-group member's location (1 NM slot plus
	// FM/NM FM homes) in a uint8.
	if r := m.FM.Capacity / m.NM.Capacity; r > 255 && (m.Scheme == SchemeCAMEO || m.Scheme == SchemeCAMEOP) {
		return fmt.Errorf("config: %s needs FM/NM <= 255 (at most 256 lines per congruence group), got %d", m.Scheme, r)
	}
	// PoM splits NM into whole sets of ways frames, and holds each
	// congruence-set member's location in a uint16.
	if ways, _, n := m.PoM.Geometry(m.NM.Capacity, m.FM.Capacity); m.Scheme == SchemePoM {
		if nmBlks := memunits.BlocksIn(m.NM.Capacity); nmBlks%uint64(ways) != 0 {
			return fmt.Errorf("config: pom ways %d must divide the %d NM blocks", ways, nmBlks)
		}
		if n > 1<<16 {
			return fmt.Errorf("config: pom needs at most 65536 blocks per congruence set (NM frames and their congruent FM blocks), got %d", n)
		}
	}
	// HMA's epoch loop advances by EpochCycles, and its hot scan visits
	// only counters that were incremented.
	if m.Scheme == SchemeHMA && (m.HMA.EpochCycles == 0 || m.HMA.HotThreshold == 0) {
		return fmt.Errorf("config: HMA epoch %d cycles and hot threshold %d must be positive", m.HMA.EpochCycles, m.HMA.HotThreshold)
	}
	if w := m.SILC.Features.Ways; w != 1 && w != 2 && w != 4 {
		return fmt.Errorf("config: SILC ways = %d, want 1, 2 or 4", w)
	}
	// SILC-FM stores its frames set-major: NM blocks / ways sets of ways
	// adjacent frames (ways clamped to the NM blocks).
	if nmBlks := memunits.BlocksIn(m.NM.Capacity); m.Scheme == SchemeSILCFM && nmBlks%min(uint64(m.SILC.Features.Ways), nmBlks) != 0 {
		return fmt.Errorf("config: silc ways %d must divide the %d NM blocks", m.SILC.Features.Ways, nmBlks)
	}
	// SILC-FM's frames hold each activity counter in a byte.
	if b := m.SILC.CounterBits; b < 1 || b > 8 {
		return fmt.Errorf("config: SILC counter bits = %d, want 1..8", b)
	}
	if m.SILC.BypassTarget <= 0 || m.SILC.BypassTarget > 1 {
		return fmt.Errorf("config: bypass target %v out of (0,1]", m.SILC.BypassTarget)
	}
	if m.Core.IssueWidth <= 0 || m.Core.ROBSize <= 0 || m.Core.MSHRs <= 0 {
		return fmt.Errorf("config: core parameters must be positive: %+v", m.Core)
	}
	for _, c := range []CacheConfig{m.L1D, m.L2} {
		if c.LineSize != memunits.SubblockSize {
			return fmt.Errorf("config: cache line size %d != subblock size", c.LineSize)
		}
		// The cache keeps a 4-bit recency stack per set, and indexes
		// sets with a mask.
		if c.Ways < 1 || c.Ways > 16 {
			return fmt.Errorf("config: cache ways %d outside 1..16", c.Ways)
		}
		if c.Size%(c.LineSize*uint64(c.Ways)) != 0 {
			return fmt.Errorf("config: cache size %d not divisible into %d ways", c.Size, c.Ways)
		}
		if sets := c.Size / (c.LineSize * uint64(c.Ways)); !isPow2(sets) {
			return fmt.Errorf("config: cache set count %d not a power of two", sets)
		}
	}
	for _, d := range []DRAMConfig{m.NM, m.FM} {
		if err := d.validate(); err != nil {
			return err
		}
	}
	return nil
}

// validate checks the device geometry the DRAM model decodes addresses
// with (shifts and masks, so every factor a power of two) and the bus
// parameters it divides by.
func (d DRAMConfig) validate() error {
	for _, f := range []struct {
		name string
		n    int
	}{
		{"channels", d.Channels},
		{"ranks per channel", d.RanksPerChan},
		{"banks per rank", d.BanksPerRank},
		{"row-buffer blocks", int(d.RowBufferSize / 64)},
	} {
		if f.n <= 0 || !isPow2(uint64(f.n)) {
			return fmt.Errorf("config: %s %s %d is not a positive power of two", d.Name, f.name, f.n)
		}
	}
	if d.RowBufferSize%64 != 0 {
		return fmt.Errorf("config: %s row buffer %d bytes not a whole number of 64-byte blocks", d.Name, d.RowBufferSize)
	}
	if d.BusMHz == 0 || d.BusWidthBits == 0 {
		return fmt.Errorf("config: %s bus %d MHz x %d bits must be nonzero", d.Name, d.BusMHz, d.BusWidthBits)
	}
	// An empty scheduling window never issues: the run would not end.
	if d.ReadQueueLen < 1 || d.WriteQueueLen < 1 {
		return fmt.Errorf("config: %s read/write queue lengths %d/%d must be at least 1", d.Name, d.ReadQueueLen, d.WriteQueueLen)
	}
	// The scheduler keys each queued request by its (row, bank) pair in a
	// uint32.
	if r := d.RowsPerChannel(); r > 1<<32 {
		return fmt.Errorf("config: %s has %d (row, bank) pairs per channel, over the limit of 2^32", d.Name, r)
	}
	return nil
}

// RowsPerChannel returns the (row, bank) pairs one channel holds: its banks
// times the rows of each bank, at least one row a bank. The DRAM scheduler
// keys each queued request by its pair in 32 bits. The count saturates at
// the largest uint64. Every geometry factor must be positive.
func (d DRAMConfig) RowsPerChannel() uint64 {
	ceil := func(x, y uint64) uint64 {
		if x%y != 0 {
			return x/y + 1
		}
		return x / y
	}
	hi, banks := bits.Mul64(uint64(d.RanksPerChan), uint64(d.BanksPerRank))
	if hi != 0 {
		return math.MaxUint64
	}
	rows := max(1, ceil(ceil(ceil(d.Capacity, uint64(d.Channels)), banks), d.RowBufferSize))
	if hi, n := bits.Mul64(rows, banks); hi == 0 {
		return n
	}
	return math.MaxUint64
}

func isPow2(n uint64) bool { return n != 0 && n&(n-1) == 0 }
