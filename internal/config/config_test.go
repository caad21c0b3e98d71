package config

import (
	"math"
	"strings"
	"testing"
)

func TestDefaultValidates(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Fatal(err)
	}
	if err := Small().Validate(); err != nil {
		t.Fatal(err)
	}
}

// Table II: HBM peak bandwidth must be 4x DDR3 peak bandwidth; this ratio is
// what makes the paper's 0.8 bypass target optimal.
func TestBandwidthRatioIs4to1(t *testing.T) {
	nm := HBM(128 << 20)
	fm := DDR3(512 << 20)
	ratio := nm.PeakBandwidthGBs() / fm.PeakBandwidthGBs()
	if math.Abs(ratio-4.0) > 1e-9 {
		t.Fatalf("NM:FM peak bandwidth ratio = %v, want 4.0", ratio)
	}
	// Absolute values per Table II: 8ch x 128b x 1600MT/s = 204.8 GB/s HBM,
	// 4ch x 64b x 1600MT/s = 51.2 GB/s DDR3.
	if math.Abs(nm.PeakBandwidthGBs()-204.8) > 0.1 {
		t.Errorf("HBM peak = %v GB/s, want 204.8", nm.PeakBandwidthGBs())
	}
	if math.Abs(fm.PeakBandwidthGBs()-51.2) > 0.1 {
		t.Errorf("DDR3 peak = %v GB/s, want 51.2", fm.PeakBandwidthGBs())
	}
}

func TestMemCyclesToCPU(t *testing.T) {
	d := DDR3(1 << 20)
	// 800 MHz bus under a 3200 MHz core: 1 mem cycle = 4 CPU cycles.
	if got := d.MemCyclesToCPU(1); got != 4 {
		t.Fatalf("MemCyclesToCPU(1) = %d, want 4", got)
	}
	if got := d.MemCyclesToCPU(11); got != 44 {
		t.Fatalf("MemCyclesToCPU(11) = %d, want 44", got)
	}
}

func TestBurstCycles(t *testing.T) {
	fm := DDR3(1 << 20)
	// 64B on a 64-bit DDR bus: 8 beats = 4 mem cycles = 16 CPU cycles.
	if got := fm.BurstCPUCycles(64); got != 16 {
		t.Fatalf("DDR3 64B burst = %d CPU cycles, want 16", got)
	}
	nm := HBM(1 << 20)
	// 64B on a 128-bit DDR bus: 4 beats = 2 mem cycles = 8 CPU cycles.
	if got := nm.BurstCPUCycles(64); got != 8 {
		t.Fatalf("HBM 64B burst = %d CPU cycles, want 8", got)
	}
	if got := nm.BurstCPUCycles(1); got == 0 {
		t.Fatal("burst of 1 byte must occupy at least one cycle")
	}
}

func TestNMLatencyAdvantage(t *testing.T) {
	nm, fm := HBM(1<<20), DDR3(1<<20)
	nmMiss := nm.MemCyclesToCPU(nm.Timing.TRP + nm.Timing.TRCD + nm.Timing.TCAS)
	fmMiss := fm.MemCyclesToCPU(fm.Timing.TRP + fm.Timing.TRCD + fm.Timing.TCAS)
	if nmMiss >= fmMiss {
		t.Fatalf("NM row-miss latency %d !< FM %d; paper: NM has slightly reduced latency", nmMiss, fmMiss)
	}
}

func TestWithNMRatio(t *testing.T) {
	m := Default()
	for _, den := range []uint64{16, 8, 4} {
		m2 := m.WithNMRatio(den)
		if m2.NM.Capacity*den != m2.FM.Capacity {
			t.Errorf("ratio 1/%d: NM=%d FM=%d", den, m2.NM.Capacity, m2.FM.Capacity)
		}
		if err := m2.Validate(); err != nil {
			t.Errorf("ratio 1/%d invalid: %v", den, err)
		}
	}
}

func TestTotalCapacity(t *testing.T) {
	m := Default()
	if m.TotalCapacity() != m.NM.Capacity+m.FM.Capacity {
		t.Fatal("part-of-memory schemes must expose NM+FM")
	}
	m.Scheme = SchemeBaseline
	if m.TotalCapacity() != m.FM.Capacity {
		t.Fatal("baseline exposes FM only")
	}
	m.Scheme = SchemeHMA
	if m.TotalCapacity() != m.FM.Capacity {
		t.Fatal("HMA places first touches in FM only")
	}
}

func TestValidateRejections(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Machine)
	}{
		{"zero cores", func(m *Machine) { m.Cores = 0 }},
		{"bad page size", func(m *Machine) { m.PageSize = 4096 }},
		{"NM not multiple of block", func(m *Machine) { m.NM.Capacity = 12345 }},
		{"FM not multiple of NM", func(m *Machine) { m.FM.Capacity = m.NM.Capacity*3 + 2048 }},
		{"bad ways", func(m *Machine) { m.SILC.Features.Ways = 3 }},
		{"bad bypass", func(m *Machine) { m.SILC.BypassTarget = 1.5 }},
		{"bad core", func(m *Machine) { m.Core.MSHRs = 0 }},
		{"bad line size", func(m *Machine) { m.L1D.LineSize = 32 }},
		{"indivisible cache", func(m *Machine) { m.L2.Size = 1<<20 + 64 }},
		{"zero NM capacity", func(m *Machine) { m.NM.Capacity = 0 }},
		{"silc ways not dividing NM", func(m *Machine) {
			m.Scheme = SchemeSILCFM
			m.NM, m.FM = HBM(10<<10), DDR3(40<<10)
			m.SILC.Features.Ways = 2
		}},
	}
	for _, c := range cases {
		m := Default()
		c.mut(&m)
		if err := m.Validate(); err == nil {
			t.Errorf("%s: Validate accepted invalid config", c.name)
		}
	}
}

func TestEnergyOrdering(t *testing.T) {
	nm, fm := HBM(1), DDR3(1)
	if nm.ReadEnergyPJPerBit >= fm.ReadEnergyPJPerBit {
		t.Fatal("HBM access energy must be below DDR3 (paper: die-stacked DRAM's low energy)")
	}
}

// TestValidateRejectsPanickingGeometry pins one case per geometry that used
// to pass Validate and then panic while the machine was built: each must
// now come back as an error, and Validate itself must not panic.
func TestValidateRejectsPanickingGeometry(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Machine)
	}{
		{"L2 set count not a power of two", func(m *Machine) { m.L2.Size = 12 << 20 }},
		{"L1 zero ways", func(m *Machine) { m.L1D.Ways = 0 }},
		{"L2 17 ways", func(m *Machine) { m.L2.Ways = 17; m.L2.Size = 17 * 64 * 8192 }},
		{"L2 negative ways", func(m *Machine) { m.L2.Ways = -4 }},
		{"FM zero channels", func(m *Machine) { m.FM.Channels = 0 }},
		{"NM three channels", func(m *Machine) { m.NM.Channels = 3 }},
		{"FM zero ranks", func(m *Machine) { m.FM.RanksPerChan = 0 }},
		{"NM zero banks", func(m *Machine) { m.NM.BanksPerRank = 0 }},
		{"FM six banks", func(m *Machine) { m.FM.BanksPerRank = 6 }},
		{"NM row buffer under one block", func(m *Machine) { m.NM.RowBufferSize = 32 }},
		{"FM row buffer of 96 blocks", func(m *Machine) { m.FM.RowBufferSize = 96 * 64 }},
		{"FM zero bus clock", func(m *Machine) { m.FM.BusMHz = 0 }},
		{"NM zero bus width", func(m *Machine) { m.NM.BusWidthBits = 0 }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m := Default()
			c.mut(&m)
			if err := m.Validate(); err == nil {
				t.Fatal("Validate accepted a geometry the simulator cannot build")
			}
		})
	}
}

// TestValidateRejectsEmptyQueues: a read or write scheduling window below
// one entry never issues, so a run on such a device used to spin without
// end; each must be a config error on either level.
func TestValidateRejectsEmptyQueues(t *testing.T) {
	for _, n := range []int{0, -4} {
		for _, level := range []string{"NM", "FM"} {
			for _, q := range []string{"read", "write"} {
				m := Default()
				d := &m.NM
				if level == "FM" {
					d = &m.FM
				}
				if q == "read" {
					d.ReadQueueLen = n
				} else {
					d.WriteQueueLen = n
				}
				if err := m.Validate(); err == nil || !strings.Contains(err.Error(), "queue lengths") {
					t.Errorf("%s %s queue of %d: err %v, want the queue lengths named", level, q, n, err)
				}
			}
		}
	}
	m := Default()
	m.NM.ReadQueueLen, m.NM.WriteQueueLen, m.FM.ReadQueueLen, m.FM.WriteQueueLen = 1, 1, 1, 1
	if err := m.Validate(); err != nil {
		t.Errorf("one-entry queues rejected: %v", err)
	}
}

// TestValidateRowKeyLimit: the DRAM scheduler keys a queued request by its
// (row, bank) pair in 32 bits, so a channel may hold at most 2^32 pairs.
// One channel of eight banks of 64-byte rows reaches the limit at 256 GiB,
// inside the 2^32-1 block limit.
func TestValidateRowKeyLimit(t *testing.T) {
	geom := func(fm uint64) Machine {
		m := Default()
		m.NM = HBM(fm / 16)
		m.FM = DDR3(fm)
		m.FM.Channels = 1
		m.FM.RowBufferSize = 64
		return m
	}
	if m := geom(256 << 30); m.FM.RowsPerChannel() != 1<<32 {
		t.Fatalf("RowsPerChannel = %d, want 2^32", m.FM.RowsPerChannel())
	} else if err := m.Validate(); err != nil {
		t.Errorf("2^32 rows per channel rejected: %v", err)
	}
	if err := geom(512 << 30).Validate(); err == nil || !strings.Contains(err.Error(), "2^32") {
		t.Errorf("2^33 rows per channel: err %v, want the 2^32 row limit named", err)
	}
	// 2^33 banks of one row each, and a rank and bank count whose product
	// overflows 64 bits.
	for _, ranks := range []int{1 << 20, 1 << 40} {
		m := Default()
		m.FM.RanksPerChan, m.FM.BanksPerRank = ranks, 1<<30
		if err := m.Validate(); err == nil || !strings.Contains(err.Error(), "2^32") {
			t.Errorf("%d ranks of 2^30 banks: err %v, want the 2^32 row limit named", ranks, err)
		}
	}
}

// TestValidateCounterBits: SILC-FM's activity counters live in a byte of
// the frame. A negative width used to pass Validate and panic with a
// negative shift while the controller was built; a zero width froze the
// counters, so locking silently never fired.
func TestValidateCounterBits(t *testing.T) {
	for _, bits := range []int{-1, 0, 9, 64} {
		m := Default()
		m.SILC.CounterBits = bits
		if err := m.Validate(); err == nil || !strings.Contains(err.Error(), "counter bits") {
			t.Errorf("counter bits %d: err %v, want the counter width named", bits, err)
		}
	}
	for _, bits := range []int{1, 6, 8} {
		m := Default()
		m.SILC.CounterBits = bits
		if err := m.Validate(); err != nil {
			t.Errorf("counter bits %d: %v", bits, err)
		}
	}
}

// TestValidateTableLimits pins the limits of the schemes' placement
// tables. CAMEO holds a location in a uint8, so FM/NM = 256 (257 lines per
// group) used to wrap and corrupt placement silently; FM/NM = 255 still
// fits. HMA and the VM hold block numbers and frame+1 as uint32. An HMA
// epoch of 0 cycles used to hang the epoch loop.
func TestValidateTableLimits(t *testing.T) {
	withRatio := func(s SchemeName, ratio uint64) Machine {
		m := Default()
		m.Scheme = s
		m.NM = HBM(1 << 20)
		m.FM = DDR3(ratio << 20)
		return m
	}
	for _, s := range []SchemeName{SchemeCAMEO, SchemeCAMEOP} {
		if err := withRatio(s, 255).Validate(); err != nil {
			t.Errorf("%s at FM/NM 255: %v", s, err)
		}
		for _, r := range []uint64{256, 512} {
			err := withRatio(s, r).Validate()
			if err == nil || !strings.Contains(err.Error(), "FM/NM <= 255") {
				t.Errorf("%s at FM/NM %d: err %v, want the 255 limit named", s, r, err)
			}
		}
	}
	for _, s := range []SchemeName{SchemeSILCFM, SchemeHMA, SchemePoM} {
		if err := withRatio(s, 512).Validate(); err != nil {
			t.Errorf("%s at FM/NM 512: %v", s, err)
		}
	}

	huge := Default()
	huge.NM = HBM(1 << 41) // 2^30 blocks
	huge.FM = DDR3(3 << 41)
	if err := huge.Validate(); err == nil || !strings.Contains(err.Error(), "2^32-1") {
		t.Errorf("2^32 blocks: err %v, want the block limit named", err)
	}
	huge.FM = DDR3(2 << 41)
	if err := huge.Validate(); err != nil {
		t.Errorf("3*2^30 blocks: %v", err)
	}

	for name, mut := range map[string]func(*Machine){
		"zero epoch":         func(m *Machine) { m.HMA.EpochCycles = 0 },
		"zero hot threshold": func(m *Machine) { m.HMA.HotThreshold = 0 },
	} {
		m := Default()
		m.Scheme = SchemeHMA
		mut(&m)
		if err := m.Validate(); err == nil {
			t.Errorf("HMA %s accepted", name)
		}
	}
}

// TestValidatePoMSetLimit: PoM holds a location index in a uint16, so a
// congruence set of more than 65,536 blocks aliased two of them. NM 2 KiB
// under FM 128 MiB is one set of 65,537; FM/NM = 32,768 and exactly 65,536
// members still fit. With two ways a set also counts its second NM frame.
func TestValidatePoMSetLimit(t *testing.T) {
	pomMachine := func(nm, fm uint64, ways int) Machine {
		m := Default()
		m.Scheme = SchemePoM
		m.NM = HBM(nm)
		m.FM = DDR3(fm)
		m.PoM.Ways = ways
		return m
	}
	for _, c := range []struct {
		nm, fm uint64
		ways   int
	}{
		{2 << 10, 64 << 20, 1},
		{2 << 10, 65535 * 2 << 10, 1},
		{4 << 10, 65534 * 2 << 10, 2},
	} {
		if err := pomMachine(c.nm, c.fm, c.ways).Validate(); err != nil {
			t.Errorf("NM %d FM %d ways %d: %v", c.nm, c.fm, c.ways, err)
		}
	}
	for _, c := range []struct {
		nm, fm uint64
		ways   int
	}{
		{2 << 10, 128 << 20, 1},
		{2 << 10, 65536 * 2 << 10, 1},
		{4 << 10, 65536 * 2 << 10, 2},
	} {
		err := pomMachine(c.nm, c.fm, c.ways).Validate()
		if err == nil || !strings.Contains(err.Error(), "at most 65536 blocks per congruence set") {
			t.Errorf("NM %d FM %d ways %d: err %v, want the 65536 limit named", c.nm, c.fm, c.ways, err)
		}
	}
	m := pomMachine(2<<10, 128<<20, 1)
	m.Scheme = SchemeSILCFM
	if err := m.Validate(); err != nil {
		t.Errorf("silc at NM 2 KiB, FM 128 MiB: %v", err)
	}
}

// TestValidatePoMWaysDivideNM: PoM builds NM blocks / ways congruence sets,
// so ways that do not divide the NM blocks leave the last blocks past
// their set's row. NM 10 KiB (5 blocks) at 2 ways made two flat blocks
// collide at one NM frame; NM 12 KiB (6 blocks) at 4 ways audited clean
// but treated NM frames 4 and 5 as FM locations.
func TestValidatePoMWaysDivideNM(t *testing.T) {
	for _, c := range []struct {
		nm   uint64
		ways int
		ok   bool
	}{
		{10 << 10, 2, false},
		{12 << 10, 4, false},
		{12 << 10, 3, true},
		{12 << 10, 2, true},
		{10 << 10, 8, true}, // clamped to the 5 NM blocks
	} {
		m := Small()
		m.Scheme = SchemePoM
		m.NM = HBM(c.nm)
		m.FM = DDR3(4 * c.nm)
		m.PoM.Ways = c.ways
		err := m.Validate()
		if c.ok && err != nil {
			t.Errorf("NM %d KiB, %d ways: %v", c.nm>>10, c.ways, err)
		}
		if !c.ok && (err == nil || !strings.Contains(err.Error(), "must divide the")) {
			t.Errorf("NM %d KiB, %d ways: err %v, want the ways rule named", c.nm>>10, c.ways, err)
		}
	}
}

// TestValidateSILCWaysDivideNM: SILC-FM stores its frames set-major, frame
// f at (f mod sets)·ways + f/sets, which is a bijection only when the ways
// (clamped to the NM blocks) divide the NM blocks. NM 10 KiB (5 blocks) at
// 2 ways and NM 12 KiB (6 blocks) at 4 ways were accepted before; other
// schemes ignore SILC's ways.
func TestValidateSILCWaysDivideNM(t *testing.T) {
	for _, c := range []struct {
		nm     uint64
		ways   int
		scheme SchemeName
		ok     bool
	}{
		{10 << 10, 2, SchemeSILCFM, false},
		{12 << 10, 4, SchemeSILCFM, false},
		{12 << 10, 2, SchemeSILCFM, true},
		{6 << 10, 4, SchemeSILCFM, true}, // clamped to the 3 NM blocks
		{2 << 10, 4, SchemeSILCFM, true}, // clamped to the one NM block
		{10 << 10, 2, SchemeCAMEO, true},
	} {
		m := Small()
		m.Scheme = c.scheme
		m.NM = HBM(c.nm)
		m.FM = DDR3(4 * c.nm)
		m.SILC.Features.Ways = c.ways
		err := m.Validate()
		if c.ok && err != nil {
			t.Errorf("%s at NM %d KiB, %d ways: %v", c.scheme, c.nm>>10, c.ways, err)
		}
		if !c.ok && (err == nil || !strings.Contains(err.Error(), "must divide the")) {
			t.Errorf("%s at NM %d KiB, %d ways: err %v, want the ways rule named", c.scheme, c.nm>>10, c.ways, err)
		}
	}
}
