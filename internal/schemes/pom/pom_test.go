package pom

import (
	"math/rand"
	"testing"
	"testing/quick"

	"silcfm/internal/config"
	"silcfm/internal/mem"
	"silcfm/internal/memunits"
	"silcfm/internal/sim"
	"silcfm/internal/stats"
)

func newTestSystem() (*sim.Engine, *mem.System) {
	m := config.Small() // NM 4MB, FM 16MB
	eng := sim.NewEngine()
	return eng, mem.NewSystem(m, eng)
}

func TestNoMigrationBelowThreshold(t *testing.T) {
	eng, sys := newTestSystem()
	c := New(sys, config.PoMConfig{MigrationThreshold: 16})
	fm := uint64(4 << 20)
	for i := 0; i < 15; i++ {
		c.Handle(&mem.Access{PAddr: fm})
		eng.Run()
	}
	if loc := c.Locate(fm); loc.Level != stats.FM {
		t.Fatalf("block migrated below threshold: %+v", loc)
	}
	if sys.Stats.Migrations != 0 {
		t.Fatal("migration counted below threshold")
	}
	if sys.Stats.ServicedFM != 15 {
		t.Fatalf("ServicedFM = %d", sys.Stats.ServicedFM)
	}
}

func TestMigrationAtThreshold(t *testing.T) {
	eng, sys := newTestSystem()
	c := New(sys, config.PoMConfig{MigrationThreshold: 16})
	fm := uint64(4 << 20)
	for i := 0; i < 16; i++ {
		c.Handle(&mem.Access{PAddr: fm + uint64(i%32)*64})
		eng.Run()
	}
	if loc := c.Locate(fm); loc.Level != stats.NM {
		t.Fatalf("block not migrated at threshold: %+v", loc)
	}
	if sys.Stats.Migrations != 1 {
		t.Fatalf("Migrations = %d", sys.Stats.Migrations)
	}
	// Whole 2KB moved each way: migration bytes >= 2*2048 per level side.
	if sys.Stats.Bytes[stats.NM][stats.Migration] < 2*2048 {
		t.Fatalf("NM migration bytes = %d", sys.Stats.Bytes[stats.NM][stats.Migration])
	}
	// The displaced NM block sits at the migrated block's FM home.
	if loc := c.Locate(0); loc.Level != stats.FM || loc.DevAddr != 0 {
		t.Fatalf("victim at %+v, want FM 0", loc)
	}
	// Post-migration accesses hit NM, including other subblocks of the
	// block (page-granularity benefit).
	before := sys.Stats.ServicedNM
	c.Handle(&mem.Access{PAddr: fm + 31*64})
	eng.Run()
	if sys.Stats.ServicedNM != before+1 {
		t.Fatal("subblock of migrated block not serviced from NM")
	}
}

func TestMigrationWastesBandwidthOnSparseUse(t *testing.T) {
	// Accessing a single subblock repeatedly still moves all 32 subblocks:
	// PoM's bandwidth waste on low spatial locality (§II-B).
	eng, sys := newTestSystem()
	c := New(sys, config.PoMConfig{MigrationThreshold: 4})
	fm := uint64(4 << 20)
	for i := 0; i < 4; i++ {
		c.Handle(&mem.Access{PAddr: fm})
		eng.Run()
	}
	demand := sys.Stats.Bytes[stats.NM][stats.Demand] + sys.Stats.Bytes[stats.FM][stats.Demand]
	mig := sys.Stats.Bytes[stats.NM][stats.Migration] + sys.Stats.Bytes[stats.FM][stats.Migration]
	if mig < 10*demand {
		t.Fatalf("migration bytes %d not >> demand bytes %d", mig, demand)
	}
}

func TestCounterDecay(t *testing.T) {
	eng, sys := newTestSystem()
	c := New(sys, config.PoMConfig{MigrationThreshold: 16})
	c.decayAt = 8
	fm := uint64(4 << 20)
	// 7 accesses, then enough other traffic to trigger decay, then 8 more:
	// the block must NOT migrate (7/2 + 8 = 11 < 16).
	for i := 0; i < 7; i++ {
		c.Handle(&mem.Access{PAddr: fm})
	}
	c.Handle(&mem.Access{PAddr: 0}) // 8th access triggers decay sweep
	for i := 0; i < 8; i++ {
		c.Handle(&mem.Access{PAddr: fm})
	}
	eng.Run()
	if loc := c.Locate(fm); loc.Level != stats.FM {
		t.Fatal("decayed counter still triggered migration")
	}
	_ = sys
}

func TestPermutationAudit(t *testing.T) {
	f := func(seed int64) bool {
		eng := sim.NewEngine()
		m := config.Small()
		m.NM = config.HBM(256 << 10)
		m.FM = config.DDR3(1 << 20)
		sys := mem.NewSystem(m, eng)
		c := New(sys, config.PoMConfig{MigrationThreshold: 3})
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 3000; i++ {
			c.Handle(&mem.Access{PAddr: uint64(rng.Intn(1280<<10)) &^ 63, Write: rng.Intn(4) == 0})
		}
		eng.Run()
		return mem.Audit(c, sys.NMCap, sys.FMCap) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

// TestLargestSetAudits: at config.Validate's limit of 65,536 blocks per
// congruence set (one NM frame, 65,535 FM blocks) every location index fits
// a uint16 and the mapping is a bijection.
func TestLargestSetAudits(t *testing.T) {
	m := config.Small()
	m.Scheme = config.SchemePoM
	m.NM = config.HBM(memunits.BlockSize)
	m.FM = config.DDR3(65535 * memunits.BlockSize)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	sys := mem.NewSystem(m, sim.NewEngine())
	if err := mem.Audit(New(sys, m.PoM), sys.NMCap, sys.FMCap); err != nil {
		t.Fatal(err)
	}
}

func TestSubblockOffsetsPreserved(t *testing.T) {
	eng, sys := newTestSystem()
	c := New(sys, config.PoMConfig{MigrationThreshold: 1})
	fm := uint64(4<<20) + 5*memunits.BlockSize + 17*64
	c.Handle(&mem.Access{PAddr: fm})
	eng.Run()
	loc := c.Locate(fm)
	if loc.Level != stats.NM {
		t.Fatalf("not migrated: %+v", loc)
	}
	if loc.DevAddr%memunits.BlockSize != 17*64 {
		t.Fatalf("subblock offset lost: %#x", loc.DevAddr)
	}
	_ = sys
}

func TestName(t *testing.T) {
	_, sys := newTestSystem()
	if New(sys, config.DefaultPoM()).Name() != "pom" {
		t.Fatal("name")
	}
}

func TestAssociativePoMHoldsMultipleHotBlocks(t *testing.T) {
	// With 4 ways, four hot FM blocks congruent to one set coexist in NM;
	// direct-mapped PoM would thrash them through a single frame.
	m := config.Small()
	eng := sim.NewEngine()
	sys := mem.NewSystem(m, eng)
	c := New(sys, config.PoMConfig{MigrationThreshold: 2, Ways: 4})
	// NM 4MB = 2048 blocks, 4 ways -> 512 sets. FM blocks congruent to set
	// 0 are flat blocks 2048, 2560, 3072, ... (multiples of sets beyond NM).
	fmBlock := func(k int) uint64 { return (2048 + uint64(k)*512) * memunits.BlockSize }
	for k := 0; k < 4; k++ {
		for i := 0; i < 2; i++ {
			c.Handle(&mem.Access{PAddr: fmBlock(k)})
			eng.Run()
		}
	}
	for k := 0; k < 4; k++ {
		if loc := c.Locate(fmBlock(k)); loc.Level != stats.NM {
			t.Fatalf("hot block %d not NM-resident under 4-way PoM: %+v", k, loc)
		}
	}
	if sys.Stats.Migrations != 4 {
		t.Fatalf("Migrations = %d, want 4", sys.Stats.Migrations)
	}
	if err := mem.AuditSample(c, sys.NMCap, sys.FMCap, 13); err != nil {
		t.Fatal(err)
	}
}

func TestAssociativePoMEvictsColdest(t *testing.T) {
	m := config.Small()
	eng := sim.NewEngine()
	sys := mem.NewSystem(m, eng)
	c := New(sys, config.PoMConfig{MigrationThreshold: 2, Ways: 2})
	// 2 ways -> 1024 sets. Set 0's FM members: 2048, 3072, 4096...
	fmBlock := func(k int) uint64 { return (2048 + uint64(k)*1024) * memunits.BlockSize }
	// Heat block 0 a lot (migrates, stays hot) and block 1 just enough to
	// migrate. Both NM frames now hold them.
	for i := 0; i < 10; i++ {
		c.Handle(&mem.Access{PAddr: fmBlock(0)})
	}
	for i := 0; i < 2; i++ {
		c.Handle(&mem.Access{PAddr: fmBlock(1)})
	}
	eng.Run()
	// A third hot block must displace block 1 (colder), not block 0.
	for i := 0; i < 3; i++ {
		c.Handle(&mem.Access{PAddr: fmBlock(2)})
	}
	eng.Run()
	if loc := c.Locate(fmBlock(0)); loc.Level != stats.NM {
		t.Fatal("hottest block evicted")
	}
	if loc := c.Locate(fmBlock(2)); loc.Level != stats.NM {
		t.Fatal("newly hot block not migrated")
	}
	if loc := c.Locate(fmBlock(1)); loc.Level != stats.FM {
		t.Fatal("coldest resident not the victim")
	}
}
