package schemes

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

func TestInitialIdentityMapping(t *testing.T) {
	_, sys := newTestSystem()
	c := newCAMEO(sys, 0)
	// NM addresses map to themselves in NM; FM addresses to their FM home.
	for _, pa := range []uint64{0, 64, 4<<20 - 64, 4 << 20, 10 << 20} {
		loc := c.Locate(pa)
		want := sys.HomeLocation(pa)
		if loc != want {
			t.Fatalf("Locate(%#x) = %+v, want home %+v", pa, loc, want)
		}
	}
}

func TestSwapOnFMAccess(t *testing.T) {
	eng, sys := newTestSystem()
	c := newCAMEO(sys, 0)
	fmAddr := uint64(4 << 20) // first FM subblock: group 0, member 1
	done := false
	c.Handle(&mem.Access{PAddr: fmAddr, Done: func() { done = true }})
	eng.Run()
	if !done {
		t.Fatal("access never completed")
	}
	// Requested line now in NM.
	if loc := c.Locate(fmAddr); loc.Level != stats.NM || loc.DevAddr != 0 {
		t.Fatalf("after swap Locate = %+v, want NM slot 0", loc)
	}
	// The displaced NM line sits at the requested line's old FM home.
	if loc := c.Locate(0); loc.Level != stats.FM || loc.DevAddr != 0 {
		t.Fatalf("victim Locate = %+v, want FM home 0", loc)
	}
	if sys.Stats.ServicedFM != 1 || sys.Stats.ServicedNM != 0 {
		t.Fatalf("serviced NM=%d FM=%d", sys.Stats.ServicedNM, sys.Stats.ServicedFM)
	}
	// Second access to the same line is an NM hit.
	c.Handle(&mem.Access{PAddr: fmAddr})
	eng.Run()
	if sys.Stats.ServicedNM != 1 {
		t.Fatal("second access not serviced from NM")
	}
}

func TestAccessRateGrowsWithTemporalLocality(t *testing.T) {
	eng, sys := newTestSystem()
	c := newCAMEO(sys, 0)
	rng := rand.New(rand.NewSource(2))
	hot := make([]uint64, 64)
	for i := range hot {
		hot[i] = uint64(4<<20) + uint64(i)*64*13 // FM addresses
	}
	for i := 0; i < 4000; i++ {
		c.Handle(&mem.Access{PAddr: hot[rng.Intn(len(hot))]})
		eng.Run()
	}
	if ar := sys.Stats.AccessRate(); ar < 0.9 {
		t.Fatalf("hot-set access rate = %.3f, want > 0.9", ar)
	}
}

func TestConflictThrashing(t *testing.T) {
	// Two FM lines in the same congruence group ping-pong: every access
	// misses (CAMEO's direct-mapped weakness, §II-B).
	eng, sys := newTestSystem()
	c := newCAMEO(sys, 0)
	slots := memunits.SubblocksIn(sys.NMCap)
	a1 := uint64(4 << 20)          // group 0, member 1
	a2 := uint64(4<<20) + slots*64 // group 0, member 2
	for i := 0; i < 10; i++ {
		c.Handle(&mem.Access{PAddr: a1})
		eng.Run()
		c.Handle(&mem.Access{PAddr: a2})
		eng.Run()
	}
	if sys.Stats.ServicedNM != 0 {
		t.Fatalf("conflicting lines produced %d NM hits, want 0", sys.Stats.ServicedNM)
	}
}

func TestWriteAllocatesInNM(t *testing.T) {
	eng, sys := newTestSystem()
	c := newCAMEO(sys, 0)
	fmAddr := uint64(5 << 20)
	done := false
	c.Handle(&mem.Access{PAddr: fmAddr, Write: true, Done: func() { done = true }})
	eng.Run()
	if !done {
		t.Fatal("write never acknowledged")
	}
	if loc := c.Locate(fmAddr); loc.Level != stats.NM {
		t.Fatalf("written line not in NM: %+v", loc)
	}
	// No FM read should have happened for a full-line write.
	if sys.FM.Stats().Reads != 0 {
		t.Fatalf("full-line write read FM %d times", sys.FM.Stats().Reads)
	}
}

func TestPrefetcherPullsNeighbors(t *testing.T) {
	eng, sys := newTestSystem()
	c := newCAMEO(sys, 3)
	if c.Name() != "camp" {
		t.Fatalf("Name = %s", c.Name())
	}
	fmAddr := uint64(6 << 20)
	c.Handle(&mem.Access{PAddr: fmAddr})
	eng.Run()
	for i := uint64(0); i <= 3; i++ {
		if loc := c.Locate(fmAddr + i*64); loc.Level != stats.NM {
			t.Fatalf("line +%d not prefetched into NM: %+v", i, loc)
		}
	}
	// Subsequent sequential accesses hit NM.
	for i := uint64(1); i <= 3; i++ {
		c.Handle(&mem.Access{PAddr: fmAddr + i*64})
		eng.Run()
	}
	if sys.Stats.ServicedNM != 3 {
		t.Fatalf("sequential NM hits = %d, want 3", sys.Stats.ServicedNM)
	}
	// Prefetching consumed migration bandwidth.
	if sys.Stats.Bytes[stats.NM][stats.Migration] == 0 {
		t.Fatal("no migration traffic recorded for prefetches")
	}
}

func TestOriginalCAMEONoPrefetch(t *testing.T) {
	eng, sys := newTestSystem()
	c := newCAMEO(sys, 0)
	if c.Name() != "cam" {
		t.Fatalf("Name = %s", c.Name())
	}
	c.Handle(&mem.Access{PAddr: 6 << 20})
	eng.Run()
	if loc := c.Locate(6<<20 + 64); loc.Level != stats.FM {
		t.Fatal("original CAMEO must not prefetch")
	}
}

// Property: after any access sequence the location mapping stays a
// bijection (flat memory never loses or duplicates a line).
func TestMappingStaysBijective(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		eng := sim.NewEngine()
		m := config.Small()
		m.NM = config.HBM(1 << 20)
		m.FM = config.DDR3(4 << 20)
		sys := mem.NewSystem(m, eng)
		c := newCAMEO(sys, int(seed%4))
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < int(n)+20; i++ {
			pa := uint64(rng.Intn(5<<20)) &^ 63
			c.Handle(&mem.Access{PAddr: pa, Write: rng.Intn(3) == 0})
		}
		eng.Run()
		return mem.AuditSample(c, sys.NMCap, sys.FMCap, 7) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestFullAuditSmall(t *testing.T) {
	eng := sim.NewEngine()
	m := config.Small()
	m.NM = config.HBM(256 << 10)
	m.FM = config.DDR3(1 << 20)
	sys := mem.NewSystem(m, eng)
	c := newCAMEO(sys, 3)
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 5000; i++ {
		c.Handle(&mem.Access{PAddr: uint64(rng.Intn(1280<<10)) &^ 63, Write: rng.Intn(4) == 0})
	}
	eng.Run()
	if err := mem.Audit(c, sys.NMCap, sys.FMCap); err != nil {
		t.Fatal(err)
	}
}

func TestMetadataTrafficAccounted(t *testing.T) {
	eng, sys := newTestSystem()
	c := newCAMEO(sys, 0)
	c.Handle(&mem.Access{PAddr: 0}) // NM hit: extended burst carries remap
	eng.Run()
	if sys.Stats.Bytes[stats.NM][stats.Metadata] != remapEntrySize {
		t.Fatalf("metadata bytes = %d, want %d", sys.Stats.Bytes[stats.NM][stats.Metadata], remapEntrySize)
	}
}
