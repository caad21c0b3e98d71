package cache

import (
	"math/rand"
	"testing"
	"testing/quick"

	"silcfm/internal/config"
)

func small() config.CacheConfig {
	return config.CacheConfig{Size: 1 << 12, Ways: 4, LatencyCyc: 4, LineSize: 64, WriteBack: true}
}

func TestHitAfterMiss(t *testing.T) {
	c := New("t", small())
	var hits, misses int
	for i, a := range []uint64{0x1000, 0x1000, 0x1038, 0x1000} {
		hit, _, _, _ := c.Access(a, false)
		if hit != (i > 0) {
			t.Fatalf("access %d (%#x): hit = %v, want %v", i, a, hit, i > 0)
		}
		if hit {
			hits++
		} else {
			misses++
		}
	}
	// One cold miss, then three hits on the same line: a miss rate of 1/4.
	if hits != 3 || misses != 1 {
		t.Fatalf("hits=%d misses=%d", hits, misses)
	}
}

func TestLRUEviction(t *testing.T) {
	c := New("t", small()) // 16 sets, 4 ways
	sets := c.Sets()
	// Fill one set's 4 ways.
	for w := uint64(0); w < 4; w++ {
		c.Access(w*sets*64, false)
	}
	// Touch way 0 to make way 1 the LRU.
	c.Access(0, false)
	// Insert a 5th line: must evict way 1's line (tag 1).
	_, vAddr, vValid, _ := c.Access(4*sets*64, false)
	if !vValid {
		t.Fatal("no victim on full set")
	}
	if vAddr != 1*sets*64 {
		t.Fatalf("evicted %x, want %x (LRU)", vAddr, sets*64)
	}
	if !c.Probe(0) || c.Probe(1*sets*64) {
		t.Fatal("wrong line evicted")
	}
}

func TestDirtyWriteback(t *testing.T) {
	c := New("t", small())
	sets := c.Sets()
	c.Access(0, true) // dirty
	for w := uint64(1); w < 4; w++ {
		c.Access(w*sets*64, false)
	}
	_, vAddr, vValid, vDirty := c.Access(4*sets*64, false)
	if !vValid || !vDirty || vAddr != 0 {
		t.Fatalf("victim addr=%x valid=%v dirty=%v, want dirty addr 0", vAddr, vValid, vDirty)
	}
}

func TestCleanVictimNotDirty(t *testing.T) {
	c := New("t", small())
	sets := c.Sets()
	for w := uint64(0); w < 5; w++ {
		_, _, _, vDirty := c.Access(w*sets*64, false)
		if vDirty {
			t.Fatal("clean line reported dirty")
		}
	}
}

func TestVictimAddressReconstruction(t *testing.T) {
	// Property: the victim address reported on eviction equals the address
	// originally inserted (line-aligned).
	f := func(raw []uint32) bool {
		c := New("t", small())
		inserted := map[uint64]bool{}
		for _, r := range raw {
			addr := uint64(r) &^ 63
			hit, vAddr, vValid, _ := c.Access(addr, false)
			if !hit {
				if vValid {
					if !inserted[vAddr] {
						return false // evicted something never inserted
					}
					delete(inserted, vAddr)
				}
				inserted[addr] = true
			}
		}
		// Everything believed resident must probe true.
		for a := range inserted {
			if !c.Probe(a) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestHierarchyOutcomes(t *testing.T) {
	h := NewHierarchy(2,
		config.CacheConfig{Size: 1 << 10, Ways: 2, LatencyCyc: 4, LineSize: 64, WriteBack: true},
		config.CacheConfig{Size: 1 << 14, Ways: 4, LatencyCyc: 11, LineSize: 64, WriteBack: true})
	out, lat := h.Access(0, 0x1000, false)
	if out != MissLLC {
		t.Fatalf("cold access outcome = %v", out)
	}
	if lat != 15 {
		t.Fatalf("miss latency = %d, want 4+11", lat)
	}
	out, lat = h.Access(0, 0x1000, false)
	if out != HitL1 || lat != 4 {
		t.Fatalf("second access: %v lat %d", out, lat)
	}
	// Other core's L1 is cold, but shared L2 has the line.
	out, lat = h.Access(1, 0x1000, false)
	if out != HitL2 || lat != 15 {
		t.Fatalf("cross-core access: %v lat %d", out, lat)
	}
}

func TestHierarchyWritebackReachesMemory(t *testing.T) {
	l1 := config.CacheConfig{Size: 128, Ways: 1, LatencyCyc: 4, LineSize: 64, WriteBack: true}
	l2 := config.CacheConfig{Size: 256, Ways: 1, LatencyCyc: 11, LineSize: 64, WriteBack: true}
	h := NewHierarchy(1, l1, l2)
	var wb []uint64
	h.Writeback = func(addr uint64) { wb = append(wb, addr) }
	// Dirty a line, then stream conflicting lines through the tiny L2 to
	// force it out.
	h.Access(0, 0, true)
	for i := uint64(1); i < 16; i++ {
		h.Access(0, i*256, false) // L2 has 4 sets of 1 way: set 0 conflicts every 256B
	}
	found := false
	for _, a := range wb {
		if a == 0 {
			found = true
		}
	}
	if !found {
		t.Fatalf("dirty line 0 never written back; wb=%v", wb)
	}
}

func TestHierarchyMPKIFiltering(t *testing.T) {
	// A working set fitting in L2 but not L1 must produce L2 hits, not LLC
	// misses, after warmup.
	h := NewHierarchy(1,
		config.CacheConfig{Size: 1 << 10, Ways: 2, LatencyCyc: 4, LineSize: 64, WriteBack: true},
		config.CacheConfig{Size: 1 << 16, Ways: 8, LatencyCyc: 11, LineSize: 64, WriteBack: true})
	rng := rand.New(rand.NewSource(3))
	// 32KB working set: fits in 64KB L2, not in 1KB L1.
	warm, miss := 0, 0
	for i := 0; i < 20000; i++ {
		addr := uint64(rng.Intn(512)) * 64
		out, _ := h.Access(0, addr, false)
		if i >= 10000 {
			warm++
			if out == MissLLC {
				miss++
			}
		}
	}
	if miss != 0 {
		t.Fatalf("%d/%d warm accesses missed LLC for an L2-resident set", miss, warm)
	}
}

func TestPanicsOnBadGeometry(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for non-power-of-two sets")
		}
	}()
	New("bad", config.CacheConfig{Size: 3 * 64, Ways: 1, LineSize: 64})
}

func BenchmarkCacheAccess(b *testing.B) {
	c := New("bench", config.CacheConfig{Size: 8 << 20, Ways: 16, LatencyCyc: 11, LineSize: 64, WriteBack: true})
	rng := rand.New(rand.NewSource(1))
	addrs := make([]uint64, 4096)
	for i := range addrs {
		addrs[i] = uint64(rng.Intn(1<<26)) &^ 63
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(addrs[i&4095], i&7 == 0)
	}
}
