package cache

import (
	"math/rand"
	"testing"

	"silcfm/internal/config"
)

// refCache is a reference true-LRU cache in the plainest form: one line
// struct per way with a global access timestamp, victim = first invalid
// way, else the smallest timestamp.
type refCache struct {
	sets, lineSize uint64
	ways           int
	lines          []refLine
	clock          uint64

	hits, misses, writebacks uint64
}

type refLine struct {
	valid, dirty bool
	tag, used    uint64
}

func newRef(sets uint64, ways int, lineSize uint64) *refCache {
	return &refCache{sets: sets, lineSize: lineSize, ways: ways, lines: make([]refLine, sets*uint64(ways))}
}

func (r *refCache) set(addr uint64) ([]refLine, uint64, uint64) {
	blk := addr / r.lineSize
	s := blk % r.sets
	return r.lines[s*uint64(r.ways) : (s+1)*uint64(r.ways)], s, blk / r.sets
}

func (r *refCache) access(addr uint64, write bool) (hit bool, vAddr uint64, vValid, vDirty bool) {
	ls, s, tag := r.set(addr)
	r.clock++
	for i := range ls {
		if ls[i].valid && ls[i].tag == tag {
			r.hits++
			ls[i].used = r.clock
			ls[i].dirty = ls[i].dirty || write
			return true, 0, false, false
		}
	}
	r.misses++
	v := -1
	for i := range ls {
		if !ls[i].valid {
			v = i
			break
		}
	}
	if v < 0 {
		v = 0
		for i := range ls {
			if ls[i].used < ls[v].used {
				v = i
			}
		}
		vValid, vDirty = true, ls[v].dirty
		vAddr = (ls[v].tag*r.sets + s) * r.lineSize
		if vDirty {
			r.writebacks++
		}
	}
	ls[v] = refLine{valid: true, dirty: write, tag: tag, used: r.clock}
	return false, vAddr, vValid, vDirty
}

// TestDifferentialRecencyStackVsTimestampLRU drives the packed cache and
// the reference timestamp-LRU model with identical random read and write
// streams at every supported power-of-two associativity, and requires
// identical hits, victims and dirty bits access for access, and identical
// hit, miss and dirty-victim totals counted from Access's return values.
func TestDifferentialRecencyStackVsTimestampLRU(t *testing.T) {
	for _, ways := range []int{1, 2, 4, 8, 16} {
		const sets, line = 8, 64
		cfg := config.CacheConfig{Size: sets * line * uint64(ways), Ways: ways, LineSize: line}
		for seed := int64(1); seed <= 8; seed++ {
			c := New("dut", cfg)
			ref := newRef(sets, ways, line)
			rng := rand.New(rand.NewSource(seed))
			// A footprint of 3x the capacity keeps every set under
			// eviction pressure while still producing frequent hits.
			lines := uint64(3 * sets * ways)
			var hits, misses, writebacks uint64
			for i := 0; i < 20000; i++ {
				addr := uint64(rng.Int63n(int64(lines)))*line + uint64(rng.Intn(line))
				write := rng.Intn(10) <= 3
				gh, ga, gv, gdirty := c.Access(addr, write)
				wh, wa, wv, wdirty := ref.access(addr, write)
				if gh != wh || ga != wa || gv != wv || gdirty != wdirty {
					t.Fatalf("ways=%d seed=%d op %d: Access(%#x, %v) = (%v,%#x,%v,%v), reference (%v,%#x,%v,%v)",
						ways, seed, i, addr, write, gh, ga, gv, gdirty, wh, wa, wv, wdirty)
				}
				if gh {
					hits++
				} else {
					misses++
				}
				if gv && gdirty {
					writebacks++
				}
			}
			if hits != ref.hits || misses != ref.misses || writebacks != ref.writebacks {
				t.Fatalf("ways=%d seed=%d: counters hits/misses/wb = %d/%d/%d, reference %d/%d/%d",
					ways, seed, hits, misses, writebacks, ref.hits, ref.misses, ref.writebacks)
			}
		}
	}
}

// TestTouchRotatesToFront pins the recency-stack primitive: touching the
// way at any depth moves it to the front and shifts only the shallower
// entries down by one.
func TestTouchRotatesToFront(t *testing.T) {
	for depth := 0; depth < 16; depth++ {
		w := int(identityStack>>(4*uint(depth))) & 0xF
		got := touch(identityStack, w)
		for k := 0; k < 16; k++ {
			want := k
			switch {
			case k == 0:
				want = w
			case k <= depth:
				want = k - 1
			}
			if n := int(got>>(4*uint(k))) & 0xF; n != want {
				t.Fatalf("touch(identity, %d): nibble %d = %d, want %d (stack %#x)", w, k, n, want, got)
			}
		}
	}
}
