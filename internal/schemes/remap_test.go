package schemes

import (
	"fmt"
	"math/rand"
	"testing"

	"silcfm/internal/config"
	"silcfm/internal/mem"
	"silcfm/internal/memunits"
	"silcfm/internal/sim"
	"silcfm/internal/stats"
)

// driveRemap runs n random exchanges through r and through a plain map of
// per-set location arrays, and returns the map. Half the exchanges hit sets
// within 3 of the boundaries of pages 1 and 2, the rest sets on pages 0
// and 1, so page 3 on is never written. Odd exchanges move a random member
// into a random NM location, as CAMEO and PoM do; even ones swap any two
// members, so NM and FM residents also trade among themselves.
func driveRemap[T uint8 | uint16](r *remap[T], seed int64, n int) map[uint64][]int {
	rng := rand.New(rand.NewSource(seed))
	ref := map[uint64][]int{}
	for i := 0; i < n; i++ {
		s := uint64(rng.Intn(2 * memunits.PageRows))
		if i%4 < 2 {
			s = uint64(1+rng.Intn(2))*memunits.PageRows + uint64(rng.Intn(7)) - 3
		}
		locs := refLocs(ref, s, r.members)
		a, b := rng.Intn(r.members), rng.Intn(r.members)
		if i%2 == 1 {
			l := rng.Intn(r.ways)
			for b = range locs {
				if locs[b] == l {
					break
				}
			}
		}
		r.exchange(s, a, b)
		locs[a], locs[b] = locs[b], locs[a]
	}
	return ref
}

// refLocs returns set s's reference locations, the identity until first
// touched.
func refLocs(ref map[uint64][]int, s uint64, members int) []int {
	if ref[s] == nil {
		ref[s] = make([]int, members)
		for m := range ref[s] {
			ref[s][m] = m
		}
	}
	return ref[s]
}

// checkRemap compares r with the reference driveRemap returned: every
// member of every touched set, and of the last set (on a page never
// written), sits at the reference location, at inverts it, and locate,
// when given, places it where want says. The kept foreign count must equal
// a full scan of r: each FM-home member in an NM location has displaced
// one NM-home member into FM, so the scan counts twice the foreign count.
func checkRemap[T uint8 | uint16](r *remap[T], ref map[uint64][]int, locate func(s uint64, m int) mem.Location, want func(s uint64, l int) mem.Location) error {
	if pg := r.perm.Pages(); len(pg) < 4 || pg[len(pg)-1] != nil {
		return fmt.Errorf("%d pages, the last written: no unwritten page is checked", len(pg))
	}
	refLocs(ref, r.sets-1, r.members)
	for s, locs := range ref {
		for m, l := range locs {
			if got := r.loc(s, m); got != l {
				return fmt.Errorf("set %d member %d at %d, flat %d", s, m, got, l)
			}
			if got := r.at(s, l); got != m {
				return fmt.Errorf("set %d location %d holds %d, flat %d", s, l, got, m)
			}
			if locate == nil {
				continue
			}
			if got, w := locate(s, m), want(s, l); got != w {
				return fmt.Errorf("set %d member %d located at %+v, flat %+v", s, m, got, w)
			}
		}
	}
	remapped := uint64(0)
	for s := uint64(0); s < r.sets; s++ {
		for m := 0; m < r.members; m++ {
			if r.inNM(r.loc(s, m)) != (m < r.ways) {
				remapped++
			}
		}
	}
	if remapped != 2*r.foreign {
		return fmt.Errorf("foreign count %d, scan %d/2", r.foreign, remapped)
	}
	return nil
}

// TestPagedPermMatchesFlat: the remap table CAMEO and PoM share, paged and
// XOR-encoded, agrees with a flat reference at both widths. CAMEO's
// geometries (one NM line a group, FM = 4 and 16 NM) run through its uint8
// table and PoM's (ways 1, 2 and 4 over the default machine's capacities)
// through its uint16 one, each Located against the flat address formula;
// PoM's geometries also run through a uint8 table of their own.
func TestPagedPermMatchesFlat(t *testing.T) {
	const exchanges = 2000
	for _, ratio := range []uint64{4, 16} {
		m := config.Small()
		m.NM = config.HBM(1 << 20) // 16384 groups: 4 pages
		m.FM = config.DDR3(ratio << 20)
		sys := mem.NewSystem(m, sim.NewEngine())
		slots := memunits.SubblocksIn(sys.NMCap)
		lineAt := func(g uint64, l int) mem.Location {
			if l == 0 {
				return mem.Location{Level: stats.NM, DevAddr: g * 64}
			}
			return mem.Location{Level: stats.FM, DevAddr: (uint64(l-1)*slots + g) * 64}
		}
		for seed := int64(1); seed <= 4; seed++ {
			c := newCAMEO(sys, 0)
			ref := driveRemap(&c.perm, seed, exchanges)
			locate := func(g uint64, mb int) mem.Location { return c.Locate((uint64(mb)*slots + g) * 64) }
			if err := checkRemap(&c.perm, ref, locate, lineAt); err != nil {
				t.Fatalf("CAMEO FM/NM %d seed %d: %v", ratio, seed, err)
			}
		}
	}
	for _, ways := range []int{1, 2, 4} {
		m := config.Default()
		m.PoM.Ways = ways
		sys := mem.NewSystem(m, sim.NewEngine())
		w, sets, members := m.PoM.Geometry(sys.NMCap, sys.FMCap)
		const idx = 17 // a subblock offset Locate must keep
		blockAt := func(s uint64, l int) mem.Location {
			addr := (uint64(l)*sets+s)*memunits.BlockSize + idx*64
			if l < w {
				return mem.Location{Level: stats.NM, DevAddr: addr}
			}
			return mem.Location{Level: stats.FM, DevAddr: addr - sys.NMCap}
		}
		for seed := int64(1); seed <= 4; seed++ {
			c := newPoM(sys, m.PoM)
			ref := driveRemap(&c.perm, seed, exchanges)
			locate := func(s uint64, mb int) mem.Location {
				return c.Locate((uint64(mb)*sets+s)*memunits.BlockSize + idx*64)
			}
			if err := checkRemap(&c.perm, ref, locate, blockAt); err != nil {
				t.Fatalf("PoM ways %d seed %d: %v", ways, seed, err)
			}
			narrow := newRemap[uint8](sets, w, int(members))
			if err := checkRemap(&narrow, driveRemap(&narrow, seed, exchanges), nil, nil); err != nil {
				t.Fatalf("PoM ways %d seed %d, uint8 table: %v", ways, seed, err)
			}
		}
	}
}
