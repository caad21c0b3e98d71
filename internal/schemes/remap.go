package schemes

import "silcfm/internal/memunits"

// remap is the congruence remap table CAMEO and PoM share (§II-B): one
// mechanism at two granularities, a flat unit being a 64 B line for CAMEO
// and a 2 KB block for PoM. Flat unit u is member u / sets of set u mod
// sets. A set's members trade its locations, location l being member l's
// home, so locations below ways are the set's NM slots and the rest are
// the FM homes of the set's FM members. Either scheme places location l of
// set s at mem.System.HomeLocation of flat unit unit(s, l).
//
// Row s, entry m holds member m's location XOR m, so the identity
// placement is all zeros and a set never exchanged costs no page
// (memunits.Paged). T is uint8 for CAMEO and uint16 for PoM: the machine
// has at most 256 and 65,536 members a set (config.Machine.Validate).
type remap[T uint8 | uint16] struct {
	sets    uint64
	ways    int
	members int
	perm    memunits.Paged[T]
	// foreign counts the NM locations held by FM-home members, kept at
	// every exchange (CAMEO's nm_foreign_lines, PoM's promoted_blocks).
	foreign uint64
}

func newRemap[T uint8 | uint16](sets uint64, ways, members int) remap[T] {
	return remap[T]{sets: sets, ways: ways, members: members, perm: memunits.NewPaged[T](sets, members)}
}

// split returns flat unit u's set and member.
func (r *remap[T]) split(u uint64) (s uint64, m int) { return u % r.sets, int(u / r.sets) }

// unit returns the flat unit whose home is location l of set s.
func (r *remap[T]) unit(s uint64, l int) uint64 { return uint64(l)*r.sets + s }

// loc returns member m of set s's location.
func (r *remap[T]) loc(s uint64, m int) int { return int(r.perm.Get(s, m)) ^ m }

// inNM reports whether location l is one of a set's NM slots.
func (r *remap[T]) inNM(l int) bool { return l < r.ways }

// at returns the member of set s at location l.
func (r *remap[T]) at(s uint64, l int) int {
	for m := 0; m < r.members; m++ {
		if r.loc(s, m) == l {
			return m
		}
	}
	panic("schemes: remap row is not a permutation")
}

// exchange swaps the locations of members a and b of set s.
func (r *remap[T]) exchange(s uint64, a, b int) {
	row := r.perm.Row(s)
	la, lb := int(row[a])^a, int(row[b])^b
	r.foreign -= r.held(a, la) + r.held(b, lb)
	row[a], row[b] = T(lb^a), T(la^b)
	r.foreign += r.held(a, lb) + r.held(b, la)
}

// held is 1 when member m at location l is an FM-home member holding an
// NM slot, else 0.
func (r *remap[T]) held(m, l int) uint64 {
	if m >= r.ways && r.inNM(l) {
		return 1
	}
	return 0
}
