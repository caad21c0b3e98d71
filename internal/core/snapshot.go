package core

import "silcfm/internal/memunits"

// Snapshot summarizes the controller's frame state at one instant, for
// introspection in tests, examples and ablation studies.
type Snapshot struct {
	Frames            int
	Sets              int
	Ways              int
	Interleaved       int // frames hosting a remapped FM block
	Locked            int
	LockedHome        int // of Locked, frames pinning their home block
	FullyResident     int // interleaved frames with all 32 subblocks in NM
	ResidentSubblocks int // total swapped-in subblocks across frames
	// BitsHistogram[k] counts interleaved frames with exactly k resident
	// subblocks (k in 0..32).
	BitsHistogram [memunits.SubblocksPerBlock + 1]int
	// SetOccupancy[w] counts sets with exactly w interleaved ways.
	SetOccupancy []int
}

// Snapshot captures the current frame state. It allocates its occupancy
// table on every call: it is the debugging view, not the epoch path.
func (c *Controller) Snapshot() Snapshot {
	fs := c.fs
	s := Snapshot{
		Frames:       len(fs.frames),
		Sets:         int(fs.sets),
		Ways:         fs.ways,
		SetOccupancy: make([]int, fs.ways+1),
	}
	n := fs.recount()
	s.Locked, s.LockedHome = n.locked, n.lockedHome
	s.Interleaved, s.ResidentSubblocks = n.interleaved, n.resident
	for set := uint64(0); set < fs.sets; set++ {
		occupied := 0
		for _, fr := range fs.set(set) {
			if !fr.interleaved() {
				continue
			}
			occupied++
			k := fr.bits.Count()
			s.BitsHistogram[k]++
			if k == memunits.SubblocksPerBlock {
				s.FullyResident++
			}
		}
		s.SetOccupancy[occupied]++
	}
	return s
}
