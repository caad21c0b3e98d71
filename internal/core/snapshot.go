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

// Snapshot captures the current frame state. It allocates its per-set
// tables on every call: it is the debugging view, not the epoch path.
func (c *Controller) Snapshot() Snapshot {
	s := Snapshot{
		Frames:       len(c.fs.frames),
		Sets:         int(c.fs.sets),
		Ways:         c.fs.ways,
		SetOccupancy: make([]int, c.fs.ways+1),
	}
	n := c.fs.recount()
	s.Locked, s.LockedHome = n.locked, n.lockedHome
	s.Interleaved, s.ResidentSubblocks = n.interleaved, n.resident
	perSet := make([]int, c.fs.sets)
	for i := range c.fs.frames {
		fr := &c.fs.frames[i]
		if !fr.interleaved() {
			continue
		}
		perSet[c.fs.setOf(uint64(i))]++
		n := fr.bits.Count()
		s.BitsHistogram[n]++
		if n == memunits.SubblocksPerBlock {
			s.FullyResident++
		}
	}
	for _, n := range perSet {
		s.SetOccupancy[n]++
	}
	return s
}

// MeanResidency returns the average number of resident subblocks per
// interleaved frame (0 when nothing is interleaved).
func (s Snapshot) MeanResidency() float64 {
	if s.Interleaved == 0 {
		return 0
	}
	return float64(s.ResidentSubblocks) / float64(s.Interleaved)
}
