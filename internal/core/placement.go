package core

import (
	"silcfm/internal/config"
	"silcfm/internal/memunits"
	"silcfm/internal/stats"
)

// placement is SILC-FM's placement machine (§III, Table I): the frame
// table, bit vector history, way/location predictor, bypass governor and
// aging clock (the gem5 SILC header's rmpEntry). Each step mutates that
// state and returns the moves it decided, in order, in one reused buffer;
// it holds no engine or device, so the cycle arrives as an argument and
// the Controller shell replays the moves. Table I takes two steps, demand
// and settle, because the shell issues the demand between them: issue-time
// observers see LockState and Locate after the counter and bit updates and
// before any restore, install, history replay or lock.
type placement struct {
	cfg      config.SILCConfig
	nmBlocks uint64
	ctrMax   uint8
	fs       *frameSet
	hist     *historyTable
	pred     *predictor
	gov      *bypassGovernor

	accesses          uint64
	restores          uint64 // interleaved blocks restored whole (victimization)
	historyPrefetches uint64 // subblocks swapped in by history replay
	moves             []move
}

// moveKind names one step of a placement decision. src and dst are flat
// block numbers (an NM frame's id is its home block's number), or a set.
type moveKind uint8

const (
	moveServe     moveKind = iota // the demand, served at subblock idx of src
	moveDemandIn                  // the demand at FM block src, swapped into frame dst (row 2)
	moveDemandOut                 // the demand at interleaved block src, swapped back to its home dst (row 3)
	moveSwapIn                    // subblock idx of FM block src exchanged into frame dst
	moveSwapOut                   // subblock idx of frame src returned to block dst's FM home
	moveMetaWrite                 // set src's remap line written back
	moveLock                      // frame src pins block dst, its own block when src == dst
	moveUnlock                    // frame src releases block dst
)

// move is one step the shell replays; path is a demand's path before any
// mispredict.
type move struct {
	kind     moveKind
	idx      uint
	path     stats.DemandPath
	src, dst uint64
}

// newPlacement builds the placement state of nmBlocks NM frames.
func newPlacement(nmBlocks uint64, cfg config.SILCConfig) *placement {
	return &placement{
		cfg:      cfg,
		nmBlocks: nmBlocks,
		ctrMax:   counterMax(cfg.CounterBits),
		fs:       newFrameSet(nmBlocks, cfg.Features.Ways),
		hist:     newHistoryTable(cfg.HistoryEntries),
		pred:     newPredictor(cfg.PredictorEntries),
		gov:      newBypassGovernor(cfg.Features.Bypass, cfg.BypassTarget),
		// A step moves at most every subblock out and in, plus a lock and
		// two metadata writes; only an aging pass may need more.
		moves: make([]move, 0, 2*memunits.SubblocksPerBlock+3),
	}
}

// add appends mv to the step's moves.
func (m *placement) add(mv move) { m.moves = append(m.moves, mv) }

// holder returns the block whose home holds subblock idx of block b. NM
// frame f is flat block f's home.
func (m *placement) holder(b uint64, idx uint) uint64 {
	f, fr := m.fs.lookup(b)
	switch {
	case !fr.swapped(idx):
		return b
	case b < m.nmBlocks:
		return fr.block()
	}
	return f
}

// check runs the Handle-time part of an access by pc to subblock idx of
// block b at pa: it counts it, ages the counters every AgingInterval
// accesses (returning the unlocks) and consults and trains the predictor
// (§III-F); checked is false when that is off.
func (m *placement) check(b uint64, idx uint, pc, pa uint64) (unlocks []move, hit, checked bool) {
	m.moves = m.moves[:0]
	if m.accesses++; m.cfg.AgingInterval > 0 && m.accesses%m.cfg.AgingInterval == 0 {
		m.age()
	}
	if !m.cfg.Features.Predictor {
		return m.moves, false, false
	}
	h := m.holder(b, idx)
	inNM, way := h < m.nmBlocks, uint8(0)
	if inNM {
		way = uint8(m.fs.wayOf(h))
	}
	return m.moves, m.pred.check(pc, pa, inNM, way), true
}

// age right-shifts every activity counter (the paper's aging at 1 M-access
// boundaries) and unlocks the frames whose block cooled. An unlocked
// interleaved block keeps all its subblocks resident (bits stay Full) and
// simply rejoins normal swapping (§III-C). Frames are visited in frame-id
// order (way-major over the set-major table), so unlocks come in ascending
// frame order.
func (m *placement) age() {
	fs := m.fs
	for w := 0; w < fs.ways; w++ {
		for s := uint64(0); s < fs.sets; s++ {
			fr := &fs.set(s)[w]
			fr.nmCtr >>= 1
			fr.fmCtr >>= 1
			if !fr.locked {
				continue
			}
			f := fs.frameID(s, w)
			hot, blk := uint32(fr.fmCtr), fr.block()
			if fr.lockHome {
				hot, blk = uint32(fr.nmCtr), f
			}
			// Hysteresis: a block rejoins swapping only once it cools to
			// half the locking threshold, avoiding churn at the boundary.
			if hot < m.cfg.HotThreshold/2 {
				fs.setLock(fr, false, false)
				m.add(move{kind: moveUnlock, src: f, dst: blk})
			}
		}
	}
}

// demand runs the first step of Table I for subblock idx of block b at
// cycle now: it stamps and bumps the activity counter, updates the bit
// vector of a demand swap and feeds the bypass governor, and returns the
// demand move, followed by the metadata write-back a swap needs. It also
// returns b's frame and its id, as lookup does, for settle.
func (m *placement) demand(b uint64, idx uint, now uint64) (f uint64, fr *frame, moves []move) {
	m.moves = m.moves[:0]
	f, fr = m.fs.lookup(b)
	if fr == nil {
		// No frame in the set holds this FM block: serve it from FM; settle
		// decides whether to start interleaving it (rows 5 and 6). Unlike
		// the bypass check below, this one counts the miss first.
		m.gov.record(false)
		path := stats.PathFM
		if m.gov.bypassing() {
			path = stats.PathBypass
		}
		m.add(move{kind: moveServe, path: path, idx: idx, src: b})
		return f, fr, m.moves
	}
	// The subblock sits either in NM, at near, or at far's FM home: an NM
	// block's own subblock is near unless swapped out to the interleaved
	// block's home; an FM block's is near only once swapped into frame f.
	home := b < m.nmBlocks
	fr.lastUse = now
	near, far, ctr := f, b, &fr.fmCtr
	if home {
		near, far, ctr = b, fr.block(), &fr.nmCtr
	}
	bump(ctr, m.ctrMax)
	switch {
	case home != fr.swapped(idx):
		m.serve(true, stats.PathNMHit, idx, near) // rows 1 and 4
	case fr.locked:
		// Only a home access finds its frame locked and its subblock far:
		// the frame pins the interleaved block, so serve it where it sits.
		m.serve(false, stats.PathFM, idx, far)
	case m.gov.bypassing():
		m.serve(false, stats.PathBypass, idx, far)
	case home:
		// Row 3: swap the home subblock back from FM; the interleaved
		// block's subblock returns to its FM home.
		m.fs.clearBit(fr, idx)
		m.swap(moveDemandOut, idx, far, near)
	default:
		// Row 2: remap match, bit clear -> swap the subblock in.
		m.fs.setBit(fr, idx)
		m.swap(moveDemandIn, idx, far, near)
	}
	return f, fr, m.moves
}

// serve records a demand served in place, from NM when nm is set.
func (m *placement) serve(nm bool, path stats.DemandPath, idx uint, src uint64) {
	m.gov.record(nm)
	m.add(move{kind: moveServe, path: path, idx: idx, src: src})
}

// swap records a demand served from FM while it swaps (Figure 2's
// interleaved swap), and the set's metadata write-back.
func (m *placement) swap(kind moveKind, idx uint, src, dst uint64) {
	m.gov.record(false)
	m.add(move{kind: kind, path: stats.PathSwap, idx: idx, src: src, dst: dst})
	m.add(move{kind: moveMetaWrite, src: m.fs.setOf(dst)})
}

// settle runs the second step of Table I for the access demand just
// served, given the frame f (fr) demand returned: nothing runs between the
// two steps but the demand's issue, so that is still b's frame. A block
// whose counter crossed the hot threshold locks, and an FM block no frame
// holds is installed over a victim unless bypassing.
func (m *placement) settle(b, f uint64, fr *frame, idx uint, pc, pa, now uint64) []move {
	m.moves = m.moves[:0]
	switch {
	case b < m.nmBlocks:
		m.lockHome(b, fr)
	case fr != nil:
		m.lockRemap(f, fr)
	case !m.gov.bypassing():
		m.install(b, idx, pc, pa, now)
	}
	return m.moves
}

// install interleaves FM block b into its set's victim frame, restoring
// the victim's interleaved block first (Table I rows 5 and 6), swaps in
// the demanded subblock (served from FM already) and replays the bit
// vector history: previously useful subblocks swap in together (§III-A),
// the scheme's spatial-locality edge over CAMEO.
func (m *placement) install(b uint64, idx uint, pc, pa, now uint64) {
	s := m.fs.setOf(b)
	v, vf := m.fs.victim(s)
	if vf == nil {
		return // every way locked
	}
	if vf.interleaved() {
		m.restore(v, vf)
	}
	m.fs.setRemap(vf, b)
	vf.fmCtr = 1
	vf.lastUse = now
	vf.hist = histHash(pc, pa)
	m.swapIn(v, vf, 1<<idx)
	if m.cfg.Features.BitVecHistory {
		m.historyPrefetches += m.swapIn(v, vf, m.hist.lookup(pc, pa))
	}
	m.add(move{kind: moveMetaWrite, src: s})
	m.lockRemap(v, vf)
}

// swapIn swaps each subblock of vec that frame f (fr) does not hold yet in
// from the interleaved block's FM home, in ascending subblock order, and
// returns how many it moved.
func (m *placement) swapIn(f uint64, fr *frame, vec memunits.BitVector) uint64 {
	var n uint64
	for i := uint(0); i < memunits.SubblocksPerBlock; i++ {
		if vec.Test(i) && !fr.bits.Test(i) {
			m.fs.setBit(fr, i)
			m.add(move{kind: moveSwapIn, idx: i, src: fr.block(), dst: f})
			n++
		}
	}
	return n
}

// restore returns the block interleaved in the unlocked frame f (fr) to
// its FM home entirely, saving the bit vector in the history table.
func (m *placement) restore(f uint64, fr *frame) {
	m.restores++
	m.hist.save(fr.hist, fr.bits)
	for i := uint(0); i < memunits.SubblocksPerBlock; i++ {
		if fr.bits.Test(i) {
			m.add(move{kind: moveSwapOut, idx: i, src: f, dst: fr.block()})
		}
	}
	m.fs.clearRemap(fr)
	fr.fmCtr = 0
}

// lockRemap locks the FM block interleaved in frame f (fr) when its
// counter crosses the hotness threshold, completing the large-block remap
// by swapping in all missing subblocks (§III-C).
func (m *placement) lockRemap(f uint64, fr *frame) {
	if !m.cfg.Features.Locking || fr.locked || !fr.interleaved() || uint32(fr.fmCtr) < m.cfg.HotThreshold || fr.fmCtr < fr.nmCtr {
		return
	}
	// §III-E: bandwidth balancing suppresses new swaps, and completing a
	// lock pulls in every missing subblock — defer until bypassing clears
	// (the counters stay hot, so the next access retries).
	if m.gov.bypassing() {
		return
	}
	m.swapIn(f, fr, memunits.Full)
	m.fs.setLock(fr, true, false)
	m.add(move{kind: moveLock, src: f, dst: fr.block()})
	m.add(move{kind: moveMetaWrite, src: m.fs.setOf(f)})
}

// lockHome locks frame b (fr) to protect a hot home block from being
// victimized by interleaving; any swapped-out home subblocks are restored
// first.
func (m *placement) lockHome(b uint64, fr *frame) {
	if !m.cfg.Features.Locking || fr.locked || uint32(fr.nmCtr) < m.cfg.HotThreshold || fr.nmCtr < fr.fmCtr {
		return
	}
	if fr.interleaved() {
		// Restoring the interleaved block is swap traffic; defer the lock
		// while the governor is balancing bandwidth (§III-E).
		if m.gov.bypassing() {
			return
		}
		m.restore(b, fr)
	}
	m.fs.setLock(fr, true, true)
	m.add(move{kind: moveLock, src: b, dst: b})
	m.add(move{kind: moveMetaWrite, src: m.fs.setOf(b)})
}
