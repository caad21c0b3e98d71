package telemetry

import (
	"fmt"
	"io"
	"strconv"

	"silcfm/internal/mem"
	"silcfm/internal/memunits"
	"silcfm/internal/stats"
)

// DefaultProfileMaxEntries bounds each profile table (blocks, PCs) of every
// profiler telemetry attaches. New keys arriving at the cap are counted
// as dropped rather than evicting old ones, so the set of profiled keys is a
// deterministic function of the access stream.
const DefaultProfileMaxEntries = 1 << 15

// BlockProfile aggregates activity for one flat 2 KB block: demand traffic
// (counted at completion, so latencies are final), subblock swap churn,
// lock transitions and bypass/mispredict pressure.
type BlockProfile struct {
	Block    uint64 `json:"block"`
	Demands  uint64 `json:"demands"`
	Writes   uint64 `json:"writes"`
	LatSum   uint64 `json:"lat_cycles"`
	SwapsIn  uint64 `json:"swaps_in"`  // subblocks delivered into NM
	SwapsOut uint64 `json:"swaps_out"` // subblocks delivered back to FM
	Locks    uint64 `json:"locks"`
	Unlocks  uint64 `json:"unlocks"`
	Bypass   uint64 `json:"bypass"`
	Mispred  uint64 `json:"mispredicts"`
}

// PCProfile aggregates demand activity for one program counter.
type PCProfile struct {
	PC      uint64 `json:"pc"`
	Demands uint64 `json:"demands"`
	Writes  uint64 `json:"writes"`
	LatSum  uint64 `json:"lat_cycles"`
	Swaps   uint64 `json:"swaps"` // demands that rode a swap's critical path
	Bypass  uint64 `json:"bypass"`
	Mispred uint64 `json:"mispredicts"`
}

// Profiler accumulates bounded per-block and per-PC hotness profiles from
// the observer stream. It implements mem.Observer, mem.SchemeObserver and
// mem.DemandObserver; it only increments counters — it never schedules
// events or touches simulation state — so attaching it is provably inert.
//
// Demand counts and latencies are recorded at completion (DemandComplete)
// and keyed by the flat physical block of the access, which is
// movement-invariant. Swap churn is recorded per delivered subblock and
// keyed by the flat home block of the FM endpoint of the transfer: for
// remapping schemes (SILC, CAMEO) the FM device address IS the block's home,
// so the key identifies the migrating block exactly; for HMA's
// permutation-based mapping it identifies the FM frame involved, which is an
// approximation documented in README.md.
type Profiler struct {
	nmBlocks uint64 // NM capacity in 2 KB blocks; FM home block b lives at flat block nmBlocks+b

	blocks *stats.BoundedTable[BlockProfile]
	pcs    *stats.BoundedTable[PCProfile]
}

// NewProfiler builds a profiler over sys's geometry holding at most
// maxEntries blocks and maxEntries PCs (<=0 selects the default).
func NewProfiler(sys *mem.System, maxEntries int) *Profiler {
	if maxEntries <= 0 {
		maxEntries = DefaultProfileMaxEntries
	}
	return &Profiler{
		nmBlocks: memunits.BlocksIn(sys.NMCap),
		blocks:   stats.NewBoundedTable[BlockProfile](maxEntries),
		pcs:      stats.NewBoundedTable[PCProfile](maxEntries),
	}
}

// fmHomeBlock keys a transfer by its FM endpoint's flat home block.
func (p *Profiler) fmHomeBlock(loc mem.Location) (uint64, bool) {
	if loc.Level != stats.FM {
		return 0, false
	}
	return p.nmBlocks + memunits.BlockOf(loc.DevAddr), true
}

// churn charges one delivered subblock moving src -> dst.
func (p *Profiler) churn(src, dst mem.Location) {
	if b, ok := p.fmHomeBlock(src); ok && dst.Level == stats.NM {
		if bp := p.blocks.Get(b); bp != nil {
			bp.SwapsIn++
		}
		return
	}
	if b, ok := p.fmHomeBlock(dst); ok && src.Level == stats.NM {
		if bp := p.blocks.Get(b); bp != nil {
			bp.SwapsOut++
		}
	}
}

// Demand implements mem.Observer. Demands are profiled at completion
// instead (DemandComplete), where the path and latency are known.
func (p *Profiler) Demand(pa uint64, loc mem.Location, write bool) {}

// Capture implements mem.Observer.
func (p *Profiler) Capture(loc mem.Location) {}

// Deliver implements mem.Observer.
func (p *Profiler) Deliver(src, dst mem.Location) { p.churn(src, dst) }

// Relocate implements mem.Observer.
func (p *Profiler) Relocate(src, dst mem.Location) { p.churn(src, dst) }

// Swap implements mem.SchemeObserver. The data movement of a swap arrives
// as Deliver pairs, so the initiation event itself carries no extra churn.
func (p *Profiler) Swap(a, b mem.Location) {}

// Lock implements mem.SchemeObserver.
func (p *Profiler) Lock(frame, block uint64, home bool) {
	if bp := p.blocks.Get(block); bp != nil {
		bp.Locks++
	}
}

// Unlock implements mem.SchemeObserver.
func (p *Profiler) Unlock(frame, block uint64) {
	if bp := p.blocks.Get(block); bp != nil {
		bp.Unlocks++
	}
}

// DemandComplete implements mem.DemandObserver.
func (p *Profiler) DemandComplete(a *mem.Access, path stats.DemandPath, lat uint64) {
	if bp := p.blocks.Get(memunits.BlockOf(a.PAddr)); bp != nil {
		bp.Demands++
		bp.LatSum += lat
		if a.Write {
			bp.Writes++
		}
		switch path {
		case stats.PathBypass:
			bp.Bypass++
		case stats.PathMispredict:
			bp.Mispred++
		}
	}
	if pp := p.pcs.Get(a.PC); pp != nil {
		pp.Demands++
		pp.LatSum += lat
		if a.Write {
			pp.Writes++
		}
		switch path {
		case stats.PathSwap:
			pp.Swaps++
		case stats.PathBypass:
			pp.Bypass++
		case stats.PathMispredict:
			pp.Mispred++
		}
	}
}

// Counts reports (blocks, pcs, droppedBlocks, droppedPCs).
func (p *Profiler) Counts() (blocks, pcs int, droppedBlocks, droppedPCs uint64) {
	return p.blocks.Len(), p.pcs.Len(), p.blocks.Dropped(), p.pcs.Dropped()
}

// sortedPositions returns t's positions in key order, in buf or tmp, both
// of length at least t.Len(). It is an LSD radix sort on the key bytes that
// skips each byte all keys share, so a table of keys below 2^24 (blocks of
// 32 GiB, PCs) takes at most three scatter passes. Keys are distinct, so
// the order is total; positions fit in 32 bits, as in the table's slots.
func sortedPositions[V any](t *stats.BoundedTable[V], buf, tmp []uint32) []uint32 {
	n := t.Len()
	buf, tmp = buf[:n], tmp[:n]
	var counts [8][256]int
	for i := range buf {
		buf[i] = uint32(i)
		k := t.Key(i)
		for d := range counts {
			counts[d][byte(k>>(8*d))]++
		}
	}
	for d := range counts {
		c := &counts[d]
		if n == 0 || c[byte(t.Key(0)>>(8*d))] == n {
			continue // every key has this byte
		}
		sum := 0
		for b, m := range c {
			c[b], sum = sum, sum+m
		}
		for _, p := range buf {
			b := byte(t.Key(int(p)) >> (8 * d))
			tmp[c[b]] = p
			c[b]++
		}
		buf, tmp = tmp, buf
	}
	return buf
}

// appendField appends one `,"name":value` member; name carries the comma,
// quotes and colon.
func appendField(buf []byte, name string, v uint64) []byte {
	return strconv.AppendUint(append(buf, name...), v, 10)
}

// WriteJSONL streams every profile entry as one JSON object per line —
// block entries (key ascending), then PC entries (key ascending), then a
// summary line — so output is byte-deterministic for a fixed run. Lines are
// appended by hand in the member order and number format of encoding/json
// on the kind followed by the struct's fields (the test-only reference
// encoder).
func (p *Profiler) WriteJSONL(w io.Writer) error {
	bw := newBufWriter(w)
	n := max(p.blocks.Len(), p.pcs.Len())
	buf, tmp := make([]uint32, n), make([]uint32, n)
	for _, i := range sortedPositions(p.blocks, buf, tmp) {
		b := p.blocks.Value(int(i))
		bw.buf = appendField(bw.buf, `{"kind":"block","block":`, p.blocks.Key(int(i)))
		bw.buf = appendField(bw.buf, `,"demands":`, b.Demands)
		bw.buf = appendField(bw.buf, `,"writes":`, b.Writes)
		bw.buf = appendField(bw.buf, `,"lat_cycles":`, b.LatSum)
		bw.buf = appendField(bw.buf, `,"swaps_in":`, b.SwapsIn)
		bw.buf = appendField(bw.buf, `,"swaps_out":`, b.SwapsOut)
		bw.buf = appendField(bw.buf, `,"locks":`, b.Locks)
		bw.buf = appendField(bw.buf, `,"unlocks":`, b.Unlocks)
		bw.buf = appendField(bw.buf, `,"bypass":`, b.Bypass)
		bw.buf = appendField(bw.buf, `,"mispredicts":`, b.Mispred)
		bw.buf = append(bw.buf, "}\n"...)
		bw.flushFull()
	}
	for _, i := range sortedPositions(p.pcs, buf, tmp) {
		c := p.pcs.Value(int(i))
		bw.buf = appendField(bw.buf, `{"kind":"pc","pc":`, p.pcs.Key(int(i)))
		bw.buf = appendField(bw.buf, `,"demands":`, c.Demands)
		bw.buf = appendField(bw.buf, `,"writes":`, c.Writes)
		bw.buf = appendField(bw.buf, `,"lat_cycles":`, c.LatSum)
		bw.buf = appendField(bw.buf, `,"swaps":`, c.Swaps)
		bw.buf = appendField(bw.buf, `,"bypass":`, c.Bypass)
		bw.buf = appendField(bw.buf, `,"mispredicts":`, c.Mispred)
		bw.buf = append(bw.buf, "}\n"...)
		bw.flushFull()
	}
	bw.buf = appendField(bw.buf, `{"kind":"summary","blocks":`, uint64(p.blocks.Len()))
	bw.buf = appendField(bw.buf, `,"pcs":`, uint64(p.pcs.Len()))
	bw.buf = appendField(bw.buf, `,"dropped_blocks":`, p.blocks.Dropped())
	bw.buf = appendField(bw.buf, `,"dropped_pcs":`, p.pcs.Dropped())
	bw.buf = append(bw.buf, "}\n"...)
	return bw.flush()
}

// hotterBlock and hotterPC order profiles for the top-offender tables:
// demand count descending, then churn descending, then key ascending (a
// total, deterministic order).
func hotterBlock(a, b *BlockProfile) bool {
	if a.Demands != b.Demands {
		return a.Demands > b.Demands
	}
	if ca, cb := a.SwapsIn+a.SwapsOut, b.SwapsIn+b.SwapsOut; ca != cb {
		return ca > cb
	}
	return a.Block < b.Block
}

func hotterPC(a, b *PCProfile) bool {
	if a.Demands != b.Demands {
		return a.Demands > b.Demands
	}
	if a.Swaps != b.Swaps {
		return a.Swaps > b.Swaps
	}
	return a.PC < b.PC
}

func meanLat(sum, n uint64) string {
	if n == 0 {
		return "-"
	}
	return fmt.Sprintf("%.1f", float64(sum)/float64(n))
}

// TopOffenders renders the k hottest blocks and PCs as aligned tables.
func (p *Profiler) TopOffenders(k int) string {
	if k <= 0 {
		k = 10
	}
	topBlocks := stats.NewTopK(k, hotterBlock)
	for i := 0; i < p.blocks.Len(); i++ {
		b := p.blocks.Value(i)
		b.Block = p.blocks.Key(i)
		topBlocks.Insert(b)
	}
	blocks := topBlocks.Sorted()
	bt := &stats.Table{
		Title:   fmt.Sprintf("top %d blocks by demand (of %d profiled, %d dropped)", len(blocks), p.blocks.Len(), p.blocks.Dropped()),
		Columns: []string{"block", "demands", "writes", "mean_lat", "swaps_in", "swaps_out", "locks", "unlocks", "bypass", "mispred"},
	}
	u := func(v uint64) string { return strconv.FormatUint(v, 10) }
	for _, b := range blocks {
		bt.AddRow(u(b.Block), u(b.Demands), u(b.Writes), meanLat(b.LatSum, b.Demands),
			u(b.SwapsIn), u(b.SwapsOut), u(b.Locks), u(b.Unlocks), u(b.Bypass), u(b.Mispred))
	}

	topPCs := stats.NewTopK(k, hotterPC)
	for i := 0; i < p.pcs.Len(); i++ {
		c := p.pcs.Value(i)
		c.PC = p.pcs.Key(i)
		topPCs.Insert(c)
	}
	pcs := topPCs.Sorted()
	pt := &stats.Table{
		Title:   fmt.Sprintf("top %d PCs by demand (of %d profiled, %d dropped)", len(pcs), p.pcs.Len(), p.pcs.Dropped()),
		Columns: []string{"pc", "demands", "writes", "mean_lat", "swaps", "bypass", "mispred"},
	}
	for _, c := range pcs {
		pt.AddRow("0x"+strconv.FormatUint(c.PC, 16), u(c.Demands), u(c.Writes),
			meanLat(c.LatSum, c.Demands), u(c.Swaps), u(c.Bypass), u(c.Mispred))
	}
	return bt.String() + "\n" + pt.String()
}
