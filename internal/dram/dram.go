// Package dram implements an event-driven DRAM device timing model in the
// spirit of Ramulator, at the fidelity the paper's evaluation depends on:
// per-channel command scheduling with FR-FCFS read prioritization and write
// draining, per-bank row-buffer state under an open-page policy, tCAS /
// tRCD / tRP / tRAS / tWR timing, burst-occupied data buses and bounded
// scheduling windows (Table II: 32-entry read and write queues per channel).
//
// One Device models one memory level (the HBM near memory or the DDR3 far
// memory). Addresses given to a Device are device-local physical addresses
// in [0, Capacity).
package dram

import (
	"silcfm/internal/config"
	"silcfm/internal/sim"
)

// Request is one transfer submitted to a device.
type Request struct {
	Addr  uint64 // device-local byte address
	Write bool
	Bytes uint64 // transfer size; 64 for a cache line
	// MetaBytes models metadata carried in an extended burst (CAMEO keeps
	// the remap entry next to data and lengthens the burst; §II-B).
	MetaBytes uint64
	// Background marks a read that is not on any demand path (metadata
	// verification, speculative traffic): it is scheduled at write
	// priority so demand reads are never delayed behind it.
	Background bool
	// Done is invoked at completion time. May be nil (typical for writes).
	Done func()
	// Trace, when non-nil, receives the request's latency decomposition at
	// completion time, immediately before Done: service is the minimal
	// device-service time for the observed row outcome (precharge/activate
	// + column + burst) and queue is everything else the request waited on
	// (scheduling window, bank readiness, bus, refresh). queue + service
	// always equals completion - arrival exactly.
	Trace func(queue, service uint64)
}

// Stats holds per-device counters.
type Stats struct {
	Reads, Writes           uint64
	BytesRead, BytesWritten uint64
	// BytesMeta counts metadata carried in extended bursts (Request.
	// MetaBytes); kept apart so BytesRead/BytesWritten stay payload-only.
	BytesMeta uint64
	// RowHits/RowMisses are the row-buffer outcome per access, derived by
	// Stats from the per-bank ledger (conflicts count as misses).
	RowHits, RowMisses uint64
	Activations        uint64
	Refreshes          uint64 // periodic all-bank refreshes applied
	BusBusyCycles      uint64 // sum of burst occupancy over channels
	DynamicEnergyPJ    float64
	ReadLatency        LatencySummary
}

// LatencySummary accumulates request latencies without storing samples.
type LatencySummary struct {
	N   uint64
	Sum uint64
	Max uint64
}

// Add records one latency sample.
func (l *LatencySummary) Add(v uint64) {
	l.N++
	l.Sum += v
	if v > l.Max {
		l.Max = v
	}
}

// Mean returns the average latency.
func (l *LatencySummary) Mean() float64 {
	if l.N == 0 {
		return 0
	}
	return float64(l.Sum) / float64(l.N)
}

// BankCounters is the cumulative microarchitectural ledger of one bank.
// RowHits/RowMisses/RowConflicts count row-buffer outcomes by bank; Stats
// sums them into the device's RowHits/RowMisses pair (RowMisses here counts
// closed-bank misses only; the aggregate folds conflicts in). BusyCycles
// sums the cycles the bank spent executing commands (precharge/activate/
// column/burst/recovery); RefreshCloses counts rows force-closed by
// periodic refresh.
type BankCounters struct {
	RowHits       uint64
	RowMisses     uint64 // closed-bank activates
	RowConflicts  uint64 // precharge-then-activate (different row open)
	RefreshCloses uint64
	BusyCycles    uint64
}

// Accesses returns the bank's total row operations.
func (b *BankCounters) Accesses() uint64 { return b.RowHits + b.RowMisses + b.RowConflicts }

// ChannelCounters is the cumulative per-channel ledger: data-bus occupancy
// and the cycles requests spent queued (arrival to issue) per queue class.
type ChannelCounters struct {
	BusBusyCycles  uint64
	ReadQueueWait  uint64 // cycles demand reads waited in the read queue
	WriteQueueWait uint64 // cycles writes/background reads waited in the write queue
}

type op struct {
	req     Request
	bank    int // global bank index within channel (rank*banks + bank)
	row     uint64
	arrival sim.Cycle
}

type bankState struct {
	openRow int64     // -1 when precharged
	actAt   sim.Cycle // when the open row was activated (for tRAS)
	readyAt sim.Cycle // earliest start of the next command on this bank
}

// opQueue is a FIFO of ops with a consumed-prefix head index. FR-FCFS only
// ever removes from within the bounded scheduling window at the front, so
// removal shifts the short live prefix [0, pick) right by one — O(window) —
// instead of shifting the unbounded tail left, which dominated the
// scheduler's cost on long write queues.
type opQueue struct {
	ops  []op
	head int
}

// pushSlot appends a zeroed op and returns it for in-place fill, avoiding
// a pass-by-value copy of the wide op struct.
func (q *opQueue) pushSlot() *op {
	q.ops = append(q.ops, op{})
	return &q.ops[len(q.ops)-1]
}

func (q *opQueue) len() int     { return len(q.ops) - q.head }
func (q *opQueue) at(i int) *op { return &q.ops[q.head+i] }

// drop discards the op at live position i, preserving the FIFO order of the
// remainder exactly. The caller must be done with any pointer obtained from
// at(): the shift invalidates it.
func (q *opQueue) drop(i int) {
	p := q.head + i
	copy(q.ops[q.head+1:p+1], q.ops[q.head:p])
	q.ops[q.head] = op{} // release Done/Trace references
	q.head++
	if q.head == len(q.ops) {
		q.ops = q.ops[:0]
		q.head = 0
	} else if q.head >= 1024 {
		// A queue that never fully drains would otherwise grow its dead
		// prefix without bound; compact it occasionally.
		n := copy(q.ops, q.ops[q.head:])
		for j := n; j < len(q.ops); j++ {
			q.ops[j] = op{}
		}
		q.ops = q.ops[:n]
		q.head = 0
	}
}

type channel struct {
	readQ     opQueue
	writeQ    opQueue
	busFreeAt sim.Cycle
	banks     []bankState
	inflight  int
	draining  bool
	// lastRefresh is the time of the most recently applied periodic
	// refresh (lazy catch-up; see refreshCatchup).
	lastRefresh sim.Cycle
}

// completion is the pooled completion event of one issued op — the state
// the per-request closure used to capture, recycled through a per-device
// free list so steady-state issue allocates nothing. fireFn is the method
// value bound once at pool-object creation and passed to the engine on
// every reuse.
type completion struct {
	d       *Device
	ch      int
	done    sim.Cycle
	arrival sim.Cycle
	service sim.Cycle
	isRead  bool
	cb      func()
	tr      func(queue, service uint64)
	fireFn  func()
	next    *completion
}

// fire performs the op's completion: it releases the channel's inflight
// slot, records read latency, reports the latency decomposition, chains the
// request callback and re-kicks the channel — in exactly the order the
// original closure did. The completion object is recycled before the
// callbacks run, so a callback that submits new requests can reuse it.
func (c *completion) fire() {
	d := c.d
	ch := c.ch
	d.chans[ch].inflight--
	if c.isRead {
		d.stats.ReadLatency.Add(c.done - c.arrival)
	}
	tr, cb := c.tr, c.cb
	queue, service := uint64(c.done-c.arrival-c.service), uint64(c.service)
	c.tr, c.cb = nil, nil
	c.next = d.freeComp
	d.freeComp = c
	if tr != nil {
		// done >= arrival + service by construction (start >= arrival and
		// every data-path delay only pushes completion later), so the queue
		// component never underflows.
		tr(queue, service)
	}
	if cb != nil {
		cb()
	}
	d.kick(ch)
}

// Device is one DRAM device (a set of channels).
type Device struct {
	Cfg   config.DRAMConfig
	eng   *sim.Engine
	chans []channel
	stats Stats

	// freeComp is the completion free list (see completion).
	freeComp *completion

	// queued mirrors QueueDepth() incrementally (ops submitted but not
	// yet issued, across all channels); peakQueued is its high-water mark
	// since the last TakePeakQueueDepth, for the telemetry epoch sampler.
	queued     int
	peakQueued int

	// Introspection ledgers, flat-indexed [ch*banksPerChan+bank] and [ch].
	// Allocated once at New and updated in place on the issue path, so the
	// layer is allocation-free in steady state.
	bankCtr []BankCounters
	chanCtr []ChannelCounters
	// bankQueued mirrors, per bank, the ops submitted but not yet issued —
	// the O(1) backing for BankLoad.
	bankQueued []int32

	// geometry, precomputed
	nChan        uint64
	banksPerChan uint64
	blocksPerRow uint64

	// timing in CPU cycles, precomputed
	tCAS, tRCD, tRP, tRAS, tWR sim.Cycle
	tREFI, tRFC                sim.Cycle

	// maxInflight bounds ops issued but not completed per channel, so
	// later arrivals can still be reordered by FR-FCFS.
	maxInflight int
}

// New builds a device on the given engine.
func New(cfg config.DRAMConfig, eng *sim.Engine) *Device {
	d := &Device{
		Cfg:          cfg,
		eng:          eng,
		nChan:        uint64(cfg.Channels),
		banksPerChan: uint64(cfg.RanksPerChan * cfg.BanksPerRank),
		blocksPerRow: cfg.RowBufferSize / 64,
		tCAS:         cfg.MemCyclesToCPU(cfg.Timing.TCAS),
		tRCD:         cfg.MemCyclesToCPU(cfg.Timing.TRCD),
		tRP:          cfg.MemCyclesToCPU(cfg.Timing.TRP),
		tRAS:         cfg.MemCyclesToCPU(cfg.Timing.TRAS),
		tWR:          cfg.MemCyclesToCPU(cfg.Timing.TWR),
		tREFI:        cfg.MemCyclesToCPU(cfg.Timing.TREFI),
		tRFC:         cfg.MemCyclesToCPU(cfg.Timing.TRFC),
		// Enough issued-but-incomplete ops to keep every bank busy while
		// the bus streams; later arrivals still reorder within the window.
		maxInflight: 2 * cfg.RanksPerChan * cfg.BanksPerRank,
	}
	d.chans = make([]channel, cfg.Channels)
	for i := range d.chans {
		d.chans[i].banks = make([]bankState, d.banksPerChan)
		for b := range d.chans[i].banks {
			d.chans[i].banks[b].openRow = -1
		}
	}
	d.bankCtr = make([]BankCounters, cfg.Channels*int(d.banksPerChan))
	d.chanCtr = make([]ChannelCounters, cfg.Channels)
	d.bankQueued = make([]int32, cfg.Channels*int(d.banksPerChan))
	return d
}

// Stats returns the accumulated counters, first refreshing RowHits/
// RowMisses from the per-bank ledger, their one source.
func (d *Device) Stats() *Stats {
	t := d.TotalBankCounters()
	d.stats.RowHits, d.stats.RowMisses = t.RowHits, t.RowMisses+t.RowConflicts
	return &d.stats
}

// Geometry reports the device's channel/bank shape, the index space of
// BankCounters and ChannelCounters.
func (d *Device) Geometry() (channels, banksPerChannel int) {
	return int(d.nChan), int(d.banksPerChan)
}

// BankCounters returns the live per-bank ledger, flat-indexed
// [channel*banksPerChannel + bank]. Read-only for callers; the device keeps
// mutating it.
func (d *Device) BankCounters() []BankCounters { return d.bankCtr }

// ChannelCounters returns the live per-channel ledger. Read-only for
// callers.
func (d *Device) ChannelCounters() []ChannelCounters { return d.chanCtr }

// TotalBankCounters sums the per-bank ledger into one BankCounters.
func (d *Device) TotalBankCounters() BankCounters {
	var t BankCounters
	for i := range d.bankCtr {
		b := &d.bankCtr[i]
		t.RowHits += b.RowHits
		t.RowMisses += b.RowMisses
		t.RowConflicts += b.RowConflicts
		t.RefreshCloses += b.RefreshCloses
		t.BusyCycles += b.BusyCycles
	}
	return t
}

// TotalChannelCounters sums the per-channel ledger into one
// ChannelCounters.
func (d *Device) TotalChannelCounters() ChannelCounters {
	var t ChannelCounters
	for i := range d.chanCtr {
		c := &d.chanCtr[i]
		t.BusBusyCycles += c.BusBusyCycles
		t.ReadQueueWait += c.ReadQueueWait
		t.WriteQueueWait += c.WriteQueueWait
	}
	return t
}

// RowOpen reports whether the row holding addr is currently open in its
// bank's row buffer — the locality query a row-buffer-aware placement
// scheme asks before steering an access. O(1); allocation-free. Refreshes
// are applied lazily at issue time, so a row reported open here may still
// be closed by a pending refresh before the next access issues.
func (d *Device) RowOpen(addr uint64) bool {
	ch, bank, row := d.mapAddr(addr)
	b := &d.chans[ch].banks[bank]
	return b.openRow >= 0 && uint64(b.openRow) == row
}

// BankLoad reports how many requests are queued (submitted, not yet
// issued) for the bank holding addr — the contention signal for
// bank-occupancy-aware steering. O(1); allocation-free.
func (d *Device) BankLoad(addr uint64) int {
	ch, bank, _ := d.mapAddr(addr)
	return int(d.bankQueued[ch*int(d.banksPerChan)+bank])
}

// mapAddr decomposes a device address: 64B blocks interleave across
// channels, then banks; consecutive same-bank blocks share a row until the
// 8KB row buffer wraps, so streaming accesses enjoy row hits.
func (d *Device) mapAddr(addr uint64) (ch int, bank int, row uint64) {
	blk := addr >> 6
	ch = int(blk % d.nChan)
	bc := blk / d.nChan
	bank = int(bc % d.banksPerChan)
	bcb := bc / d.banksPerChan
	row = bcb / d.blocksPerRow
	return
}

// Submit enqueues a request. Requests are always admitted; the bounded
// FR-FCFS window and bus/bank availability provide the contention delays,
// while end-to-end backpressure comes from the cores' MSHR/ROB limits.
func (d *Device) Submit(r Request) {
	if r.Bytes == 0 {
		r.Bytes = 64
	}
	ch, bank, row := d.mapAddr(r.Addr)
	c := &d.chans[ch]
	q := &c.readQ
	if r.Write || r.Background {
		q = &c.writeQ
	}
	s := q.pushSlot()
	s.req = r
	s.bank = bank
	s.row = row
	s.arrival = d.eng.Now()
	d.bankQueued[ch*int(d.banksPerChan)+bank]++
	d.queued++
	if d.queued > d.peakQueued {
		d.peakQueued = d.queued
	}
	d.kick(ch)
}

// kick issues as many ops as the inflight bound allows on channel ch.
func (d *Device) kick(ch int) {
	c := &d.chans[ch]
	for c.inflight < d.maxInflight {
		q, pick := d.selectOp(c)
		if q == nil {
			return
		}
		d.issue(ch, c, q, pick)
	}
}

// selectOp implements FR-FCFS with write draining over the bounded
// scheduling windows. It returns the queue and live position of the chosen
// op (nil when nothing is queued); the caller consumes the op in place and
// drops it, so selection never copies the wide op struct.
func (d *Device) selectOp(c *channel) (*opQueue, int) {
	// Enter drain mode when the write queue saturates its window; drain a
	// small batch so waiting reads are not starved. Reads otherwise have
	// priority.
	if c.draining {
		if c.writeQ.len() <= d.Cfg.WriteQueueLen*3/4 {
			c.draining = false
		}
	} else if c.writeQ.len() >= d.Cfg.WriteQueueLen {
		c.draining = true
	}
	useWrites := c.draining || c.readQ.len() == 0
	q := &c.readQ
	if useWrites {
		q = &c.writeQ
	}
	if q.len() == 0 {
		return nil, 0
	}
	window := q.len()
	limit := d.Cfg.ReadQueueLen
	if useWrites {
		limit = d.Cfg.WriteQueueLen
	}
	if window > limit {
		window = limit
	}
	// First ready (row hit) within the window, else oldest.
	pick := 0
	for i := 0; i < window; i++ {
		o := q.at(i)
		b := &c.banks[o.bank]
		if b.openRow >= 0 && uint64(b.openRow) == o.row {
			pick = i
			break
		}
	}
	return q, pick
}

// refreshCatchup applies any periodic refreshes due since the channel was
// last serviced: every tREFI all banks close their rows and become
// unavailable for tRFC. Refreshes are applied lazily at issue time so an
// idle device schedules no events. Activate energy is charged only for
// banks that actually had a row open to close — a precharged bank's
// refresh is covered by the static background power model, not the
// per-activate dynamic charge.
func (d *Device) refreshCatchup(ch int, c *channel, now sim.Cycle) {
	if d.tREFI == 0 {
		return
	}
	base := ch * int(d.banksPerChan)
	for c.lastRefresh+d.tREFI <= now {
		c.lastRefresh += d.tREFI
		d.stats.Refreshes++
		for i := range c.banks {
			b := &c.banks[i]
			start := c.lastRefresh
			if b.readyAt > start {
				start = b.readyAt
			}
			b.readyAt = start + d.tRFC
			if b.openRow >= 0 {
				d.stats.DynamicEnergyPJ += d.Cfg.ActivateEnergyPJ
				d.bankCtr[base+i].RefreshCloses++
				b.openRow = -1
			}
		}
	}
}

// issue computes the timing of the op at live position pick of q, reserves
// bank and bus, schedules its completion, and drops the op from the queue.
func (d *Device) issue(ch int, c *channel, q *opQueue, pick int) {
	o := q.at(pick)
	b := &c.banks[o.bank]
	bc := &d.bankCtr[ch*int(d.banksPerChan)+o.bank]
	cc := &d.chanCtr[ch]
	now := d.eng.Now()
	d.refreshCatchup(ch, c, now)
	start := b.readyAt
	if start < now {
		start = now
	}
	var colAt sim.Cycle
	// rowPenalty is the row-outcome component of the request's minimal
	// service time; tRAS/bus/refresh waits count as queueing instead.
	var rowPenalty sim.Cycle
	switch {
	case b.openRow >= 0 && uint64(b.openRow) == o.row:
		// Row hit: column command only.
		bc.RowHits++
		colAt = start
	case b.openRow < 0:
		// Closed: activate then column.
		d.stats.Activations++
		d.stats.DynamicEnergyPJ += d.Cfg.ActivateEnergyPJ
		bc.RowMisses++
		rowPenalty = d.tRCD
		colAt = start + d.tRCD
		b.actAt = start
		b.openRow = int64(o.row)
	default:
		// Conflict: precharge (respecting tRAS), activate, column.
		d.stats.Activations++
		d.stats.DynamicEnergyPJ += d.Cfg.ActivateEnergyPJ
		bc.RowConflicts++
		rowPenalty = d.tRP + d.tRCD
		preAt := start
		if min := b.actAt + d.tRAS; preAt < min {
			preAt = min
		}
		actAt := preAt + d.tRP
		colAt = actAt + d.tRCD
		b.actAt = actAt
		b.openRow = int64(o.row)
	}

	burst := d.Cfg.BurstCPUCycles(o.req.Bytes + o.req.MetaBytes)
	var dataAt sim.Cycle
	if o.req.Write {
		// Write data moves over the bus at the column command.
		dataAt = colAt
		if dataAt < c.busFreeAt {
			dataAt = c.busFreeAt
		}
		b.readyAt = dataAt + burst + d.tWR
	} else {
		dataAt = colAt + d.tCAS
		if dataAt < c.busFreeAt {
			dataAt = c.busFreeAt
		}
		// Column commands pipeline at tCCD (~ one burst): row-hit reads
		// stream at bus rate while the CAS latency overlaps.
		effCol := dataAt - d.tCAS // actual column-command time after bus delays
		b.readyAt = effCol + burst
	}
	if d.Cfg.Policy == config.ClosedPage {
		// Auto-precharge: the row closes after the access and the bank
		// needs tRP before its next activate.
		b.openRow = -1
		b.readyAt += d.tRP
	}
	c.busFreeAt = dataAt + burst
	d.stats.BusBusyCycles += burst
	cc.BusBusyCycles += burst
	// Bank occupancy: commands on one bank serialize through readyAt, so
	// [start, readyAt) intervals never overlap and their lengths sum to the
	// bank's busy time.
	bc.BusyCycles += uint64(b.readyAt - start)
	// Queue residency, attributed to the queue the op waited in.
	if q == &c.readQ {
		cc.ReadQueueWait += uint64(now - o.arrival)
	} else {
		cc.WriteQueueWait += uint64(now - o.arrival)
	}

	done := dataAt + burst
	bits := float64((o.req.Bytes + o.req.MetaBytes) * 8)
	d.stats.BytesMeta += o.req.MetaBytes
	if o.req.Write {
		d.stats.Writes++
		d.stats.BytesWritten += o.req.Bytes
		d.stats.DynamicEnergyPJ += bits * d.Cfg.WriteEnergyPJPerBit
	} else {
		d.stats.Reads++
		d.stats.BytesRead += o.req.Bytes
		d.stats.DynamicEnergyPJ += bits * d.Cfg.ReadEnergyPJPerBit
	}

	// Minimal service time for the observed row outcome; reads add the CAS
	// latency, writes move data at the column command.
	service := rowPenalty + burst
	if !o.req.Write {
		service += d.tCAS
	}

	c.inflight++
	comp := d.freeComp
	if comp == nil {
		comp = &completion{d: d}
		comp.fireFn = comp.fire
	} else {
		d.freeComp = comp.next
	}
	comp.ch = ch
	comp.done = done
	comp.arrival = o.arrival
	comp.service = service
	comp.isRead = !o.req.Write
	comp.cb = o.req.Done
	comp.tr = o.req.Trace
	bank := o.bank
	q.drop(pick) // o is dead past this point
	d.bankQueued[ch*int(d.banksPerChan)+bank]--
	d.queued--
	d.eng.At(done, comp.fireFn)
}

// PendingBytes reports bytes (including extended-burst metadata) submitted
// but not yet issued. The conservation audit uses it to bridge the two
// byte-accounting instants: mem-side counters tick at submit, device-side
// counters at issue.
func (d *Device) PendingBytes() uint64 {
	var n uint64
	for i := range d.chans {
		for _, q := range []*opQueue{&d.chans[i].readQ, &d.chans[i].writeQ} {
			for _, o := range q.ops[q.head:] {
				n += o.req.Bytes + o.req.MetaBytes
			}
		}
	}
	return n
}

// PeakQueueDepth reports the highest QueueDepth seen since the last
// TakePeakQueueDepth (or device creation), without resetting it.
func (d *Device) PeakQueueDepth() int { return d.peakQueued }

// TakePeakQueueDepth returns the queue-depth high-water mark since the
// last call and restarts it at the current depth, so each telemetry epoch
// observes its own peak. Instantaneous boundary sampling aliases bursts;
// the saturation detector needs the peak.
func (d *Device) TakePeakQueueDepth() int {
	p := d.peakQueued
	d.peakQueued = d.queued
	return p
}

// QueueDepth reports total queued (not yet issued) requests, for tests.
func (d *Device) QueueDepth() int {
	n := 0
	for i := range d.chans {
		n += d.chans[i].readQ.len() + d.chans[i].writeQ.len()
	}
	return n
}

// UnloadedReadLatency returns the CPU-cycle latency of an isolated read that
// misses the row buffer on an idle device (activate + column + burst).
func (d *Device) UnloadedReadLatency() sim.Cycle {
	return d.tRCD + d.tCAS + d.Cfg.BurstCPUCycles(64)
}

// Join returns a callback that invokes fn after being called n times. It is
// the device-level fan-in helper for multi-subblock transfers. If n == 0,
// fn runs immediately.
func Join(n int, fn func()) func() {
	if n <= 0 {
		if fn != nil {
			fn()
		}
		return func() {}
	}
	remaining := n
	return func() {
		remaining--
		if remaining == 0 && fn != nil {
			fn()
		}
	}
}
