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
	"fmt"
	"math"
	"math/bits"

	"silcfm/internal/config"
	"silcfm/internal/memunits"
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

// Stats holds the per-device traffic, refresh and energy totals. Row
// outcomes and bank occupancy are kept in BankCounters, bus occupancy and
// queue waits in ChannelCounters.
type Stats struct {
	Reads, Writes           uint64
	BytesRead, BytesWritten uint64
	// BytesMeta counts metadata carried in extended bursts (Request.
	// MetaBytes); kept apart so BytesRead/BytesWritten stay payload-only.
	BytesMeta uint64
	// RowHits/RowMisses are the row-buffer outcome per access, derived by
	// Stats from the per-bank ledger (conflicts count as misses).
	RowHits, RowMisses uint64
	Refreshes          uint64 // periodic all-bank refreshes applied
	DynamicEnergyPJ    float64
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

// op is one queued request's arena record, 40 bytes: what issue and
// completion read. The bank and row the scheduler compares travel in the
// request's queue entry, and the queue class is the queue it sits in. A
// vacant op links the arena's free list through addr (see newOp).
type op struct {
	done    func()
	trace   func(queue, service uint64)
	addr    uint64 // Request.Addr, for the completion hook
	arrival sim.Cycle
	bytes   uint32
	meta    uint16 // Request.MetaBytes
	write   bool
}

// total reports the op's transfer bytes, payload and metadata.
func (o *op) total() uint64 { return uint64(o.bytes) + uint64(o.meta) }

// entry is one FR-FCFS queue position, 8 bytes: the arena slot of the
// queued op and its scan key, row<<bankShift | bank, so that a selection
// step reads the queue and the bank state, never the arena.
type entry struct {
	slot int32
	key  uint32
}

const (
	qPageShift = 6
	// qPageLen is the number of entries on one queue page (512 B).
	qPageLen = 1 << qPageShift
)

type qPage [qPageLen]entry

type bankState struct {
	openRow int64     // -1 when precharged
	actAt   sim.Cycle // when the open row was activated (for tRAS)
	readyAt sim.Cycle // earliest start of the next command on this bank
}

// opQueue is a FIFO of entries stored in pages: the live entries sit at
// positions [head, head+n) of the concatenated pages. FR-FCFS only ever
// removes from within the bounded scheduling window at the front, so
// removal shifts the short live prefix right by one, O(window) 8-byte
// moves, and advances head. Once head leaves the first page, that page
// goes back to the device's spare pages, where the tails of every queue
// take new pages from. Entries are never copied by growth; only the page
// directory, one pointer per page, moves.
type opQueue struct {
	pages []*qPage
	head  int
	n     int
}

func (q *opQueue) len() int { return q.n }

// at returns the entry at live position i.
func (q *opQueue) at(i int) *entry {
	p := q.head + i
	return &q.pages[p>>qPageShift][p&(qPageLen-1)]
}

// push appends e to q.
func (d *Device) push(q *opQueue, e entry) {
	p := q.head + q.n
	if p>>qPageShift == len(q.pages) {
		var pg *qPage
		if n := len(d.sparePages); n > 0 {
			pg = d.sparePages[n-1]
			d.sparePages = d.sparePages[:n-1]
		} else {
			pg = new(qPage)
		}
		q.pages = append(q.pages, pg)
	}
	q.pages[p>>qPageShift][p&(qPageLen-1)] = e
	q.n++
}

// remove discards the entry at live position i, preserving the FIFO order
// of the remainder exactly, and returns it.
func (d *Device) remove(q *opQueue, i int) entry {
	e := *q.at(i)
	if p := q.head + i; p < qPageLen {
		pg := q.pages[0]
		copy(pg[q.head+1:p+1], pg[q.head:p])
	} else {
		for j := i; j > 0; j-- {
			*q.at(j) = *q.at(j - 1)
		}
	}
	q.head++
	q.n--
	if q.n == 0 {
		// Empty: restart at the front of the page in hand.
		q.head = 0
	} else if q.head == qPageLen {
		d.sparePages = append(d.sparePages, q.pages[0])
		q.pages = q.pages[:copy(q.pages, q.pages[1:])]
		q.head = 0
	}
	return e
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
	addr    uint64
	write   bool
	cb      func()
	tr      func(queue, service uint64)
	fireFn  func()
	next    *completion
}

// fire performs the op's completion: it releases the channel's inflight
// slot, reports the latency decomposition, runs the request callback and
// then the device's completion hook, and re-kicks the channel. The
// completion object is recycled before the callbacks run, so a callback
// that submits new requests can reuse it.
func (c *completion) fire() {
	d := c.d
	ch := c.ch
	d.chans[ch].inflight--
	tr, cb := c.tr, c.cb
	addr, write := c.addr, c.write
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
	if d.onComplete != nil {
		d.onComplete(addr, write)
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
	// onComplete, when set, runs at every request's completion (see
	// OnComplete).
	onComplete func(addr uint64, write bool)

	// ops is the arena every queued op lives in, from Submit until issue;
	// the channel queues hold its slot numbers. freeOp is the first vacant
	// slot plus one (0: none), the head of a list linked through the vacant
	// ops themselves, so the arena stops growing at the peak queued count.
	// It grows by page and never shrinks or moves.
	ops    memunits.Slab[op]
	freeOp int32
	// sparePages holds the queue pages no queue is using (see opQueue).
	sparePages []*qPage

	// queued counts the ops submitted but not yet issued, across all
	// channels (QueueDepth); peakQueued is its high-water mark since the
	// last TakePeakQueueDepth, for the telemetry epoch sampler.
	queued     int
	peakQueued int

	// Introspection ledgers, flat-indexed [ch*banksPerChan+bank] and [ch].
	// Allocated once at New and updated in place on the issue path, so the
	// layer is allocation-free in steady state.
	bankCtr []BankCounters
	chanCtr []ChannelCounters
	// bankQueued mirrors, per bank, the ops submitted but not yet issued —
	// the O(1) backing for BankState.
	bankQueued []int32

	// geometry, precomputed; every factor is a power of two (config.
	// Machine.Validate), so mapAddr decodes with shifts and masks.
	nChan        uint64
	banksPerChan uint64
	chanShift    uint
	bankShift    uint
	rowShift     uint
	// bankMask extracts the bank from a queue entry's key; rowLimit bounds
	// the rows the key's remaining bits hold.
	bankMask uint32
	rowLimit uint64

	// burst64 is the bus occupancy of one 64-byte transfer, the size of
	// almost every request.
	burst64 sim.Cycle

	// timing in CPU cycles, precomputed
	tCAS, tRCD, tRP, tRAS, tWR sim.Cycle
	tREFI, tRFC                sim.Cycle

	// maxInflight bounds ops issued but not completed per channel, so
	// later arrivals can still be reordered by FR-FCFS.
	maxInflight int
}

// log2 returns the exponent of the power of two n, panicking otherwise.
func log2(n uint64) uint {
	if n == 0 || n&(n-1) != 0 {
		panic(fmt.Sprintf("dram: geometry factor %d is not a power of two", n))
	}
	return uint(bits.TrailingZeros64(n))
}

// New builds a device on the given engine. Channels, banks per channel and
// 64-byte blocks per row must be powers of two.
func New(cfg config.DRAMConfig, eng *sim.Engine) *Device {
	d := &Device{
		Cfg:          cfg,
		eng:          eng,
		nChan:        uint64(cfg.Channels),
		banksPerChan: uint64(cfg.RanksPerChan * cfg.BanksPerRank),
		chanShift:    log2(uint64(cfg.Channels)),
		bankShift:    log2(uint64(cfg.RanksPerChan * cfg.BanksPerRank)),
		rowShift:     log2(cfg.RowBufferSize / 64),
		burst64:      cfg.BurstCPUCycles(64),
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
	if pairs := cfg.RowsPerChannel(); pairs > 1<<32 {
		panic(fmt.Sprintf("dram: %s has %d (row, bank) pairs per channel, over the queue key's 2^32", cfg.Name, pairs))
	}
	d.bankMask = uint32(d.banksPerChan - 1)
	d.rowLimit = 1 << (32 - d.bankShift)
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

// BankState reports, with one address decode, whether the row holding
// addr is currently open in its bank's row buffer and how many requests
// are queued (submitted, not yet issued) for that bank — the locality and
// contention signals a row-buffer- or occupancy-aware steering policy
// asks for. O(1); allocation-free. Refreshes are applied lazily at issue
// time, so a row reported open here may still be closed by a pending
// refresh before the next access issues.
func (d *Device) BankState(addr uint64) (rowOpen bool, load int) {
	ch, bank, row := d.mapAddr(addr)
	b := &d.chans[ch].banks[bank]
	return b.openRow >= 0 && uint64(b.openRow) == row,
		int(d.bankQueued[ch*int(d.banksPerChan)+bank])
}

// mapAddr decomposes a device address: 64B blocks interleave across
// channels, then banks; consecutive same-bank blocks share a row until the
// 8KB row buffer wraps, so streaming accesses enjoy row hits.
func (d *Device) mapAddr(addr uint64) (ch int, bank int, row uint64) {
	blk := addr >> 6
	ch = int(blk & (d.nChan - 1))
	bc := blk >> d.chanShift
	bank = int(bc & (d.banksPerChan - 1))
	row = bc >> d.bankShift >> d.rowShift
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
	if r.Bytes > math.MaxUint32 || r.MetaBytes > math.MaxUint16 || row >= d.rowLimit {
		panic(fmt.Sprintf("dram: request of %d+%d bytes at %#x exceeds the op's width", r.Bytes, r.MetaBytes, r.Addr))
	}
	c := &d.chans[ch]
	q := &c.readQ
	if r.Write || r.Background {
		q = &c.writeQ
	}
	slot, o := d.newOp()
	o.done = r.Done
	o.trace = r.Trace
	o.addr = r.Addr
	o.arrival = d.eng.Now()
	o.bytes = uint32(r.Bytes)
	o.meta = uint16(r.MetaBytes)
	o.write = r.Write
	d.push(q, entry{slot: slot, key: uint32(row)<<d.bankShift | uint32(bank)})
	d.bankQueued[ch*int(d.banksPerChan)+bank]++
	d.queued++
	if d.queued > d.peakQueued {
		d.peakQueued = d.queued
	}
	d.kick(ch)
}

// newOp takes a vacant arena op, from the free list or a never-used slot,
// and returns its slot for the caller to fill every field of.
func (d *Device) newOp() (int32, *op) {
	if f := d.freeOp; f != 0 {
		o := d.ops.At(int(f - 1))
		d.freeOp = int32(o.addr)
		return f - 1, o
	}
	i, o := d.ops.Push()
	return int32(i), o
}

// OnComplete sets fn to run at the completion of every request, after the
// request's own Trace and Done, with its address and direction. A device
// whose completions all do the same thing (SILC-FM's metadata channel)
// needs no per-request Done closure.
func (d *Device) OnComplete(fn func(addr uint64, write bool)) { d.onComplete = fn }

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
// op (nil when nothing is queued).
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
	// First ready (row hit) within the window, else oldest. The window's
	// entries are contiguous within each page; a key's row never equals a
	// precharged bank's -1.
	for i, p := 0, q.head; i < window; {
		pg := q.pages[p>>qPageShift][p&(qPageLen-1):]
		if len(pg) > window-i {
			pg = pg[:window-i]
		}
		for j := range pg {
			k := pg[j].key
			if c.banks[k&d.bankMask].openRow == int64(k>>d.bankShift) {
				return q, i + j
			}
		}
		i += len(pg)
		p += len(pg)
	}
	return q, 0
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
// bank and bus, schedules its completion, and returns the op's arena slot
// to the free list.
func (d *Device) issue(ch int, c *channel, q *opQueue, pick int) {
	e := d.remove(q, pick)
	bank := int(e.key & d.bankMask)
	row := int64(e.key >> d.bankShift)
	o := d.ops.At(int(e.slot))
	b := &c.banks[bank]
	bc := &d.bankCtr[ch*int(d.banksPerChan)+bank]
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
	case b.openRow == row:
		// Row hit: column command only.
		bc.RowHits++
		colAt = start
	case b.openRow < 0:
		// Closed: activate then column.
		d.stats.DynamicEnergyPJ += d.Cfg.ActivateEnergyPJ
		bc.RowMisses++
		rowPenalty = d.tRCD
		colAt = start + d.tRCD
		b.actAt = start
		b.openRow = row
	default:
		// Conflict: precharge (respecting tRAS), activate, column.
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
		b.openRow = row
	}

	burst := d.burst64
	if n := o.total(); n != 64 {
		burst = d.Cfg.BurstCPUCycles(n)
	}
	var dataAt sim.Cycle
	if o.write {
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
	bits := float64(o.total() * 8)
	d.stats.BytesMeta += uint64(o.meta)
	if o.write {
		d.stats.Writes++
		d.stats.BytesWritten += uint64(o.bytes)
		d.stats.DynamicEnergyPJ += bits * d.Cfg.WriteEnergyPJPerBit
	} else {
		d.stats.Reads++
		d.stats.BytesRead += uint64(o.bytes)
		d.stats.DynamicEnergyPJ += bits * d.Cfg.ReadEnergyPJPerBit
	}

	// Minimal service time for the observed row outcome; reads add the CAS
	// latency, writes move data at the column command.
	service := rowPenalty + burst
	if !o.write {
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
	comp.addr = o.addr
	comp.write = o.write
	comp.cb = o.done
	comp.tr = o.trace
	d.bankQueued[ch*int(d.banksPerChan)+bank]--
	*o = op{addr: uint64(d.freeOp)} // release Done/Trace; link the free list
	d.freeOp = e.slot + 1
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
		for _, q := range [2]*opQueue{&d.chans[i].readQ, &d.chans[i].writeQ} {
			for j := 0; j < q.n; j++ {
				n += d.ops.At(int(q.at(j).slot)).total()
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

// QueueDepth reports total queued (submitted, not yet issued) requests.
func (d *Device) QueueDepth() int { return d.queued }

// UnloadedReadLatency returns the CPU-cycle latency of an isolated read that
// misses the row buffer on an idle device (activate + column + burst).
func (d *Device) UnloadedReadLatency() sim.Cycle {
	return d.tRCD + d.tCAS + d.burst64
}
