package dram

import (
	"fmt"
	"math"

	"silcfm/internal/config"
	"silcfm/internal/memunits"
	"silcfm/internal/sim"
)

// refDevice is the reference the Device's scheduler must match request for
// request: the 48-byte op arena with its slice free list, FR-FCFS queues of
// int32 arena indices, and a window scan that loads every op it looks at
// from the arena. Timing, refresh and the ledgers are the Device's own
// rules, copied beside it so the two share no state.
type refDevice struct {
	Cfg   config.DRAMConfig
	eng   *sim.Engine
	chans []refChannel
	stats Stats

	freeComp *refCompletion
	ops      memunits.Slab[refOp]
	freeOps  []int32
	queued   int

	bankCtr    []BankCounters
	chanCtr    []ChannelCounters
	bankQueued []int32

	nChan, banksPerChan        uint64
	chanShift, bankShift       uint
	rowShift                   uint
	burst64                    sim.Cycle
	tCAS, tRCD, tRP, tRAS, tWR sim.Cycle
	tREFI, tRFC                sim.Cycle
	maxInflight                int
}

type refOp struct {
	done    func()
	trace   func(queue, service uint64)
	bank    int
	row     uint64
	arrival sim.Cycle
	bytes   uint32
	meta    uint16
	write   bool
}

func (o *refOp) total() uint64 { return uint64(o.bytes) + uint64(o.meta) }

type refQueue struct {
	idx  []int32
	head int
}

func (q *refQueue) len() int         { return len(q.idx) - q.head }
func (q *refQueue) slot(i int) int32 { return q.idx[q.head+i] }

func (q *refQueue) remove(i int) int32 {
	p := q.head + i
	s := q.idx[p]
	copy(q.idx[q.head+1:p+1], q.idx[q.head:p])
	q.head++
	if q.head == len(q.idx) {
		q.idx = q.idx[:0]
		q.head = 0
	} else if q.head >= 1024 || q.head >= 64 && 2*q.head >= len(q.idx) {
		q.idx = q.idx[:copy(q.idx, q.idx[q.head:])]
		q.head = 0
	}
	return s
}

type refChannel struct {
	readQ, writeQ refQueue
	busFreeAt     sim.Cycle
	banks         []bankState
	inflight      int
	draining      bool
	lastRefresh   sim.Cycle
}

type refCompletion struct {
	d                      *refDevice
	ch                     int
	done, arrival, service sim.Cycle
	cb                     func()
	tr                     func(queue, service uint64)
	fireFn                 func()
	next                   *refCompletion
}

func (c *refCompletion) fire() {
	d := c.d
	ch := c.ch
	d.chans[ch].inflight--
	tr, cb := c.tr, c.cb
	queue, service := uint64(c.done-c.arrival-c.service), uint64(c.service)
	c.tr, c.cb = nil, nil
	c.next = d.freeComp
	d.freeComp = c
	if tr != nil {
		tr(queue, service)
	}
	if cb != nil {
		cb()
	}
	d.kick(ch)
}

func newRefDevice(cfg config.DRAMConfig, eng *sim.Engine) *refDevice {
	d := &refDevice{
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
		maxInflight:  2 * cfg.RanksPerChan * cfg.BanksPerRank,
	}
	d.chans = make([]refChannel, cfg.Channels)
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

func (d *refDevice) Stats() *Stats {
	var t BankCounters
	for i := range d.bankCtr {
		t.RowHits += d.bankCtr[i].RowHits
		t.RowMisses += d.bankCtr[i].RowMisses + d.bankCtr[i].RowConflicts
	}
	d.stats.RowHits, d.stats.RowMisses = t.RowHits, t.RowMisses
	return &d.stats
}

func (d *refDevice) BankState(addr uint64) (rowOpen bool, load int) {
	ch, bank, row := d.mapAddr(addr)
	b := &d.chans[ch].banks[bank]
	return b.openRow >= 0 && uint64(b.openRow) == row,
		int(d.bankQueued[ch*int(d.banksPerChan)+bank])
}

func (d *refDevice) mapAddr(addr uint64) (ch int, bank int, row uint64) {
	blk := addr >> 6
	ch = int(blk & (d.nChan - 1))
	bc := blk >> d.chanShift
	bank = int(bc & (d.banksPerChan - 1))
	row = bc >> d.bankShift >> d.rowShift
	return
}

func (d *refDevice) Submit(r Request) {
	if r.Bytes == 0 {
		r.Bytes = 64
	}
	if r.Bytes > math.MaxUint32 || r.MetaBytes > math.MaxUint16 {
		panic(fmt.Sprintf("dram: request of %d+%d bytes exceeds the op's width", r.Bytes, r.MetaBytes))
	}
	ch, bank, row := d.mapAddr(r.Addr)
	c := &d.chans[ch]
	q := &c.readQ
	if r.Write || r.Background {
		q = &c.writeQ
	}
	var i int32
	if n := len(d.freeOps); n > 0 {
		i = d.freeOps[n-1]
		d.freeOps = d.freeOps[:n-1]
	} else {
		p, _ := d.ops.Push()
		i = int32(p)
	}
	q.idx = append(q.idx, i)
	*d.ops.At(int(i)) = refOp{done: r.Done, trace: r.Trace, bank: bank, row: row,
		arrival: d.eng.Now(), bytes: uint32(r.Bytes), meta: uint16(r.MetaBytes), write: r.Write}
	d.bankQueued[ch*int(d.banksPerChan)+bank]++
	d.queued++
	d.kick(ch)
}

func (d *refDevice) kick(ch int) {
	c := &d.chans[ch]
	for c.inflight < d.maxInflight {
		q, pick := d.selectOp(c)
		if q == nil {
			return
		}
		d.issue(ch, c, q, pick)
	}
}

func (d *refDevice) selectOp(c *refChannel) (*refQueue, int) {
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
	pick := 0
	for i := 0; i < window; i++ {
		o := d.ops.At(int(q.slot(i)))
		b := &c.banks[o.bank]
		if b.openRow >= 0 && uint64(b.openRow) == o.row {
			pick = i
			break
		}
	}
	return q, pick
}

func (d *refDevice) refreshCatchup(ch int, c *refChannel, now sim.Cycle) {
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

func (d *refDevice) issue(ch int, c *refChannel, q *refQueue, pick int) {
	slot := q.remove(pick)
	o := d.ops.At(int(slot))
	b := &c.banks[o.bank]
	bc := &d.bankCtr[ch*int(d.banksPerChan)+o.bank]
	cc := &d.chanCtr[ch]
	now := d.eng.Now()
	d.refreshCatchup(ch, c, now)
	start := b.readyAt
	if start < now {
		start = now
	}
	var colAt, rowPenalty sim.Cycle
	switch {
	case b.openRow >= 0 && uint64(b.openRow) == o.row:
		bc.RowHits++
		colAt = start
	case b.openRow < 0:
		d.stats.DynamicEnergyPJ += d.Cfg.ActivateEnergyPJ
		bc.RowMisses++
		rowPenalty = d.tRCD
		colAt = start + d.tRCD
		b.actAt = start
		b.openRow = int64(o.row)
	default:
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
	burst := d.burst64
	if n := o.total(); n != 64 {
		burst = d.Cfg.BurstCPUCycles(n)
	}
	var dataAt sim.Cycle
	if o.write {
		dataAt = max(colAt, c.busFreeAt)
		b.readyAt = dataAt + burst + d.tWR
	} else {
		dataAt = max(colAt+d.tCAS, c.busFreeAt)
		b.readyAt = dataAt - d.tCAS + burst
	}
	if d.Cfg.Policy == config.ClosedPage {
		b.openRow = -1
		b.readyAt += d.tRP
	}
	c.busFreeAt = dataAt + burst
	cc.BusBusyCycles += burst
	bc.BusyCycles += uint64(b.readyAt - start)
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
	service := rowPenalty + burst
	if !o.write {
		service += d.tCAS
	}
	c.inflight++
	comp := d.freeComp
	if comp == nil {
		comp = &refCompletion{d: d}
		comp.fireFn = comp.fire
	} else {
		d.freeComp = comp.next
	}
	comp.ch, comp.done, comp.arrival, comp.service = ch, done, o.arrival, service
	comp.cb, comp.tr = o.done, o.trace
	d.bankQueued[ch*int(d.banksPerChan)+o.bank]--
	*o = refOp{}
	d.freeOps = append(d.freeOps, slot)
	d.queued--
	d.eng.At(done, comp.fireFn)
}

func (d *refDevice) PendingBytes() uint64 {
	var n uint64
	for i := range d.chans {
		for _, q := range []*refQueue{&d.chans[i].readQ, &d.chans[i].writeQ} {
			for _, i := range q.idx[q.head:] {
				n += d.ops.At(int(i)).total()
			}
		}
	}
	return n
}
