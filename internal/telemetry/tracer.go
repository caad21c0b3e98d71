package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"

	"silcfm/internal/mem"
	"silcfm/internal/memunits"
	"silcfm/internal/sim"
	"silcfm/internal/stats"
)

// event kinds, also the Perfetto track (tid) assignment.
const (
	evDemand = iota
	evCapture
	evDeliver
	evRelocate
	evSwap
	evLock
	evUnlock
	numEvKinds
)

var evNames = [numEvKinds]string{
	"demand", "capture", "deliver", "relocate", "swap", "lock", "unlock",
}

// event is one recorded movement event, 32 bytes: the ring holds hundreds
// of thousands of these. No event kind carries both a flat address and a
// second location, so one word holds either: x is the demand address or the
// pinned flat block for demand, lock and unlock events, and the second
// location's device address for the rest. The level bytes share a word with
// kind and write.
type event struct {
	kind           uint8
	write          bool // demand: write access; lock: home lock
	aLevel, bLevel uint8
	cycle          uint64
	aAddr          uint64 // a = loc/src/frame
	x              uint64 // demand: address; lock/unlock: flat block; else b's address
}

// a returns the event's first location (loc, src or frame).
func (e *event) a() mem.Location {
	return mem.Location{Level: stats.MemLevel(e.aLevel), DevAddr: e.aAddr}
}

// b returns the event's second location (dst).
func (e *event) b() mem.Location {
	return mem.Location{Level: stats.MemLevel(e.bLevel), DevAddr: e.x}
}

// pa returns a demand event's address, or a lock event's flat block.
func (e *event) pa() uint64 { return e.x }

// Tracer records the semantic movement-event stream (mem.Observer plus the
// SchemeObserver extension) into a bounded ring buffer and serializes it as
// Chrome trace-event JSON, viewable in Perfetto (ui.perfetto.dev) or
// chrome://tracing. Timestamps are simulated cycles presented as
// microseconds (Perfetto's native unit); one trace "thread" per event kind
// keeps the tracks separable.
type Tracer struct {
	eng  *sim.Engine
	ring memunits.Ring[event]

	// Synthetic duration spans injected after the run (exemplar span
	// waterfalls), each on a named track appended after the per-kind
	// instant tracks. Bounded; overflow is counted.
	spanTracks  []string
	spans       []spanEvent
	spanDropped uint64
}

// MaxExtraSpans bounds the injected duration-span list.
const MaxExtraSpans = 8192

// spanEvent is one injected duration span ("X" complete event).
type spanEvent struct {
	track      int
	name       string
	start, dur uint64
	args       map[string]any
}

// NewTracer builds a tracer holding at most limit events (oldest dropped;
// limit <= 0 selects DefaultTraceLimit). The ring costs memory only for the
// events recorded: it fills page by page, so a limit far above the run's
// event count allocates no more than the run records.
func NewTracer(eng *sim.Engine, limit int) *Tracer {
	if limit <= 0 {
		limit = DefaultTraceLimit
	}
	return &Tracer{eng: eng, ring: memunits.NewRing[event](limit)}
}

// record stamps and stores one event, overwriting the oldest once the ring
// is full. x is the event's flat address or block, or b's device address.
func (t *Tracer) record(kind uint8, write bool, a mem.Location, bLevel stats.MemLevel, x uint64) {
	*t.ring.Push() = event{
		kind: kind, write: write, aLevel: uint8(a.Level), bLevel: uint8(bLevel),
		cycle: t.eng.Now(), aAddr: a.DevAddr, x: x,
	}
}

// Demand implements mem.Observer.
func (t *Tracer) Demand(pa uint64, loc mem.Location, write bool) {
	t.record(evDemand, write, loc, 0, pa)
}

// Capture implements mem.Observer.
func (t *Tracer) Capture(loc mem.Location) {
	t.record(evCapture, false, loc, 0, 0)
}

// Deliver implements mem.Observer.
func (t *Tracer) Deliver(src, dst mem.Location) {
	t.record(evDeliver, false, src, dst.Level, dst.DevAddr)
}

// Relocate implements mem.Observer.
func (t *Tracer) Relocate(src, dst mem.Location) {
	t.record(evRelocate, false, src, dst.Level, dst.DevAddr)
}

// Swap implements mem.SchemeObserver.
func (t *Tracer) Swap(a, b mem.Location) {
	t.record(evSwap, false, a, b.Level, b.DevAddr)
}

// Lock implements mem.SchemeObserver. The pinned flat block index rides in
// the address word.
func (t *Tracer) Lock(frame, block uint64, home bool) {
	t.record(evLock, home, mem.Location{DevAddr: frame}, 0, block)
}

// Unlock implements mem.SchemeObserver.
func (t *Tracer) Unlock(frame, block uint64) {
	t.record(evUnlock, false, mem.Location{DevAddr: frame}, 0, block)
}

// Events reports (recorded, dropped) counts.
func (t *Tracer) Events() (total, dropped uint64) {
	return uint64(t.ring.Len()) + t.ring.Dropped(), t.ring.Dropped()
}

// AddSpan injects a synthetic duration span on the named track (created on
// first use, after the per-kind instant tracks). Used after the run to lay
// exemplar span waterfalls into the trace; args keys must be fixed per call
// site so output stays byte-deterministic. Spans past MaxExtraSpans are
// counted as dropped.
func (t *Tracer) AddSpan(track, name string, start, dur uint64, args map[string]any) {
	if len(t.spans) >= MaxExtraSpans {
		t.spanDropped++
		return
	}
	tid := -1
	for i, tr := range t.spanTracks {
		if tr == track {
			tid = i
			break
		}
	}
	if tid < 0 {
		tid = len(t.spanTracks)
		t.spanTracks = append(t.spanTracks, track)
	}
	t.spans = append(t.spans, spanEvent{track: tid, name: name, start: start, dur: dur, args: args})
}

// traceEvent is the Chrome trace-event JSON shape of an injected duration
// span ("X" complete event). Its args are caller-supplied, so spans go
// through encoding/json; the fixed-shape events are appended by hand below
// in the same field order and escaping.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   uint64         `json:"ts"`
	Dur  uint64         `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// appendLoc appends a location as the JSON string "NM:0x<addr>" or
// "FM:0x<addr>".
func appendLoc(buf []byte, l mem.Location) []byte {
	if l.Level == stats.FM {
		buf = append(buf, `"FM:0x`...)
	} else {
		buf = append(buf, `"NM:0x`...)
	}
	buf = strconv.AppendUint(buf, l.DevAddr, 16)
	return append(buf, '"')
}

// appendThreadName appends the metadata event naming track tid.
func appendThreadName(buf []byte, tid int, name string) []byte {
	buf = append(buf, `{"name":"thread_name","ph":"M","ts":0,"pid":0,"tid":`...)
	buf = strconv.AppendInt(buf, int64(tid), 10)
	buf = append(buf, `,"args":{"name":`...)
	quoted, _ := json.Marshal(name) // a string always marshals
	buf = append(buf, quoted...)
	return append(buf, "}}"...)
}

// appendInstant appends one ring event as an instant event on its kind's
// track. Arg keys per kind are fixed and written in sorted order.
func appendInstant(buf []byte, e *event) []byte {
	buf = append(buf, `{"name":"`...)
	buf = append(buf, evNames[e.kind]...)
	buf = append(buf, `","ph":"i","ts":`...)
	buf = strconv.AppendUint(buf, e.cycle, 10)
	buf = append(buf, `,"pid":0,"tid":`...)
	buf = strconv.AppendInt(buf, int64(e.kind), 10)
	buf = append(buf, `,"s":"t","args":{`...)
	switch e.kind {
	case evDemand:
		buf = append(buf, `"loc":`...)
		buf = appendLoc(buf, e.a())
		if e.write {
			buf = append(buf, `,"op":"write","pa":"0x`...)
		} else {
			buf = append(buf, `,"op":"read","pa":"0x`...)
		}
		buf = strconv.AppendUint(buf, e.pa(), 16)
		buf = append(buf, '"')
	case evCapture:
		buf = append(buf, `"loc":`...)
		buf = appendLoc(buf, e.a())
	case evDeliver, evRelocate:
		buf = append(buf, `"dst":`...)
		buf = appendLoc(buf, e.b())
		buf = append(buf, `,"src":`...)
		buf = appendLoc(buf, e.a())
	case evSwap:
		buf = append(buf, `"a":`...)
		buf = appendLoc(buf, e.a())
		buf = append(buf, `,"b":`...)
		buf = appendLoc(buf, e.b())
	default: // evLock, evUnlock
		buf = append(buf, `"block":`...)
		buf = strconv.AppendUint(buf, e.pa(), 10)
		buf = append(buf, `,"frame":`...)
		buf = strconv.AppendUint(buf, e.aAddr, 10)
		if e.kind == evLock {
			if e.write {
				buf = append(buf, `,"kind":"home"`...)
			} else {
				buf = append(buf, `,"kind":"interleaved"`...)
			}
		}
	}
	return append(buf, "}}"...)
}

// traceFlushBytes is the buffered output size at which Write hands the
// buffer to the writer.
const traceFlushBytes = 64 << 10

// Write serializes the ring (oldest first) as a Chrome trace JSON object.
func (t *Tracer) Write(w io.Writer) error {
	bw := &errWriter{w: w}
	buf := make([]byte, 0, traceFlushBytes+1024)
	buf = append(buf, `{"displayTimeUnit":"ms","traceEvents":[`...)
	first := true
	next := func() { // separate events and flush a full buffer
		if !first {
			buf = append(buf, ',')
		}
		first = false
		buf = append(buf, '\n')
		if len(buf) >= traceFlushBytes {
			bw.Write(buf)
			buf = buf[:0]
		}
	}
	// Name the per-kind tracks.
	for k := 0; k < numEvKinds; k++ {
		next()
		buf = appendThreadName(buf, k, evNames[k])
	}
	// Name the injected span tracks, after the per-kind tids.
	for i, tr := range t.spanTracks {
		next()
		buf = appendThreadName(buf, numEvKinds+i, tr)
	}
	// Ring in arrival order.
	for i := 0; i < t.ring.Len(); i++ {
		next()
		buf = appendInstant(buf, t.ring.At(i))
	}
	// Injected duration spans, in insertion order.
	for i := range t.spans {
		sp := &t.spans[i]
		next()
		b, err := json.Marshal(&traceEvent{
			Name: sp.name, Ph: "X", Ts: sp.start, Dur: sp.dur, Pid: 0,
			Tid: numEvKinds + sp.track, Args: sp.args,
		})
		if err != nil {
			return err
		}
		buf = append(buf, b...)
	}
	total, dropped := t.Events()
	buf = fmt.Appendf(buf, "\n],\"otherData\":{\"events\":%d,\"dropped\":%d,\"spans\":%d,\"spans_dropped\":%d}}\n",
		total, dropped, len(t.spans), t.spanDropped)
	bw.Write(buf)
	return bw.err
}

// errWriter sticks at the first write error.
type errWriter struct {
	w   io.Writer
	err error
}

func (e *errWriter) Write(p []byte) (int, error) {
	if e.err != nil {
		return 0, e.err
	}
	n, err := e.w.Write(p)
	e.err = err
	return n, err
}
