package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"math/bits"
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

// appendHex appends head, v in lowercase hexadecimal and a closing quote:
// every address in the trace is a JSON string ending "0x<hex>", and head
// carries everything before the digits.
func appendHex(buf []byte, head string, v uint64) []byte {
	buf = append(buf, head...)
	// Reserve the n digits and the quote, then fill the digits from the
	// right.
	n := max((bits.Len64(v)+3)/4, 1)
	buf = append(buf, `0000000000000000"`[16-n:]...)
	for i := len(buf) - 2; n > 0; i, n = i-1, n-1 {
		buf[i] = "0123456789abcdef"[v&15]
		v >>= 4
	}
	return buf
}

// appendLoc appends a location as the JSON string "NM:0x<addr>" or
// "FM:0x<addr>".
func appendLoc(buf []byte, l mem.Location) []byte {
	if l.Level == stats.FM {
		return appendHex(buf, `"FM:0x`, l.DevAddr)
	}
	return appendHex(buf, `"NM:0x`, l.DevAddr)
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

// instantHead[k] is an instant event of kind k up to its timestamp, led by
// the separator (track names always precede the ring's events), and
// instantArgs[k] the text from after the timestamp through its first arg
// key: the constant parts of every ring event, built once from evNames.
var instantHead, instantArgs = instantPrefixes()

func instantPrefixes() (head, args [numEvKinds]string) {
	firstArg := [numEvKinds]string{"loc", "loc", "dst", "dst", "a", "block", "block"}
	for k, name := range evNames {
		head[k] = ",\n" + `{"name":"` + name + `","ph":"i","ts":`
		args[k] = `,"pid":0,"tid":` + strconv.Itoa(k) + `,"s":"t","args":{"` + firstArg[k] + `":`
	}
	return head, args
}

// appendInstant appends one ring event as an instant event on its kind's
// track, with its separator. Arg keys per kind are fixed and written in
// sorted order.
func appendInstant(buf []byte, e *event) []byte {
	buf = append(buf, instantHead[e.kind]...)
	buf = strconv.AppendUint(buf, e.cycle, 10)
	buf = append(buf, instantArgs[e.kind]...) // through the first arg's key
	switch e.kind {
	case evDemand:
		buf = appendLoc(buf, e.a())
		if e.write {
			buf = appendHex(buf, `,"op":"write","pa":"0x`, e.pa())
		} else {
			buf = appendHex(buf, `,"op":"read","pa":"0x`, e.pa())
		}
	case evCapture:
		buf = appendLoc(buf, e.a())
	case evDeliver, evRelocate:
		buf = appendLoc(buf, e.b())
		buf = appendLoc(append(buf, `,"src":`...), e.a())
	case evSwap:
		buf = appendLoc(buf, e.a())
		buf = appendLoc(append(buf, `,"b":`...), e.b())
	default: // evLock, evUnlock
		buf = strconv.AppendUint(buf, e.pa(), 10)
		buf = strconv.AppendUint(append(buf, `,"frame":`...), e.aAddr, 10)
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

// Write serializes the ring (oldest first) as a Chrome trace JSON object.
func (t *Tracer) Write(w io.Writer) error {
	bw := newBufWriter(w)
	bw.buf = append(bw.buf, `{"displayTimeUnit":"ms","traceEvents":[`...)
	sep := "\n" // before the first event; ",\n" before each later one
	next := func() {
		bw.buf = append(bw.buf, sep...)
		sep = ",\n"
		bw.flushFull()
	}
	// Name the per-kind tracks.
	for k, name := range evNames {
		next()
		bw.buf = appendThreadName(bw.buf, k, name)
	}
	// Name the injected span tracks, after the per-kind tids.
	for i, tr := range t.spanTracks {
		next()
		bw.buf = appendThreadName(bw.buf, numEvKinds+i, tr)
	}
	// Ring in arrival order.
	for i := 0; i < t.ring.Len(); i++ {
		bw.buf = appendInstant(bw.buf, t.ring.At(i))
		bw.flushFull()
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
		bw.buf = append(bw.buf, b...)
	}
	total, dropped := t.Events()
	bw.buf = fmt.Appendf(bw.buf, "\n],\"otherData\":{\"events\":%d,\"dropped\":%d,\"spans\":%d,\"spans_dropped\":%d}}\n",
		total, dropped, len(t.spans), t.spanDropped)
	return bw.flush()
}
