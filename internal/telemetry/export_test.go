package telemetry

import (
	"encoding/json"
	"fmt"
	"io"

	"silcfm/internal/mem"
	"silcfm/internal/stats"
)

// WriteReference is the reference trace encoder Tracer.Write must match
// byte for byte: every event, ring events included, goes through
// encoding/json with its args as a map (encoding/json sorts map keys).
func (t *Tracer) WriteReference(w io.Writer) error {
	bw := &errWriter{w: w}
	io.WriteString(bw, `{"displayTimeUnit":"ms","traceEvents":[`)
	first := true
	emit := func(ev *traceEvent) {
		if !first {
			io.WriteString(bw, ",\n")
		} else {
			io.WriteString(bw, "\n")
			first = false
		}
		b, err := json.Marshal(ev)
		if err != nil {
			bw.err = err
			return
		}
		bw.Write(b)
	}
	for k := 0; k < numEvKinds; k++ {
		emit(&traceEvent{Name: "thread_name", Ph: "M", Pid: 0, Tid: k,
			Args: map[string]any{"name": evNames[k]}})
	}
	for i, tr := range t.spanTracks {
		emit(&traceEvent{Name: "thread_name", Ph: "M", Pid: 0, Tid: numEvKinds + i,
			Args: map[string]any{"name": tr}})
	}
	for i := 0; i < t.ring.Len(); i++ {
		e := t.ring.At(i)
		emit(&traceEvent{
			Name: evNames[e.kind], Ph: "i", Ts: e.cycle, Pid: 0, Tid: int(e.kind),
			S: "t", Args: referenceArgs(e),
		})
	}
	for i := range t.spans {
		sp := &t.spans[i]
		emit(&traceEvent{
			Name: sp.name, Ph: "X", Ts: sp.start, Dur: sp.dur, Pid: 0,
			Tid: numEvKinds + sp.track, Args: sp.args,
		})
	}
	total, dropped := t.Events()
	fmt.Fprintf(bw, "\n],\"otherData\":{\"events\":%d,\"dropped\":%d,\"spans\":%d,\"spans_dropped\":%d}}\n",
		total, dropped, len(t.spans), t.spanDropped)
	return bw.err
}

func referenceLoc(l mem.Location) string {
	lv := "NM"
	if l.Level == stats.FM {
		lv = "FM"
	}
	return fmt.Sprintf("%s:0x%x", lv, l.DevAddr)
}

func referenceArgs(e *event) map[string]any {
	switch e.kind {
	case evDemand:
		op := "read"
		if e.write {
			op = "write"
		}
		return map[string]any{"pa": fmt.Sprintf("0x%x", e.pa()), "loc": referenceLoc(e.a()), "op": op}
	case evCapture:
		return map[string]any{"loc": referenceLoc(e.a())}
	case evDeliver, evRelocate:
		return map[string]any{"src": referenceLoc(e.a()), "dst": referenceLoc(e.b())}
	case evSwap:
		return map[string]any{"a": referenceLoc(e.a()), "b": referenceLoc(e.b())}
	case evLock:
		kind := "interleaved"
		if e.write {
			kind = "home"
		}
		return map[string]any{"frame": e.aAddr, "block": e.pa(), "kind": kind}
	default: // evUnlock
		return map[string]any{"frame": e.aAddr, "block": e.pa()}
	}
}
