package telemetry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"silcfm/internal/mem"
	"silcfm/internal/stats"
)

// WriteReference is the reference trace encoder Tracer.Write must match
// byte for byte: every event, ring events included, goes through
// encoding/json with its args as a map (encoding/json sorts map keys).
func (t *Tracer) WriteReference(w io.Writer) error {
	var bw bytes.Buffer
	var err error
	bw.WriteString(`{"displayTimeUnit":"ms","traceEvents":[`)
	first := true
	emit := func(ev *traceEvent) {
		if !first {
			bw.WriteString(",\n")
		} else {
			bw.WriteString("\n")
			first = false
		}
		b, merr := json.Marshal(ev)
		if merr != nil && err == nil {
			err = merr
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
	fmt.Fprintf(&bw, "\n],\"otherData\":{\"events\":%d,\"dropped\":%d,\"spans\":%d,\"spans_dropped\":%d}}\n",
		total, dropped, len(t.spans), t.spanDropped)
	if err != nil {
		return err
	}
	_, err = w.Write(bw.Bytes())
	return err
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

// WriteJSONLReference is the reference profile encoder Profiler.WriteJSONL
// must match byte for byte: every line goes through encoding/json, as the
// kind followed by the embedded profile struct, entries sorted by key.
func (p *Profiler) WriteJSONLReference(w io.Writer) error {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	blocks := make([]BlockProfile, p.blocks.Len())
	for i := range blocks {
		blocks[i] = *p.blocks.Value(i)
		blocks[i].Block = p.blocks.Key(i)
	}
	sort.Slice(blocks, func(i, j int) bool { return blocks[i].Block < blocks[j].Block })
	for i := range blocks {
		if err := enc.Encode(struct {
			Kind string `json:"kind"`
			*BlockProfile
		}{"block", &blocks[i]}); err != nil {
			return err
		}
	}
	pcs := make([]PCProfile, p.pcs.Len())
	for i := range pcs {
		pcs[i] = *p.pcs.Value(i)
		pcs[i].PC = p.pcs.Key(i)
	}
	sort.Slice(pcs, func(i, j int) bool { return pcs[i].PC < pcs[j].PC })
	for i := range pcs {
		if err := enc.Encode(struct {
			Kind string `json:"kind"`
			*PCProfile
		}{"pc", &pcs[i]}); err != nil {
			return err
		}
	}
	if err := enc.Encode(struct {
		Kind          string `json:"kind"`
		Blocks        int    `json:"blocks"`
		PCs           int    `json:"pcs"`
		DroppedBlocks uint64 `json:"dropped_blocks"`
		DroppedPCs    uint64 `json:"dropped_pcs"`
	}{"summary", p.blocks.Len(), p.pcs.Len(), p.blocks.Dropped(), p.pcs.Dropped()}); err != nil {
		return err
	}
	_, err := w.Write(buf.Bytes())
	return err
}

// ProfileEntries returns block's and pc's profiles, adding either key while
// its table has room (nil once full), so tests can set counters directly.
func (p *Profiler) ProfileEntries(block, pc uint64) (*BlockProfile, *PCProfile) {
	return p.blocks.Get(block), p.pcs.Get(pc)
}
