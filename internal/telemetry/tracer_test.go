package telemetry_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"testing"

	"silcfm/internal/config"
	"silcfm/internal/cpu"
	"silcfm/internal/harness"
	"silcfm/internal/mem"
	"silcfm/internal/sim"
	"silcfm/internal/stats"
	"silcfm/internal/telemetry"
	"silcfm/internal/telemetry/exemplar"
	"silcfm/internal/vm"
	"silcfm/internal/workload"
)

// TestTraceWriteMatchesReference runs a small SILC-FM simulation whose trace
// ring wraps, lays the run's tail exemplars into it as span waterfalls the
// way harness.Run does, and requires Tracer.Write to produce exactly the
// bytes of the encoding/json reference encoder.
func TestTraceWriteMatchesReference(t *testing.T) {
	m := config.Small()
	m.Scheme = config.SchemeSILCFM
	eng := sim.NewEngine()
	sys := mem.NewSystem(m, eng)
	ctl, err := harness.NewController(m, sys)
	if err != nil {
		t.Fatal(err)
	}
	params, _ := workload.Spec("milc")
	params = workload.ScaleFootprint(params, 1, 16)
	gens := make([]workload.Generator, m.Cores)
	targets := make([]uint64, m.Cores)
	for i := range gens {
		gens[i] = workload.NewSynthetic(params, m.Seed+int64(i)*7919)
		targets[i] = 50_000
	}
	space := vm.NewAddressSpace(m.NM.Capacity, m.FM.Capacity, vm.PolicyInterleaved, m.Seed)
	xlate := func(c int, va uint64) uint64 { return space.MustTranslate(vm.CoreVA(c, va)) }
	exr := exemplar.New(exemplar.Config{}, sys, ctl)
	sys.AttachObserver(exr)
	const limit = 4096
	tel := telemetry.Attach(&telemetry.Config{TraceW: io.Discard, TraceLimit: limit}, sys, ctl)
	cx := cpu.NewComplexTargets(m, eng, gens, xlate, ctl, targets)
	cx.Start()
	tel.Start()
	eng.RunWhile(func() bool { return !cx.AllDone() })

	// Kinds this run rarely produces, so every encoder branch is compared.
	tr := tel.Tracer()
	tr.Relocate(mem.Location{Level: stats.FM, DevAddr: 0x800}, mem.Location{Level: stats.NM, DevAddr: 0x40})
	tr.Lock(3, 1<<40, true)
	tr.Lock(4, 0, false)
	tr.Unlock(3, 1<<40)
	tr.Demand(^uint64(0), mem.Location{Level: stats.FM, DevAddr: 0}, true)
	es := exr.Snapshot()
	if len(es) == 0 {
		t.Fatal("run captured no exemplars")
	}
	for _, e := range es {
		track := "exemplar:" + e.Path
		op := "read"
		if e.Write {
			op = "write"
		}
		tr.AddSpan(track, fmt.Sprintf("pa=0x%x", e.PAddr), e.StartCycle, e.Latency,
			map[string]any{"op": op, "core": e.Core, "block": e.Block, "lat": e.Latency, "seq": e.Seq})
		off := e.StartCycle
		for _, sp := range e.Spans {
			if sp.Cycles != 0 {
				tr.AddSpan(track, sp.Span, off, sp.Cycles, nil)
				off += sp.Cycles
			}
		}
	}
	// Track names that each need one kind of JSON escaping.
	for _, name := range []string{"lt<", "gt>", "amp&", `quote"`, `back\`, "ctl\x01", "utf8é", "sep\u2028", "bad\xff"} {
		tr.AddSpan(name, name, 1, 2, nil)
	}
	if total, dropped := tr.Events(); dropped == 0 || total <= limit {
		t.Fatalf("ring did not wrap: %d events, %d dropped", total, dropped)
	}

	var got, want bytes.Buffer
	if err := tr.Write(&got); err != nil {
		t.Fatal(err)
	}
	if err := tr.WriteReference(&want); err != nil {
		t.Fatal(err)
	}
	for _, kind := range []string{"demand", "capture", "deliver", "relocate", "swap", "lock", "unlock"} {
		if !bytes.Contains(got.Bytes(), []byte(`{"name":"`+kind+`","ph":"i"`)) {
			t.Errorf("kept ring has no %s event", kind)
		}
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		g, w := got.Bytes(), want.Bytes()
		i := 0
		for i < len(g) && i < len(w) && g[i] == w[i] {
			i++
		}
		lo := max(i-80, 0)
		t.Fatalf("trace bytes differ at offset %d:\ngot  %q\nwant %q", i, g[lo:min(i+80, len(g))], w[lo:min(i+80, len(w))])
	}
}

// TestTraceRingKeepsLastLimitInOrder overflows a ring whose limit is not a
// power of two by more than two revolutions and checks that the written
// trace holds exactly the last limit events, oldest first.
func TestTraceRingKeepsLastLimitInOrder(t *testing.T) {
	const limit, n = 37, 3*37 + 5
	tr := telemetry.NewTracer(sim.NewEngine(), limit)
	for i := uint64(0); i < n; i++ {
		tr.Demand(i, mem.Location{Level: stats.MemLevel(i % 2), DevAddr: i * 64}, i%3 == 0)
	}
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph   string `json:"ph"`
			Args struct {
				PA  string `json:"pa"`
				Loc string `json:"loc"`
				Op  string `json:"op"`
			} `json:"args"`
		} `json:"traceEvents"`
		OtherData struct {
			Events, Dropped uint64
		} `json:"otherData"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	var got []string
	for _, e := range doc.TraceEvents {
		if e.Ph == "i" {
			got = append(got, e.Args.PA+" "+e.Args.Loc+" "+e.Args.Op)
		}
	}
	var want []string
	for i := uint64(n - limit); i < n; i++ {
		loc, op := "NM", "read"
		if i%2 == 1 {
			loc = "FM"
		}
		if i%3 == 0 {
			op = "write"
		}
		want = append(want, fmt.Sprintf("0x%x %s:0x%x %s", i, loc, i*64, op))
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("kept events:\n got %v\nwant %v", got, want)
	}
	if doc.OtherData.Events != n || doc.OtherData.Dropped != n-limit {
		t.Fatalf("otherData events %d dropped %d, want %d and %d",
			doc.OtherData.Events, doc.OtherData.Dropped, n, n-limit)
	}
}
