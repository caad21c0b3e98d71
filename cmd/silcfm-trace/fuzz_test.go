package main

import (
	"bytes"
	"encoding/json"
	"math/bits"
	"strings"
	"testing"

	"silcfm/internal/config"
	"silcfm/internal/harness"
	"silcfm/internal/telemetry"
)

// exemplarTrace returns the Perfetto trace of a small SILC-FM run, whose
// tail exemplars the harness lays into it as span trees.
func exemplarTrace(f *testing.F) []byte {
	f.Helper()
	m := config.Small()
	m.Scheme = config.SchemeSILCFM
	var trace bytes.Buffer
	r, err := harness.Run(harness.Spec{
		Machine:      m,
		Workload:     "mcf",
		InstrPerCore: 20_000,
		FootScaleNum: 1,
		FootScaleDen: 32,
		Telemetry:    &telemetry.Config{TraceW: &trace, TraceLimit: 64},
	})
	if err == nil {
		err = r.Err()
	}
	if err != nil {
		f.Fatal(err)
	}
	if !bytes.Contains(trace.Bytes(), []byte(`"exemplar:`)) {
		f.Fatal("seed trace has no exemplar span track")
	}
	return trace.Bytes()
}

// FuzzInspectPerfetto feeds -inspect's Perfetto reader arbitrary bytes. It
// must not panic, must reject anything but a JSON object with a
// traceEvents member, and every child span it nests under a parent must
// lie inside that parent in exact (128-bit) arithmetic, as the printed
// child offsets assume.
func FuzzInspectPerfetto(f *testing.F) {
	trace := exemplarTrace(f)
	f.Add(trace, "", 0)
	f.Add(trace, "swap", 2)
	f.Add(trace[:len(trace)/2], "", 0)
	f.Add([]byte("silcfm trace, not JSON"), "", 0)
	f.Add([]byte(`{"otherData":{"events":1}}`), "", 0)
	f.Add([]byte(`[{"traceEvents":[]}]`), "", 0)
	f.Fuzz(func(t *testing.T, data []byte, pathFilter string, slowest int) {
		p, err := parsePerfetto(data)
		if err != nil {
			return
		}
		var top map[string]json.RawMessage
		if err := json.Unmarshal(data, &top); err != nil {
			t.Fatalf("accepted a non-object: %v", err)
		}
		hasEvents := false
		for k := range top {
			hasEvents = hasEvents || strings.EqualFold(k, "traceEvents")
		}
		if !hasEvents {
			t.Fatal("accepted an object with no traceEvents member")
		}
		for _, tr := range p.trees {
			end, endCarry := bits.Add64(tr.ts, tr.dur, 0)
			for _, c := range tr.children {
				cEnd, cCarry := bits.Add64(c.Ts, c.Dur, 0)
				if c.Ts < tr.ts || cCarry > endCarry || cCarry == endCarry && cEnd > end {
					t.Fatalf("child %q [%d +%d] lies outside parent %q [%d +%d]",
						c.Name, c.Ts, c.Dur, tr.name, tr.ts, tr.dur)
				}
			}
		}
		var out bytes.Buffer
		p.print(&out, pathFilter, slowest)
		if !bytes.HasPrefix(out.Bytes(), []byte("perfetto trace: ")) {
			t.Fatalf("summary line missing: %q", out.String())
		}
	})
}
