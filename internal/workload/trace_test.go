package workload

import (
	"bytes"
	"io"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func TestTraceRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewTraceWriter(&buf, "mcf")
	if err != nil {
		t.Fatal(err)
	}
	g, _ := New("mcf", 3)
	var want []Ref
	for i := 0; i < 1000; i++ {
		var r Ref
		g.Next(&r)
		want = append(want, r)
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if w.Count() != 1000 {
		t.Fatalf("Count = %d", w.Count())
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	r, err := NewTraceReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if r.Name() != "mcf" {
		t.Fatalf("Name = %q", r.Name())
	}
	for i, wantRef := range want {
		var got Ref
		if err := r.Read(&got); err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if got != wantRef {
			t.Fatalf("record %d: %+v != %+v", i, got, wantRef)
		}
	}
	var extra Ref
	if err := r.Read(&extra); err != io.EOF {
		t.Fatalf("expected EOF, got %v", err)
	}
}

// Property: arbitrary records survive serialization.
func TestTraceRoundTripProperty(t *testing.T) {
	f := func(pc, va uint64, gap uint32, write bool) bool {
		if gap == 0 {
			gap = 1
		}
		in := Ref{PC: pc, VAddr: va, Gap: gap, Write: write}
		var buf bytes.Buffer
		w, err := NewTraceWriter(&buf, "p")
		if err != nil {
			return false
		}
		if w.Write(in) != nil || w.Flush() != nil {
			return false
		}
		r, err := NewTraceReader(&buf)
		if err != nil {
			return false
		}
		var out Ref
		return r.Read(&out) == nil && out == in
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTraceBadHeader(t *testing.T) {
	if _, err := NewTraceReader(strings.NewReader("BOGUSHEADERBOGUSHEADERBOGUSHEADER")); err == nil {
		t.Fatal("bad magic accepted")
	}
	if _, err := NewTraceReader(strings.NewReader("xy")); err == nil {
		t.Fatal("truncated header accepted")
	}
}

func TestTraceLongNameTruncated(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewTraceWriter(&buf, "averyveryverylongworkloadname")
	if err != nil {
		t.Fatal(err)
	}
	w.Flush()
	r, err := NewTraceReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Name()) != 16 {
		t.Fatalf("name %q not truncated to 16 bytes", r.Name())
	}
}

func TestReplayLoops(t *testing.T) {
	refs := []Ref{
		{PC: 1, VAddr: 0x1000, Gap: 2},
		{PC: 2, VAddr: 0x2000, Gap: 3, Write: true},
	}
	p, err := NewReplay("loop", refs)
	if err != nil {
		t.Fatal(err)
	}
	if p.Len() != 2 || p.Name() != "loop" {
		t.Fatalf("Len=%d Name=%q", p.Len(), p.Name())
	}
	var r Ref
	for i := 0; i < 6; i++ {
		p.Next(&r)
		if r != refs[i%2] {
			t.Fatalf("iteration %d: %+v", i, r)
		}
	}
	// Footprint counts unique pages.
	if p.FootprintBytes() != 2*2048 {
		t.Fatalf("FootprintBytes = %d", p.FootprintBytes())
	}
}

func TestReplayEmptyRejected(t *testing.T) {
	if _, err := NewReplay("x", nil); err == nil {
		t.Fatal("empty replay accepted")
	}
}

// TestReplayZeroGapRejected: a record that retires no instruction would
// leave a replaying core short of its target forever, so NewReplay
// rejects it and names the record.
func TestReplayZeroGapRejected(t *testing.T) {
	refs := []Ref{{VAddr: 0x1000, Gap: 1}, {VAddr: 0x2000, Gap: 0}}
	_, err := NewReplay("z", refs)
	if err == nil || !strings.Contains(err.Error(), "record 1") {
		t.Fatalf("NewReplay with a gap-0 record: err = %v, want one naming record 1", err)
	}
}

func TestLoadReplay(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewTraceWriter(&buf, "gcc")
	g, _ := New("gcc", 1)
	for i := 0; i < 100; i++ {
		var r Ref
		g.Next(&r)
		w.Write(r)
	}
	w.Flush()
	p, err := LoadReplay(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if p.Len() != 100 || p.Name() != "gcc" {
		t.Fatalf("Len=%d Name=%q", p.Len(), p.Name())
	}
}

func TestReplayCloneAt(t *testing.T) {
	refs := make([]Ref, 8)
	for i := range refs {
		refs[i] = Ref{PC: uint64(i), VAddr: uint64(i) * 2048, Gap: 1}
	}
	p, _ := NewReplay("c", refs)
	c0 := p.CloneAt(0, 4)
	c2 := p.CloneAt(2, 4)
	var a, b Ref
	c0.Next(&a)
	c2.Next(&b)
	if a.PC != 0 || b.PC != 4 {
		t.Fatalf("staggered starts wrong: %d, %d", a.PC, b.PC)
	}
	// Clones are independent cursors.
	c0.Next(&a)
	if a.PC != 1 {
		t.Fatal("clone cursors not independent")
	}
	// n = 0 keeps the current position.
	c := p.CloneAt(3, 0)
	c.Next(&a)
	if a.PC != 0 {
		t.Fatalf("CloneAt(_, 0) moved the cursor: %d", a.PC)
	}
}

// encodeReplay writes p's records through a TraceWriter.
func encodeReplay(t *testing.T, p *Replay) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewTraceWriter(&buf, p.Name())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range p.refs {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzLoadReplay: LoadReplay never panics on any input, and every replay
// it accepts has all gaps >= 1 and round-trips through TraceWriter: the
// re-encoded trace loads to the same name and records and re-encodes to
// the same bytes.
func FuzzLoadReplay(f *testing.F) {
	// A trace captured from a generator, the way silcfm-trace writes one.
	var buf bytes.Buffer
	w, _ := NewTraceWriter(&buf, "mcf")
	g, _ := New("mcf", 1)
	for i := 0; i < 64; i++ {
		var r Ref
		g.Next(&r)
		w.Write(r)
	}
	w.Flush()
	f.Add(buf.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := LoadReplay(bytes.NewReader(data))
		if err != nil {
			return
		}
		for i, r := range p.refs {
			if r.Gap == 0 {
				t.Fatalf("accepted record %d with gap 0", i)
			}
		}
		enc := encodeReplay(t, p)
		q, err := LoadReplay(bytes.NewReader(enc))
		if err != nil {
			t.Fatalf("re-encoded replay does not load: %v", err)
		}
		if q.Name() != p.Name() || !slices.Equal(q.refs, p.refs) {
			t.Fatalf("round trip changed the replay: %q %d records -> %q %d records",
				p.Name(), len(p.refs), q.Name(), len(q.refs))
		}
		if !bytes.Equal(encodeReplay(t, q), enc) {
			t.Fatal("re-encoding a round-tripped replay changed its bytes")
		}
	})
}
