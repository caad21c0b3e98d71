// Command silcfm-trace captures synthetic workload reference streams into
// trace files and inspects existing traces.
//
// Usage:
//
//	silcfm-trace -gen -workload mcf -n 1000000 -o mcf.sfmt
//	silcfm-trace -inspect mcf.sfmt
//	silcfm-trace -inspect run.json -path swap -slowest 5   # Perfetto trace
//	silcfm-trace -characterize          # profile all 14 synthetic workloads
//
// -inspect also understands the Perfetto/Chrome trace JSON the simulator
// writes with -trace-out: it locates the injected tail-exemplar span trees
// ("exemplar:<path>" tracks) and prints their waterfalls, filtered with
// -path (demand path substring) and -slowest N (worst N by duration).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"silcfm/internal/memunits"
	"silcfm/internal/stats"
	"silcfm/internal/workload"
)

func main() {
	var (
		gen     = flag.Bool("gen", false, "generate a trace")
		inspect = flag.String("inspect", "", "inspect a trace file")
		char    = flag.Bool("characterize", false, "profile the synthetic workloads")
		wl      = flag.String("workload", "mcf", "workload to capture")
		n       = flag.Uint64("n", 1_000_000, "references to capture")
		out     = flag.String("o", "", "output file (default <workload>.sfmt)")
		seed    = flag.Int64("seed", 1, "generator seed")

		metricsOut   = flag.String("metrics-out", "", "with -gen: stream windowed workload-characterization JSONL to this file")
		metricsEpoch = flag.Uint64("metrics-epoch", 100_000, "references per characterization window")
		progress     = flag.Bool("progress", false, "with -gen: print a progress line per window to stderr")
		topK         = flag.Int("topk", 0, "with -inspect: also list the K hottest 2 KB pages and PCs")
		pathFilter   = flag.String("path", "", "with -inspect on a Perfetto trace: only exemplar span trees on this demand path (substring match)")
		slowest      = flag.Int("slowest", 0, "with -inspect on a Perfetto trace: only the N slowest exemplar span trees (0 = all)")
	)
	flag.Parse()

	switch {
	case *gen:
		if err := generate(*wl, *n, *out, *seed, *metricsOut, *metricsEpoch, *progress); err != nil {
			fmt.Fprintln(os.Stderr, "silcfm-trace:", err)
			os.Exit(1)
		}
	case *inspect != "":
		if isPerfettoTrace(*inspect) {
			if err := inspectPerfetto(*inspect, *pathFilter, *slowest); err != nil {
				fmt.Fprintln(os.Stderr, "silcfm-trace:", err)
				os.Exit(1)
			}
			return
		}
		if err := inspectFile(*inspect, *topK); err != nil {
			fmt.Fprintln(os.Stderr, "silcfm-trace:", err)
			os.Exit(1)
		}
	case *char:
		characterizeAll(*n, *seed)
	default:
		flag.Usage()
		os.Exit(2)
	}
}

func generate(wl string, n uint64, out string, seed int64, metricsOut string, window uint64, progress bool) error {
	g, ok := workload.New(wl, seed)
	if !ok {
		return fmt.Errorf("unknown workload %q", wl)
	}
	if out == "" {
		out = wl + ".sfmt"
	}
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	defer f.Close()
	w, err := workload.NewTraceWriter(f, wl)
	if err != nil {
		return err
	}
	var mw *windowMetrics
	if metricsOut != "" {
		mf, err := os.Create(metricsOut)
		if err != nil {
			return err
		}
		defer mf.Close()
		mw = newWindowMetrics(mf, window)
	}
	start := time.Now()
	var r workload.Ref
	for i := uint64(0); i < n; i++ {
		g.Next(&r)
		if err := w.Write(r); err != nil {
			return err
		}
		if mw != nil {
			if err := mw.observe(&r); err != nil {
				return err
			}
		}
		if progress && window > 0 && (i+1)%window == 0 {
			done := i + 1
			note := ""
			// Same host-rate/ETA arithmetic as the simulator's telemetry
			// progress line, in references instead of cycles.
			// stats.Ratio guards the zero-elapsed and zero-done edges so a
			// sub-millisecond or empty capture never prints NaN/Inf.
			if elapsed := time.Since(start).Seconds(); elapsed > 0 {
				note = fmt.Sprintf(" %.1f Mref/s", stats.Ratio(float64(done), elapsed)/1e6)
				if done < n {
					eta := time.Duration(elapsed * stats.Ratio(float64(n-done), float64(done)) * float64(time.Second))
					note += " eta " + eta.Round(time.Second).String()
				}
			}
			fmt.Fprintf(os.Stderr, "progress: refs=%d/%d (%.1f%%)%s\n",
				done, n, 100*stats.Ratio(float64(done), float64(n)), note)
		}
	}
	if mw != nil {
		if err := mw.finish(); err != nil {
			return err
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	fmt.Printf("wrote %d references for %s to %s\n", w.Count(), wl, out)
	return nil
}

// windowMetrics streams per-window workload characterization as JSONL: one
// line per `window` references with reference, write, instruction and
// unique-page/subblock counts. Field order is fixed, so output is
// byte-deterministic for a fixed seed.
type windowMetrics struct {
	w      io.Writer
	window uint64

	idx       uint64
	refs      uint64
	writes    uint64
	instr     uint64
	pages     map[uint64]struct{}
	subblocks map[uint64]struct{}
}

type windowSample struct {
	Window    uint64  `json:"window"`
	Refs      uint64  `json:"refs"`
	Writes    uint64  `json:"writes"`
	WriteFrac float64 `json:"write_frac"`
	Instr     uint64  `json:"instr"`
	MeanGap   float64 `json:"mean_gap"`
	Pages     int     `json:"pages"`
	Subblocks int     `json:"subblocks"`
	// SubblocksPerPage measures spatial locality within the window.
	SubblocksPerPage float64 `json:"subblocks_per_page"`
}

func newWindowMetrics(w io.Writer, window uint64) *windowMetrics {
	if window == 0 {
		window = 100_000
	}
	return &windowMetrics{
		w: w, window: window,
		pages:     map[uint64]struct{}{},
		subblocks: map[uint64]struct{}{},
	}
}

func (m *windowMetrics) observe(r *workload.Ref) error {
	m.refs++
	if r.Write {
		m.writes++
	}
	m.instr += uint64(r.Gap)
	m.pages[memunits.BlockOf(r.VAddr)] = struct{}{}
	m.subblocks[memunits.SubblockOf(r.VAddr)] = struct{}{}
	if m.refs < m.window {
		return nil
	}
	return m.flush()
}

func (m *windowMetrics) finish() error {
	if m.refs == 0 {
		return nil
	}
	return m.flush()
}

func (m *windowMetrics) flush() error {
	s := windowSample{
		Window:    m.idx,
		Refs:      m.refs,
		Writes:    m.writes,
		Instr:     m.instr,
		Pages:     len(m.pages),
		Subblocks: len(m.subblocks),
	}
	// stats.Ratio: an empty window (no references, no pages) emits 0 for
	// each derived rate instead of NaN in the JSONL stream.
	s.WriteFrac = stats.Ratio(float64(m.writes), float64(m.refs))
	s.MeanGap = stats.Ratio(float64(m.instr), float64(m.refs))
	s.SubblocksPerPage = stats.Ratio(float64(len(m.subblocks)), float64(len(m.pages)))
	b, err := json.Marshal(&s)
	if err != nil {
		return err
	}
	b = append(b, '\n')
	if _, err := m.w.Write(b); err != nil {
		return err
	}
	m.idx++
	m.refs, m.writes, m.instr = 0, 0, 0
	m.pages = map[uint64]struct{}{}
	m.subblocks = map[uint64]struct{}{}
	return nil
}

// isPerfettoTrace sniffs whether path holds the Chrome trace-event JSON the
// simulator's -trace-out writes (as opposed to a binary .sfmt reference
// trace): the file starts with '{'.
func isPerfettoTrace(path string) bool {
	f, err := os.Open(path)
	if err != nil {
		return false
	}
	defer f.Close()
	var b [1]byte
	if _, err := io.ReadFull(f, b[:]); err != nil {
		return false
	}
	return b[0] == '{'
}

// perfettoEvent is the subset of the Chrome trace-event shape -inspect
// needs to locate exemplar span trees.
type perfettoEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   uint64         `json:"ts"`
	Dur  uint64         `json:"dur"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// spanTree is one exemplar's parent span plus its child component spans.
type spanTree struct {
	track    string // "exemplar:<path>"
	name     string // "pa=0x..."
	ts, dur  uint64
	children []perfettoEvent
}

// inspectPerfetto summarizes a Perfetto trace file and prints its injected
// exemplar span trees (see parsePerfetto and perfettoTrace.print).
func inspectPerfetto(path, pathFilter string, slowest int) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	p, err := parsePerfetto(data)
	if err != nil {
		return fmt.Errorf("%s: not a Perfetto trace: %w", path, err)
	}
	p.print(os.Stdout, pathFilter, slowest)
	return nil
}

// perfettoTrace is what -inspect reads from a Perfetto trace: the ring's
// instant count, the trace's own otherData counts and the exemplar span
// trees in trace order.
type perfettoTrace struct {
	instants int
	other    traceCounts
	trees    []spanTree
}

// traceCounts is a trace's otherData: movement events observed and
// dropped, injected spans kept and dropped.
type traceCounts struct {
	Events       uint64 `json:"events"`
	Dropped      uint64 `json:"dropped"`
	Spans        uint64 `json:"spans"`
	SpansDropped uint64 `json:"spans_dropped"`
}

// parsePerfetto decodes a Perfetto trace: a JSON object with a traceEvents
// array. Exemplar parents are the "pa=0x..." spans on "exemplar:*" tracks;
// a component span that follows a parent on its track joins the latest one
// that contains it in time.
func parsePerfetto(data []byte) (*perfettoTrace, error) {
	var doc struct {
		TraceEvents []perfettoEvent `json:"traceEvents"`
		OtherData   traceCounts     `json:"otherData"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, err
	}
	if doc.TraceEvents == nil {
		return nil, errors.New("no traceEvents array")
	}
	p := &perfettoTrace{other: doc.OtherData}
	tracks := map[int]string{}
	for i := range doc.TraceEvents {
		e := &doc.TraceEvents[i]
		switch e.Ph {
		case "M":
			if e.Name == "thread_name" {
				if name, ok := e.Args["name"].(string); ok {
					tracks[e.Tid] = name
				}
			}
		case "i":
			p.instants++
		}
	}
	for i := range doc.TraceEvents {
		e := &doc.TraceEvents[i]
		if e.Ph != "X" || !strings.HasPrefix(tracks[e.Tid], "exemplar:") {
			continue
		}
		if strings.HasPrefix(e.Name, "pa=") {
			p.trees = append(p.trees, spanTree{track: tracks[e.Tid], name: e.Name, ts: e.Ts, dur: e.Dur})
			continue
		}
		for j := len(p.trees) - 1; j >= 0; j-- {
			t := &p.trees[j]
			// Containment without forming either end, which can pass 2^64.
			if t.track == tracks[e.Tid] && e.Ts >= t.ts && e.Dur <= t.dur && e.Ts-t.ts <= t.dur-e.Dur {
				t.children = append(t.children, *e)
				break
			}
		}
	}
	return p, nil
}

// print writes the trace summary and its span trees, filtered by demand
// path substring and bounded to the N slowest (by parent duration; ties
// broken by start then track for a deterministic listing). It filters and
// sorts p.trees in place.
func (p *perfettoTrace) print(w io.Writer, pathFilter string, slowest int) {
	trees := p.trees
	fmt.Fprintf(w, "perfetto trace: %d movement events kept (%d observed, %d dropped), %d injected spans (%d dropped), %d exemplar span trees\n",
		p.instants, p.other.Events, p.other.Dropped, p.other.Spans, p.other.SpansDropped, len(trees))
	if pathFilter != "" {
		kept := trees[:0]
		for _, t := range trees {
			if strings.Contains(strings.TrimPrefix(t.track, "exemplar:"), pathFilter) {
				kept = append(kept, t)
			}
		}
		trees = kept
		fmt.Fprintf(w, "path filter %q: %d span trees match\n", pathFilter, len(trees))
	}
	sort.SliceStable(trees, func(i, j int) bool {
		if trees[i].dur != trees[j].dur {
			return trees[i].dur > trees[j].dur
		}
		if trees[i].ts != trees[j].ts {
			return trees[i].ts < trees[j].ts
		}
		return trees[i].track < trees[j].track
	})
	if slowest > 0 && len(trees) > slowest {
		fmt.Fprintf(w, "showing the %d slowest of %d\n", slowest, len(trees))
		trees = trees[:slowest]
	}
	for _, t := range trees {
		fmt.Fprintf(w, "%s  %s  start=%d dur=%d\n", t.track, t.name, t.ts, t.dur)
		for _, c := range t.children {
			fmt.Fprintf(w, "    %-12s +%-8d %d cycles\n", c.Name, c.Ts-t.ts, c.Dur)
		}
	}
}

func inspectFile(path string, topK int) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	rp, err := workload.LoadReplay(f)
	if err != nil {
		return err
	}
	p := workload.Characterize(rp.CloneAt(0, 1), rp.Len())
	fmt.Printf("workload:      %s\n", rp.Name())
	fmt.Printf("references:    %d (%.1f%% writes)\n", p.Refs, 100*p.WriteFrac)
	fmt.Printf("instructions:  %d (%.1f per reference)\n", p.Instructions, p.MeanGap)
	fmt.Printf("footprint:     %d pages (%.1f MiB), %d subblocks\n",
		p.Pages, float64(p.FootprintBytes())/(1<<20), p.Subblocks)
	fmt.Printf("spatial:       %.1f touched subblocks per touched page\n", p.SubblocksPerPage)
	fmt.Printf("hot-set skew:  %.1f%% of references hit the 64 hottest pages\n", 100*p.Top64Share)
	if topK > 0 {
		fmt.Println()
		printTopK(rp, topK)
	}
	return nil
}

// printTopK lists the trace's hottest 2 KB pages and PCs by static
// reference count — the workload-side view of the simulator's dynamic
// hotness profile (silcfm-sim -profile-topk).
func printTopK(rp *workload.Replay, k int) {
	type kc struct {
		key, count uint64
	}
	pages := map[uint64]uint64{}
	pcs := map[uint64]uint64{}
	g := rp.CloneAt(0, 1)
	var r workload.Ref
	for i := 0; i < rp.Len(); i++ {
		g.Next(&r)
		pages[memunits.BlockOf(r.VAddr)]++
		pcs[r.PC]++
	}
	top := func(m map[uint64]uint64) []kc {
		t := stats.NewTopK(k, func(a, b *kc) bool {
			if a.count != b.count {
				return a.count > b.count
			}
			return a.key < b.key
		})
		var e kc
		for e.key, e.count = range m {
			t.Insert(&e)
		}
		return t.Sorted()
	}
	fmt.Printf("top %d pages (of %d):\n", k, len(pages))
	for _, e := range top(pages) {
		fmt.Printf("  page %-10d refs=%d\n", e.key, e.count)
	}
	fmt.Printf("top %d PCs (of %d):\n", k, len(pcs))
	for _, e := range top(pcs) {
		fmt.Printf("  pc 0x%-10x refs=%d\n", e.key, e.count)
	}
}

// characterizeAll profiles every Table III workload over n references.
func characterizeAll(n uint64, seed int64) {
	fmt.Printf("%-8s %6s %9s %9s %8s %8s %8s\n",
		"name", "class", "pages", "spatial", "top64", "writes", "gap")
	for _, name := range workload.Names {
		g, _ := workload.New(name, seed)
		params, _ := workload.Spec(name)
		p := workload.Characterize(g, int(n))
		fmt.Printf("%-8s %6s %9d %9.1f %7.1f%% %7.1f%% %8.1f\n",
			name, params.Class, p.Pages, p.SubblocksPerPage,
			100*p.Top64Share, 100*p.WriteFrac, p.MeanGap)
	}
}
