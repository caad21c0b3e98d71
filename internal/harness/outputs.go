package harness

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"silcfm/internal/health"
	"silcfm/internal/telemetry"
	"silcfm/internal/telemetry/exemplar"
)

// Outputs names the files one run writes; an empty name writes nothing.
// Run creates every named output before the first simulated cycle, so a
// path that cannot be created fails the run before it simulates, and
// writes them once the simulation completes (audit failures included).
//
// In ExpConfig.Out the names are directories instead: each sweep cell
// writes <dir>/<sweep>_<label>_<workload> plus the kind's suffix (see
// forCell). Sweeps write the metrics, trace, profile, health and
// postmortem kinds; Exemplars applies to single runs only.
type Outputs struct {
	// Metrics receives the epoch samples as JSONL; a name ending in ".csv"
	// switches to CSV with a header row.
	Metrics string
	// Trace receives the Perfetto movement trace JSON.
	Trace string
	// Profile receives the per-block / per-PC hotness profile JSONL.
	Profile string
	// Health receives the health incidents plus a summary line as JSONL.
	Health string
	// Exemplars receives every captured tail exemplar as JSONL.
	Exemplars string
	// Postmortem is a directory receiving one bundle-NNN.json per
	// flight-recorder bundle.
	Postmortem string
}

// forCell maps directory-valued outputs to the files of the sweep cell
// with the given id, named after the id with "/" replaced by "_".
func (o Outputs) forCell(id string) Outputs {
	stem := strings.ReplaceAll(id, "/", "_")
	join := func(dir, suffix string) string {
		if dir == "" {
			return ""
		}
		return filepath.Join(dir, stem+suffix)
	}
	return Outputs{
		Metrics:    join(o.Metrics, ".jsonl"),
		Trace:      join(o.Trace, ".json"),
		Profile:    join(o.Profile, ".profile.jsonl"),
		Health:     join(o.Health, ".health.jsonl"),
		Postmortem: join(o.Postmortem, ""),
	}
}

// runFiles is one run's open outputs.
type runFiles struct {
	metrics, trace, profile, health, exemplars *os.File
	postmortem                                 string
}

// create opens every file o names and creates the postmortem directory.
// On failure it closes the files it already opened.
func (o Outputs) create() (*runFiles, error) {
	f := &runFiles{postmortem: o.Postmortem}
	for _, c := range []struct {
		path string
		dst  **os.File
	}{
		{o.Metrics, &f.metrics},
		{o.Trace, &f.trace},
		{o.Profile, &f.profile},
		{o.Health, &f.health},
		{o.Exemplars, &f.exemplars},
	} {
		if c.path == "" {
			continue
		}
		file, err := os.Create(c.path)
		if err != nil {
			f.close()
			return nil, fmt.Errorf("harness: output: %w", err)
		}
		*c.dst = file
	}
	if o.Postmortem != "" {
		if err := os.MkdirAll(o.Postmortem, 0o755); err != nil {
			f.close()
			return nil, fmt.Errorf("harness: output: %w", err)
		}
	}
	return f, nil
}

// attach points the telemetry writers at the open metrics, trace and
// profile files; a CSV metrics name selects the CSV stream.
func (f *runFiles) attach(tcfg *telemetry.Config, metricsName string) {
	if f.metrics != nil {
		tcfg.MetricsW, tcfg.MetricsCSV = f.metrics, strings.HasSuffix(metricsName, ".csv")
	}
	if f.trace != nil {
		tcfg.TraceW = f.trace
	}
	if f.profile != nil {
		tcfg.ProfileW = f.profile
	}
}

// write writes the end-of-run outputs: health incidents, tail exemplars
// and one bundle-NNN.json per postmortem bundle.
func (f *runFiles) write(res *Result) error {
	if f.health != nil {
		if err := health.WriteJSONL(f.health, res.Health); err != nil {
			return fmt.Errorf("harness: health output: %w", err)
		}
	}
	if f.exemplars != nil {
		if err := exemplar.WriteJSONL(f.exemplars, res.Exemplars); err != nil {
			return fmt.Errorf("harness: exemplar output: %w", err)
		}
	}
	for i := 0; f.postmortem != "" && i < len(res.Bundles); i++ {
		b := &res.Bundles[i]
		file, err := os.Create(filepath.Join(f.postmortem, fmt.Sprintf("bundle-%03d.json", b.Seq)))
		if err == nil {
			err = b.Encode(file)
			if cerr := file.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			return fmt.Errorf("harness: postmortem output: %w", err)
		}
	}
	return nil
}

// close closes every open file and returns the first error: a file that
// failed to flush left its output truncated.
func (f *runFiles) close() error {
	var first error
	for _, file := range []*os.File{f.metrics, f.trace, f.profile, f.health, f.exemplars} {
		if file == nil {
			continue
		}
		if err := file.Close(); err != nil && first == nil {
			first = fmt.Errorf("harness: output: %w", err)
		}
	}
	return first
}
