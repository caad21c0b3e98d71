package harness_test

import (
	"bytes"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"testing"

	"silcfm/internal/config"
	"silcfm/internal/flightrec"
	"silcfm/internal/harness"
	"silcfm/internal/manifest"
	"silcfm/internal/telemetry/exemplar"
	"silcfm/internal/telemetry/live"
)

// thrashSpec is the thrash configuration (silcfm-sim -workload milc -instr
// 100000 -scale-instr=false -nm 8 -fm 32 -footscale 16): an 8 MB near
// memory under a milc footprint slice that opens health incidents,
// captures flight-recorder bundles and fills every exemplar reservoir.
func thrashSpec() harness.Spec {
	m := config.Default()
	m.Scheme = config.SchemeSILCFM
	m.NM = config.HBM(8 << 20)
	m.FM = config.DDR3(32 << 20)
	return harness.Spec{
		Machine:      m,
		Workload:     "milc",
		InstrPerCore: 100_000,
		FootScaleNum: 1,
		FootScaleDen: 16,
	}
}

func mustRun(t *testing.T, spec harness.Spec) *harness.Result {
	t.Helper()
	res, err := harness.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Err(); err != nil {
		t.Fatal(err)
	}
	return res
}

// simBytes is res's canonical manifest encoding of everything a run
// computes: the Config and Sim sections, with the sim.exemplars leaf left
// out when withExemplars is false.
func simBytes(t *testing.T, res *harness.Result, withExemplars bool) []byte {
	t.Helper()
	e := manifest.FromResult("thrash", res)
	if !withExemplars {
		e.Sim.Exemplars = nil
	}
	b, err := manifest.Canonical(struct {
		Config manifest.Config
		Sim    manifest.Sim
	}{e.Config, e.Sim})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// allOutputs names every harness.Outputs kind under dir.
func allOutputs(dir string) harness.Outputs {
	return harness.Outputs{
		Metrics:    filepath.Join(dir, "metrics.jsonl"),
		Trace:      filepath.Join(dir, "trace.json"),
		Profile:    filepath.Join(dir, "profile.jsonl"),
		Health:     filepath.Join(dir, "health.jsonl"),
		Exemplars:  filepath.Join(dir, "exemplars.jsonl"),
		Postmortem: filepath.Join(dir, "postmortem"),
	}
}

// scrapedPaths are the hub endpoints the live hub row reads while the run
// publishes.
var scrapedPaths = []string{"/metrics", "/healthz", "/progress", "/api/incidents", "/api/exemplars"}

// runWithHub runs spec attached to a live server while a client cycles
// through every scrapedPaths endpoint, at least once each, until the run
// is done.
func runWithHub(t *testing.T, spec harness.Spec) *harness.Result {
	srv, err := live.New("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	stop := make(chan struct{})
	scraped := make(chan struct{})
	go func() {
		defer close(scraped)
		for {
			for _, p := range scrapedPaths {
				if resp, err := http.Get(srv.URL() + p); err == nil {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
			}
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	done := harness.AttachLive(&spec, srv.Registry(), "thrash")
	res, err := harness.Run(spec)
	done(res)
	close(stop)
	<-scraped
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Err(); err != nil {
		t.Fatal(err)
	}
	return res
}

// TestPlanesAreInert is the one inertness proof for every observability
// plane: the thrash run with each plane switched off, attached to the live
// hub, or writing every output file must compute exactly what the default
// run computes — byte-identical canonical manifest Config and Sim sections,
// incidents and DRAM ledgers included.
func TestPlanesAreInert(t *testing.T) {
	ref := mustRun(t, thrashSpec())
	if len(ref.Health) == 0 || len(ref.Bundles) == 0 || len(ref.Exemplars) == 0 {
		t.Fatalf("reference run has %d incidents, %d bundles, %d exemplars; every row needs all three",
			len(ref.Health), len(ref.Bundles), len(ref.Exemplars))
	}
	want := simBytes(t, ref, true)

	t.Run("flightrec off", func(t *testing.T) {
		spec := thrashSpec()
		spec.Flightrec = &flightrec.Config{Disabled: true}
		res := mustRun(t, spec)
		if res.Bundles != nil {
			t.Errorf("disabled recorder produced %d bundles", len(res.Bundles))
		}
		if got := simBytes(t, res, true); !bytes.Equal(got, want) {
			t.Errorf("recorder off changed the run:\n%s\nvs\n%s", got, want)
		}
	})

	t.Run("exemplars off", func(t *testing.T) {
		spec := thrashSpec()
		spec.Exemplars = &exemplar.Config{Disabled: true}
		res := mustRun(t, spec)
		if res.Exemplars != nil || manifest.FromResult("thrash", res).Sim.Exemplars != nil {
			t.Errorf("disabled recorder produced %d exemplars", len(res.Exemplars))
		}
		if got, want := simBytes(t, res, false), simBytes(t, ref, false); !bytes.Equal(got, want) {
			t.Errorf("recorder off changed the run outside sim.exemplars:\n%s\nvs\n%s", got, want)
		}
	})

	t.Run("live hub", func(t *testing.T) {
		if got := simBytes(t, runWithHub(t, thrashSpec()), true); !bytes.Equal(got, want) {
			t.Errorf("hub attachment changed the run:\n%s\nvs\n%s", got, want)
		}
	})

	t.Run("all outputs", func(t *testing.T) {
		var dirs [2]string
		for i := range dirs {
			dirs[i] = t.TempDir()
			spec := thrashSpec()
			spec.Out = allOutputs(dirs[i])
			if got := simBytes(t, mustRun(t, spec), true); !bytes.Equal(got, want) {
				t.Fatalf("writing every output changed the run:\n%s\nvs\n%s", got, want)
			}
		}
		// Repeat runs write every file byte for byte, bundles included.
		a, b := allOutputs(dirs[0]), allOutputs(dirs[1])
		bundles, err := filepath.Glob(filepath.Join(a.Postmortem, "bundle-*.json"))
		if err != nil || len(bundles) != len(ref.Bundles) {
			t.Fatalf("%d bundle files (%v), want %d", len(bundles), err, len(ref.Bundles))
		}
		files := [][2]string{
			{a.Metrics, b.Metrics}, {a.Trace, b.Trace}, {a.Profile, b.Profile},
			{a.Health, b.Health}, {a.Exemplars, b.Exemplars},
		}
		for _, p := range bundles {
			files = append(files, [2]string{p, filepath.Join(b.Postmortem, filepath.Base(p))})
		}
		for _, f := range files {
			x, errX := os.ReadFile(f[0])
			y, errY := os.ReadFile(f[1])
			if errX != nil || errY != nil {
				t.Fatalf("%v, %v", errX, errY)
			}
			if len(x) == 0 {
				t.Errorf("%s is empty", filepath.Base(f[0]))
			}
			if !bytes.Equal(x, y) {
				t.Errorf("%s differs between identical runs", filepath.Base(f[0]))
			}
		}
	})
}
