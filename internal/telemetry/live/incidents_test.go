package live_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"testing"

	"silcfm/internal/config"
	"silcfm/internal/flightrec"
	"silcfm/internal/harness"
	"silcfm/internal/health"
	"silcfm/internal/telemetry/live"
)

// thrashSpec is the CI postmortem configuration: an 8 MB near memory under
// a milc footprint slice that reliably opens incidents and captures at
// least one flight-recorder bundle.
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

// TestIncidentsAPI drives the full drill-down path under concurrent load:
// a thrashing run streams bundles into the hub while a scraper hammers
// /api/incidents (race-clean by -race, inert by the byte comparison at the
// end), then the listing and per-bundle endpoints are validated against a
// hub-free rerun of the identical configuration.
func TestIncidentsAPI(t *testing.T) {
	srv, err := live.New("127.0.0.1:0")
	if err != nil {
		t.Fatalf("live.New: %v", err)
	}
	defer srv.Close()

	// Empty hub: a well-formed empty listing, not null.
	code, body := get(t, srv.URL()+"/api/incidents")
	if code != http.StatusOK {
		t.Fatalf("/api/incidents status %d", code)
	}
	if !bytes.Contains(body, []byte(`"incidents": []`)) {
		t.Errorf("/api/incidents empty hub = %s, want an empty list", body)
	}

	// Scrape continuously while the run publishes and emits bundles.
	stop := make(chan struct{})
	scraped := make(chan struct{})
	go func() {
		defer close(scraped)
		for {
			select {
			case <-stop:
				return
			default:
				resp, err := http.Get(srv.URL() + "/api/incidents")
				if err == nil {
					resp.Body.Close()
				}
			}
		}
	}()

	const id = "thrash/milc"
	spec := thrashSpec()
	done := harness.AttachLive(&spec, srv.Registry(), id)
	res, err := harness.Run(spec)
	done(res)
	close(stop)
	<-scraped
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(res.Bundles) == 0 {
		t.Fatal("thrash config captured no bundles")
	}

	code, body = get(t, srv.URL()+"/api/incidents")
	if code != http.StatusOK {
		t.Fatalf("/api/incidents status %d", code)
	}
	var list struct {
		Incidents []live.IncidentRef `json:"incidents"`
	}
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatalf("/api/incidents not JSON: %v", err)
	}
	if len(list.Incidents) != len(res.Bundles) {
		t.Fatalf("hub lists %d bundles, run produced %d", len(list.Incidents), len(res.Bundles))
	}
	for i, ref := range list.Incidents {
		want := &res.Bundles[i]
		if ref.Run != id || ref.Trigger != want.Trigger || ref.Epochs != len(want.Epochs) {
			t.Errorf("ref %d = %+v, inconsistent with bundle %+v", i, ref, want)
		}
		code, bb := get(t, srv.URL()+ref.Path)
		if code != http.StatusOK {
			t.Fatalf("%s status %d", ref.Path, code)
		}
		dec, err := flightrec.Decode(bytes.NewReader(bb))
		if err != nil {
			t.Fatalf("%s: %v", ref.Path, err)
		}
		var canon bytes.Buffer
		if err := want.Encode(&canon); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(bb, canon.Bytes()) {
			t.Errorf("%s served different bytes than the bundle's canonical encoding", ref.Path)
		}
		if dec.Fingerprint != want.Fingerprint {
			t.Errorf("%s fingerprint = %q, want %q", ref.Path, dec.Fingerprint, want.Fingerprint)
		}
	}

	// Unknown and malformed ids 404 / 400.
	if code, _ := get(t, srv.URL()+"/api/incidents/999999"); code != http.StatusNotFound {
		t.Errorf("/api/incidents/999999 status %d, want 404", code)
	}
	if code, _ := get(t, srv.URL()+"/api/incidents/bogus"); code != http.StatusBadRequest {
		t.Errorf("/api/incidents/bogus status %d, want 400", code)
	}

	// Inertness, server-on vs server-off: a hub-free rerun must reproduce
	// every bundle byte even though this run was scraped throughout.
	bare, err := harness.Run(thrashSpec())
	if err != nil {
		t.Fatalf("bare run: %v", err)
	}
	if len(bare.Bundles) != len(res.Bundles) {
		t.Fatalf("bare run captured %d bundles, hub run %d", len(bare.Bundles), len(res.Bundles))
	}
	for i := range bare.Bundles {
		var a, b bytes.Buffer
		if err := bare.Bundles[i].Encode(&a); err != nil {
			t.Fatal(err)
		}
		if err := res.Bundles[i].Encode(&b); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Errorf("bundle %d differs between hub-attached and bare runs", i)
		}
	}
	if bare.Cycles != res.Cycles || bare.Mem != res.Mem {
		t.Errorf("hub attachment perturbed the simulation: cycles %d vs %d", res.Cycles, bare.Cycles)
	}
}

// TestHealthzRuleMetadata: the /healthz payload carries the detector's rule
// catalog so dashboards can explain what each kind means.
func TestHealthzRuleMetadata(t *testing.T) {
	srv, err := live.New("127.0.0.1:0")
	if err != nil {
		t.Fatalf("live.New: %v", err)
	}
	defer srv.Close()
	publishState(srv.Registry().Hook("meta"), 1000, nil)

	_, body := get(t, srv.URL()+"/healthz")
	var hz live.Healthz
	if err := json.Unmarshal(body, &hz); err != nil {
		t.Fatalf("/healthz not JSON: %v", err)
	}
	if want := len(health.Kinds()); len(hz.Rules) != want {
		t.Fatalf("/healthz lists %d rules, want %d", len(hz.Rules), want)
	}
	for _, r := range hz.Rules {
		if r.Kind == "" || r.Description == "" || r.Threshold == "" || len(r.FirstLook) == 0 {
			t.Errorf("rule %+v missing metadata", r)
		}
	}
}

// TestBundleStoreKeepsNewest overfills the hub's postmortem store: it keeps
// the newest 256 bundles in arrival order under their arrival ids, and the
// dropped ids resolve to nothing.
func TestBundleStoreKeepsNewest(t *testing.T) {
	g := live.NewRegistry()
	const n = 300
	for i := 0; i < n; i++ {
		g.AddBundle("run", &flightrec.Bundle{Seq: i})
	}
	refs := g.Incidents()
	if len(refs) != 256 {
		t.Fatalf("store lists %d bundles, want 256", len(refs))
	}
	for j, ref := range refs {
		if want := n - 256 + j; ref.ID != want || g.Bundle(ref.ID).Seq != want {
			t.Fatalf("listing %d: id %d, want %d", j, ref.ID, want)
		}
	}
	if g.Bundle(n-257) != nil || g.Bundle(n) != nil {
		t.Error("a dropped or never-stored id resolves to a bundle")
	}
}
