package live_test

import (
	"bufio"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"silcfm/internal/harness"
	"silcfm/internal/health"
	"silcfm/internal/manifest"
	"silcfm/internal/mem"
	"silcfm/internal/stats"
	"silcfm/internal/telemetry"
	"silcfm/internal/telemetry/live"
)

// drainEvents collects everything currently buffered on sub without
// blocking.
func drainEvents(sub *live.Subscriber) []live.Event {
	var out []live.Event
	for {
		select {
		case ev, ok := <-sub.Events():
			if !ok {
				return out
			}
			out = append(out, ev)
		default:
			return out
		}
	}
}

func TestEventStreamTransitions(t *testing.T) {
	reg := live.NewRegistry()
	sub := reg.Subscribe(64)
	defer reg.Unsubscribe(sub)

	hook := reg.Hook("cell")
	inc := health.Incident{Kind: health.KindSwapThrash, FirstEpoch: 2}
	publishState(hook, 10_000, nil)
	hook(telemetry.EpochState{
		Sample: &telemetry.Sample{Cycle: 20_000},
		Mem:    &stats.Memory{},
		Lat:    stats.NewPathLatencies(),
		Done:   50, Total: 100,
	}, health.Status{Open: []health.Incident{inc}, Opened: []health.Incident{inc}})
	hook(telemetry.EpochState{
		Sample: &telemetry.Sample{Cycle: 30_000},
		Mem:    &stats.Memory{},
		Lat:    stats.NewPathLatencies(),
		Done:   100, Total: 100,
	}, health.Status{Closed: []health.Incident{inc}})
	reg.Done("cell", []health.Incident{inc})

	evs := drainEvents(sub)
	var types []string
	var lastSeq uint64
	for _, ev := range evs {
		types = append(types, ev.Type)
		if ev.Seq <= lastSeq {
			t.Errorf("seq not monotone: %d after %d", ev.Seq, lastSeq)
		}
		lastSeq = ev.Seq
	}
	want := []string{
		live.EventRunStart, live.EventEpoch,
		live.EventIncidentOpen, live.EventEpoch,
		live.EventIncidentClose, live.EventEpoch,
		live.EventRunDone,
	}
	if strings.Join(types, ",") != strings.Join(want, ",") {
		t.Fatalf("event sequence = %v, want %v", types, want)
	}
	for _, ev := range evs {
		switch ev.Type {
		case live.EventIncidentOpen, live.EventIncidentClose:
			if ev.Incident == nil || ev.Incident.Kind != health.KindSwapThrash {
				t.Errorf("%s event incident = %+v, want kind %q", ev.Type, ev.Incident, health.KindSwapThrash)
			}
		case live.EventEpoch:
			if ev.Epoch == nil || ev.Epoch.Cycle == 0 {
				t.Errorf("epoch event missing payload: %+v", ev)
			}
		}
	}
}

func TestBoundedQueueDropsAndCounts(t *testing.T) {
	reg := live.NewRegistry()
	sub := reg.Subscribe(2) // room for run_start plus one epoch
	hook := reg.Hook("cell")
	const epochs = 10
	for i := 1; i <= epochs; i++ {
		publishState(hook, uint64(i)*10_000, nil)
	}
	// run_start + 10 epochs offered, 2 buffered: 9 dropped.
	if got, want := sub.Dropped(), uint64(epochs+1-2); got != want {
		t.Errorf("sub.Dropped() = %d, want %d", got, want)
	}
	if fl := reg.Aggregate(); fl.DroppedEvents != sub.Dropped() || fl.Subscribers != 1 {
		t.Errorf("aggregate = %+v, want dropped %d / 1 subscriber", fl, sub.Dropped())
	}
	// The simulation-side hook never blocked: the buffered frames are the
	// earliest ones, in order.
	evs := drainEvents(sub)
	if len(evs) != 2 || evs[0].Type != live.EventRunStart || evs[1].Type != live.EventEpoch {
		t.Fatalf("buffered events = %+v, want [run_start epoch]", evs)
	}
	// Departed subscribers' drop counts persist on the registry.
	reg.Unsubscribe(sub)
	if fl := reg.Aggregate(); fl.DroppedEvents != uint64(epochs+1-2) || fl.Subscribers != 0 {
		t.Errorf("aggregate after unsubscribe = %+v", fl)
	}
}

func TestSubscribeAfterCloseIsClosed(t *testing.T) {
	reg := live.NewRegistry()
	reg.Close()
	sub := reg.Subscribe(0)
	select {
	case _, ok := <-sub.Events():
		if ok {
			t.Fatal("got event from closed registry")
		}
	default:
		t.Fatal("subscriber channel from closed registry is open")
	}
}

// TestConcurrentSubscribersRaceClean churns subscribers while a hook
// publishes; meaningful under -race (ci.sh runs the suite with it).
func TestConcurrentSubscribersRaceClean(t *testing.T) {
	reg := live.NewRegistry()
	hook := reg.Hook("cell")
	done := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				sub := reg.Subscribe(4)
				drainEvents(sub)
				reg.Aggregate()
				reg.Unsubscribe(sub)
			}
		}()
	}
	for i := 1; i <= 200; i++ {
		publishState(hook, uint64(i)*1000, nil)
	}
	close(done)
	wg.Wait()
	reg.Done("cell", nil)
	reg.Close()
}

// TestManifestUnchangedBySubscribers is the streaming leg of the inertness
// invariant at unit scope: the same simulation produces byte-identical
// deterministic manifest sections with zero and with three concurrent
// draining subscribers (ci.sh live asserts the same end-to-end across
// processes).
func TestManifestUnchangedBySubscribers(t *testing.T) {
	runWithSubs := func(subs int) []byte {
		reg := live.NewRegistry()
		var wg sync.WaitGroup
		for i := 0; i < subs; i++ {
			sub := reg.Subscribe(8) // small: forces the drop path too
			wg.Add(1)
			go func() {
				defer wg.Done()
				for range sub.Events() {
				}
			}()
		}
		res, err := harness.Run(tinySpec(reg.Hook("cell")))
		if err != nil {
			t.Fatalf("run with %d subscribers: %v", subs, err)
		}
		reg.Done("cell", res.Health)
		reg.Close()
		wg.Wait()
		e := manifest.FromResult("cell", res)
		b, err := manifest.Canonical(struct {
			Config manifest.Config
			Sim    manifest.Sim
		}{e.Config, e.Sim})
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		return b
	}
	without := runWithSubs(0)
	with := runWithSubs(3)
	if string(without) != string(with) {
		t.Errorf("deterministic manifest sections differ with subscribers attached:\n%s\nvs\n%s", without, with)
	}
}

func TestMetricsEscapesHardLabelValues(t *testing.T) {
	srv, err := live.New("127.0.0.1:0")
	if err != nil {
		t.Fatalf("live.New: %v", err)
	}
	defer srv.Close()
	hook := srv.Registry().Hook(`run"with\specials`)
	hook(telemetry.EpochState{
		Sample: &telemetry.Sample{
			Cycle:  1000,
			Gauges: []mem.Gauge{{Name: `gauge\name"quoted`, Value: 7}},
		},
		Mem:  &stats.Memory{},
		Lat:  stats.NewPathLatencies(),
		Done: 1, Total: 2,
	}, health.Status{})

	code, body := get(t, srv.URL()+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	if err := live.ValidateExposition(body); err != nil {
		t.Fatalf("/metrics with special label values is not valid exposition: %v", err)
	}
	// Exactly one level of escaping: backslash doubled, quote escaped.
	want := `silcfm_scheme_gauge{run="run\"with\\specials",name="gauge\\name\"quoted"} 7`
	if !strings.Contains(string(body), want) {
		t.Errorf("/metrics missing single-escaped line %q in:\n%s", want, body)
	}
}

func TestCloseIsGracefulWithSlowClient(t *testing.T) {
	srv, err := live.New("127.0.0.1:0")
	if err != nil {
		t.Fatalf("live.New: %v", err)
	}
	hook := srv.Registry().Hook("cell")
	publishState(hook, 1000, nil)

	// A slow client: opens the SSE stream and never reads another byte.
	resp, err := http.Get(srv.URL() + "/events")
	if err != nil {
		t.Fatalf("GET /events: %v", err)
	}
	defer resp.Body.Close()
	br := bufio.NewReader(resp.Body)
	if _, err := br.ReadString('\n'); err != nil {
		t.Fatalf("read first SSE line: %v", err)
	}

	start := time.Now()
	if err := srv.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
	if d := time.Since(start); d > 3*time.Second {
		t.Errorf("Close took %v with a slow client, want graceful shutdown under ~2s", d)
	}
	// The stream the slow client held is gone.
	if _, err := io.Copy(io.Discard, br); err == nil {
		// EOF (nil from Copy) is fine too: the server closed the stream.
		_ = err
	}
}
