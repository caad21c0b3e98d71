package schemes

import (
	"testing"

	"silcfm/internal/config"
	"silcfm/internal/mem"
	"silcfm/internal/sim"
	"silcfm/internal/stats"
)

func TestBaselineAllFM(t *testing.T) {
	m := config.Small()
	m.Scheme = config.SchemeBaseline
	eng := sim.NewEngine()
	sys := mem.NewSystem(m, eng)
	b := &baseline{sys}
	if b.Name() != "base" {
		t.Fatal("name")
	}
	done := 0
	for i := uint64(0); i < 10; i++ {
		b.Handle(&mem.Access{PAddr: i * 4096, Done: func() { done++ }})
	}
	eng.Run()
	if done != 10 {
		t.Fatalf("done = %d", done)
	}
	if sys.Stats.ServicedFM != 10 || sys.Stats.ServicedNM != 0 {
		t.Fatalf("baseline serviced NM=%d FM=%d", sys.Stats.ServicedNM, sys.Stats.ServicedFM)
	}
	if sys.NM.Stats().Reads != 0 {
		t.Fatal("baseline touched NM")
	}
	if loc := b.Locate(12345 &^ 63); loc.Level != stats.FM || loc.DevAddr != 12345&^63 {
		t.Fatalf("Locate: %+v", loc)
	}
}

func TestStaticRoutesByAddress(t *testing.T) {
	m := config.Small() // NM 4MB
	eng := sim.NewEngine()
	sys := mem.NewSystem(m, eng)
	s := &static{sys}
	if s.Name() != "rand" {
		t.Fatal("name")
	}
	s.Handle(&mem.Access{PAddr: 64})      // NM range
	s.Handle(&mem.Access{PAddr: 5 << 20}) // FM range
	s.Handle(&mem.Access{PAddr: 6 << 20, Write: true})
	eng.Run()
	if sys.Stats.ServicedNM != 1 || sys.Stats.ServicedFM != 2 {
		t.Fatalf("serviced NM=%d FM=%d", sys.Stats.ServicedNM, sys.Stats.ServicedFM)
	}
	if sys.Stats.AccessRate() < 0.3 || sys.Stats.AccessRate() > 0.34 {
		t.Fatalf("access rate %f", sys.Stats.AccessRate())
	}
	if err := mem.Audit(s, sys.NMCap, sys.FMCap); err != nil {
		t.Fatal(err)
	}
}
