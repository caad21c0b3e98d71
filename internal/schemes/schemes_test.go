package schemes

import (
	"testing"

	"silcfm/internal/config"
	"silcfm/internal/mem"
	"silcfm/internal/sim"
)

func newTestSystem() (*sim.Engine, *mem.System) {
	m := config.Small() // NM 4MB, FM 16MB
	eng := sim.NewEngine()
	return eng, mem.NewSystem(m, eng)
}

// TestName: New builds every scheme, one subtest each, under the name its
// config carries, and rejects a name it does not know.
func TestName(t *testing.T) {
	for _, s := range []config.SchemeName{config.SchemeBaseline, config.SchemeRandom, config.SchemeHMA,
		config.SchemeCAMEO, config.SchemeCAMEOP, config.SchemePoM, config.SchemeSILCFM} {
		t.Run(string(s), func(t *testing.T) {
			m := config.Small()
			m.Scheme = s
			ctl, err := New(m, mem.NewSystem(m, sim.NewEngine()))
			if err != nil {
				t.Fatalf("%s: %v", s, err)
			}
			if ctl.Name() != string(s) {
				t.Fatalf("New(%s) built %s", s, ctl.Name())
			}
		})
	}
	m := config.Small()
	m.Scheme = "nope"
	if _, err := New(m, mem.NewSystem(m, sim.NewEngine())); err == nil {
		t.Fatal("unknown scheme accepted")
	}
}
