package harness

import (
	"testing"

	"silcfm/internal/config"
)

// TestSmallCellsSimExact pins the simulated outcome of four small-machine
// cells that no benchmark reaches: NM 256 KiB under config.Small's 16 MiB
// FM, so PoM migrates and HMA's 2^16-cycle epochs fire and fill NM. Cycles,
// migrations and the per-level, per-class byte ledger must match exactly. A
// refactor of the memory system leaves every one of them unchanged; only a
// change to the model itself may re-record them, and must say so.
func TestSmallCellsSimExact(t *testing.T) {
	type ledger = [2][3]uint64 // [level][demand, migration, metadata]
	cells := []struct {
		scheme     config.SchemeName
		cycles     uint64
		migrations uint64
		bytes      ledger
	}{
		{config.SchemeHMA, 454238, 133, ledger{{63168, 282624, 0}, {514624, 282624, 0}}},
		{config.SchemePoM, 236590, 284, ledger{{158784, 1163264, 0}, {427392, 1163264, 0}}},
		{config.SchemeCAMEOP, 377733, 0, ledger{{350848, 1834048, 73912}, {240384, 1593600, 0}}},
		{config.SchemeSILCFM, 1261806, 0, ledger{{52416, 9209728, 214240}, {532480, 8872832, 0}}},
	}
	for _, c := range cells {
		t.Run(string(c.scheme), func(t *testing.T) {
			m := config.Small()
			m.Scheme = c.scheme
			m.NM = config.HBM(256 << 10)
			m.HMA.EpochCycles = 1 << 16
			r, err := Run(Spec{
				Machine:           m,
				Workload:          "mcf",
				InstrPerCore:      50_000,
				ScaleInstrByClass: true,
				FootScaleNum:      1,
				FootScaleDen:      32,
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := r.Err(); err != nil {
				t.Fatal(err)
			}
			if r.Cycles != c.cycles || r.Mem.Migrations != c.migrations || r.Mem.Bytes != c.bytes {
				t.Errorf("cycles %d, migrations %d, bytes %v; pinned %d, %d, %v",
					r.Cycles, r.Mem.Migrations, r.Mem.Bytes, c.cycles, c.migrations, c.bytes)
			}
		})
	}
}
