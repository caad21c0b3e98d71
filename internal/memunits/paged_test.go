package memunits

import "testing"

// TestPagedLastPageHoldsRowsLeft: a table's last page holds only the rows
// left past the full pages, so a table of few wide rows (PoM's largest
// congruence set is one row of 65,536 members) costs its rows, not a full
// page of them; rows read zero until written, and keep what was written.
func TestPagedLastPageHoldsRowsLeft(t *testing.T) {
	for _, tc := range []struct {
		rows  uint64
		width int
	}{{1, 65536}, {PageRows + 3, 5}, {2 * PageRows, 1}} {
		p := NewPaged[uint16](tc.rows, tc.width)
		last := tc.rows - 1
		if p.Get(last, tc.width-1) != 0 {
			t.Fatalf("%d rows: unwritten row reads nonzero", tc.rows)
		}
		p.Row(last)[tc.width-1] = 7
		p.Row(0)[0] = 9
		pages := p.Pages()
		want := (tc.rows - uint64(len(pages)-1)*PageRows) * uint64(tc.width)
		if got := uint64(len(pages[len(pages)-1])); got != want {
			t.Fatalf("%d rows of %d: last page holds %d entries, want %d", tc.rows, tc.width, got, want)
		}
		if p.Get(last, tc.width-1) != 7 || p.Get(0, 0) != 9 || len(p.Row(last)) != tc.width {
			t.Fatalf("%d rows of %d: written entries lost", tc.rows, tc.width)
		}
	}
}
