package memunits

// Paged is a table of rows, each width entries wide, stored in pages of
// PageRows rows. A page is created, zeroed, on its first write; a row on a
// page never written reads as all zeros. A placement table that encodes its
// initial state as zero therefore costs memory only for the pages a run
// writes, and needs no fill loop at construction.
type Paged[T any] struct {
	width int
	pages [][]T
}

const (
	pageRowShift = 12
	// PageRows is the number of rows on one page.
	PageRows = 1 << pageRowShift
)

// NewPaged returns a table of rows rows of width entries, with no page
// allocated.
func NewPaged[T any](rows uint64, width int) Paged[T] {
	return Paged[T]{width: width, pages: make([][]T, (rows+PageRows-1)>>pageRowShift)}
}

// Get returns entry j of row r, or the zero value when r's page was never
// written.
func (p *Paged[T]) Get(r uint64, j int) T {
	pg := p.pages[r>>pageRowShift]
	if pg == nil {
		var zero T
		return zero
	}
	return pg[int(r&(PageRows-1))*p.width+j]
}

// Row returns row r's entries for reading and writing, creating its page on
// first use.
func (p *Paged[T]) Row(r uint64) []T {
	pg := p.pages[r>>pageRowShift]
	if pg == nil {
		pg = make([]T, PageRows*p.width)
		p.pages[r>>pageRowShift] = pg
	}
	off := int(r&(PageRows-1)) * p.width
	return pg[off : off+p.width : off+p.width]
}

// Pages returns the page directory: page k holds rows [k*PageRows,
// (k+1)*PageRows), and is nil when never written. Scans that only need
// nonzero entries visit the non-nil pages alone.
func (p *Paged[T]) Pages() [][]T { return p.pages }
