package manifest

import (
	"fmt"
	"math"
	"path/filepath"
	"sort"
	"strings"
)

// This file turns an ordered sequence of run manifests — one per PR, the
// committed BENCH_PR<N>.json baselines — into a cross-PR trajectory report:
// for every suite cell and metric, where the repo started, where it is now,
// where it peaked, and which direction it is moving. Entries are aligned by
// config fingerprint so a cell is only compared against steps that simulated
// the byte-identical machine; a renamed or reconfigured cell drops out of
// the trajectory instead of producing a nonsense curve.

// HistoryStep is one manifest in an ordered history, oldest first.
type HistoryStep struct {
	// Label names the step in reports: the manifest's own label when set,
	// otherwise the file's base name without extension.
	Label string
	Path  string
	M     *Manifest
}

// LoadHistory reads an ordered list of manifest paths into history steps.
// It needs at least two steps — a single manifest has no trajectory.
func LoadHistory(paths []string) ([]HistoryStep, error) {
	if len(paths) < 2 {
		return nil, fmt.Errorf("manifest: history needs at least 2 manifests, got %d", len(paths))
	}
	steps := make([]HistoryStep, 0, len(paths))
	for _, p := range paths {
		m, err := ReadFile(p)
		if err != nil {
			return nil, err
		}
		label := m.Label
		if label == "" {
			label = strings.TrimSuffix(filepath.Base(p), filepath.Ext(p))
		}
		steps = append(steps, HistoryStep{Label: label, Path: p, M: m})
	}
	return steps, nil
}

// NaturalSort orders paths with embedded integers compared numerically, so
// BENCH_PR10.json sorts after BENCH_PR9.json. Plain lexical order would put
// a multi-digit step before its single-digit predecessors and scramble the
// trajectory.
func NaturalSort(paths []string) {
	sort.Slice(paths, func(i, j int) bool { return naturalLess(paths[i], paths[j]) })
}

func naturalLess(a, b string) bool {
	for a != "" && b != "" {
		if isDigit(a[0]) && isDigit(b[0]) {
			da, db := digitRun(a), digitRun(b)
			na, nb := strings.TrimLeft(a[:da], "0"), strings.TrimLeft(b[:db], "0")
			if len(na) != len(nb) {
				return len(na) < len(nb)
			}
			if na != nb {
				return na < nb
			}
			// Equal values spelled differently (leading zeros): lexical.
			if a[:da] != b[:db] {
				return a[:da] < b[:db]
			}
			a, b = a[da:], b[db:]
			continue
		}
		if a[0] != b[0] {
			return a[0] < b[0]
		}
		a, b = a[1:], b[1:]
	}
	return len(a) < len(b)
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

// digitRun returns the length of the leading run of digits in s.
func digitRun(s string) int {
	i := 0
	for i < len(s) && isDigit(s[i]) {
		i++
	}
	return i
}

// Trajectory metric directions.
const (
	DirImproved  = "improved"
	DirRegressed = "regressed"
	DirFlat      = "flat"
	DirChanged   = "changed" // exact metrics: any aligned value differs
	DirNone      = "n/a"     // fewer than two aligned points
)

// trajNoiseBand is the relative band inside which a host-side metric's
// last-vs-first ratio counts as flat rather than a direction.
const trajNoiseBand = 0.02

// TrajectoryPoint is one cell metric's value at one history step.
type TrajectoryPoint struct {
	Step  string  `json:"step"`
	Value float64 `json:"value"`
	// Present: the step's manifest has this entry id at all. Aligned:
	// present and its config fingerprint matches the newest step's — only
	// aligned points enter first/last/best and the direction flag.
	Present bool `json:"present"`
	Aligned bool `json:"aligned"`
}

// MetricTrajectory is one metric's curve across the history for one cell.
type MetricTrajectory struct {
	Metric string `json:"metric"`
	// HigherIsBetter orients the direction flag; Exact marks sim-determined
	// metrics where any change at all is a behavior change (no noise band).
	HigherIsBetter bool              `json:"higher_is_better"`
	Exact          bool              `json:"exact"`
	Points         []TrajectoryPoint `json:"points"`
	First          float64           `json:"first"`
	Last           float64           `json:"last"`
	Best           float64           `json:"best"`
	BestStep       string            `json:"best_step"`
	// LastOverFirst is Last/First (0 when First is 0).
	LastOverFirst float64 `json:"last_over_first"`
	Direction     string  `json:"direction"`
}

// CellTrajectory is one suite cell's metric curves.
type CellTrajectory struct {
	ID string `json:"id"`
	// Fingerprint is the newest step's config fingerprint — the alignment
	// reference every older step is matched against.
	Fingerprint  string             `json:"fingerprint"`
	AlignedSteps int                `json:"aligned_steps"`
	Metrics      []MetricTrajectory `json:"metrics"`
}

// FleetPoint is the fleet-level normalized value at one step: the geometric
// mean over aligned cells of value/first for one metric.
type FleetPoint struct {
	Step  string  `json:"step"`
	Ratio float64 `json:"ratio"`
	Cells int     `json:"cells"`
}

// FleetTrajectory is one metric's fleet-level curve.
type FleetTrajectory struct {
	Metric         string       `json:"metric"`
	HigherIsBetter bool         `json:"higher_is_better"`
	Points         []FleetPoint `json:"points"`
	Direction      string       `json:"direction"`
}

// Trajectory is the full cross-PR report: per-cell curves plus fleet-level
// geomean summaries, all derived deterministically from the input manifests.
type Trajectory struct {
	Schema int      `json:"schema"`
	Steps  []string `json:"steps"`
	// Fleet summarizes host-side metrics across cells, normalized to each
	// cell's first aligned step (so a 3x throughput jump reads as 3.00x
	// regardless of the cells' absolute rates).
	Fleet []FleetTrajectory `json:"fleet"`
	Cells []CellTrajectory  `json:"cells"`
}

// trajMetric describes one extracted metric.
type trajMetric struct {
	name         string
	higherBetter bool
	exact        bool
	fleet        bool // include in the fleet geomean summary
	format       string
	get          func(*Entry) float64
}

var trajMetrics = []trajMetric{
	{"mcyc_per_sec", true, false, true, "%.2f", func(e *Entry) float64 { return e.Host.SimCyclesPerSec / 1e6 }},
	{"alloc_objects", false, false, true, "%.0f", func(e *Entry) float64 { return float64(e.Host.AllocObjects) }},
	{"wall_seconds", false, false, false, "%.3f", func(e *Entry) float64 { return e.Host.WallSeconds }},
	{"cycles", false, true, false, "%.0f", func(e *Entry) float64 { return float64(e.Sim.Cycles) }},
	{"incidents", false, true, false, "%.0f", func(e *Entry) float64 { return float64(len(e.Sim.Incidents)) }},
}

// BuildTrajectory aligns the history's entries by id + config fingerprint
// and reduces them to per-cell and fleet-level metric curves. Output is a
// pure function of the input manifests: same files, same report.
func BuildTrajectory(steps []HistoryStep) *Trajectory {
	t := &Trajectory{Schema: Schema}
	for _, s := range steps {
		t.Steps = append(t.Steps, s.Label)
	}
	newest := steps[len(steps)-1].M

	// Index every step's entries by id.
	byID := make([]map[string]*Entry, len(steps))
	for i, s := range steps {
		byID[i] = make(map[string]*Entry, len(s.M.Entries))
		for j := range s.M.Entries {
			e := &s.M.Entries[j]
			byID[i][e.ID] = e
		}
	}

	// Cells are the newest manifest's entries, in id order (Add keeps them
	// sorted, but sort defensively — determinism is the contract here).
	ids := make([]string, 0, len(newest.Entries))
	for i := range newest.Entries {
		ids = append(ids, newest.Entries[i].ID)
	}
	sort.Strings(ids)

	for _, id := range ids {
		ref := byID[len(steps)-1][id]
		cell := CellTrajectory{ID: id, Fingerprint: ref.Config.Fingerprint}
		aligned := make([]bool, len(steps))
		for i := range steps {
			if e, ok := byID[i][id]; ok && e.Config.Fingerprint == ref.Config.Fingerprint {
				aligned[i] = true
				cell.AlignedSteps++
			}
		}
		for _, tm := range trajMetrics {
			mt := MetricTrajectory{Metric: tm.name, HigherIsBetter: tm.higherBetter, Exact: tm.exact, Direction: DirNone}
			n, changed := 0, false
			for i, s := range steps {
				pt := TrajectoryPoint{Step: s.Label}
				if e, ok := byID[i][id]; ok {
					pt.Present = true
					pt.Value = tm.get(e)
					pt.Aligned = aligned[i]
				}
				mt.Points = append(mt.Points, pt)
				if !pt.Aligned {
					continue
				}
				if n == 0 {
					mt.First, mt.Best, mt.BestStep = pt.Value, pt.Value, pt.Step
				}
				changed = changed || pt.Value != mt.First
				mt.Last = pt.Value
				if (tm.higherBetter && pt.Value > mt.Best) || (!tm.higherBetter && pt.Value < mt.Best) {
					mt.Best, mt.BestStep = pt.Value, pt.Step
				}
				n++
			}
			if n >= 2 {
				if mt.First != 0 {
					mt.LastOverFirst = mt.Last / mt.First
				}
				switch {
				case !tm.exact:
					mt.Direction = direction(mt.First, mt.Last, tm.higherBetter)
				case changed:
					mt.Direction = DirChanged
				default:
					mt.Direction = DirFlat
				}
			}
			cell.Metrics = append(cell.Metrics, mt)
		}
		t.Cells = append(t.Cells, cell)
	}

	t.Fleet = fleetSummary(t)
	return t
}

// direction flags a host-side metric's move from first to last: flat when
// last/first is within the noise band, else improved or regressed as
// higherBetter orients it. A first value of 0 has no ratio: any nonzero
// last then counts as a move up. Exact metrics use DirChanged instead:
// any aligned value differing from the first is a behavior change.
func direction(first, last float64, higherBetter bool) string {
	var up bool
	if first == 0 {
		if last == 0 {
			return DirFlat
		}
		up = true
	} else {
		ratio := last / first
		if math.Abs(ratio-1) <= trajNoiseBand {
			return DirFlat
		}
		up = ratio > 1
	}
	if up == higherBetter {
		return DirImproved
	}
	return DirRegressed
}

// fleetSummary reduces the per-cell curves to fleet geomeans: for each
// fleet metric and step, the geometric mean over cells of value/first
// (cells must be aligned at that step with a positive first value).
func fleetSummary(t *Trajectory) []FleetTrajectory {
	var out []FleetTrajectory
	for mi, tm := range trajMetrics {
		if !tm.fleet {
			continue
		}
		ft := FleetTrajectory{Metric: tm.name, HigherIsBetter: tm.higherBetter, Direction: DirNone}
		for si, step := range t.Steps {
			sumLog, cells := 0.0, 0
			for _, cell := range t.Cells {
				mt := cell.Metrics[mi]
				pt := mt.Points[si]
				if !pt.Aligned || mt.First <= 0 || pt.Value <= 0 {
					continue
				}
				sumLog += math.Log(pt.Value / mt.First)
				cells++
			}
			fp := FleetPoint{Step: step, Cells: cells}
			if cells > 0 {
				fp.Ratio = math.Exp(sumLog / float64(cells))
			}
			ft.Points = append(ft.Points, fp)
		}
		// Direction from the first and last steps with any covered cells.
		var first, last *FleetPoint
		for i := range ft.Points {
			if ft.Points[i].Cells == 0 {
				continue
			}
			if first == nil {
				first = &ft.Points[i]
			}
			last = &ft.Points[i]
		}
		if first != last {
			ft.Direction = direction(first.Ratio, last.Ratio, tm.higherBetter)
		}
		out = append(out, ft)
	}
	return out
}

// Markdown renders the trajectory as a deterministic report: a fleet
// summary table, then one row per cell and metric. Same trajectory, same
// bytes — ci.sh diffs the committed artifact against a regeneration.
func (t *Trajectory) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# Trajectory: %s\n\n", strings.Join(t.Steps, " → "))
	fmt.Fprintf(&b, "Cells aligned by config fingerprint against %s; unaligned steps are shown as `·`.\n\n", t.Steps[len(t.Steps)-1])

	b.WriteString("## Fleet (geomean of per-cell value ÷ first aligned value)\n\n")
	fmt.Fprintf(&b, "| metric |")
	for _, s := range t.Steps {
		fmt.Fprintf(&b, " %s |", s)
	}
	b.WriteString(" direction |\n|---|")
	for range t.Steps {
		b.WriteString("---|")
	}
	b.WriteString("---|\n")
	for _, ft := range t.Fleet {
		fmt.Fprintf(&b, "| %s |", ft.Metric)
		for _, p := range ft.Points {
			if p.Cells == 0 {
				b.WriteString(" · |")
			} else {
				fmt.Fprintf(&b, " %.2fx (%d) |", p.Ratio, p.Cells)
			}
		}
		fmt.Fprintf(&b, " %s |\n", ft.Direction)
	}

	b.WriteString("\n## Cells\n\n")
	fmt.Fprintf(&b, "| cell | metric |")
	for _, s := range t.Steps {
		fmt.Fprintf(&b, " %s |", s)
	}
	b.WriteString(" best | last/first | direction |\n|---|---|")
	for range t.Steps {
		b.WriteString("---|")
	}
	b.WriteString("---|---|---|\n")
	for _, cell := range t.Cells {
		for mi, mt := range cell.Metrics {
			fmt.Fprintf(&b, "| %s | %s |", cell.ID, mt.Metric)
			for _, p := range mt.Points {
				if !p.Aligned {
					b.WriteString(" · |")
				} else {
					fmt.Fprintf(&b, " "+trajMetrics[mi].format+" |", p.Value)
				}
			}
			if mt.Direction == DirNone {
				b.WriteString(" · | · |")
			} else {
				fmt.Fprintf(&b, " "+trajMetrics[mi].format+" @%s |", mt.Best, mt.BestStep)
				if mt.LastOverFirst != 0 {
					fmt.Fprintf(&b, " %.2fx |", mt.LastOverFirst)
				} else {
					b.WriteString(" · |")
				}
			}
			fmt.Fprintf(&b, " %s |\n", mt.Direction)
		}
	}
	return b.String()
}
