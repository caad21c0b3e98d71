package flightrec

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"silcfm/internal/health"
	"silcfm/internal/telemetry"
	"silcfm/internal/telemetry/exemplar"
)

// BundleSchema versions the bundle JSON layout.
const BundleSchema = "silcfm-postmortem-v1"

// Bundle is one incident capture's postmortem evidence, self-contained and
// immutable once emitted: everything the renderer, the drill-down API and a
// human need to reconstruct what the run was doing before, during and just
// after the incident. Field order is fixed and no maps appear in the
// encoded form, so the canonical encoding is byte-deterministic.
type Bundle struct {
	Schema string `json:"schema"`
	// Fingerprint is the run's config identity (harness.Spec.Fingerprint),
	// matching the manifest's config.fingerprint for cross-referencing.
	Fingerprint string `json:"fingerprint"`
	// Run labels the source run, "<scheme>/<workload>" in sweeps.
	Run string `json:"run,omitempty"`
	// Seq numbers this run's bundles in emission order.
	Seq int `json:"seq"`
	// Trigger is the kind of the incident that opened the capture.
	Trigger string `json:"trigger"`
	// FirstEpoch..LastEpoch / FirstCycle..LastCycle delimit the captured
	// window (pre-trigger history included).
	FirstEpoch uint64 `json:"first_epoch"`
	LastEpoch  uint64 `json:"last_epoch"`
	FirstCycle uint64 `json:"first_cycle"`
	LastCycle  uint64 `json:"last_cycle"`
	// PreEpochs counts the leading epochs that predate the trigger.
	PreEpochs int `json:"pre_epochs"`
	// Forced marks an end-of-run flush with incidents still open.
	Forced bool `json:"forced,omitempty"`
	// OpenKinds lists kinds still open at finalize (forced bundles).
	OpenKinds []string `json:"open_kinds,omitempty"`
	// Incidents are the closed incident records observed during the
	// capture, plus snapshots of still-open ones for forced bundles.
	Incidents []health.Incident `json:"incidents,omitempty"`
	// Rules summarizes each rule's firing trace across the window.
	Rules []RuleTrace `json:"rules,omitempty"`
	// Offenders is the window-wide top-K offender table.
	Offenders []Offender `json:"offenders,omitempty"`
	// Exemplars is the tail-exemplar reservoir frozen at incident open:
	// the worst-K demand accesses per path leading into the incident
	// (path-grouped, worst-first), when the exemplar recorder was attached.
	Exemplars []exemplar.Exemplar `json:"exemplars,omitempty"`
	// Epochs is the captured window, oldest first.
	Epochs        []EpochRecord `json:"epochs"`
	EpochsDropped uint64        `json:"epochs_dropped,omitempty"`
	// Events is the movement-event excerpt, oldest first.
	Events        []EventRecord `json:"events,omitempty"`
	EventsDropped uint64        `json:"events_dropped,omitempty"`
}

// EpochRecord is one captured epoch: the telemetry sample (with scheme
// gauges), the epoch's attribution delta, which rules were open at the
// boundary, and the epoch's top-K offender blocks.
type EpochRecord struct {
	Sample telemetry.Sample `json:"sample"`
	// Attr breaks the epoch's demand completions down by path; only paths
	// with activity appear, in stats.DemandPath order.
	Attr []PathDelta `json:"attr,omitempty"`
	// Rules lists the kinds open at this boundary, detector order.
	Rules []RuleState `json:"rules,omitempty"`
	// Offenders is this epoch's top-K (demand count desc, block asc).
	Offenders []Offender `json:"offenders,omitempty"`
	// OffenderBlocks counts distinct blocks demanded this epoch;
	// OffendersDropped counts demands the bounded table could not key.
	OffenderBlocks   int    `json:"offender_blocks,omitempty"`
	OffendersDropped uint64 `json:"offenders_dropped,omitempty"`
}

// EventRecord is one movement event in bundle form. Src/Dst are
// kind-dependent: device-local addresses for swaps (with levels), frame and
// flat block index for lock/unlock, flat block index and completion latency
// for bypass/mispredict completions.
type EventRecord struct {
	Cycle    uint64 `json:"cycle"`
	Kind     string `json:"kind"`
	Src      uint64 `json:"src"`
	Dst      uint64 `json:"dst"`
	SrcLevel string `json:"src_level,omitempty"`
	DstLevel string `json:"dst_level,omitempty"`
	Home     bool   `json:"home,omitempty"`
}

// PathDelta is one demand path's per-epoch completion count and span-cycle
// attribution (the same spans as stats.Attribution, flattened to named
// fields for a stable encoding).
type PathDelta struct {
	Path       string `json:"path"`
	Count      uint64 `json:"count"`
	Queue      uint64 `json:"queue,omitempty"`
	Service    uint64 `json:"service,omitempty"`
	MetaFetch  uint64 `json:"meta_fetch,omitempty"`
	SwapSerial uint64 `json:"swap_serial,omitempty"`
	Mispredict uint64 `json:"mispredict,omitempty"`
	Other      uint64 `json:"other,omitempty"`
}

// RuleState is one rule open at an epoch boundary with the open incident's
// running peak severity.
type RuleState struct {
	Kind     string  `json:"kind"`
	Severity float64 `json:"severity"`
}

// RuleTrace reduces one rule's firing across the captured window.
type RuleTrace struct {
	Kind         string  `json:"kind"`
	OpenEpochs   int     `json:"open_epochs"`
	FirstEpoch   uint64  `json:"first_epoch"`
	LastEpoch    uint64  `json:"last_epoch"`
	PeakSeverity float64 `json:"peak_severity"`
}

// Offender is one flat 2KiB block's demand activity.
type Offender struct {
	// Block is the flat block index (address = Block << 11).
	Block uint64 `json:"block"`
	// Demands counts completed demand accesses to the block.
	Demands uint64 `json:"demands"`
	// LatCycles sums those demands' completion latencies.
	LatCycles uint64 `json:"lat_cycles"`
}

// Encode writes the bundle's canonical JSON form (two-space indent plus a
// trailing newline, matching manifest.Canonical) to w.
func (b *Bundle) Encode(w io.Writer) error {
	out, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return fmt.Errorf("flightrec: encode bundle: %w", err)
	}
	out = append(out, '\n')
	_, err = w.Write(out)
	return err
}

// Decode reads one bundle from r, rejecting unknown schemas.
func Decode(r io.Reader) (*Bundle, error) {
	var b Bundle
	dec := json.NewDecoder(r)
	if err := dec.Decode(&b); err != nil {
		return nil, fmt.Errorf("flightrec: decode bundle: %w", err)
	}
	if b.Schema != BundleSchema {
		return nil, fmt.Errorf("flightrec: unsupported bundle schema %q (want %q)", b.Schema, BundleSchema)
	}
	return &b, nil
}

// ReadFile decodes the bundle at path.
func ReadFile(path string) (*Bundle, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Decode(f)
}
