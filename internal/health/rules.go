package health

import "fmt"

// RuleInfo is one pathology rule's human-facing metadata: what the rule
// means, the threshold it fires at (rendered from the detector's fixed
// constants), and which counters to look at first when it opens. Surfaced
// in the printed health report, the /healthz JSON body and the postmortem
// renderer.
type RuleInfo struct {
	Kind        string `json:"kind"`
	Description string `json:"description"`
	// Threshold renders the firing condition with the detector's numeric
	// thresholds filled in.
	Threshold string `json:"threshold"`
	// FirstLook lists the counters that most directly explain an incident
	// of this kind, in suggested reading order. Each entry is a
	// telemetry.Sample JSON field, "gauge <name>" for a scheme gauge,
	// "attribution <span> span" for a latency span, or a /metrics family.
	FirstLook []string `json:"first_look"`
}

// rule is one pathology rule: its metadata and its condition. eval reads
// the window w (and, for per-epoch peaks, the detector's ring) and returns
// whether the rule fires, its severity when it does, and the evidence this
// epoch's observation o adds to an open incident.
type rule struct {
	RuleInfo
	eval func(d *Detector, w, o *obs) (fire bool, sev float64, ev Evidence)
}

// rules lists every rule once, in detector evaluation (and reporting)
// order. Its thresholds are rendered from the constants the detector runs.
var rules = [...]rule{
	{eval: swapThrash, RuleInfo: RuleInfo{
		Kind: KindSwapThrash,
		Description: "The scheme moved more bytes between memory levels than it " +
			"served to the cores: migration work is evicting its own working set " +
			"instead of amortizing (the pathology SILC-FM's bandwidth bypass is " +
			"meant to suppress, §III-E).",
		Threshold: fmt.Sprintf("window swap bytes > %.2f x demand bytes with >= %d LLC misses over %d epochs",
			swapThrashRatio, minWindowMisses, windowEpochs),
		FirstLook: []string{"swaps_in", "swaps_out", "demand_bytes_nm", "demand_bytes_fm", "migration_bytes_nm"},
	}},
	{eval: bypassOscillation, RuleInfo: RuleInfo{
		Kind: KindBypassOscillation,
		Description: "The access rate keeps crossing the bypass governor's target " +
			"(or the governor itself keeps toggling): placement and bypassing are " +
			"fighting each other instead of settling.",
		Threshold: fmt.Sprintf("window access-rate crossings of %.2f (or governor toggles) >= %d over %d epochs",
			bypassTarget, minCrossings, windowEpochs),
		FirstLook: []string{"access_rate", "bypassed", "gauge bypass_toggles", "serviced_nm"},
	}},
	{eval: lockChurn, RuleInfo: RuleInfo{
		Kind: KindLockChurn,
		Description: "Blocks are being locked into near memory and promptly " +
			"unlocked again: residency decisions reverse as fast as they are " +
			"made, so the lock mechanism (§III-C) pays its cost without pinning " +
			"anything long enough to matter.",
		Threshold: fmt.Sprintf("min(window locks, window unlocks) >= %d over %d epochs",
			lockChurnMin, windowEpochs),
		FirstLook: []string{"locks", "unlocks", "gauge locked_frames", "swaps_in"},
	}},
	{eval: queueSaturation, RuleInfo: RuleInfo{
		Kind: KindQueueSaturation,
		Description: "A device's per-epoch peak queue depth stayed pinned near " +
			"its capacity: the memory system is bandwidth-bound and demand " +
			"latency is dominated by queueing, not service.",
		Threshold: fmt.Sprintf("peak queue depth >= %.0f%% of device capacity in >= %d of %d epochs",
			100*queueSatFraction, queueSatEpochs, windowEpochs),
		FirstLook: []string{"peak_queue_nm", "peak_queue_fm", "queue_nm", "queue_fm", "attribution queue span"},
	}},
	{eval: predictorCollapse, RuleInfo: RuleInfo{
		Kind: KindPredictorCollapse,
		Description: "The way/location predictor (§III-F) is guessing worse than " +
			"the floor: demands pay the serialized metadata-fetch retry penalty " +
			"more often than a coin flip would.",
		Threshold: fmt.Sprintf("window predictor accuracy < %.2f with >= %d predictions over %d epochs",
			predictorFloor, predictorMinSamples, windowEpochs),
		FirstLook: []string{"predictor_hits", "predictor_misses", "attribution mispredict span"},
	}},
	{eval: rowThrash, RuleInfo: RuleInfo{
		Kind: KindRowThrash,
		Description: "Row-buffer conflicts dominate the DRAM row activity while the " +
			"pressure concentrates on few banks: the access stream keeps tearing " +
			"down rows other accesses still want, paying precharge+activate on " +
			"most operations (what a row-locality-aware placement would avoid).",
		Threshold: fmt.Sprintf("window row conflicts > %.2f x row ops with peak bank imbalance >= %.1f and >= %d row ops over %d epochs",
			rowThrashConflictRatio, rowThrashImbalance, rowThrashMinOps, windowEpochs),
		FirstLook: []string{"row_conflicts_nm", "row_conflicts_fm", "bank_imbalance_nm", "bank_imbalance_fm", "row_hit_rate_fm", "silcfm_dram_bank_accesses"},
	}},
}

// Kinds returns the incident kinds in detector evaluation order.
func Kinds() []string {
	out := make([]string, len(rules))
	for i := range rules {
		out[i] = rules[i].Kind
	}
	return out
}

// Rules returns every rule's metadata with the thresholds the detector
// runs, in detector evaluation order. The FirstLook slices are shared and
// must not be modified.
func Rules() []RuleInfo {
	out := make([]RuleInfo, len(rules))
	for i := range rules {
		out[i] = rules[i].RuleInfo
	}
	return out
}

// Info returns the metadata for one kind; ok is false for unknown kinds.
func Info(kind string) (RuleInfo, bool) {
	if k := kindIndex(kind); k >= 0 {
		return rules[k].RuleInfo, true
	}
	return RuleInfo{}, false
}

// kindIndex returns kind's position in detector evaluation order, or -1
// for an unknown kind.
func kindIndex(kind string) int {
	for i := range rules {
		if rules[i].Kind == kind {
			return i
		}
	}
	return -1
}

// Ordered returns the incidents of open whose kinds the detector knows, at
// most one per kind (the last listed), in detector order. A Detector.Open
// result already is so and comes back as it is, without a copy; any other
// list comes back as a fresh, ordered one.
func Ordered(open []Incident) []Incident {
	prev := -1
	for i := range open {
		if k := kindIndex(open[i].Kind); k > prev {
			prev = k
			continue
		}
		var out []Incident
		for k := range rules {
			for j := len(open) - 1; j >= 0; j-- {
				if open[j].Kind == rules[k].Kind {
					out = append(out, open[j])
					break
				}
			}
		}
		return out
	}
	return open
}
