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
	// FirstLook lists the sample/evidence counters that most directly
	// explain an incident of this kind, in suggested reading order.
	FirstLook []string `json:"first_look"`
}

// Kinds returns the incident kinds in detector evaluation order.
func Kinds() []string { return append([]string(nil), kinds[:]...) }

// Rules renders every rule's metadata with the thresholds the detector
// runs, in detector evaluation order.
func Rules() []RuleInfo {
	return []RuleInfo{
		{
			Kind: KindSwapThrash,
			Description: "The scheme moved more bytes between memory levels than it " +
				"served to the cores: migration work is evicting its own working set " +
				"instead of amortizing (the pathology SILC-FM's bandwidth bypass is " +
				"meant to suppress, §III-E).",
			Threshold: fmt.Sprintf("window swap bytes > %.2f x demand bytes with >= %d LLC misses over %d epochs",
				swapThrashRatio, minWindowMisses, windowEpochs),
			FirstLook: []string{"swaps_in", "swaps_out", "demand_bytes_nm", "demand_bytes_fm", "migration_bytes_nm"},
		},
		{
			Kind: KindBypassOscillation,
			Description: "The access rate keeps crossing the bypass governor's target " +
				"(or the governor itself keeps toggling): placement and bypassing are " +
				"fighting each other instead of settling.",
			Threshold: fmt.Sprintf("window access-rate crossings of %.2f (or governor toggles) >= %d over %d epochs",
				bypassTarget, minCrossings, windowEpochs),
			FirstLook: []string{"access_rate", "bypassed", "gauge bypass_toggles", "serviced_nm"},
		},
		{
			Kind: KindLockChurn,
			Description: "Blocks are being locked into near memory and promptly " +
				"unlocked again: residency decisions reverse as fast as they are " +
				"made, so the lock mechanism (§III-C) pays its cost without pinning " +
				"anything long enough to matter.",
			Threshold: fmt.Sprintf("min(window locks, window unlocks) >= %d over %d epochs",
				lockChurnMin, windowEpochs),
			FirstLook: []string{"locks", "unlocks", "gauge locked_frames", "swaps_in"},
		},
		{
			Kind: KindQueueSaturation,
			Description: "A device's per-epoch peak queue depth stayed pinned near " +
				"its capacity: the memory system is bandwidth-bound and demand " +
				"latency is dominated by queueing, not service.",
			Threshold: fmt.Sprintf("peak queue depth >= %.0f%% of device capacity in >= %d of %d epochs",
				100*queueSatFraction, queueSatEpochs, windowEpochs),
			FirstLook: []string{"peak_queue_nm", "peak_queue_fm", "queue_nm", "queue_fm", "attribution queue span"},
		},
		{
			Kind: KindPredictorCollapse,
			Description: "The way/location predictor (§III-F) is guessing worse than " +
				"the floor: demands pay the serialized metadata-fetch retry penalty " +
				"more often than a coin flip would.",
			Threshold: fmt.Sprintf("window predictor accuracy < %.2f with >= %d predictions over %d epochs",
				predictorFloor, predictorMinSamples, windowEpochs),
			FirstLook: []string{"predictor_hits", "predictor_misses", "attribution mispredict span"},
		},
		{
			Kind: KindRowThrash,
			Description: "Row-buffer conflicts dominate the DRAM row activity while the " +
				"pressure concentrates on few banks: the access stream keeps tearing " +
				"down rows other accesses still want, paying precharge+activate on " +
				"most operations (what a row-locality-aware placement would avoid).",
			Threshold: fmt.Sprintf("window row conflicts > %.2f x row ops with peak bank imbalance >= %.1f and >= %d row ops over %d epochs",
				rowThrashConflictRatio, rowThrashImbalance, rowThrashMinOps, windowEpochs),
			FirstLook: []string{"row_conflicts_nm", "row_conflicts_fm", "bank_imbalance_nm", "bank_imbalance_fm", "row_hit_rate_fm", "dashboard bank heatmap"},
		},
	}
}

// Info returns the metadata for one kind; ok is false for unknown kinds.
func Info(kind string) (RuleInfo, bool) {
	for _, r := range Rules() {
		if r.Kind == kind {
			return r, true
		}
	}
	return RuleInfo{}, false
}
