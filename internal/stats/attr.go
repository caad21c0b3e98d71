package stats

import "fmt"

// Span names one component of a demand access's end-to-end latency. Spans
// are stamped onto the access as it moves through the devices and the
// scheme controllers; at completion the residual lands in SpanOther so the
// per-access span sum equals the end-to-end latency exactly.
type Span int

const (
	// SpanQueue is time a demand device request spent waiting behind other
	// requests (queue occupancy, bank/bus contention, refresh).
	SpanQueue Span = iota
	// SpanService is the minimal device-service time of the demand request
	// for its observed row outcome (precharge/activate + column + burst).
	SpanService
	// SpanMetaFetch is serialized remap-metadata fetch time paid before
	// dispatch (SILC-FM's predictor-off path, CAMEO's in-row remap read).
	SpanMetaFetch
	// SpanSwapSerial is time the demand was held behind scheme-level
	// serialization of migration work (HMA's end-of-epoch OS stall).
	SpanSwapSerial
	// SpanMispredict is the serialized metadata fetch paid after a
	// way/location predictor miss (§III-F): the retry penalty.
	SpanMispredict
	// SpanOther is the residual: end-to-end latency minus all stamped
	// spans. Computed once at completion; a nonzero value means a wait the
	// instrumentation does not name.
	SpanOther

	NumSpans
)

func (s Span) String() string {
	switch s {
	case SpanQueue:
		return "queue"
	case SpanService:
		return "service"
	case SpanMetaFetch:
		return "meta-fetch"
	case SpanSwapSerial:
		return "swap-serial"
	case SpanMispredict:
		return "mispredict"
	case SpanOther:
		return "other"
	default:
		return "unknown"
	}
}

// Attribution accumulates per-path span totals. Like PathLatencies it is
// always allocated and always recording — a few adds per demand completion,
// never an event — so enabling any consumer of it cannot perturb timing.
type Attribution struct {
	Spans [NumDemandPaths][NumSpans]uint64
	Count [NumDemandPaths]uint64
}

// Observe folds one completed access's spans into path's totals.
func (a *Attribution) Observe(path DemandPath, spans *[NumSpans]uint64) {
	if path < 0 || path >= NumDemandPaths {
		return
	}
	for s, v := range spans {
		a.Spans[path][s] += v
	}
	a.Count[path]++
}

// PathTotal returns the span-cycle sum for one path. By construction it
// equals the corresponding PathLatencies histogram Sum; CheckConservation
// asserts that.
func (a *Attribution) PathTotal(p DemandPath) uint64 {
	if p < 0 || p >= NumDemandPaths {
		return 0
	}
	var t uint64
	for _, v := range a.Spans[p] {
		t += v
	}
	return t
}

// PathSpans is one path's span decomposition in cycles summed over all its
// completions: the attribution row of run manifests and silcfm-sim's -json
// report.
type PathSpans struct {
	Path       string `json:"path"`
	Count      uint64 `json:"count"`
	Total      uint64 `json:"total"`
	Queue      uint64 `json:"queue"`
	Service    uint64 `json:"service"`
	MetaFetch  uint64 `json:"meta_fetch"`
	SwapSerial uint64 `json:"swap_serial"`
	Mispredict uint64 `json:"mispredict"`
	Other      uint64 `json:"other"`
}

// Summaries reduces every populated path, in DemandPath order
// (deterministic). Nil-safe: a nil receiver has no paths.
func (a *Attribution) Summaries() []PathSpans {
	if a == nil {
		return nil
	}
	var out []PathSpans
	for p := DemandPath(0); p < NumDemandPaths; p++ {
		if a.Count[p] == 0 {
			continue
		}
		sp := &a.Spans[p]
		out = append(out, PathSpans{
			Path:       p.String(),
			Count:      a.Count[p],
			Total:      a.PathTotal(p),
			Queue:      sp[SpanQueue],
			Service:    sp[SpanService],
			MetaFetch:  sp[SpanMetaFetch],
			SwapSerial: sp[SpanSwapSerial],
			Mispredict: sp[SpanMispredict],
			Other:      sp[SpanOther],
		})
	}
	return out
}

// Conservation gathers the counters CheckConservation cross-checks. The
// caller assembles it from one consistent instant between engine events
// (mem.System.Conservation does this for a live system).
type Conservation struct {
	Mem  *Memory
	Lat  *PathLatencies
	Attr *Attribution
	// InflightDemands counts demands whose ServicedNM/FM counter has
	// ticked but whose completion callback has not yet fired.
	InflightDemands uint64
	// DeviceBytes[level] sums read + written + extended-burst metadata +
	// still-queued bytes over the devices backing that level.
	DeviceBytes [2]uint64
	// RideAlongBytes[level] is traffic accounted in Memory.Bytes that rode
	// an existing device request instead of a submission of its own
	// (CAMEO's NM-hit remap update on the write path).
	RideAlongBytes [2]uint64
	// Quiesced marks a fully drained engine: strict equalities apply
	// (every LLC miss serviced, nothing in flight). With Quiesced false
	// the audit still checks exact completion and byte balance but allows
	// serviced < LLC misses for demands deferred past the end of run.
	Quiesced bool
}

// CheckConservation asserts the cross-counter invariants that tie the
// independent bookkeeping layers together: span attribution vs. latency
// histograms, demand completions vs. serviced counts vs. LLC misses, and
// memory-side byte accounting vs. device-side byte accounting. A nil error
// means every counter a consumer might read is consistent with the others.
func CheckConservation(c Conservation) error {
	if c.Mem == nil {
		return fmt.Errorf("conservation: no Memory counters")
	}

	// Span sums must reconcile exactly with the latency histograms: same
	// sample counts, same total cycles, per path.
	if c.Lat != nil && c.Attr != nil {
		for p := DemandPath(0); p < NumDemandPaths; p++ {
			h := &c.Lat.Hist[p]
			if c.Attr.Count[p] != h.N {
				return fmt.Errorf("conservation: path %s has %d attributed accesses but %d latency samples",
					p, c.Attr.Count[p], h.N)
			}
			if got := c.Attr.PathTotal(p); got != h.Sum {
				return fmt.Errorf("conservation: path %s span sum %d != end-to-end latency sum %d",
					p, got, h.Sum)
			}
		}
	}

	// Every serviced demand is either completed (one latency sample) or
	// still in flight — exactly.
	serviced := c.Mem.ServicedNM + c.Mem.ServicedFM
	if c.Lat != nil {
		var completed uint64
		for p := range c.Lat.Hist {
			completed += c.Lat.Hist[p].N
		}
		if completed+c.InflightDemands != serviced {
			return fmt.Errorf("conservation: %d completions + %d in flight != %d serviced demands",
				completed, c.InflightDemands, serviced)
		}
	}

	// Serviced demands never exceed LLC misses; once quiesced they match
	// and nothing remains in flight.
	if serviced > c.Mem.LLCMisses {
		return fmt.Errorf("conservation: %d serviced demands exceed %d LLC misses",
			serviced, c.Mem.LLCMisses)
	}
	if c.Quiesced {
		if serviced != c.Mem.LLCMisses {
			return fmt.Errorf("conservation: quiesced with %d serviced demands != %d LLC misses",
				serviced, c.Mem.LLCMisses)
		}
		if c.InflightDemands != 0 {
			return fmt.Errorf("conservation: quiesced with %d demands in flight", c.InflightDemands)
		}
	}

	// Memory-side byte accounting (at submit) must balance device-side
	// accounting (at issue) plus bytes still queued plus ride-alongs.
	for level := NM; level <= FM; level++ {
		var memBytes uint64
		for _, b := range c.Mem.Bytes[level] {
			memBytes += b
		}
		devBytes := c.DeviceBytes[level] + c.RideAlongBytes[level]
		if memBytes != devBytes {
			return fmt.Errorf("conservation: %s accounted %d bytes but devices carry %d (incl. %d ride-along)",
				level, memBytes, devBytes, c.RideAlongBytes[level])
		}
	}
	return nil
}
