package main

import (
	"fmt"
	"os"

	"silcfm/internal/stats"
)

// captureRefs bounds the reference prefix each traced cell captures for the
// cache replay (16 B per reference).
const captureRefs = 1 << 20

// traceRun is the per-layer measurement. Each repetition runs every cell
// three ways, back to back so that host drift hits all three alike:
//  1. untraced through harness.Run, stamping host time at each telemetry
//     epoch: the reference loop time and the epoch distribution;
//  2. untraced with the flight recorder disabled: the ablation that
//     cross-checks the traced flightrec.s;
//  3. traced: the layer spans.
//
// Host times are medians over repetitions of per-repetition values, counts
// come from the first traced repetition, and every leg's sim section must
// equal the others' (and the goldens').
func traceRun(cells []cell, seconds float64, ch *checker) map[string]metric {
	cal := calibrate()
	var hosts []map[string]float64
	var counts map[string]metric
	var epochs []float64
	repeatFor(seconds, func() {
		var refLoop, noRecLoop float64
		for _, c := range cells {
			r := runCell(c, runOptions{stampEpochs: true})
			if ch.check(&r) {
				refLoop += r.loopS
				epochs = append(epochs, r.epochs...)
			}
		}
		for _, c := range cells {
			r := runCell(c, runOptions{noFlightrec: true})
			if ch.check(&r) {
				noRecLoop += r.loopS
			}
		}
		tcs := make([]tracedCell, 0, len(cells))
		for _, c := range cells {
			t := runTraced(c, traceOptions{cal: cal, captureN: captureRefs})
			if ch.check(&t.cellResult) {
				tcs = append(tcs, t)
			}
		}
		h := layerHost(tcs)
		h["trace_overhead"] = stats.Ratio(h["sim.loop_s"], refLoop)
		h["flightrec.ablation_s"] = refLoop - noRecLoop
		hosts = append(hosts, h)
		if counts == nil {
			counts = layerCounts(tcs)
		}
		fmt.Fprintf(os.Stderr, "rep %d: untraced loop %.3fs, without flightrec %.3fs, traced %.3fs (flightrec %.3fs)\n",
			len(hosts), refLoop, noRecLoop, h["sim.loop_s"], h["flightrec.s"])
	})
	fmt.Printf("# %d repetitions; clock cost %d ns per span\n", len(hosts), cal.pairNS)

	out := counts
	for name, unit := range hostUnits {
		vals := make([]float64, len(hosts))
		for i, h := range hosts {
			vals[i] = h[name]
		}
		out[name] = metric{median(vals), unit}
	}
	pct, rank := tailRank(uint64(len(epochs)))
	out["sim.epochs"] = metric{float64(len(epochs)), "count"}
	out["sim.epoch_ms_p50"] = metric{median(epochs) * 1e3, "ms"}
	out["sim.epoch_ms_tail"] = metric{nearestRank(epochs, rank) * 1e3, "ms"}
	out["sim.epoch_tail_pct"] = metric{pct, "%"}
	return out
}

// hostUnits lists the host-time metrics layerHost reports per repetition.
var hostUnits = map[string]string{
	"sim.loop_s":             "s",
	"sim.residual_s":         "s",
	"workload.next_s":        "s",
	"vm.translate_s":         "s",
	"cache.access_ns":        "ns",
	"scheme.handle_s":        "s",
	"scheme.handle_ns_p50":   "ns",
	"scheme.handle_ns_tail":  "ns",
	"scheme.handle_tail_pct": "%",
	"scheme.build_s":         "s",
	"dram.build_s":           "s",
	"harness.build_s":        "s",
	"harness.audit_s":        "s",
	"flightrec.s":            "s",
	"exemplar.s":             "s",
	"health.s":               "s",
	"telemetry.tracer_s":     "s",
	"telemetry.profiler_s":   "s",
	"telemetry.finish_s":     "s",
	"live.publish_s":         "s",
	"flightrec.ablation_s":   "s",
	"trace_overhead":         "x",
}

// layerHost sums one traced repetition's host times over its cells.
func layerHost(tcs []tracedCell) map[string]float64 {
	h := map[string]float64{}
	var handle nsHist
	for i := range tcs {
		t := &tcs[i]
		sp := &t.spans
		h["sim.loop_s"] += t.loopS
		h["sim.residual_s"] += t.residualS
		h["workload.next_s"] += sp.next.seconds()
		h["vm.translate_s"] += sp.translate.seconds()
		h["cache.access_ns"] += t.cacheNS / float64(len(tcs))
		h["scheme.handle_s"] += sp.handle.seconds()
		h["scheme.build_s"] += t.schemeBuildS
		h["dram.build_s"] += t.dramBuildS
		h["harness.build_s"] += t.harnessBuildS
		h["harness.audit_s"] += t.auditS
		h["flightrec.s"] += sp.flightrec.seconds()
		h["exemplar.s"] += sp.exemplar.seconds()
		h["health.s"] += sp.health.seconds()
		h["telemetry.tracer_s"] += sp.tracer.seconds()
		h["telemetry.profiler_s"] += sp.profiler.seconds()
		h["telemetry.finish_s"] += t.finishS
		h["live.publish_s"] += sp.liveHook.seconds()
		for b, n := range sp.handle.hist.counts {
			handle.counts[b] += n
		}
		handle.n += sp.handle.hist.n
	}
	pct, rank := tailRank(handle.n)
	h["scheme.handle_ns_p50"] = handle.at((handle.n + 1) / 2)
	h["scheme.handle_ns_tail"] = handle.at(rank)
	h["scheme.handle_tail_pct"] = pct
	return h
}

// layerCounts reduces the first traced repetition's counters: span call
// counts and the simulated statistics of every layer, summed over cells
// before any ratio is taken.
func layerCounts(tcs []tracedCell) map[string]metric {
	var (
		nextCalls, xlateCalls, handleCalls, recCalls, exrCalls float64
		l1, l2, llc, refs, stall, coreCycles                   float64
		bundles, incidents                                     float64
		mem                                                    stats.Memory
		lat                                                    stats.Histogram
		busCap                                                 [2]float64
	)
	for i := range tcs {
		t := &tcs[i]
		r := t.res
		m := r.Spec.Machine
		channels := [2]float64{float64(m.NM.Channels), float64(m.FM.Channels)}
		nextCalls += float64(t.spans.next.calls)
		xlateCalls += float64(t.spans.translate.calls)
		handleCalls += float64(t.spans.handle.calls)
		recCalls += float64(t.spans.flightrec.calls)
		exrCalls += float64(t.spans.exemplar.calls)
		for _, cs := range r.Cores {
			l1 += float64(cs.L1Hits)
			l2 += float64(cs.L2Hits)
			llc += float64(cs.LLCMisses)
			refs += float64(cs.MemRefs)
			stall += float64(cs.StallCycles)
			coreCycles += float64(r.Cycles)
		}
		bundles += float64(len(r.Bundles))
		incidents += float64(len(r.Health))
		for lv := 0; lv < 2; lv++ {
			for cl := 0; cl < 3; cl++ {
				mem.Bytes[lv][cl] += r.Mem.Bytes[lv][cl]
			}
			mem.RowHits[lv] += r.Mem.RowHits[lv]
			mem.RowMisses[lv] += r.Mem.RowMisses[lv]
			mem.BusBusyCycles[lv] += r.Mem.BusBusyCycles[lv]
			mem.ReadQueueWaitCycles[lv] += r.Mem.ReadQueueWaitCycles[lv]
			mem.WriteQueueWaitCycles[lv] += r.Mem.WriteQueueWaitCycles[lv]
			busCap[lv] += channels[lv] * float64(r.Cycles)
		}
		mem.SwapsIn += r.Mem.SwapsIn
		mem.SwapsOut += r.Mem.SwapsOut
		mem.BypassedAccesses += r.Mem.BypassedAccesses
		for p := range r.Lat.Hist {
			h := &r.Lat.Hist[p]
			if lat.Counts == nil {
				lat = stats.Histogram{BucketWidth: h.BucketWidth, Counts: make([]uint64, len(h.Counts))}
			}
			for b, n := range h.Counts {
				lat.Counts[b] += n
			}
			lat.N += h.N
			lat.Sum += h.Sum
			lat.Max = max(lat.Max, h.Max)
		}
	}
	out := map[string]metric{
		"workload.next_calls":              {nextCalls, "count"},
		"vm.translate_calls":               {xlateCalls, "count"},
		"cache.l1_hits":                    {l1, "count"},
		"cache.l2_hits":                    {l2, "count"},
		"cache.llc_misses":                 {llc, "count"},
		"cache.llc_miss_ratio":             {stats.Ratio(llc, refs), "ratio"},
		"cpu.mem_refs":                     {refs, "count"},
		"cpu.stall_frac":                   {stats.Ratio(stall, coreCycles), "ratio"},
		"scheme.handle_calls":              {handleCalls, "count"},
		"scheme.nm_demand_frac":            {mem.DemandNMFraction(), "ratio"},
		"scheme.swaps":                     {float64(mem.SwapsIn + mem.SwapsOut), "count"},
		"scheme.bypassed":                  {float64(mem.BypassedAccesses), "count"},
		"scheme.migration_per_demand_byte": {mem.MigrationOverheadRatio(), "ratio"},
		"mem.demand_lat_p50_cyc":           {float64(lat.Percentile(50)), "cycles"},
		"mem.demand_lat_p99_cyc":           {float64(lat.Percentile(99)), "cycles"},
		"flightrec.calls":                  {recCalls, "count"},
		"flightrec.bundles":                {bundles, "count"},
		"exemplar.calls":                   {exrCalls, "count"},
		"health.incidents":                 {incidents, "count"},
	}
	for lv, dev := range []string{"nm", "fm"} {
		reqs := float64(mem.RowHits[lv] + mem.RowMisses[lv])
		out["dram."+dev+"_reqs"] = metric{reqs, "count"}
		out["dram."+dev+"_row_hit_rate"] = metric{stats.Ratio(float64(mem.RowHits[lv]), reqs), "ratio"}
		out["dram."+dev+"_bus_util"] = metric{stats.Ratio(float64(mem.BusBusyCycles[lv]), busCap[lv]), "ratio"}
		out["dram."+dev+"_queue_wait_cyc"] = metric{stats.Ratio(
			float64(mem.ReadQueueWaitCycles[lv]+mem.WriteQueueWaitCycles[lv]), reqs), "cycles"}
	}
	return out
}
