// Package live is the simulator's observability hub for scrapers: an
// HTTP-free run Registry at the core, with an opt-in embedded HTTP Server
// (silcfm-sim/-experiments/-bench -listen) as a thin view over it.
//
//	/metrics    Prometheus text exposition: every stats.Memory counter,
//	            scheme gauges, queue depths, DRAM row-locality and per-bank
//	            families, per-path demand-latency percentiles, all labeled
//	            by run id.
//	/healthz    open health incidents as JSON; non-200 while any run has
//	            an active incident.
//	/progress   per-run sweep status with instruction progress, host-side
//	            simulation rate, elapsed wall time and wall-clock ETA.
//	/api/incidents[/<id>]  postmortem bundle listing and full bundles.
//	/api/exemplars         every run's worst-K tail-latency exemplars.
//	/debug/pprof/...       the standard net/http/pprof profiles.
//
// Any other path, / included, is 404.
//
// The simulation goroutine publishes one snapshot per telemetry epoch
// (harness.Spec.Publish -> Registry.Hook) under a short mutex; readers see
// value copies under the same mutex and never touch live simulation state.
// The hot loop therefore never waits on a slow client, and
// cycles/counters/incidents are provably unchanged with the hub on or off
// (asserted by harness.TestPlanesAreInert).
package live

import "strings"

// ListenUsage is the help text of the -listen flag every command shares.
const ListenUsage = "serve live observability HTTP on this address (/metrics, /healthz, /progress, /api/incidents, /api/exemplars, /debug/pprof)"

// escapeLabel escapes a Prometheus label value. Callers splice the result
// directly between literal quotes — never re-quote it with %q, which would
// double-escape the backslashes added here.
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return strings.ReplaceAll(v, "\n", `\n`)
}
