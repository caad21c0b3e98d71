#!/bin/sh
# Local CI gate: formatting, vet, build, bench-smoke regression diff, the
# perf bands, the trajectory report, and the test suite under the race
# detector. Every observability contract (plane inertness, hub endpoints,
# postmortem rendering) is a Go test inside that suite. Run from the repo
# root.
#
#   ./ci.sh          # every stage below, each once, in this order
#   ./ci.sh fast     # only gofmt, vet, build, the perfbench module and the race-tested fast-fail packages
#   ./ci.sh bench    # only the bench-smoke + manifest-diff stage
#   ./ci.sh perf     # only the perf-regression stage (speed/alloc bands)
#   ./ci.sh history  # only the cross-PR trajectory-report stage
#   ./ci.sh test     # only the race-detector suite outside the fast-fail packages
set -eu

# Every temporary file and built binary of one invocation lives under one
# scratch directory (honouring TMPDIR), removed on exit, so concurrent runs
# never collide.
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
trap 'exit 1' INT TERM

# The observability packages (stats counters and top-K tables, the
# memunits slabs and rings that hold plane state, memory-system
# attribution, manifest encoding, telemetry writers, health detector, live
# server, exemplar and flight recorders) gate everything downstream and
# their tests are quick.
fast_pkgs="./internal/stats ./internal/memunits ./internal/mem ./internal/telemetry
./internal/manifest ./internal/health ./internal/telemetry/live
./internal/telemetry/exemplar ./internal/flightrec"

# Fast-fail stage: formatting, vet and build over the whole module, vet and
# tests of the nested perfbench module (the root ./... patterns skip it, and
# it compiles against the simulator's plane constructors), then the
# fast-fail packages under the race detector, so broken instrumentation
# fails in seconds, not after the full sweep-driven suite.
fast_gate() {
	fmt=$(gofmt -l .)
	if [ -n "$fmt" ]; then
		echo "gofmt: files need formatting:" >&2
		echo "$fmt" >&2
		exit 1
	fi
	go vet ./...
	go build ./...
	go -C perfbench vet .
	go -C perfbench test .
	go test -race $fast_pkgs
}

# Race-detector stage: every package the fast-fail stage did not test.
race_rest() {
	go test -race $(go list ./... | grep -vxF "$(go list $fast_pkgs)")
}

# The bench and perf stages diff against the newest committed baseline: the
# BENCH_PR<N>.json with the largest N (natural order, so PR10 follows PR9).
newest_baseline() {
	for f in BENCH_PR*.json; do
		n=${f#BENCH_PR}
		echo "${n%.json} $f"
	done | sort -n | tail -n 1 | cut -d ' ' -f 2
}

# The bench, perf and history stages share one silcfm-bench binary, built
# into the scratch directory by whichever of them runs first.
bench_bin() {
	[ -x "$work"/silcfm-bench ] || go build -o "$work"/silcfm-bench ./cmd/silcfm-bench
}

# Bench-smoke stage: rerun the full manifest suite and diff its
# deterministic counters against every cell of the committed trajectory
# baseline. Any counter drift fails here in seconds — a whole-system
# correctness tripwire that runs before the slow race-detector suite.
# Host-timing metrics are skipped (-noise 0): the baseline was produced on a
# different machine.
bench_smoke() {
	bench_bin
	"$work"/silcfm-bench -quiet -out "$work"/bench_smoke.json
	"$work"/silcfm-bench -diff -noise 0 "$(newest_baseline)" "$work"/bench_smoke.json
}

# Perf-regression stage: rerun the short suite best-of-5 and gate the
# direction-aware host metrics against the committed baseline manifest.
# The speed band is generous (-speed-noise 0.6: CI machines differ and host
# timing jitters ±50% even best-of-5) — it exists to catch order-of-magnitude
# regressions like an allocation or scan creeping back into the inner loop,
# not 10% wobbles. The alloc band is tight (-alloc-noise 0.25): steady-state
# allocation counts are nearly deterministic, so any real leak trips it.
# -noise 0 still skips wall_seconds, and sim counters stay exact as always.
perf_gate() {
	bench_bin
	"$work"/silcfm-bench -short -quiet -reps 5 -out "$work"/bench_perf.json
	"$work"/silcfm-bench -diff -subset -noise 0 -speed-noise 0.6 -alloc-noise 0.25 \
		"$(newest_baseline)" "$work"/bench_perf.json
}

# Trajectory stage: regenerate the cross-PR trajectory report from the
# committed BENCH_PR*.json baselines and require it to match the committed
# TRAJECTORY.md byte-for-byte. The report is a pure function of the input
# manifests, so any drift means either the baselines changed without the
# report (regenerate it) or the report generator changed behavior. The
# glob's natural-order expansion and the command-line order of explicit
# paths are cmd/silcfm-bench tests in the race-detector stage.
history_smoke() {
	bench_bin
	"$work"/silcfm-bench -history -history-md "$work"/trajectory.md 'BENCH_PR*.json' >/dev/null
	if ! diff -u TRAJECTORY.md "$work"/trajectory.md; then
		echo "history_smoke: TRAJECTORY.md is stale; regenerate with:" >&2
		echo "  go run ./cmd/silcfm-bench -history -history-md TRAJECTORY.md 'BENCH_PR*.json'" >&2
		exit 1
	fi
}

case "${1:-}" in
fast) fast_gate ;;
bench) bench_smoke ;;
perf) perf_gate ;;
history) history_smoke ;;
test) race_rest ;;
"")
	fast_gate
	bench_smoke
	perf_gate
	history_smoke
	race_rest
	;;
*)
	echo "ci.sh: unknown stage $1" >&2
	exit 2
	;;
esac
