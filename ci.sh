#!/bin/sh
# Local CI gate: formatting, vet, build, bench-smoke regression diff,
# live-observability endpoint checks, and the test suite under the race
# detector. Run from the repo root.
#
#   ./ci.sh          # every stage below, each once, in this order
#   ./ci.sh fast     # only gofmt, vet, build, the perfbench module and the race-tested fast-fail packages
#   ./ci.sh bench    # only the bench-smoke + manifest-diff stage
#   ./ci.sh perf     # only the perf-regression stage (speed/alloc bands)
#   ./ci.sh live     # only the live-server endpoint + inertness stage
#   ./ci.sh postmortem # only the flight-recorder capture/determinism/inertness stage
#   ./ci.sh exemplars # only the tail-exemplar capture/determinism/inertness stage
#   ./ci.sh history  # only the cross-PR trajectory-report stage
#   ./ci.sh test     # only the race-detector suite outside the fast-fail packages
set -eu

# The observability packages (stats counters, memory-system attribution,
# manifest encoding, telemetry writers, health detector, live server) gate
# everything downstream and their tests are quick.
fast_pkgs="./internal/stats ./internal/mem ./internal/telemetry ./internal/manifest
./internal/health ./internal/telemetry/live ./internal/telemetry/exemplar"

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

# Bench-smoke stage: rerun the short manifest suite and diff its
# deterministic counters against the committed trajectory baseline. Any
# counter drift fails here in seconds — a whole-system correctness tripwire
# that runs before the slow race-detector suite. Host-timing metrics are
# skipped (-noise 0): the baseline was produced on a different machine.
bench_smoke() {
	go build -o /tmp/silcfm-bench ./cmd/silcfm-bench
	/tmp/silcfm-bench -short -quiet -out /tmp/bench_smoke.json
	/tmp/silcfm-bench -diff -subset -noise 0 BENCH_PR18.json /tmp/bench_smoke.json
}

# Perf-regression stage: rerun the short suite best-of-5 and gate the
# direction-aware host metrics against the committed PR18 baseline. The speed
# band is generous (-speed-noise 0.6: CI machines differ and host timing
# jitters ±50% even best-of-5) — it exists to catch order-of-magnitude
# regressions like an allocation or scan creeping back into the inner loop,
# not 10% wobbles. The alloc band is tight (-alloc-noise 0.25): steady-state
# allocation counts are nearly deterministic, so any real leak trips it.
# -noise 0 still skips wall_seconds, and sim counters stay exact as always.
perf_gate() {
	go build -o /tmp/silcfm-bench ./cmd/silcfm-bench
	/tmp/silcfm-bench -short -quiet -reps 5 -out /tmp/bench_perf.json
	/tmp/silcfm-bench -diff -subset -noise 0 -speed-noise 0.6 -alloc-noise 0.25 \
		BENCH_PR18.json /tmp/bench_perf.json
}

# Live-observability stage: run a short simulation with the embedded HTTP
# server, validate the dashboard, /api/runs, /events, /metrics, /healthz
# and /progress while it lingers, then rerun the identical simulation (a)
# with no server and (b) with the server plus three concurrent SSE
# subscribers draining /events throughout the run, and assert every
# deterministic counter (incidents included) is byte-identical across all
# three legs — the observability layer, streaming included, must be
# provably inert.
live_smoke() {
	go build -o /tmp/silcfm-bench ./cmd/silcfm-bench
	go build -o /tmp/silcfm-sim ./cmd/silcfm-sim
	go build -o /tmp/livecheck ./internal/tools/livecheck
	rm -f /tmp/live_on.json /tmp/live_stderr.log
	/tmp/silcfm-sim -workload milc -instr 100000 -scale-instr=false \
		-nm 8 -fm 32 -footscale 16 \
		-listen 127.0.0.1:0 -listen-linger 60s \
		-manifest-out /tmp/live_on.json >/dev/null 2>/tmp/live_stderr.log &
	sim_pid=$!
	trap 'kill $sim_pid 2>/dev/null || true' EXIT
	# The sim announces "live: http://ADDR" on stderr at startup and writes
	# the manifest when the run completes (the server then lingers).
	url=""
	for _ in $(seq 1 300); do
		url=$(sed -n 's/^live: //p' /tmp/live_stderr.log 2>/dev/null | head -1)
		[ -n "$url" ] && [ -s /tmp/live_on.json ] && break
		url=""
		sleep 0.1
	done
	if [ -z "$url" ]; then
		echo "live_smoke: server never came up or run never finished" >&2
		cat /tmp/live_stderr.log >&2
		exit 1
	fi
	/tmp/livecheck "$url"
	kill $sim_pid 2>/dev/null || true
	wait $sim_pid 2>/dev/null || true
	trap - EXIT
	# No-server leg: identical flags minus -listen.
	/tmp/silcfm-sim -workload milc -instr 100000 -scale-instr=false \
		-nm 8 -fm 32 -footscale 16 \
		-manifest-out /tmp/live_off.json >/dev/null
	/tmp/silcfm-bench -diff -noise 0 /tmp/live_off.json /tmp/live_on.json
	# Subscriber leg: same run with three /events streams attached before
	# the first instruction dispatches.
	/tmp/silcfm-sim -workload milc -instr 100000 -scale-instr=false \
		-nm 8 -fm 32 -footscale 16 \
		-listen 127.0.0.1:0 -sse-subs 3 \
		-manifest-out /tmp/live_subs.json >/dev/null 2>&1
	/tmp/silcfm-bench -diff -noise 0 /tmp/live_off.json /tmp/live_subs.json
}

# Postmortem stage: run a thrashy configuration that opens incidents, and
# prove the flight recorder's three contracts end to end: (1) it captures —
# a bundle file appears and silcfm-postmortem renders a report naming the
# trigger; (2) it is deterministic — a repeat run produces a byte-identical
# bundle; (3) it is inert — the manifest of a recorder-on run is
# byte-identical to a -flightrec=false run (the recorder may observe the
# simulation but never perturb it).
postmortem_smoke() {
	go build -o /tmp/silcfm-sim ./cmd/silcfm-sim
	go build -o /tmp/silcfm-postmortem ./cmd/silcfm-postmortem
	rm -rf /tmp/pm_a /tmp/pm_b
	/tmp/silcfm-sim -workload milc -instr 100000 -scale-instr=false \
		-nm 8 -fm 32 -footscale 16 \
		-postmortem-out /tmp/pm_a -manifest-out /tmp/pm_on.json >/dev/null
	if [ ! -s /tmp/pm_a/bundle-000.json ]; then
		echo "postmortem_smoke: thrash config produced no bundle" >&2
		exit 1
	fi
	/tmp/silcfm-postmortem -o /tmp/pm_report.md /tmp/pm_a
	grep -q '^# Postmortem: ' /tmp/pm_report.md
	grep -q 'Evidence window' /tmp/pm_report.md
	# Determinism: an identical rerun must reproduce every bundle byte.
	/tmp/silcfm-sim -workload milc -instr 100000 -scale-instr=false \
		-nm 8 -fm 32 -footscale 16 \
		-postmortem-out /tmp/pm_b >/dev/null
	for f in /tmp/pm_a/bundle-*.json; do
		cmp "$f" "/tmp/pm_b/$(basename "$f")"
	done
	# Inertness: recorder off must leave the simulation manifest untouched.
	/tmp/silcfm-sim -workload milc -instr 100000 -scale-instr=false \
		-nm 8 -fm 32 -footscale 16 \
		-flightrec=false -manifest-out /tmp/pm_off.json >/dev/null
	go build -o /tmp/silcfm-bench ./cmd/silcfm-bench
	/tmp/silcfm-bench -diff -noise 0 /tmp/pm_off.json /tmp/pm_on.json
}

# Tail-exemplar stage: run the capacity-pressured thrash configuration and
# prove the exemplar recorder's contracts end to end: (1) it captures — the
# printed report closes with a "tail exemplars:" waterfall and
# -exemplars-out writes the worst-K records as JSONL; (2) it is
# deterministic — an identical rerun reproduces the JSONL byte-for-byte;
# (3) it is inert — a -exemplars=false run's manifest is byte-identical to
# the recorder-on manifest everywhere outside the sim.exemplars leaf itself.
exemplars_smoke() {
	go build -o /tmp/silcfm-sim ./cmd/silcfm-sim
	/tmp/silcfm-sim -workload milc -instr 100000 -scale-instr=false \
		-nm 8 -fm 32 -footscale 16 \
		-exemplars-out /tmp/ex_a.jsonl -manifest-out /tmp/ex_on.json >/tmp/ex_report.txt
	grep -q '^tail exemplars:' /tmp/ex_report.txt
	grep -q 'max=' /tmp/ex_report.txt
	if [ ! -s /tmp/ex_a.jsonl ]; then
		echo "exemplars_smoke: run captured no exemplars" >&2
		exit 1
	fi
	# Determinism: an identical rerun must reproduce every JSONL byte.
	/tmp/silcfm-sim -workload milc -instr 100000 -scale-instr=false \
		-nm 8 -fm 32 -footscale 16 \
		-exemplars-out /tmp/ex_b.jsonl >/dev/null
	cmp /tmp/ex_a.jsonl /tmp/ex_b.jsonl
	# Inertness: recorder off must change nothing but its own manifest leaf.
	/tmp/silcfm-sim -workload milc -instr 100000 -scale-instr=false \
		-nm 8 -fm 32 -footscale 16 \
		-exemplars=false -manifest-out /tmp/ex_off.json >/dev/null
	python3 - /tmp/ex_on.json /tmp/ex_off.json <<'EOF'
import json, sys
on, off = (json.load(open(p)) for p in sys.argv[1:3])
for e in off["entries"]:
    if "exemplars" in e["sim"]:
        sys.exit("exemplars_smoke: -exemplars=false manifest still has sim.exemplars")
for m in (on, off):
    for e in m["entries"]:
        e["sim"].pop("exemplars", None)
        e["host"] = {}
if on != off:
    sys.exit("exemplars_smoke: on/off manifests differ outside the exemplars leaf")
EOF
}

# Trajectory stage: regenerate the cross-PR trajectory report from the
# committed BENCH_PR*.json baselines and require it to match the committed
# TRAJECTORY.md byte-for-byte. The report is a pure function of the input
# manifests, so any drift means either the baselines changed without the
# report (regenerate it) or the report generator changed behavior.
history_smoke() {
	go build -o /tmp/silcfm-bench ./cmd/silcfm-bench
	/tmp/silcfm-bench -history -history-md /tmp/trajectory.md 'BENCH_PR*.json' >/dev/null
	if ! diff -u TRAJECTORY.md /tmp/trajectory.md; then
		echo "history_smoke: TRAJECTORY.md is stale; regenerate with:" >&2
		echo "  go run ./cmd/silcfm-bench -history -history-md TRAJECTORY.md 'BENCH_PR*.json'" >&2
		exit 1
	fi
	# Explicit ordered paths must agree with the glob expansion.
	/tmp/silcfm-bench -history BENCH_PR4.json BENCH_PR5.json BENCH_PR6.json BENCH_PR9.json BENCH_PR10.json BENCH_PR13.json BENCH_PR16.json BENCH_PR18.json >/tmp/trajectory_explicit.md
	diff -u TRAJECTORY.md /tmp/trajectory_explicit.md
}

case "${1:-}" in
fast) fast_gate ;;
bench) bench_smoke ;;
perf) perf_gate ;;
live) live_smoke ;;
postmortem) postmortem_smoke ;;
exemplars) exemplars_smoke ;;
history) history_smoke ;;
test) race_rest ;;
"")
	fast_gate
	bench_smoke
	perf_gate
	live_smoke
	postmortem_smoke
	exemplars_smoke
	history_smoke
	race_rest
	;;
*)
	echo "ci.sh: unknown stage $1" >&2
	exit 2
	;;
esac
