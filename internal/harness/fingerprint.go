package harness

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"silcfm/internal/config"
)

// fingerprintView is the hashed identity of a run: the full machine plus
// every spec field that changes simulated behavior. ShadowCheck, Telemetry,
// Publish, Flightrec and Exemplars are deliberately absent — all of them are
// provably inert.
//
// The view's field set, names and order are load-bearing: the fingerprint is
// a hash of the canonical JSON encoding, and committed baseline manifests
// (BENCH_PR*.json) carry fingerprints produced by exactly this layout.
type fingerprintView struct {
	Machine           config.Machine
	Workload          string
	Mix               []string
	TracePath         string
	InstrPerCore      uint64
	ScaleInstrByClass bool
	FootScaleNum      int
	FootScaleDen      int
}

// Fingerprint returns the short stable hash identifying what this spec
// simulates: two specs with equal fingerprints produce byte-identical
// deterministic counters. It is the "config.fingerprint" of run manifests
// (internal/manifest) and the config identity stamped into postmortem
// bundles (internal/flightrec).
func (s Spec) Fingerprint() string {
	v := fingerprintView{
		Machine:           s.Machine,
		Workload:          s.Workload,
		Mix:               s.Mix,
		TracePath:         s.TracePath,
		InstrPerCore:      s.InstrPerCore,
		ScaleInstrByClass: s.ScaleInstrByClass,
		FootScaleNum:      s.FootScaleNum,
		FootScaleDen:      s.FootScaleDen,
	}
	// Same canonical encoding as manifest.Canonical (two-space indent plus
	// trailing newline) so fingerprints match the committed baselines
	// byte-for-byte; duplicated here because manifest imports harness.
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		// The view is plain data; an encode failure is a programming error.
		panic(fmt.Sprintf("harness: fingerprint: %v", err))
	}
	sum := sha256.Sum256(append(b, '\n'))
	return hex.EncodeToString(sum[:8])
}
