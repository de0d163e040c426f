// Package service is the serving layer over the deterministic
// simulation core: a long-running HTTP JSON daemon (cmd/cachesimd) that
// answers single-configuration simulations and whole figure/table
// sweeps.
//
// The load-bearing observation is that this simulator is deterministic
// by construction (and by test: the byte-identity suites of
// internal/sim and internal/experiments): the same (config, workload,
// scale, code version) tuple always produces byte-identical output. A
// result is therefore a pure function of its request, which makes three
// classic serving techniques sound, not merely heuristic:
//
//   - a content-addressed result cache (cache.go) keyed by a canonical
//     hash of the normalized request plus CodeVersion — a hit returns
//     the exact bytes a fresh simulation would produce;
//   - request coalescing (coalesce.go) — N concurrent identical
//     requests share one simulation, and every caller gets the same
//     bytes;
//   - a bounded admission pool (server.go, layered on internal/harness
//     for per-request timeouts and panic recovery) — shedding load with
//     429 loses no information, because any shed request can be
//     replayed later for an identical answer.
package service

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"strings"

	"repro/internal/experiments"
	"repro/internal/report"
)

// CodeVersion names the simulator semantics baked into every cache key.
// Bump it whenever a change alters simulation output (new stall
// accounting, a workload change, a report format change), so stale
// results can never be served across a deploy. It deliberately shares
// fate with nothing else: lint rulesets and serving-layer changes do
// not invalidate results.
const CodeVersion = "gaascache-sim/3"

// Fidelity values for SweepRequest. Exact runs the cycle-accurate
// simulator; screening runs the one-pass stack-distance analyzer
// (internal/stackdist), which sweeps a whole configuration grid in a
// single trace replay; sampled runs the interval-sampling engine
// (internal/sample), which measures a systematic sample of each run and
// reports every CPI with a 95% confidence interval.
const (
	FidelityExact     = experiments.FidelityExact
	FidelityScreening = experiments.FidelityScreening
	FidelitySampled   = experiments.FidelitySampled
)

// WorkerHeader names the fabric worker that served a result. A worker
// daemon (Options.WorkerID) stamps it on every result response; the
// coordinator forwards it verbatim, so a client always learns which
// shard answered.
const WorkerHeader = "X-Fabric-Worker"

// Request validation bounds. Scale and level are multiplicative
// simulation costs; an absurd value is a denial-of-service request, not
// an experiment.
const (
	MaxScale = 64
	MaxLevel = 64
)

// Sentinel request errors, matched by the HTTP layer with errors.Is.
var (
	ErrBadRequest = errors.New("service: bad request")
	ErrOverloaded = errors.New("service: overloaded")
	ErrDraining   = errors.New("service: draining")
)

// SweepRequest asks for one registered experiment (a figure or table of
// the paper) at the given workload options.
type SweepRequest struct {
	// Experiment is an id from experiments.Registry (e.g. "fig5").
	Experiment string `json:"experiment"`
	// Scale is the workload scale factor; 0 means 1.
	Scale int `json:"scale,omitempty"`
	// Level is the multiprogramming level; 0 means the paper's 8.
	Level int `json:"level,omitempty"`
	// MaxInstructions caps each configuration run (0 = full suite).
	MaxInstructions uint64 `json:"max_instructions,omitempty"`
	// Fidelity selects the simulation engine: "exact" (default) for the
	// cycle-accurate simulator, "screening" for the one-pass
	// stack-distance analyzer, "sampled" for interval sampling with
	// confidence intervals. The normalized value is part of the cache
	// key, so each fidelity of one experiment caches independently.
	Fidelity string `json:"fidelity,omitempty"`
}

// normalize canonicalizes the request so that every spelling of the
// same simulation hashes to the same cache key.
func (r SweepRequest) normalize() SweepRequest {
	if r.Scale == 0 {
		r.Scale = 1
	}
	if r.Level == 0 {
		r.Level = 8
	}
	if r.Fidelity == "" {
		r.Fidelity = FidelityExact
	}
	return r
}

// validate checks bounds on the normalized request.
func (r SweepRequest) validate() error {
	if r.Experiment == "" {
		return fmt.Errorf("%w: missing experiment id", ErrBadRequest)
	}
	e, err := experiments.ByID(r.Experiment)
	if err != nil {
		return fmt.Errorf("%w: %w", ErrBadRequest, err)
	}
	if r.Scale < 1 || r.Scale > MaxScale {
		return fmt.Errorf("%w: scale %d out of range [1,%d]", ErrBadRequest, r.Scale, MaxScale)
	}
	if r.Level < 1 || r.Level > MaxLevel {
		return fmt.Errorf("%w: level %d out of range [1,%d]", ErrBadRequest, r.Level, MaxLevel)
	}
	if !slices.Contains(experiments.Fidelities(), r.Fidelity) {
		return fmt.Errorf("%w: fidelity %q must be one of %s",
			ErrBadRequest, r.Fidelity, strings.Join(experiments.Fidelities(), ", "))
	}
	if !e.Serves(r.Fidelity) {
		return fmt.Errorf("%w: experiment %q has no %s mode (%s ids: %s)", ErrBadRequest,
			r.Experiment, r.Fidelity, r.Fidelity, strings.Join(experiments.ServedIDs(r.Fidelity), ", "))
	}
	return nil
}

// SweepResponse is the cached-and-served result body of one sweep.
// Operational metadata (hit/miss/coalesced, elapsed time) travels in
// HTTP headers instead, so repeat requests return byte-identical
// bodies.
type SweepResponse struct {
	Experiment      string `json:"experiment"`
	Title           string `json:"title"`
	Scale           int    `json:"scale"`
	Level           int    `json:"level"`
	MaxInstructions uint64 `json:"max_instructions,omitempty"`
	Fidelity        string `json:"fidelity"`
	CodeVersion     string `json:"code_version"`
	Output          string `json:"output"` // the paper-style table text
}

// SimRequest asks for one configuration run over the recorded workload
// suite — the service form of a cmd/cachesim invocation.
type SimRequest struct {
	Config experiments.ConfigSpec `json:"config"`
	// Scale is the workload scale factor; 0 means 1.
	Scale int `json:"scale,omitempty"`
	// Level is the multiprogramming level; 0 means 8.
	Level int `json:"level,omitempty"`
	// TimeSlice in cycles; 0 means the paper's 500,000.
	TimeSlice uint64 `json:"time_slice,omitempty"`
	// MaxInstructions stops the run early (0 = whole suite).
	MaxInstructions uint64 `json:"max_instructions,omitempty"`
}

func (r SimRequest) normalize() SimRequest {
	if r.Scale == 0 {
		r.Scale = 1
	}
	if r.Level == 0 {
		r.Level = 8
	}
	if r.TimeSlice == 0 {
		r.TimeSlice = 500_000
	}
	if r.Config.Preset == "" {
		r.Config.Preset = "base"
	}
	return r
}

func (r SimRequest) validate() error {
	if _, err := experiments.BuildConfig(r.Config); err != nil {
		return fmt.Errorf("%w: %w", ErrBadRequest, err)
	}
	if r.Scale < 1 || r.Scale > MaxScale {
		return fmt.Errorf("%w: scale %d out of range [1,%d]", ErrBadRequest, r.Scale, MaxScale)
	}
	if r.Level < 1 || r.Level > MaxLevel {
		return fmt.Errorf("%w: level %d out of range [1,%d]", ErrBadRequest, r.Level, MaxLevel)
	}
	return nil
}

// SimResponse is the served body of one configuration run: the
// normalized request echoed back plus the full report.
type SimResponse struct {
	Request     SimRequest    `json:"request"`
	CodeVersion string        `json:"code_version"`
	Report      report.Report `json:"report"`
}

// cacheKey hashes a normalized request into its content address. The
// kind tag separates the sweep and sim namespaces; the encoding is
// canonical because encoding/json emits struct fields in declaration
// order and the request was normalized first.
func cacheKey(kind string, normalized any) string {
	payload, err := json.Marshal(struct {
		Kind    string `json:"kind"`
		Version string `json:"version"`
		Request any    `json:"request"`
	}{kind, CodeVersion, normalized})
	if err != nil {
		// Requests are plain structs of scalars; this cannot fail. Keep
		// the service alive regardless: an unhashable request simply
		// never caches or coalesces.
		return ""
	}
	sum := sha256.Sum256(payload)
	return hex.EncodeToString(sum[:])
}

// SweepKey returns the content address of a sweep request: the same
// key the serving cache and disk store use. The distributed fabric
// routes on it — computing the key coordinator-side and worker-side
// from the same normalized request is what makes ring routing
// cache-coherent (the worker that owns a key is the worker whose LRU
// and store are hot for it). Invalid requests return the validation
// error instead of a key, so the coordinator rejects them without
// spending a network hop.
func SweepKey(r SweepRequest) (string, error) {
	_, key, err := keyed("sweep", r)
	return key, err
}

// SimKey returns the content address of a single-configuration run,
// under the same contract as SweepKey.
func SimKey(r SimRequest) (string, error) {
	_, key, err := keyed("sim", r)
	return key, err
}

// storeKey namespaces a cache key for the disk tier. CodeVersion is
// hashed into the key itself, but the disk store also needs it as a
// literal prefix so invalidating every result computed by older code is
// a prefix sweep (store.SweepExcept) instead of a format migration.
func storeKey(key string) string { return storeKeyPrefix() + key }

// storeKeyPrefix is the keep-prefix handed to store.SweepExcept.
func storeKeyPrefix() string { return CodeVersion + "/" }
