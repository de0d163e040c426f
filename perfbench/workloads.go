package main

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"repro/internal/experiments"
	"repro/internal/service"
)

// request is one generated API call. Index is its position in the
// workload's seeded request list.
type request struct {
	Index int
	Path  string
	Body  []byte
	Key   string
	Sim   *service.SimRequest
	Sweep *service.SweepRequest
	// Pair marks a first-time key that both clients send at once, so the
	// worker coalesces the two requests into one computation.
	Pair bool
}

// source yields a workload's request list, one request at a time. The
// list is a pure function of the seed: the same seed always yields the
// same requests in the same order.
type source interface {
	next() request
}

const (
	designSweep = "design-sweep"
	tierSweep   = "tier-sweep"
	hotFigures  = "hot-figures"
)

var workloadNames = []string{designSweep, tierSweep, hotFigures}

func newSource(name string, seed int64) (source, error) {
	switch name {
	case designSweep:
		return newDesignSource(seed), nil
	case tierSweep:
		return newTierSource(seed), nil
	case hotFigures:
		return newHotSource(seed), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

func simRequest(req service.SimRequest, key string) request {
	body, _ := json.Marshal(req) // plain structs of scalars: cannot fail
	return request{Path: "/v1/sim", Body: body, Key: key, Sim: &req}
}

func sweepRequest(req service.SweepRequest, key string) request {
	body, _ := json.Marshal(req) // plain structs of scalars: cannot fail
	return request{Path: "/v1/sweep", Body: body, Key: key, Sweep: &req}
}

// The paper's design space, as ConfigSpec choices.
var (
	presets    = []string{"base", "optimized"}
	policies   = []string{"writeback", "wmi", "writeonly", "subblock"}
	l2Sizes    = []int{32, 64, 128, 256, 512, 1024}
	lpsSchemes = []string{"none", "assoc", "dirtybit"}
	timeSlices = []uint64{100_000, 250_000, 500_000, 1_000_000}
)

// drawSim draws one /v1/sim request from the design space with a
// max_instructions cap in [lo, hi], on a 1000-instruction grid. Every
// field is set explicitly, so the request is already in the normalized
// form the service echoes back.
func drawSim(rng *rand.Rand, lo, hi uint64) service.SimRequest {
	return service.SimRequest{
		Config: experiments.ConfigSpec{
			Preset:      presets[rng.Intn(len(presets))],
			Policy:      policies[rng.Intn(len(policies))],
			L2KW:        l2Sizes[rng.Intn(len(l2Sizes))],
			L2Access:    2 + rng.Intn(9),
			Split:       rng.Intn(2) == 1,
			DirtyBuffer: rng.Intn(2) == 1,
			LPS:         lpsSchemes[rng.Intn(len(lpsSchemes))],
		},
		Scale:           1,
		Level:           1 + rng.Intn(16),
		TimeSlice:       timeSlices[rng.Intn(len(timeSlices))],
		MaxInstructions: lo + uint64(rng.Int63n(int64((hi-lo)/1000+1)))*1000,
	}
}

// uniqueSim draws design-space requests until one has a key not in
// seen, skipping combinations BuildConfig rejects.
func uniqueSim(rng *rand.Rand, seen map[string]bool, lo, hi uint64) request {
	for {
		req := drawSim(rng, lo, hi)
		key, err := service.SimKey(req)
		if err != nil || seen[key] {
			continue
		}
		seen[key] = true
		return simRequest(req, key)
	}
}

// designSource: distinct exact /v1/sim requests of 1M-4M instructions,
// so every request is a miss that runs the cycle-accurate simulator.
type designSource struct {
	rng  *rand.Rand
	seen map[string]bool
	n    int
}

func newDesignSource(seed int64) *designSource {
	return &designSource{rng: rand.New(rand.NewSource(seed)), seen: map[string]bool{}}
}

func (s *designSource) next() request {
	r := uniqueSim(s.rng, s.seen, 1_000_000, 4_000_000)
	r.Index = s.n
	s.n++
	return r
}

// tierKind is one (fidelity, experiment) pair of the tier-sweep mix,
// with its max_instructions range.
type tierKind struct {
	fidelity, experiment string
	lo, hi               uint64
}

// tierKinds' ranges are sized so each kind costs about 200 ms of host
// time on a 2.1 GHz Xeon: with equal costs the latency distribution has
// one mode, so its median does not jump between the modes of cheap and
// dear kinds from one seed to the next.
var tierKinds = []tierKind{
	{service.FidelityScreening, "fig6", 1_000_000, 1_500_000},
	{service.FidelityScreening, "table2", 1_000_000, 1_500_000},
	{service.FidelityScreening, "fig7", 2_200_000, 3_400_000},
	{service.FidelityScreening, "fig8", 2_200_000, 3_400_000},
	{service.FidelityScreening, "fastsweep", 1_700_000, 2_500_000},
	{service.FidelitySampled, "fig2", 12_000_000, 18_000_000},
	{service.FidelitySampled, "fig5", 3_000_000, 4_400_000},
	{service.FidelitySampled, "fig6", 2_600_000, 3_400_000},
	{service.FidelitySampled, "table2", 2_600_000, 3_400_000},
}

// tierSource: distinct screening and sampled /v1/sweep requests. The
// kinds come in rounds, each a seeded permutation of all nine, so any
// stretch of the list holds every kind in near-equal shares; keys differ
// through max_instructions. Level stays 8: a new level would make the
// screening engine record a new synthetic workload inside the request.
type tierSource struct {
	rng   *rand.Rand
	seen  map[string]bool
	round []int
	n     int
}

func newTierSource(seed int64) *tierSource {
	return &tierSource{rng: rand.New(rand.NewSource(seed)), seen: map[string]bool{}}
}

func (s *tierSource) next() request {
	if len(s.round) == 0 {
		s.round = s.rng.Perm(len(tierKinds))
	}
	k := tierKinds[s.round[0]]
	s.round = s.round[1:]
	for {
		req := service.SweepRequest{
			Experiment:      k.experiment,
			Scale:           1,
			Level:           8,
			MaxInstructions: k.lo + uint64(s.rng.Int63n(int64((k.hi-k.lo)/100+1)))*100,
			Fidelity:        k.fidelity,
		}
		key, err := service.SweepKey(req)
		if err != nil || s.seen[key] {
			continue
		}
		s.seen[key] = true
		r := sweepRequest(req, key)
		r.Index = s.n
		s.n++
		return r
	}
}

// hot-figures shape. The key set (hotSims + hotSweeps) is five times a
// worker's LRU bound, so the zipf tail is served from the disk store.
const (
	hotSims      = 120
	hotSweeps    = 40
	hotSkew      = 1.2   // zipf s, as in simload
	hotPairShare = 0.001 // share of requests that are coalesced first-time pairs
	cacheEntries = 32    // each worker's LRU bound
)

// hotSource: zipf draws over a fixed key set of cheap /v1/sim and
// screening /v1/sweep results that set-up computes ahead of time, plus
// a small share of first-time /v1/sim keys that both clients send at
// once.
type hotSource struct {
	rng  *rand.Rand
	zipf *rand.Zipf
	keys []request // in zipf rank order: keys[0] is the hottest
	seen map[string]bool
	n    int
}

func newHotSource(seed int64) *hotSource {
	rng := rand.New(rand.NewSource(seed))
	s := &hotSource{rng: rng, seen: map[string]bool{}}
	for len(s.keys) < hotSims {
		s.keys = append(s.keys, uniqueSim(rng, s.seen, 20_000, 60_000))
	}
	screening := experiments.ScreeningIDs()
	for len(s.keys) < hotSims+hotSweeps {
		req := service.SweepRequest{
			Experiment:      screening[rng.Intn(len(screening))],
			Scale:           1,
			Level:           8,
			MaxInstructions: 20_000 + uint64(rng.Int63n(401))*100,
			Fidelity:        service.FidelityScreening,
		}
		key, err := service.SweepKey(req)
		if err != nil || s.seen[key] {
			continue
		}
		s.seen[key] = true
		s.keys = append(s.keys, sweepRequest(req, key))
	}
	rng.Shuffle(len(s.keys), func(i, j int) { s.keys[i], s.keys[j] = s.keys[j], s.keys[i] })
	s.zipf = rand.NewZipf(rng, hotSkew, 1, uint64(len(s.keys)-1))
	return s
}

func (s *hotSource) next() request {
	var r request
	if s.rng.Float64() < hotPairShare {
		r = uniqueSim(s.rng, s.seen, 50_000, 100_000)
		r.Pair = true
	} else {
		r = s.keys[s.zipf.Uint64()]
	}
	r.Index = s.n
	s.n++
	return r
}
