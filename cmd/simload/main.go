// Command simload load-tests a running cachesimd daemon: it fires a
// zipf-skewed mix of sweep requests at configurable concurrency for a
// fixed duration, then reports throughput, error counts, and a latency
// histogram split by cache outcome (hit vs computed). The zipf skew
// mimics real study traffic — a few popular figure sweeps dominate,
// with a long tail of one-off configurations — which is exactly the
// regime a content-addressed result cache serves well; the hit/miss
// median ratio it prints is the demonstration.
//
// Requests go through internal/client, so overload shedding degrades
// gracefully end-to-end: 429/503 responses are retried with
// exponential backoff and jitter (honoring the server's Retry-After),
// each attempt carries a deadline, and a circuit breaker fails fast —
// and is reported — when the daemon stops answering altogether.
//
// Pointed at a cachesim-coord coordinator the same flags drive a whole
// cluster (the coordinator speaks the identical /v1 surface); responses
// then carry X-Fabric-Worker attribution, reported per worker: each
// shard's traffic share and cache hits, i.e. ring balance and cache
// heat as the client sees them.
//
//	go run ./cmd/simload -addr localhost:8344 -c 8 -duration 30s
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/client"
	"repro/internal/experiments"
	"repro/internal/service"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "simload:", err)
		os.Exit(1)
	}
}

// sample is one completed request.
type sample struct {
	latency  time.Duration
	source   string // hit | miss | coalesced | error:<class>
	fidelity string // exact | screening | sampled
	worker   string // X-Fabric-Worker attribution ("" against a single daemon)
	attempts int
}

// fidWeight is one term of the -fidelity-mix: this fraction of requests
// runs at this fidelity.
type fidWeight struct {
	fidelity string
	weight   float64
}

// parseFidelityMix parses "exact=0.5,screening=0.3,sampled=0.2".
// Weights are renormalized, so any positive scale works.
func parseFidelityMix(s string) ([]fidWeight, error) {
	known := map[string]bool{}
	for _, f := range experiments.Fidelities() {
		known[f] = true
	}
	var mix []fidWeight
	seen := map[string]bool{}
	total := 0.0
	for _, term := range strings.Split(s, ",") {
		name, val, ok := strings.Cut(strings.TrimSpace(term), "=")
		if !ok {
			return nil, fmt.Errorf("fidelity-mix term %q: want name=weight", term)
		}
		if !known[name] {
			return nil, fmt.Errorf("fidelity-mix: unknown fidelity %q (have %s)",
				name, strings.Join(experiments.Fidelities(), ", "))
		}
		if seen[name] {
			return nil, fmt.Errorf("fidelity-mix: fidelity %q repeated", name)
		}
		seen[name] = true
		w, err := strconv.ParseFloat(val, 64)
		if err != nil || w <= 0 {
			return nil, fmt.Errorf("fidelity-mix: weight %q must be a positive number", val)
		}
		mix = append(mix, fidWeight{name, w})
		total += w
	}
	for i := range mix {
		mix[i].weight /= total
	}
	return mix, nil
}

func run() error {
	var (
		addr       = flag.String("addr", "localhost:8344", "cachesimd address")
		conc       = flag.Int("c", 4, "concurrent clients")
		duration   = flag.Duration("duration", 15*time.Second, "how long to generate load")
		skew       = flag.Float64("skew", 1.2, "zipf skew s (> 1; larger = hotter head)")
		seed       = flag.Int64("seed", 1, "random seed for the request mix and retry jitter")
		maxInstr   = flag.Uint64("max", 200_000, "max_instructions per sweep request (0 = full suite; keep small for load tests)")
		scales     = flag.Int("scales", 2, "number of workload scales in the mix (1..N)")
		retries    = flag.Int("retries", 4, "attempts per request (1 = no retry)")
		reqTimeout = flag.Duration("req-timeout", 2*time.Minute, "per-attempt deadline")
		brkFails   = flag.Int("breaker-threshold", 8, "consecutive failures that open the circuit breaker (-1 disables)")
		brkCool    = flag.Duration("breaker-cooldown", 2*time.Second, "how long an open breaker fails fast before probing")
		mixFlag    = flag.String("fidelity-mix", "", `fidelity traffic mix, e.g. "exact=0.5,screening=0.3,sampled=0.2" (weights renormalized; empty = exact only)`)
	)
	flag.Parse()
	switch {
	case *conc < 1:
		return fmt.Errorf("-c must be >= 1 (got %d)", *conc)
	case *duration <= 0:
		return fmt.Errorf("-duration must be > 0 (got %v)", *duration)
	case *skew <= 1:
		return fmt.Errorf("-skew must be > 1 (got %g)", *skew)
	case *scales < 1 || *scales > service.MaxScale:
		return fmt.Errorf("-scales must be in [1,%d] (got %d)", service.MaxScale, *scales)
	case *retries < 1:
		return fmt.Errorf("-retries must be >= 1 (got %d)", *retries)
	}

	// The fidelity mix: each request first draws a fidelity by weight,
	// then a zipf-ranked (experiment, scale) pair from that fidelity's
	// universe. Distinct fidelities are distinct cache keys, so the
	// daemon's cache holds the populations side by side.
	mix := []fidWeight{{service.FidelityExact, 1}}
	if *mixFlag != "" {
		var err error
		if mix, err = parseFidelityMix(*mixFlag); err != nil {
			return err
		}
	}

	// One request universe per fidelity in the mix: every registered
	// experiment that supports it, at each scale, zipf-ranked so a
	// handful of (experiment, scale) pairs take most of the traffic.
	universes := map[string][][]byte{}
	for _, fw := range mix {
		var universe [][]byte
		ids := experiments.ServedIDs(fw.fidelity)
		for scale := 1; scale <= *scales; scale++ {
			for _, id := range ids {
				req := service.SweepRequest{
					Experiment:      id,
					Scale:           scale,
					MaxInstructions: *maxInstr,
					Fidelity:        fw.fidelity,
				}
				// Refuse up front what the daemon would refuse every
				// time, such as a sampled cap too short for a CI.
				if _, err := service.SweepKey(req); err != nil {
					return err
				}
				body, err := json.Marshal(req)
				if err != nil {
					return fmt.Errorf("marshal request: %w", err)
				}
				universe = append(universe, body)
			}
		}
		if len(universe) == 0 {
			return fmt.Errorf("fidelity %q matches no experiments", fw.fidelity)
		}
		universes[fw.fidelity] = universe
	}

	url := "http://" + *addr + "/v1/sweep"
	// One shared client: the breaker sees the daemon's aggregate
	// health, exactly as a real multi-request caller would.
	cl, err := client.New(client.Options{
		MaxAttempts:      *retries,
		AttemptTimeout:   *reqTimeout,
		BreakerThreshold: *brkFails,
		BreakerCooldown:  *brkCool,
		Seed:             uint64(*seed),
	})
	if err != nil {
		return err
	}
	deadline := time.Now().Add(*duration)

	var (
		mu      sync.Mutex
		samples []sample
	)
	var wg sync.WaitGroup
	for w := 0; w < *conc; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(*seed + int64(id)))
			zipfs := map[string]*rand.Zipf{}
			for _, fw := range mix {
				zipfs[fw.fidelity] = rand.NewZipf(rng, *skew, 1, uint64(len(universes[fw.fidelity])-1))
			}
			pick := func() string {
				r := rng.Float64()
				for _, fw := range mix {
					if r -= fw.weight; r < 0 {
						return fw.fidelity
					}
				}
				return mix[len(mix)-1].fidelity
			}
			var local []sample
			for time.Now().Before(deadline) {
				fid := pick()
				body := universes[fid][zipfs[fid].Uint64()]
				start := time.Now()
				res, err := cl.PostJSON(context.Background(), url, body)
				lat := time.Since(start)
				switch {
				case errors.Is(err, client.ErrBreakerOpen):
					local = append(local, sample{lat, "error:breaker-open", fid, "", 0})
				case err != nil:
					local = append(local, sample{lat, "error:exhausted", fid, "", *retries})
				default:
					src := res.Header.Get("X-Cache")
					if tier := res.Header.Get("X-Cache-Tier"); tier == "disk" {
						src = "hit-disk"
					}
					local = append(local, sample{lat, src, fid, res.Header.Get(service.WorkerHeader), res.Attempts})
				}
			}
			mu.Lock()
			samples = append(samples, local...)
			mu.Unlock()
		}(w)
	}
	wg.Wait()

	if len(samples) == 0 {
		return fmt.Errorf("no requests completed; is cachesimd running on %s?", *addr)
	}
	report(samples, *duration, cl.Stats())
	return nil
}

// report prints the latency study and what resilience cost.
func report(samples []sample, d time.Duration, cs client.Stats) {
	byClass := map[string][]time.Duration{}
	byFidelity := map[string][]time.Duration{}
	var all []time.Duration
	retried := 0
	for _, s := range samples {
		byClass[s.source] = append(byClass[s.source], s.latency)
		byFidelity[s.fidelity] = append(byFidelity[s.fidelity], s.latency)
		all = append(all, s.latency)
		if s.attempts > 1 {
			retried++
		}
	}
	fmt.Printf("requests: %d in %v (%.1f req/s)\n", len(all), d, float64(len(all))/d.Seconds())
	fmt.Printf("overall:  %s\n", describe(all))

	classes := make([]string, 0, len(byClass))
	for c := range byClass {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	for _, c := range classes {
		fmt.Printf("%-9s %s\n", c+":", describe(byClass[c]))
	}

	// Per-fidelity quantiles: the cost profile of each engine under the
	// same cache and traffic shape. Skip the section when the mix is a
	// single fidelity — the overall line already says it.
	if len(byFidelity) > 1 {
		fids := make([]string, 0, len(byFidelity))
		for f := range byFidelity {
			fids = append(fids, f)
		}
		sort.Strings(fids)
		fmt.Println("by fidelity:")
		for _, f := range fids {
			fmt.Printf("  %-10s %s\n", f+":", describe(byFidelity[f]))
		}
	}
	// Per-worker attribution: against a fabric coordinator (or a worker
	// daemon), every response names the shard that served it. The shares
	// make ring skew visible from the client side; the per-worker hit
	// counts show each shard's cache staying hot under consistent-hash
	// routing. Against a plain daemon no response carries the header and
	// the section is skipped.
	byWorker := map[string][]sample{}
	for _, s := range samples {
		if s.worker != "" {
			byWorker[s.worker] = append(byWorker[s.worker], s)
		}
	}
	if len(byWorker) > 0 {
		ids := make([]string, 0, len(byWorker))
		for id := range byWorker {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		fmt.Println("by worker:")
		for _, id := range ids {
			ws := byWorker[id]
			var lats []time.Duration
			hits := 0
			for _, s := range ws {
				lats = append(lats, s.latency)
				if s.source == "hit" || s.source == "hit-disk" {
					hits++
				}
			}
			fmt.Printf("  %-12s n=%-6d share=%4.1f%% hits=%-6d p50=%v\n",
				id+":", len(ws), 100*float64(len(ws))/float64(len(samples)), hits, quantile(lats, 0.5))
		}
	}
	fmt.Printf("resilience: attempts=%d retries=%d retry_after_obeyed=%d breaker_opens=%d breaker_rejects=%d requests_retried=%d\n",
		cs.Attempts, cs.Retries, cs.RetryAfterObey, cs.BreakerOpens, cs.BreakerRejects, retried)

	hits, misses := byClass["hit"], byClass["miss"]
	if len(hits) > 0 && len(misses) > 0 {
		hm, mm := quantile(hits, 0.5), quantile(misses, 0.5)
		fmt.Printf("cache effectiveness: median hit %v vs median miss %v — %.0fx faster\n",
			hm, mm, float64(mm)/float64(hm))
	}
}

func describe(ds []time.Duration) string {
	return fmt.Sprintf("n=%-6d p50=%-10v p90=%-10v p99=%-10v max=%v",
		len(ds), quantile(ds, 0.5), quantile(ds, 0.9), quantile(ds, 0.99), quantile(ds, 1))
}

// quantile returns the q-th latency of ds (exact, by sorting a copy).
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sorted := make([]time.Duration, len(ds))
	copy(sorted, ds)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	i := int(q*float64(len(sorted))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}
