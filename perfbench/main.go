// Command perfbench is the repository's benchmark. It starts a
// fabric.Coordinator and two service.Server workers in this process, on
// loopback, drives one named workload through the coordinator with two
// closed-loop clients, and prints every end-to-end metric with its unit
// and sample count plus a correctness verdict. The last line of standard
// output is the result as one JSON object.
//
// With -trace 1 it makes the traced run instead: the same workload
// untraced, then again with spans around each layer's public calls and
// a timed replay of every computed request, and it prints the
// per-layer metrics.
//
// Run it from the repository root:
//
//	bash perfbench/run.sh --workload design-sweep --seed 1 --seconds 20 --trace 0
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"repro/internal/service"
	"repro/internal/workload"
)

// config is one invocation.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	outDir   string
	spec     *spec
	facts    hostFacts
}

func main() {
	var (
		wl      = flag.String("workload", "", "workload to drive: design-sweep, tier-sweep or hot-figures")
		seed    = flag.Int64("seed", 1, "seed the request list is generated from")
		seconds = flag.Int("seconds", 20, "seconds of load per timed phase")
		traced  = flag.Int("trace", 0, "1 makes the traced per-layer run")
		probe   = flag.Bool("setup-probe", false, "set up once, print the seconds it took and exit (an untraced run starts itself this way for setup_s)")
	)
	flag.Parse()
	if err := run(*wl, *seed, *seconds, *traced, *probe); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// outRoot holds each run's result.json, spans and self-time table.
var outRoot = filepath.Join(".bench_build", "out")

func run(wl string, seed int64, seconds, traced int, setupProbe bool) error {
	if _, err := newSource(wl, seed); err != nil {
		return err
	}
	if seconds < 1 || (traced != 0 && traced != 1) {
		return fmt.Errorf("need --seconds >= 1 and --trace 0 or 1")
	}
	sp, err := loadSpec(specPath)
	if err != nil {
		return err
	}
	cfg := config{workload: wl, seed: seed, seconds: time.Duration(seconds) * time.Second,
		outDir: filepath.Join(outRoot, fmt.Sprintf("%s-seed%d-trace%d", wl, seed, traced)), spec: sp}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return err
	}
	if setupProbe {
		s, err := setUp(cfg, nil)
		if err != nil {
			return err
		}
		fmt.Println(s.total.Seconds())
		return s.cl.stop()
	}
	cfg.facts = collectHostFacts(seed)
	fmt.Printf("perfbench workload=%s seed=%d seconds=%d trace=%d\n", wl, seed, seconds, traced)
	var res *result
	if traced == 1 {
		res, err = runTraced(cfg)
	} else {
		res, err = runUntraced(cfg)
	}
	if err != nil {
		return err
	}
	cfg.facts.SpeedProbeMS = append(cfg.facts.SpeedProbeMS, speedProbe())
	return res.emit(cfg)
}

// setup is a ready fabric with the workload's request source.
type setup struct {
	cl     *cluster
	src    source
	warm   map[string][]byte // hot-figures: each key's body, computed ahead
	record time.Duration
	total  time.Duration
}

// setUp records the workloads (once per process: the recordings are
// memoized), starts the fabric, and for hot-figures computes the key set.
func setUp(cfg config, tr *tracer) (*setup, error) {
	t0 := time.Now()
	workload.Record(1)
	workload.RecordPaperLike(paperLevel, paperPerProc)
	s := &setup{record: time.Since(t0)}
	s.src, _ = newSource(cfg.workload, cfg.seed)
	cl, err := startCluster(cfg.outDir, tr)
	if err != nil {
		return nil, err
	}
	s.cl = cl
	if hs, ok := s.src.(*hotSource); ok {
		if s.warm, err = warmUp(context.Background(), cl.url, hs.keys); err != nil {
			return nil, errors.Join(err, cl.stop())
		}
	}
	s.total = time.Since(t0)
	return s, nil
}

// paperLevel and paperPerProc name the paper-calibrated recording the
// screening sweeps replay at level 8 and scale 1.
const (
	paperLevel   = 8
	paperPerProc = 400_000
)

// traceMB is the packed size of the recordings.
func traceMB() float64 {
	var b int
	for _, r := range workload.Record(1) {
		b += r.Trace.Bytes()
	}
	for _, r := range workload.RecordPaperLike(paperLevel, paperPerProc) {
		b += r.Trace.Bytes()
	}
	return float64(b) / (1 << 20)
}

// setupProbes is how many set-ups an untraced run makes in child
// processes before its own. Each child is a fresh process, so it records
// through workload.Record on an empty memo as the run's own set-up does;
// setup_s is the median of all of them.
const setupProbes = 2

// probeTimeout bounds one child set-up.
const probeTimeout = 90 * time.Second

func probeSetUps(cfg config) ([]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var secs []float64
	for k := 0; k < setupProbes; k++ {
		ctx, cancel := context.WithTimeout(context.Background(), probeTimeout)
		cmd := exec.CommandContext(ctx, exe, "--workload", cfg.workload, "--seed", strconv.FormatInt(cfg.seed, 10), "--setup-probe")
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		cancel()
		if err != nil {
			return nil, fmt.Errorf("set-up probe: %w", err)
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(string(out)), 64)
		if err != nil {
			return nil, fmt.Errorf("set-up probe printed %q: %w", out, err)
		}
		secs = append(secs, v)
	}
	return secs, nil
}

func runUntraced(cfg config) (*result, error) {
	setupS, err := probeSetUps(cfg)
	if err != nil {
		return nil, err
	}
	s, err := setUp(cfg, nil)
	if err != nil {
		return nil, err
	}
	setupS = append(setupS, s.total.Seconds())
	res := &result{}
	var p *phase
	err = res.checkDigest(cfg)
	if err == nil {
		ld := &load{url: s.cl.url, v: newVerifier(s.warm), minItems: minRequests[cfg.workload]}
		p, err = ld.run(context.Background(), s.src, cfg.seconds)
	}
	if err = errors.Join(err, s.cl.stop()); err != nil {
		return nil, err
	}
	res.addPhase(p)
	res.notes = append(res.notes, fmt.Sprintf("digest of this run's first %d requests: %s", minRequests[cfg.workload], p.digest))
	res.endToEnd(p, setupS, cfg.workload == designSweep)
	return res, nil
}

// result is what a run reports.
type result struct {
	attempted int
	failed    int
	// changed is set when the digest gate found changed output; then every
	// request of the run counts as failed.
	changed  bool
	failures []string
	metrics  []metric // printed in order; the JSON line carries the BENCHMARK.json set
	notes    []string
	served   map[string]int // requests by X-Cache outcome
}

type metric struct {
	name  string
	value float64
	unit  string
	n     int    // samples behind the value
	note  string // how it was measured
	gated bool   // part of the JSON result line
}

func (r *result) add(m metric) { r.metrics = append(r.metrics, m) }

// failedCount is the number of failed requests the run reports.
func (r *result) failedCount() int {
	if r.changed {
		return r.attempted
	}
	return r.failed
}

func (r *result) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < maxReportedFailures {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

func (r *result) addPhase(p *phase) {
	r.attempted += p.attempted
	r.failed += p.failed
	for _, err := range p.failures {
		if len(r.failures) < maxReportedFailures {
			r.failures = append(r.failures, err.Error())
		}
	}
}

// checkDigest gates the run on simulated output, whatever its seed.
// Before the timed phase it starts a fabric of its own, sends it the
// first minRequests requests of the default seed's list, untimed, and
// compares the sha256 over (index, body) with the digest spec.json
// records for the current CodeVersion. A failed request or a mismatch
// means the output changed: every request of the run counts as failed.
//
// Running first, the gate is also the timed phase's warm-up: it starts
// from a heap cleared of set-up garbage and leaves it grown by the
// workload's own allocations, so every timed phase reaches the heap's
// steady size and rss_peak_mb does not depend on how many requests a
// slow host let the phase complete. Its own fabric keeps the timed
// fabric's caches empty of the default seed's keys.
func (r *result) checkDigest(cfg config) error {
	n := minRequests[cfg.workload]
	src, err := newSource(cfg.workload, cfg.spec.DefaultSeed)
	if err != nil {
		return err
	}
	cl, err := startCluster(cfg.outDir, nil)
	if err != nil {
		return err
	}
	runtime.GC()
	debug.FreeOSMemory()
	ld := &load{url: cl.url, v: newVerifier(nil), minItems: n}
	p, err := ld.run(context.Background(), src, 0)
	if err = errors.Join(err, cl.stop()); err != nil {
		return err
	}
	want, ok := cfg.spec.Digests[service.CodeVersion][cfg.workload]
	got := fmt.Sprintf("digest %s over the first %d requests of seed %d", p.digest, n, cfg.spec.DefaultSeed)
	switch {
	case p.failed > 0:
		r.failures = append(r.failures, fmt.Sprintf("%d of the default seed's first %d requests failed: %v",
			p.failed, n, errors.Join(p.failures...)))
		r.changed = true
	case !ok:
		r.notes = append(r.notes, got+fmt.Sprintf(" (none recorded for %s)", service.CodeVersion))
	case want == p.digest:
		r.notes = append(r.notes, got+" matches the recorded one")
	default:
		r.notes = append(r.notes, got+" differs from the recorded "+want)
		r.failures = append(r.failures, "output digest mismatch: every request counts as failed")
		r.changed = true
	}
	return nil
}

// endToEnd derives the user-visible metrics of one untraced phase.
// withInstr adds sim_minstr_per_s, for the workload whose every request
// returns a report.
func (r *result) endToEnd(p *phase, setupS []float64, withInstr bool) {
	n := len(p.latencies)
	lat := make([]float64, n)
	for i, d := range p.latencies {
		lat[i] = float64(d) / float64(time.Millisecond)
	}
	secs := p.window.Seconds()
	r.add(metric{name: "setup_s", value: median(setupS), unit: "s", n: len(setupS), gated: true,
		note: "median set-up: recording, daemons up, warm-up"})
	r.add(metric{name: "req_per_s", value: float64(n) / secs, unit: "req/s", n: n, gated: true,
		note: fmt.Sprintf("over a %.2f s window", secs)})
	for _, q := range []struct {
		name  string
		q     float64
		gated bool
	}{{"latency_p50_ms", 0.50, true}, {"latency_p90_ms", 0.90, true}, {"latency_p99_ms", 0.99, false}} {
		if v, ok := percentile(lat, q.q); ok {
			r.add(metric{name: q.name, value: v, unit: "ms", n: n, gated: q.gated})
		} else {
			r.notes = append(r.notes, fmt.Sprintf("%s not reported: %d samples leave fewer than %d beyond it",
				q.name, n, minBeyond))
		}
	}
	if withInstr {
		r.add(metric{name: "sim_minstr_per_s", value: float64(p.instructions) / secs / 1e6, unit: "Minstr/s", n: n,
			note: "instructions in the served reports per second of wall time"})
	}
	r.add(metric{name: "cpu_ms_per_req", value: ratio(float64(p.cpu)/float64(time.Millisecond), float64(n)),
		unit: "ms", n: n, gated: true, note: "process user+sys CPU per completed request"})
	r.add(metric{name: "rss_peak_mb", value: p.rssPeakMB, unit: "MB", gated: true,
		note: "peak resident set during the timed window"})
	r.add(metric{name: "fail_ratio", value: ratio(float64(r.failedCount()), float64(r.attempted)), unit: "1", n: r.attempted})
	r.served = p.served
}

// emit prints the report, writes result.json, and prints the JSON
// result line last.
func (r *result) emit(cfg config) error {
	facts, err := json.Marshal(cfg.facts)
	if err != nil {
		return err
	}
	fmt.Printf("host %s\n", facts)
	for _, m := range r.metrics {
		line := fmt.Sprintf("%-36s %14.6g %-12s", m.name, m.value, m.unit)
		if m.n > 0 {
			line += fmt.Sprintf(" n=%d", m.n)
		}
		if m.note != "" {
			line += "  (" + m.note + ")"
		}
		fmt.Println(line)
	}
	for _, n := range r.notes {
		fmt.Println("note:", n)
	}
	for _, f := range r.failures {
		fmt.Println("failure:", f)
	}
	failed := r.failedCount()
	correct := failed == 0
	verdict := "correct"
	if !correct {
		verdict = fmt.Sprintf("INCORRECT (%d of %d attempted failed)", failed, r.attempted)
	}
	fmt.Println("verdict:", verdict)

	type jm struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	gated := map[string]jm{}
	all := map[string]any{}
	for _, m := range r.metrics {
		if m.gated {
			gated[m.name] = jm{m.value, m.unit}
		}
		all[m.name] = map[string]any{"value": m.value, "unit": m.unit, "samples": m.n, "note": m.note}
	}
	full := map[string]any{"host": cfg.facts, "workload": cfg.workload, "seconds": cfg.seconds.Seconds(),
		"correct": correct, "attempted": r.attempted, "failed": failed, "failures": r.failures,
		"notes": r.notes, "metrics": all, "served": r.served}
	data, err := json.MarshalIndent(full, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(cfg.outDir, "result.json"), append(data, '\n'), 0o644); err != nil {
		return err
	}
	line, err := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]jm `json:"metrics"`
	}{correct, r.attempted, failed, gated})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// specPath is the benchmark's own description, read at run time for the
// recorded output digests.
var specPath = filepath.Join("perfbench", "spec.json")

// spec is the part of spec.json the benchmark reads back.
type spec struct {
	DefaultSeed int64 `json:"default_seed"`
	// Digests maps CodeVersion -> workload -> the digest of the default
	// seed's first minRequests requests.
	Digests map[string]map[string]string `json:"digests"`
}

func loadSpec(path string) (*spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}
