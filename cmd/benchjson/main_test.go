package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: repro
cpu: Some CPU @ 2.0GHz
BenchmarkFig6L2Organization-8   	       2	 512345678 ns/op	        28.0 configs	 1024 B/op	       3 allocs/op
BenchmarkSimulatorThroughput-8  	      34	  33990000 ns/op	  29415516 instr/s
BenchmarkSystemStep   	42799341	        26.96 ns/op
PASS
ok  	repro	12.345s
`

func TestParse(t *testing.T) {
	var echoed strings.Builder
	log, err := parse(strings.NewReader(sample), &echoed)
	if err != nil {
		t.Fatal(err)
	}
	if echoed.String() != sample {
		t.Errorf("echo is not a pass-through:\n%s", echoed.String())
	}
	if log.GoOS != "linux" || log.GoArch != "amd64" || log.Pkg != "repro" {
		t.Errorf("header = %q/%q/%q", log.GoOS, log.GoArch, log.Pkg)
	}
	want := []string{"BenchmarkFig6L2Organization", "BenchmarkSimulatorThroughput", "BenchmarkSystemStep"}
	if got := sortedNames(log); !reflect.DeepEqual(got, want) {
		t.Fatalf("names = %v, want %v", got, want)
	}

	fig6 := log.Benchmarks["BenchmarkFig6L2Organization"]
	if fig6.Iterations != 2 || fig6.NsPerOp != 512345678 {
		t.Errorf("fig6 = %+v", fig6)
	}
	if fig6.Metrics["configs"] != 28 || fig6.Metrics["B/op"] != 1024 || fig6.Metrics["allocs/op"] != 3 {
		t.Errorf("fig6 metrics = %v", fig6.Metrics)
	}

	thr := log.Benchmarks["BenchmarkSimulatorThroughput"]
	if thr.Metrics["instr/s"] != 29415516 {
		t.Errorf("throughput metrics = %v", thr.Metrics)
	}

	// No GOMAXPROCS suffix on the last line; no extra metrics either.
	step := log.Benchmarks["BenchmarkSystemStep"]
	if step.NsPerOp != 26.96 || step.Metrics != nil {
		t.Errorf("step = %+v", step)
	}
}

// TestParseFoldsRepeatedRuns feeds three runs of one benchmark (go test
// -count 3) and checks the log keeps the median ns/op and median of
// each metric, the run count and the total iterations, not the last
// line.
func TestParseFoldsRepeatedRuns(t *testing.T) {
	in := `BenchmarkAnalyze/paper-2   20   41000000 ns/op   41.0 ns/event
BenchmarkAnalyze/paper-2   20   39000000 ns/op   39.0 ns/event
BenchmarkAnalyze/paper-2   18   55000000 ns/op   55.0 ns/event
BenchmarkOnce-2   5   100 ns/op
`
	log, err := parse(strings.NewReader(in), &strings.Builder{})
	if err != nil {
		t.Fatal(err)
	}
	got := log.Benchmarks["BenchmarkAnalyze/paper"]
	want := Result{Iterations: 58, NsPerOp: 41000000, Metrics: map[string]float64{"ns/event": 41}, Runs: 3}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("folded runs = %+v, want %+v", got, want)
	}
	if once := log.Benchmarks["BenchmarkOnce"]; once.Runs != 1 || once.NsPerOp != 100 {
		t.Errorf("single run = %+v, want runs 1 and its own ns/op", once)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median of an even count = %g, want 2.5", m)
	}
}

// TestCreateLogRefusesExisting checks -o cannot replace a log: a second
// bench run on the same date must not overwrite the committed one.
func TestCreateLogRefusesExisting(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_2026-10-17.json")
	if err := createLog(path, []byte("first\n")); err != nil {
		t.Fatal(err)
	}
	if err := createLog(path, []byte("second\n")); err == nil {
		t.Error("createLog replaced an existing log")
	}
	if data, err := os.ReadFile(path); err != nil || string(data) != "first\n" {
		t.Errorf("existing log now %q (%v), want it untouched", data, err)
	}
}

// writeLog marshals a Log to a temp file for compare tests.
func writeLog(t *testing.T, log Log) string {
	t.Helper()
	data, err := json.Marshal(log)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompareLogsPassesWithinThreshold(t *testing.T) {
	oldPath := writeLog(t, Log{Benchmarks: map[string]Result{
		"BenchmarkA":    {Iterations: 10, NsPerOp: 1000},
		"BenchmarkB":    {Iterations: 10, NsPerOp: 500},
		"BenchmarkGone": {Iterations: 1, NsPerOp: 42},
	}})
	newPath := writeLog(t, Log{Benchmarks: map[string]Result{
		"BenchmarkA":   {Iterations: 10, NsPerOp: 1100}, // +10%, under the gate
		"BenchmarkB":   {Iterations: 10, NsPerOp: 400},  // faster
		"BenchmarkNew": {Iterations: 1, NsPerOp: 7},
	}})
	var out strings.Builder
	if err := compareLogs(oldPath, newPath, 20, &out); err != nil {
		t.Fatalf("compare failed within threshold: %v\n%s", err, out.String())
	}
	for _, want := range []string{"+10.0%", "new", "gone", "no regressions"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
}

func TestCompareLogsFailsOnRegression(t *testing.T) {
	oldPath := writeLog(t, Log{Benchmarks: map[string]Result{
		"BenchmarkA": {Iterations: 10, NsPerOp: 1000},
	}})
	newPath := writeLog(t, Log{Benchmarks: map[string]Result{
		"BenchmarkA": {Iterations: 10, NsPerOp: 1300}, // +30%
	}})
	var out strings.Builder
	err := compareLogs(oldPath, newPath, 20, &out)
	if err == nil {
		t.Fatalf("compare passed a 30%% regression:\n%s", out.String())
	}
	if !strings.Contains(err.Error(), "BenchmarkA") {
		t.Errorf("error %q does not name the regressed benchmark", err)
	}
}

func TestCompareLogsBadFile(t *testing.T) {
	good := writeLog(t, Log{Benchmarks: map[string]Result{}})
	if err := compareLogs(filepath.Join(t.TempDir(), "missing.json"), good, 20, &strings.Builder{}); err == nil {
		t.Error("missing old log not reported")
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := compareLogs(good, bad, 20, &strings.Builder{}); err == nil {
		t.Error("corrupt new log not reported")
	}
}

func TestParseIgnoresMalformed(t *testing.T) {
	in := "BenchmarkBroken notanumber 5 ns/op\nBenchmarkShort 1\n"
	log, err := parse(strings.NewReader(in), &strings.Builder{})
	if err != nil {
		t.Fatal(err)
	}
	if len(log.Benchmarks) != 0 {
		t.Fatalf("parsed %v from malformed input", log.Benchmarks)
	}
}

func TestParseRecordsHostFacts(t *testing.T) {
	for _, tc := range []struct {
		in    string
		procs int
	}{
		{"BenchmarkStepBatch/wmi-2   10   123 ns/op   22.5 ns/event\n", 2},
		{"BenchmarkTranslate/same-page   10   4.5 ns/op\n", 1}, // go test omits "-1"
	} {
		log, err := parse(strings.NewReader(tc.in), &strings.Builder{})
		if err != nil {
			t.Fatal(err)
		}
		if log.GoMaxProcs != tc.procs {
			t.Errorf("%q: GOMAXPROCS %d, want %d", tc.in, log.GoMaxProcs, tc.procs)
		}
		if log.NumCPU != runtime.NumCPU() || log.GoVersion != runtime.Version() {
			t.Errorf("host facts %d CPUs %q, want %d %q", log.NumCPU, log.GoVersion, runtime.NumCPU(), runtime.Version())
		}
	}
	var out strings.Builder
	oldPath := writeLog(t, Log{Benchmarks: map[string]Result{}})
	newPath := writeLog(t, Log{GoMaxProcs: 2, NumCPU: 2, GoVersion: "go1.24.0", Benchmarks: map[string]Result{}})
	if err := compareLogs(oldPath, newPath, 20, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"old: sha ?, GOMAXPROCS ?, ? CPUs", "new: sha ?, GOMAXPROCS 2, 2 CPUs, go1.24.0"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("compare output missing %q:\n%s", want, out.String())
		}
	}
}
