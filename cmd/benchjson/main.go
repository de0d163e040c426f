// Command benchjson turns `go test -bench` text output into a JSON
// record. It reads the benchmark output on stdin, echoes it unchanged
// to stdout (so it sits transparently in a pipe), and writes one JSON
// document mapping each benchmark name to its iteration count, ns/op,
// and any extra ReportMetric values (instr/s, configs, B/op, ...).
// A benchmark that ran more than once (go test -count N) is recorded as
// the median ns/op and the median of each metric over its runs, with
// the run count, so one noisy run cannot stand for the benchmark.
//
//	go test -bench=. -benchmem -count 5 | benchjson -o BENCH_2026-08-06.json
//
// -o never replaces an existing file: a committed log is a record of
// the commit it measured, so a second run on the same date must be
// written under another name.
//
// `make bench` uses it to keep a dated, machine-readable log of the
// suite's performance next to the human-readable run; -sha stamps the
// log with the commit it measured. The log also records the host facts
// a reader needs to interpret it later: the benchmarks' GOMAXPROCS
// (the "-N" suffix go test appends to each name, which the keys drop),
// and the CPU count and Go version of the host that ran the pipe.
//
// With -compare it instead diffs two logs and acts as a regression
// gate:
//
//	benchjson -compare BENCH_old.json BENCH_new.json
//
// prints the per-benchmark deltas of the median ns/op and exits nonzero
// when any benchmark slowed down by more than -threshold percent
// (default 20).
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// Result is the parsed record of one benchmark: its result line, or
// the medians of its result lines when it ran more than once.
type Result struct {
	// Iterations is the total over the runs.
	Iterations int64              `json:"iterations"`
	NsPerOp    float64            `json:"ns_per_op"`
	Metrics    map[string]float64 `json:"metrics,omitempty"`
	// Runs is how many result lines the medians are over (logs written
	// before repeated runs were folded leave it 0, meaning one).
	Runs int `json:"runs,omitempty"`
}

// Log is the whole JSON document.
type Log struct {
	GoOS   string `json:"goos,omitempty"`
	GoArch string `json:"goarch,omitempty"`
	Pkg    string `json:"pkg,omitempty"`
	CPU    string `json:"cpu,omitempty"`
	GitSHA string `json:"git_sha,omitempty"`
	// GoMaxProcs is the GOMAXPROCS of the last benchmark line (go test
	// prints no suffix for 1); NumCPU and GoVersion describe the host
	// and toolchain that parsed the run.
	GoMaxProcs int               `json:"gomaxprocs,omitempty"`
	NumCPU     int               `json:"num_cpu,omitempty"`
	GoVersion  string            `json:"go_version,omitempty"`
	Benchmarks map[string]Result `json:"benchmarks"`
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

func run() error {
	out := flag.String("o", "", "write the JSON log to this file (default stdout only)")
	sha := flag.String("sha", "", "record this git commit in the log's git_sha field")
	compare := flag.Bool("compare", false, "compare two logs: benchjson -compare old.json new.json")
	threshold := flag.Float64("threshold", 20, "with -compare, fail when ns/op regresses by more than this percent")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			return fmt.Errorf("-compare wants exactly two log files (got %d)", flag.NArg())
		}
		if *threshold <= 0 {
			return fmt.Errorf("-threshold must be > 0 (got %g)", *threshold)
		}
		return compareLogs(flag.Arg(0), flag.Arg(1), *threshold, os.Stdout)
	}

	// Refuse an existing -o file before the benchmarks run, not after.
	if *out != "" {
		if _, err := os.Stat(*out); err == nil {
			return fmt.Errorf("%s already exists; write the log under a new name", *out)
		}
	}
	log, err := parse(os.Stdin, os.Stdout)
	if err != nil {
		return err
	}
	log.GitSHA = *sha
	data, err := json.MarshalIndent(log, "", "  ")
	if err != nil {
		return fmt.Errorf("encoding log: %w", err)
	}
	data = append(data, '\n')
	if *out == "" {
		_, err := os.Stdout.Write(data)
		return err
	}
	if err := createLog(*out, data); err != nil {
		return err
	}
	fmt.Println("wrote", *out)
	return nil
}

// createLog writes data to a new file at path, failing if the path
// already exists.
func createLog(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("writing log: %w", err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return fmt.Errorf("writing log: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("writing log: %w", err)
	}
	return nil
}

// parse scans benchmark output from r, echoing every line to echo, and
// collects the Benchmark* result lines, folding each benchmark's
// repeated lines into medians. Header lines (goos, goarch, pkg, cpu)
// fill the log preamble; everything unrecognized is passed through
// untouched.
func parse(r io.Reader, echo io.Writer) (*Log, error) {
	log := &Log{NumCPU: runtime.NumCPU(), GoVersion: runtime.Version(), Benchmarks: map[string]Result{}}
	runs := map[string][]Result{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		fmt.Fprintln(echo, line)
		switch {
		case strings.HasPrefix(line, "goos: "):
			log.GoOS = strings.TrimPrefix(line, "goos: ")
		case strings.HasPrefix(line, "goarch: "):
			log.GoArch = strings.TrimPrefix(line, "goarch: ")
		case strings.HasPrefix(line, "pkg: "):
			// A multi-package run lists every package, in run order.
			if log.Pkg != "" {
				log.Pkg += " "
			}
			log.Pkg += strings.TrimPrefix(line, "pkg: ")
		case strings.HasPrefix(line, "cpu: "):
			log.CPU = strings.TrimPrefix(line, "cpu: ")
		case strings.HasPrefix(line, "Benchmark"):
			name, procs, res, ok := parseBenchLine(line)
			if ok {
				runs[name] = append(runs[name], res)
				log.GoMaxProcs = procs
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("reading benchmark output: %w", err)
	}
	for name, rs := range runs {
		log.Benchmarks[name] = fold(rs)
	}
	return log, nil
}

// fold reduces one benchmark's result lines to their medians.
func fold(rs []Result) Result {
	res := Result{Runs: len(rs)}
	ns := make([]float64, len(rs))
	metrics := map[string][]float64{}
	for i, r := range rs {
		res.Iterations += r.Iterations
		ns[i] = r.NsPerOp
		for unit, v := range r.Metrics {
			metrics[unit] = append(metrics[unit], v)
		}
	}
	res.NsPerOp = median(ns)
	if len(metrics) > 0 {
		res.Metrics = make(map[string]float64, len(metrics))
		for unit, vs := range metrics {
			res.Metrics[unit] = median(vs)
		}
	}
	return res
}

// median is the middle value of vs (the mean of the middle two for an
// even count); vs is sorted in place.
func median(vs []float64) float64 {
	sort.Float64s(vs)
	n := len(vs)
	if n%2 == 1 {
		return vs[n/2]
	}
	return (vs[n/2-1] + vs[n/2]) / 2
}

// parseBenchLine parses one result line of the form
//
//	BenchmarkName-8   42   123456 ns/op   7.5 instr/s   16 B/op
//
// i.e. a name, an iteration count, then value/unit pairs. It returns
// the name without its GOMAXPROCS suffix, and that GOMAXPROCS.
func parseBenchLine(line string) (string, int, Result, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return "", 0, Result{}, false
	}
	name, procs := fields[0], 1
	// Trim the GOMAXPROCS suffix ("-8") so logs from machines with
	// different core counts key identically.
	if i := strings.LastIndex(name, "-"); i > 0 {
		if n, err := strconv.Atoi(name[i+1:]); err == nil {
			name, procs = name[:i], n
		}
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return "", 0, Result{}, false
	}
	res := Result{Iterations: iters, Metrics: map[string]float64{}}
	for i := 2; i+1 < len(fields); i += 2 {
		val, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			continue
		}
		if fields[i+1] == "ns/op" {
			res.NsPerOp = val
		} else {
			res.Metrics[fields[i+1]] = val
		}
	}
	if len(res.Metrics) == 0 {
		res.Metrics = nil
	}
	return name, procs, res, true
}

// readLog loads one JSON log written by this tool.
func readLog(path string) (*Log, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading log: %w", err)
	}
	var log Log
	if err := json.Unmarshal(data, &log); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	return &log, nil
}

// compareLogs diffs two logs by median ns/op and fails on regressions
// past the threshold. Benchmarks present on only one side are reported
// but never fail the gate: adding or retiring a benchmark is not a
// regression.
func compareLogs(oldPath, newPath string, threshold float64, w io.Writer) error {
	oldLog, err := readLog(oldPath)
	if err != nil {
		return err
	}
	newLog, err := readLog(newPath)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "old: %s\nnew: %s\n", hostFacts(oldLog), hostFacts(newLog))
	fmt.Fprintf(w, "%-40s %14s %14s %9s\n", "benchmark", "old ns/op", "new ns/op", "delta")
	fmt.Fprintln(w, "(ns/op is each log's median over the benchmark's runs)")
	var regressions []string
	for _, name := range sortedNames(newLog) {
		nr := newLog.Benchmarks[name]
		or, ok := oldLog.Benchmarks[name]
		if !ok {
			fmt.Fprintf(w, "%-40s %14s %14.0f %9s\n", name, "-", nr.NsPerOp, "new")
			continue
		}
		if or.NsPerOp == 0 {
			fmt.Fprintf(w, "%-40s %14.0f %14.0f %9s\n", name, or.NsPerOp, nr.NsPerOp, "n/a")
			continue
		}
		delta := (nr.NsPerOp - or.NsPerOp) / or.NsPerOp * 100
		fmt.Fprintf(w, "%-40s %14.0f %14.0f %+8.1f%%\n", name, or.NsPerOp, nr.NsPerOp, delta)
		if delta > threshold {
			regressions = append(regressions, fmt.Sprintf("%s %+.1f%%", name, delta))
		}
	}
	for _, name := range sortedNames(oldLog) {
		if _, ok := newLog.Benchmarks[name]; !ok {
			fmt.Fprintf(w, "%-40s %14.0f %14s %9s\n", name, oldLog.Benchmarks[name].NsPerOp, "-", "gone")
		}
	}
	if len(regressions) > 0 {
		return fmt.Errorf("%d benchmark(s) regressed past %.0f%%: %s",
			len(regressions), threshold, strings.Join(regressions, ", "))
	}
	fmt.Fprintf(w, "no regressions past %.0f%%\n", threshold)
	return nil
}

// hostFacts formats what a log records about the run that produced it;
// a fact the log lacks (older logs predate them) shows as "?".
func hostFacts(log *Log) string {
	show := func(v any) any {
		if v == "" || v == 0 {
			return "?"
		}
		return v
	}
	return fmt.Sprintf("sha %v, GOMAXPROCS %v, %v CPUs, %v, %v",
		show(log.GitSHA), show(log.GoMaxProcs), show(log.NumCPU), show(log.GoVersion), show(log.CPU))
}

// sortedNames is kept for tests: the JSON encoder already sorts map
// keys, so logs diff cleanly run to run.
func sortedNames(log *Log) []string {
	names := make([]string, 0, len(log.Benchmarks))
	for name := range log.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
