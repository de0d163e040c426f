package main

import (
	"bufio"
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/service"
)

// hostFacts is what a result needs to be interpreted later: the host,
// the toolchain, the commit and the simulator semantics it measured.
type hostFacts struct {
	GOMAXPROCS  int    `json:"gomaxprocs"`
	NumCPU      int    `json:"num_cpu"`
	GoVersion   string `json:"go_version"`
	CPUModel    string `json:"cpu_model"`
	GitSHA      string `json:"git_sha"`
	Seed        int64  `json:"seed"`
	CodeVersion string `json:"code_version"`
	// SpeedProbeMS is speedProbe at the start and at the end of the run.
	SpeedProbeMS []float64 `json:"speed_probe_ms"`
}

func collectHostFacts(seed int64) hostFacts {
	return hostFacts{
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		NumCPU:       runtime.NumCPU(),
		GoVersion:    runtime.Version(),
		CPUModel:     cpuModel(),
		GitSHA:       gitSHA("."),
		Seed:         seed,
		CodeVersion:  service.CodeVersion,
		SpeedProbeMS: []float64{speedProbe()},
	}
}

// speedProbeIters sizes speedProbe at 50-65 ms on a 2.1 GHz Xeon VM.
const speedProbeIters = 50_000_000

var speedProbeSink uint64

// speedProbe times a fixed single-thread integer loop, in ms. A shared
// host can change speed state for minutes at a time; a run whose two
// probes differ straddled such a change, and runs compared across
// commits can be paired by probe so that host speed is not read as a
// change in the program.
func speedProbe() float64 {
	t0 := time.Now()
	x := uint64(1)
	for i := 0; i < speedProbeIters; i++ {
		x = x*6364136223846793005 + 1442695040888963407
	}
	speedProbeSink = x
	return float64(time.Since(t0)) / float64(time.Millisecond)
}

// cpuModel reads the first "model name" line of /proc/cpuinfo.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitSHA resolves HEAD from the .git directory under root without
// running git; a checkout that is not a repository reports "unknown".
func gitSHA(root string) string {
	gitDir := filepath.Join(root, ".git")
	head, err := os.ReadFile(filepath.Join(gitDir, "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if sha, err := os.ReadFile(filepath.Join(gitDir, filepath.FromSlash(ref))); err == nil {
		return strings.TrimSpace(string(sha))
	}
	packed, err := os.ReadFile(filepath.Join(gitDir, "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
			return sha
		}
	}
	return "unknown"
}

// cpuTime returns the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// residentBytes reads the process's current resident set size.
func residentBytes() int64 {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	fields := strings.Fields(string(data))
	if len(fields) < 2 {
		return 0
	}
	pages, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return 0
	}
	return pages * int64(os.Getpagesize())
}

// rssSampler tracks the peak resident set size over a window by polling
// every 20 ms, so the peak belongs to the timed window rather than to
// set-up garbage that was already returned to the OS.
type rssSampler struct {
	stop chan struct{}
	wg   sync.WaitGroup
	mu   sync.Mutex
	peak int64
}

func startRSSSampler() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), peak: residentBytes()}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		t := time.NewTicker(20 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				s.observe()
			}
		}
	}()
	return s
}

func (s *rssSampler) observe() {
	rss := residentBytes()
	s.mu.Lock()
	if rss > s.peak {
		s.peak = rss
	}
	s.mu.Unlock()
}

// Stop ends sampling and returns the peak in MB.
func (s *rssSampler) Stop() float64 {
	close(s.stop)
	s.wg.Wait()
	s.observe()
	return float64(s.peak) / (1 << 20)
}
