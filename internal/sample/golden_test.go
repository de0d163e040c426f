package sample_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/sample"
	"repro/internal/sched"
	"repro/internal/service"
	"repro/internal/workload"
)

// sampledDigests maps service.CodeVersion to the sha256 of
// TestSampledGolden's runs and reports under that version. A change
// that only speeds sampling up must reproduce the current version's
// digest exactly; one that moves sampled numbers on purpose bumps
// service.CodeVersion and records the new digest under the new key.
var sampledDigests = map[string]string{
	"gaascache-sim/3": "41a9ab315be5a0193e77eb634d1a0fc4c1753cb8077e094a7017dfc617f925fd",
}

// goldenSampling is a small sampling regime: a 2k-instruction interval
// per 20k-instruction period, each preceded by a skip, an 8k
// functional-warming window and a 500-instruction detailed warmup, so
// a short run still crosses every fast-forward phase ten times or more.
var goldenSampling = sample.Config{Interval: 2_000, Period: 20_000, Warmup: 500, FunctionalWindow: 8_000}

// goldenMax caps every run of TestSampledGolden.
const goldenMax = 240_000

// TestSampledGolden pins sampled output byte for byte: sample.Run on
// the base architecture under each write policy, on the optimized
// design, with a 2-way L1 and with a data fetch four L1-D lines wide
// (one refill, several victims), over the kernel suite with a short
// time slice; then every sampled experiment's report. Functional
// warming (core.System.WarmScan) feeds every one of these numbers.
func TestSampledGolden(t *testing.T) {
	base := func(mutate func(*core.Config)) core.Config {
		c := core.Base()
		mutate(&c)
		return c
	}
	cases := []struct {
		name string
		cfg  core.Config
	}{
		{"base-writeback", core.Base()},
		{"base-wmi", base(func(c *core.Config) { c.WritePolicy = core.WriteMissInvalidate })},
		{"base-writeonly", base(func(c *core.Config) { c.WritePolicy = core.WriteOnly })},
		{"base-subblock", base(func(c *core.Config) { c.WritePolicy = core.Subblock })},
		{"optimized", core.Optimized()},
		{"two-way-l1", base(func(c *core.Config) { c.L1I.Ways, c.L1D.Ways = 2, 2 })},
		{"wide-dfetch", base(func(c *core.Config) { c.L1DFetch = 16 })},
	}
	rec := workload.Record(1)
	scfg := sched.Config{Level: 8, TimeSlice: 25_000, MaxInstructions: goldenMax}
	h := sha256.New()
	for _, tc := range cases {
		res, err := sample.Run(tc.cfg, workload.ReplayProcesses(rec), scfg, goldenSampling)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if res.Intervals < 10 {
			t.Fatalf("%s: only %d measured intervals; the golden needs at least 10", tc.name, res.Intervals)
		}
		fmt.Fprintf(h, "%s\n%+v\n", tc.name, res)
	}
	o := experiments.Options{MaxInstructions: goldenMax, Sampling: goldenSampling, Fidelity: experiments.FidelitySampled}
	for _, id := range experiments.ServedIDs(experiments.FidelitySampled) {
		out, err := experiments.RunFidelity(id, o)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		fmt.Fprintf(h, "%s\n%s\n", id, out)
	}
	got := hex.EncodeToString(h.Sum(nil))
	want, ok := sampledDigests[service.CodeVersion]
	if !ok {
		t.Fatalf("no sampled digest for %s (got %s): CodeVersion bumped without recording a digest", service.CodeVersion, got)
	}
	if got != want {
		t.Fatalf("sampled digest = %s, want %s: served bytes changed without a CodeVersion bump", got, want)
	}
}
