package main

import (
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/mmu"
	"repro/internal/report"
	"repro/internal/sample"
	"repro/internal/sched"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/stackdist"
	"repro/internal/trace"
	"repro/internal/workload"
)

// The traced run re-executes each computed request through the public
// calls the service makes, timing each layer from outside, and checks
// that the replay reproduces the served body byte for byte.

// layerTime accumulates one layer's calls, events and busy time.
type layerTime struct {
	calls, events int64
	ns            int64
}

func (l *layerTime) add(o layerTime) {
	l.calls += o.calls
	l.events += o.events
	l.ns += o.ns
}

// timedSystem is a sched.BatchTarget around *core.System that times
// every StepBatch call.
type timedSystem struct {
	*core.System
	step layerTime
}

func (s *timedSystem) StepBatch(pid mmu.PID, evs []trace.Event) (int, error) {
	t0 := time.Now()
	n, err := s.System.StepBatch(pid, evs)
	s.step.ns += int64(time.Since(t0))
	s.step.calls++
	s.step.events += int64(n)
	return n, err
}

// timedCursor is a trace.BatchStream around *trace.Cursor that times
// every Batch call (the packed-trace decode) and counts the events the
// scheduler consumes.
type timedCursor struct {
	c      *trace.Cursor
	decode *layerTime
}

func (c *timedCursor) Next(ev *trace.Event) bool { return c.c.Next(ev) }

func (c *timedCursor) Batch(max int) []trace.Event {
	t0 := time.Now()
	b := c.c.Batch(max)
	c.decode.ns += int64(time.Since(t0))
	c.decode.calls++
	return b
}

func (c *timedCursor) Skip(n int) {
	c.c.Skip(n)
	c.decode.events += int64(n)
}

// replay is what one re-executed request measured.
type replay struct {
	rid  int32
	idx  int
	body []byte // the replayed response body

	// /v1/sim
	stats       core.Stats
	switches    uint64
	simRun      layerTime // NewSystem + sched.Run + DrainWriteBuffer
	schedRun    layerTime // sched.Run
	step        layerTime // core.System.StepBatch
	decode      layerTime // trace.Cursor.Batch
	encode      layerTime // report.New + Report.JSON
	reportBytes int

	// /v1/sweep
	fidelity  string
	runFid    layerTime // experiments.RunFidelity
	analyze   layerTime // stackdist.Analyze, events = instructions analyzed
	sampleRun layerTime // sample.Run, events = covered instructions
	measured  uint64    // instructions inside measured intervals
}

func replaySim(req service.SimRequest) (*replay, error) {
	r := &replay{}
	cfg, err := experiments.BuildConfig(req.Config)
	if err != nil {
		return nil, err
	}
	procs := workload.ReplayProcesses(workload.Record(req.Scale))
	for i := range procs {
		cur, ok := procs[i].Stream.(*trace.Cursor)
		if !ok {
			return nil, fmt.Errorf("replay: process %s is not a packed-trace cursor", procs[i].Name)
		}
		procs[i].Stream = &timedCursor{c: cur, decode: &r.decode}
	}
	t0 := time.Now()
	sys, err := core.NewSystem(cfg)
	if err != nil {
		return nil, err
	}
	ts := &timedSystem{System: sys}
	t1 := time.Now()
	sres, err := sched.Run(ts, procs, sched.Config{Level: req.Level, TimeSlice: req.TimeSlice, MaxInstructions: req.MaxInstructions})
	t2 := time.Now()
	if err != nil {
		return nil, err
	}
	sys.DrainWriteBuffer()
	t3 := time.Now()
	rep := report.New(cfg, sim.Result{Stats: sys.Stats(), Sched: sres})
	js, err := rep.JSON()
	t4 := time.Now()
	if err != nil {
		return nil, err
	}
	r.stats, r.switches, r.step = sys.Stats(), sres.Switches, ts.step
	r.simRun = layerTime{calls: 1, events: int64(sres.Instructions), ns: int64(t3.Sub(t0))}
	r.schedRun = layerTime{calls: 1, events: int64(sres.Instructions), ns: int64(t2.Sub(t1))}
	r.encode = layerTime{calls: 1, ns: int64(t4.Sub(t3))}
	r.reportBytes = len(js)
	body, err := json.MarshalIndent(service.SimResponse{Request: req, CodeVersion: service.CodeVersion, Report: rep}, "", "  ")
	if err != nil {
		return nil, err
	}
	r.body = append(body, '\n')
	return r, nil
}

func replaySweep(req service.SweepRequest) (*replay, error) {
	r := &replay{fidelity: req.Fidelity}
	e, err := experiments.ByID(req.Experiment)
	if err != nil {
		return nil, err
	}
	o := experiments.Options{Scale: req.Scale, Level: req.Level, MaxInstructions: req.MaxInstructions, Fidelity: req.Fidelity}
	t0 := time.Now()
	out, err := experiments.RunFidelity(req.Experiment, o)
	r.runFid = layerTime{calls: 1, ns: int64(time.Since(t0))}
	if err != nil {
		return nil, err
	}
	body, err := json.MarshalIndent(service.SweepResponse{
		Experiment: req.Experiment, Title: e.Title, Scale: req.Scale, Level: req.Level,
		MaxInstructions: req.MaxInstructions, Fidelity: req.Fidelity, CodeVersion: service.CodeVersion, Output: out,
	}, "", "  ")
	if err != nil {
		return nil, err
	}
	r.body = append(body, '\n')
	scfg := sched.Config{Level: req.Level, TimeSlice: sched.DefaultTimeSlice, MaxInstructions: req.MaxInstructions}
	switch req.Fidelity {
	case service.FidelityScreening:
		err = r.replayScreening(req, scfg)
	case service.FidelitySampled:
		var engineOut string
		engineOut, err = r.replaySampled(req, scfg)
		if err == nil && engineOut != out {
			err = fmt.Errorf("replay: sample.Run rows of %s do not reproduce RunFidelity's table", req.Experiment)
		}
	}
	return r, err
}

// replayScreening runs stackdist.Analyze over each recording the
// screening experiment screens: the kernel suite, the paper-calibrated
// workload, or both.
func (r *replay) replayScreening(req service.SweepRequest, scfg sched.Config) error {
	suite := workload.Record(req.Scale)
	paper := workload.RecordPaperLike(req.Level, 400_000*uint64(req.Scale))
	var recs [][]workload.Recorded
	switch req.Experiment {
	case "fig6", "table2":
		recs = [][]workload.Recorded{suite, paper}
	case "fig7", "fig8":
		recs = [][]workload.Recorded{suite}
	case "fastsweep":
		recs = [][]workload.Recorded{paper}
	default:
		return fmt.Errorf("replay: no screening replay for %q", req.Experiment)
	}
	for _, rec := range recs {
		t0 := time.Now()
		res, _, err := stackdist.Analyze(experiments.ScreeningGrid(), workload.ReplayProcesses(rec), scfg)
		if err != nil {
			return err
		}
		r.analyze.add(layerTime{calls: 1, events: int64(res.Instructions), ns: int64(time.Since(t0))})
	}
	return nil
}

// replaySampled runs sample.Run on every configuration the sampled
// experiment sweeps and formats the rows with the experiment's own
// formatter, so the caller can check the engine calls reproduce the
// served table.
func (r *replay) replaySampled(req service.SweepRequest, scfg sched.Config) (string, error) {
	var err error
	run := func(cfg core.Config, level int) sample.Result {
		if err != nil {
			return sample.Result{}
		}
		c := scfg
		c.Level = level
		t0 := time.Now()
		res, rerr := sample.Run(cfg, workload.ReplayProcesses(workload.Record(req.Scale)), c, sample.Config{})
		r.sampleRun.add(layerTime{calls: 1, events: int64(res.TotalInstructions), ns: int64(time.Since(t0))})
		r.measured += res.MeasuredInstructions
		err = rerr
		return res
	}
	var out string
	switch req.Experiment {
	case "fig2":
		var rows []experiments.SampledFig2Row
		for _, level := range []int{1, 2, 4, 8, 16} {
			res := run(core.Base(), level)
			rows = append(rows, experiments.SampledFig2Row{Level: level, L1IMiss: res.L1IMissRatio,
				L1DMiss: res.L1DMissRatio, L2Miss: res.L2MissRatio, CPI: res.CPI, Intervals: res.Intervals})
		}
		out = experiments.FormatSampledFig2(rows)
	case "fig5":
		var rows []experiments.SampledFig5Row
		for _, t := range experiments.Fig5AccessTimes {
			for _, p := range fig5Policies {
				res := run(fig5Config(p, t), scfg.Level)
				rows = append(rows, experiments.SampledFig5Row{Policy: p, AccessTime: t,
					SampledCPI: experiments.SampledCPI{CPI: res.CPI, Intervals: res.Intervals}})
			}
		}
		out = experiments.FormatSampledFig5(rows)
	case "fig6", "table2":
		var rows []experiments.SampledFig6Row
		for _, size := range experiments.Fig6Sizes {
			for _, org := range experiments.Fig6Orgs {
				res := run(fig6Config(size, org), scfg.Level)
				rows = append(rows, experiments.SampledFig6Row{SizeWords: size, Org: org, CPI: res.CPI,
					MissRatio: res.L2MissRatio, Intervals: res.Intervals})
			}
		}
		if req.Experiment == "fig6" {
			out = experiments.FormatSampledFig6(rows)
		} else {
			out = experiments.FormatSampledTable2(rows)
		}
	default:
		return "", fmt.Errorf("replay: no sampled replay for %q", req.Experiment)
	}
	return out, err
}

// The sampled Fig. 5 and Fig. 6 sweeps' configurations, built from the
// same public pieces the experiments package uses. A drift from the
// experiments' own constructors shows up as a replay mismatch.
var fig5Policies = []core.WritePolicy{core.WriteBack, core.WriteMissInvalidate, core.WriteOnly, core.Subblock}

func fig5Config(p core.WritePolicy, accessTime int) core.Config {
	cfg := core.Base()
	cfg.WritePolicy = p
	if p != core.WriteBack {
		cfg.WBEntries = 8
		cfg.WBEntryWords = 1
	}
	cfg.L2U.Timing = core.TimingForAccess(accessTime)
	return cfg
}

func fig6Config(sizeWords int, org experiments.L2Org) core.Config {
	cfg := core.Base()
	cfg.WritePolicy = core.WriteOnly
	cfg.WBEntries = 8
	cfg.WBEntryWords = 1
	access := 6
	if org.Ways == 2 {
		access = 7
	}
	bank := core.L2Bank{
		Geom:   core.CacheGeom{SizeWords: sizeWords, LineWords: 32, Ways: org.Ways},
		Timing: core.TimingForAccess(access),
	}
	if org.Split {
		cfg.L2Split = true
		cfg.L2I, cfg.L2D = core.SplitBank(bank)
	} else {
		cfg.L2U = bank
	}
	return cfg
}
