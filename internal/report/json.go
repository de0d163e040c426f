package report

import (
	"encoding/json"
	"fmt"

	"repro/internal/core"
	"repro/internal/sim"
)

// Report is the stable JSON form of one simulation run: the
// configuration that ran, the raw counters, and the derived figures the
// paper's tables quote. It is the payload cmd/cachesimd's /v1/sim
// endpoint serves, so its encoding must be deterministic — a repeat of
// the same run marshals to byte-identical JSON (struct fields encode in
// declaration order, encoding/json sorts map keys, and the counters
// themselves are bit-identical run to run).
type Report struct {
	Config       string     `json:"config"` // one-line architecture description
	Instructions uint64     `json:"instructions"`
	Cycles       uint64     `json:"cycles"`
	CPI          float64    `json:"cpi"`
	MemoryCPI    float64    `json:"memory_cpi"`
	BaseCPI      float64    `json:"base_cpi"`
	CPIStack     []CauseCPI `json:"cpi_stack"` // in core.Causes display order
	MissRatios   MissRatios `json:"miss_ratios"`
	Counters     core.Stats `json:"counters"`
	Sched        SchedStats `json:"sched"`
}

// CauseCPI is one bar segment of the Fig. 4 CPI stack.
type CauseCPI struct {
	Cause string  `json:"cause"`
	CPI   float64 `json:"cpi"`
}

// MissRatios collects the derived ratios the paper's figures plot.
type MissRatios struct {
	L1I      float64 `json:"l1i"`
	L1D      float64 `json:"l1d"`
	L1DRead  float64 `json:"l1d_read"`
	L1DWrite float64 `json:"l1d_write"`
	L2       float64 `json:"l2"`
	L2I      float64 `json:"l2i"`
	L2D      float64 `json:"l2d"`
}

// SchedStats is the JSON form of the scheduler's result. PerProcess
// marshals deterministically: encoding/json emits map keys sorted.
type SchedStats struct {
	Instructions    uint64            `json:"instructions"`
	Switches        uint64            `json:"switches"`
	SyscallSwitches uint64            `json:"syscall_switches"`
	SliceSwitches   uint64            `json:"slice_switches"`
	CyclesPerSwitch float64           `json:"cycles_per_switch"`
	Completed       []string          `json:"completed,omitempty"`
	PerProcess      map[string]uint64 `json:"per_process,omitempty"`
}

// New builds the Report for one finished run.
func New(cfg core.Config, res sim.Result) Report {
	st := res.Stats
	stack := make([]CauseCPI, 0, len(core.Causes()))
	for _, c := range core.Causes() {
		stack = append(stack, CauseCPI{Cause: c.String(), CPI: st.CPIOf(c)})
	}
	return Report{
		Config:       cfg.String(),
		Instructions: st.Instructions,
		Cycles:       st.Cycles,
		CPI:          st.CPI(),
		MemoryCPI:    st.MemoryCPI(),
		BaseCPI:      st.BaseCPI(),
		CPIStack:     stack,
		MissRatios: MissRatios{
			L1I:      st.L1IMissRatio(),
			L1D:      st.L1DMissRatio(),
			L1DRead:  st.L1DReadMissRatio(),
			L1DWrite: st.L1DWriteMissRatio(),
			L2:       st.L2MissRatio(),
			L2I:      st.L2IMissRatio(),
			L2D:      st.L2DMissRatio(),
		},
		Counters: st,
		Sched: SchedStats{
			Instructions:    res.Sched.Instructions,
			Switches:        res.Sched.Switches,
			SyscallSwitches: res.Sched.SyscallSwitches,
			SliceSwitches:   res.Sched.SliceSwitches,
			CyclesPerSwitch: res.Sched.CyclesPerSwitch,
			Completed:       res.Sched.Completed,
			PerProcess:      res.Sched.PerProcess,
		},
	}
}

// JSON marshals the report in its canonical indented form, the exact
// bytes the service caches and serves.
func (r Report) JSON() ([]byte, error) {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("report: marshal: %w", err)
	}
	return append(data, '\n'), nil
}
