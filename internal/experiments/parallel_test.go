package experiments

import "testing"

// parOpt caps runs tightly (the byte-identity comparison needs many
// full sweeps, and `make verify` repeats them under the race detector)
// and sets the worker-pool size under test.
func parOpt(par int) Options {
	return Options{MaxInstructions: 100_000, Parallelism: par}
}

// TestParallelReportsMatchSerial is the tentpole's determinism gate:
// for several figures, the formatted report of an 8-way-parallel sweep
// must be byte-identical to the serial sweep's.
func TestParallelReportsMatchSerial(t *testing.T) {
	figs := []struct {
		name   string
		report func(o Options) string
	}{
		{"fig2", func(o Options) string { return FormatFig2(Fig2(o)) }},
		{"fig6", func(o Options) string { return FormatFig6(Fig6(o, KernelSuite)) }},
		{"table2", func(o Options) string { return FormatTable2(Fig6(o, KernelSuite)) }},
		{"fig5-calibrated", func(o Options) string { return FormatFig5(Fig5(o, PaperCalibrated)) }},
	}
	for _, f := range figs {
		serial := f.report(parOpt(0))
		parallel := f.report(parOpt(8))
		if serial != parallel {
			t.Errorf("%s: parallel report differs from serial\nserial:\n%s\nparallel:\n%s",
				f.name, serial, parallel)
		}
		// NumCPU-sized pools must agree too.
		auto := f.report(parOpt(-1))
		if serial != auto {
			t.Errorf("%s: Parallelism=-1 report differs from serial", f.name)
		}
	}
}
