package experiments

import (
	"fmt"
	"strings"

	"repro/internal/core"
)

// SpeedSizeRow is one (size, access time) point of the Fig. 7/8
// trade-off curves. CPI is the contribution of the swept side only
// (the paper ignores the effect of writes on L2-D to simplify the
// comparison).
type SpeedSizeRow struct {
	SizeWords  int
	AccessTime int
	CPI        float64
}

// SpeedSizeSizes and SpeedSizeTimes are the swept axes.
var (
	SpeedSizeSizes = []int{8 * 1024, 16 * 1024, 32 * 1024, 64 * 1024, 128 * 1024, 256 * 1024, 512 * 1024}
	SpeedSizeTimes = []int{1, 3, 5, 7, 9}
)

// Fig7 sweeps the size and access time of a split L2-I with the data
// side fixed at the base 256 KW six-cycle bank. The paper: curves are
// fairly flat beyond 64 KW, spanning roughly 0.19 to 0.02 CPI.
func Fig7(o Options) []SpeedSizeRow {
	o = o.normalized()
	return sweep(o, len(SpeedSizeTimes)*len(SpeedSizeSizes), func(i int) SpeedSizeRow {
		t := SpeedSizeTimes[i/len(SpeedSizeSizes)]
		size := SpeedSizeSizes[i%len(SpeedSizeSizes)]
		cfg := writeOnlyBase()
		cfg.L2Split = true
		cfg.L2I = core.L2Bank{
			Geom:   core.CacheGeom{SizeWords: size, LineWords: 32, Ways: 1},
			Timing: core.TimingForAccess(t),
		}
		cfg.L2D = core.Base().L2U // 256 KW, 6 cycles
		st := run(cfg, o, KernelSuite).Stats
		return SpeedSizeRow{
			SizeWords:  size,
			AccessTime: t,
			CPI:        st.CPIOf(core.CauseL1IMiss) + st.CPIOf(core.CauseL2IMiss),
		}
	})
}

// Fig8 sweeps the size and access time of a split L2-D with the
// instruction side fixed at the fast 32 KW bank. The paper: the L2-D
// curves sit far higher than L2-I (0.72 down to 0.06) and keep falling
// at 512 KW, so the data side wants roughly 8x the capacity.
func Fig8(o Options) []SpeedSizeRow {
	o = o.normalized()
	return sweep(o, len(SpeedSizeTimes)*len(SpeedSizeSizes), func(i int) SpeedSizeRow {
		t := SpeedSizeTimes[i/len(SpeedSizeSizes)]
		size := SpeedSizeSizes[i%len(SpeedSizeSizes)]
		cfg := writeOnlyBase()
		cfg.L2Split = true
		cfg.L2I = fastL2I()
		cfg.L2D = core.L2Bank{
			Geom:   core.CacheGeom{SizeWords: size, LineWords: 32, Ways: 1},
			Timing: core.TimingForAccess(t),
		}
		st := run(cfg, o, KernelSuite).Stats
		return SpeedSizeRow{
			SizeWords:  size,
			AccessTime: t,
			CPI:        st.CPIOf(core.CauseL1DMiss) + st.CPIOf(core.CauseL2DMiss),
		}
	})
}

// FormatSpeedSize renders one family of trade-off curves: one row per
// access time, one column per size.
func FormatSpeedSize(side string, rows []SpeedSizeRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s CPI contribution\n%-8s", side, "access")
	for _, size := range SpeedSizeSizes {
		fmt.Fprintf(&b, " %8s", kwLabel(size))
	}
	b.WriteString("\n")
	for _, t := range SpeedSizeTimes {
		fmt.Fprintf(&b, "%-8d", t)
		for _, size := range SpeedSizeSizes {
			for _, r := range rows {
				if r.SizeWords == size && r.AccessTime == t {
					fmt.Fprintf(&b, " %8.4f", r.CPI)
				}
			}
		}
		b.WriteString("\n")
	}
	return b.String()
}

// SpeedSizeAt returns the row for a size/time pair.
func SpeedSizeAt(rows []SpeedSizeRow, sizeWords, accessTime int) (SpeedSizeRow, bool) {
	for _, r := range rows {
		if r.SizeWords == sizeWords && r.AccessTime == accessTime {
			return r, true
		}
	}
	return SpeedSizeRow{}, false
}
