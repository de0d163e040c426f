package experiments

import (
	"fmt"
	"strings"

	"repro/internal/core"
)

// L2Org labels the four organizations of Fig. 6.
type L2Org struct {
	Split bool
	Ways  int
}

// String names the organization like the paper's legend.
func (o L2Org) String() string {
	kind := "unified"
	if o.Split {
		kind = "split"
	}
	return fmt.Sprintf("%s %d-way", kind, o.Ways)
}

// Fig6Row is one (size, organization) point, carrying both the CPI of
// Fig. 6 and the miss ratio of Table 2.
type Fig6Row struct {
	SizeWords int
	Org       L2Org
	CPI       float64
	MissRatio float64
}

// Fig6Sizes are the swept total L2 sizes in words.
var Fig6Sizes = []int{16 * 1024, 32 * 1024, 64 * 1024, 128 * 1024, 256 * 1024, 512 * 1024, 1024 * 1024}

// Fig6Orgs are the four organizations. Direct-mapped banks keep the
// six-cycle access; two-way associativity costs one extra cycle (the
// paper's assumption).
var Fig6Orgs = []L2Org{
	{Split: false, Ways: 1},
	{Split: false, Ways: 2},
	{Split: true, Ways: 1},
	{Split: true, Ways: 2},
}

// Fig6 sweeps secondary cache size and organization on the write-only
// base design, over w. The paper's claims: splitting helps
// direct-mapped caches of 64 KW and larger; two-way associativity
// delays the benefit of splitting to much larger sizes. PaperCalibrated
// shows them: its working sets fit the larger caches, so conflict
// misses, the ones splitting removes, dominate capacity misses, as they
// did for the paper's workload.
func Fig6(o Options, w Workload) []Fig6Row {
	o = o.normalized()
	return sweep(o, len(Fig6Sizes)*len(Fig6Orgs), func(i int) Fig6Row {
		size := Fig6Sizes[i/len(Fig6Orgs)]
		org := Fig6Orgs[i%len(Fig6Orgs)]
		st := run(fig6Config(size, org), o, w).Stats
		return Fig6Row{
			SizeWords: size,
			Org:       org,
			CPI:       st.CPI(),
			MissRatio: st.L2MissRatio(),
		}
	})
}

// fig6Config builds the write-only base with the given L2 shape.
func fig6Config(sizeWords int, org L2Org) core.Config {
	cfg := writeOnlyBase()
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

// FormatFig6 renders the CPI matrix.
func FormatFig6(rows []Fig6Row) string {
	return formatFig6Matrix(rows, "CPI", func(r Fig6Row) float64 { return r.CPI }, "%10.3f")
}

// FormatTable2 renders the miss-ratio matrix, the paper's Table 2.
func FormatTable2(rows []Fig6Row) string {
	return formatFig6Matrix(rows, "L2 miss", func(r Fig6Row) float64 { return r.MissRatio }, "%10.4f")
}

func formatFig6Matrix(rows []Fig6Row, label string, metric func(Fig6Row) float64, cell string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s", label)
	for _, org := range Fig6Orgs {
		fmt.Fprintf(&b, " %13s", org)
	}
	b.WriteString("\n")
	for _, size := range Fig6Sizes {
		fmt.Fprintf(&b, "%-8s", kwLabel(size))
		for _, org := range Fig6Orgs {
			for _, r := range rows {
				if r.SizeWords == size && r.Org == org {
					fmt.Fprintf(&b, "   "+cell, metric(r))
				}
			}
		}
		b.WriteString("\n")
	}
	return b.String()
}

// Fig6At returns the row for a size/organization pair.
func Fig6At(rows []Fig6Row, sizeWords int, org L2Org) (Fig6Row, bool) {
	for _, r := range rows {
		if r.SizeWords == sizeWords && r.Org == org {
			return r, true
		}
	}
	return Fig6Row{}, false
}
