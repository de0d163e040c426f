// Package report exports experiment results as CSV series, so the
// paper's figures can be re-plotted from this reproduction's data with
// any plotting tool. Each experiment maps to one file of (x, series...)
// rows; cmd/sweep drives the export with -csv.
package report

import (
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"

	"repro/internal/experiments"
)

// Table is a generic labeled grid: one X column and one column per
// series.
type Table struct {
	Name   string
	XLabel string
	Series []string
	Rows   [][]float64 // each row: x followed by len(Series) values
}

// WriteCSV writes the table in RFC 4180 form.
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	header := append([]string{t.XLabel}, t.Series...)
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, row := range t.Rows {
		rec := make([]string, len(row))
		for i, v := range row {
			rec[i] = strconv.FormatFloat(v, 'g', -1, 64)
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// SaveCSV writes the table to dir/<name>.csv.
func (t *Table) SaveCSV(dir string) (string, error) {
	path := filepath.Join(dir, t.Name+".csv")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := t.WriteCSV(f); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// Fig2Table converts the multiprogramming-level sweep.
func Fig2Table(rows []experiments.Fig2Row) *Table {
	t := &Table{Name: "fig2", XLabel: "level",
		Series: []string{"l1i_miss", "l1d_miss", "l2_miss", "cpi"}}
	for _, r := range rows {
		t.Rows = append(t.Rows, []float64{float64(r.Level), r.L1IMiss, r.L1DMiss, r.L2Miss, r.CPI})
	}
	return t
}

// Fig3Table converts the time-slice sweep.
func Fig3Table(rows []experiments.Fig3Row) *Table {
	t := &Table{Name: "fig3", XLabel: "slice_cycles",
		Series: []string{"l1i_miss", "l1d_miss", "l2_miss", "cpi"}}
	for _, r := range rows {
		t.Rows = append(t.Rows, []float64{float64(r.TimeSlice), r.L1IMiss, r.L1DMiss, r.L2Miss, r.CPI})
	}
	return t
}

// Fig5Table converts a write-policy sweep: one series per policy.
func Fig5Table(name string, rows []experiments.Fig5Row) *Table {
	t := &Table{Name: name, XLabel: "l2_access_cycles",
		Series: []string{"write_back", "write_miss_invalidate", "write_only", "subblock"}}
	for _, at := range experiments.Fig5AccessTimes {
		row := []float64{float64(at), 0, 0, 0, 0}
		for _, r := range rows {
			if r.AccessTime == at {
				row[1+int(r.Policy)] = r.CPI
			}
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// Fig6Table converts an organization sweep; metric selects CPI (false)
// or miss ratio (true, Table 2).
func Fig6Table(name string, rows []experiments.Fig6Row, missRatio bool) *Table {
	t := &Table{Name: name, XLabel: "size_words",
		Series: []string{"unified_1way", "unified_2way", "split_1way", "split_2way"}}
	for _, size := range experiments.Fig6Sizes {
		row := []float64{float64(size), 0, 0, 0, 0}
		for i, org := range experiments.Fig6Orgs {
			if r, ok := experiments.Fig6At(rows, size, org); ok {
				if missRatio {
					row[1+i] = r.MissRatio
				} else {
					row[1+i] = r.CPI
				}
			}
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// SpeedSizeTable converts a Fig. 7/8 sweep: one series per access time.
func SpeedSizeTable(name string, rows []experiments.SpeedSizeRow) *Table {
	t := &Table{Name: name, XLabel: "size_words"}
	for _, at := range experiments.SpeedSizeTimes {
		t.Series = append(t.Series, fmt.Sprintf("access_%d", at))
	}
	for _, size := range experiments.SpeedSizeSizes {
		row := []float64{float64(size)}
		for _, at := range experiments.SpeedSizeTimes {
			r, _ := experiments.SpeedSizeAt(rows, size, at)
			row = append(row, r.CPI)
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// StagesTable converts a staged-optimization run (Figs. 9/10): the X
// column is the stage index; labels go in a companion comment column.
func StagesTable(name string, rows []experiments.StageRow) *Table {
	t := &Table{Name: name, XLabel: "stage", Series: []string{"cpi", "memory_cpi"}}
	for i, r := range rows {
		t.Rows = append(t.Rows, []float64{float64(i), r.CPI, r.MemCPI})
	}
	return t
}

// ExportAll runs every figure's sweep at the given options and writes
// CSVs into dir, returning the files written.
func ExportAll(dir string, o experiments.Options) ([]string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	fig6 := experiments.Fig6(o, experiments.PaperCalibrated)
	tables := []*Table{
		Fig2Table(experiments.Fig2(o)),
		Fig3Table(experiments.Fig3(o)),
		Fig5Table("fig5_suite", experiments.Fig5(o, experiments.KernelSuite)),
		Fig5Table("fig5_calibrated", experiments.Fig5(o, experiments.PaperCalibrated)),
		Fig6Table("fig6_cpi", fig6, false),
		Fig6Table("table2_missratio", fig6, true),
		SpeedSizeTable("fig7_l2i", experiments.Fig7(o)),
		SpeedSizeTable("fig8_l2d", experiments.Fig8(o)),
		StagesTable("fig9_stages", experiments.Fig9(o)),
		StagesTable("fig10_stages", experiments.Fig10(o, experiments.PaperCalibrated)),
	}
	var written []string
	for _, t := range tables {
		path, err := t.SaveCSV(dir)
		if err != nil {
			return written, err
		}
		written = append(written, path)
	}
	return written, nil
}
