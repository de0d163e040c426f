package report

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/experiments"
)

func TestTableWriteCSV(t *testing.T) {
	tb := &Table{
		Name:   "demo",
		XLabel: "x",
		Series: []string{"a", "b"},
		Rows:   [][]float64{{1, 2.5, 3}, {2, 4, 0.001}},
	}
	var sb strings.Builder
	if err := tb.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	got := sb.String()
	want := "x,a,b\n1,2.5,3\n2,4,0.001\n"
	if got != want {
		t.Fatalf("CSV = %q, want %q", got, want)
	}
}

func TestSaveCSV(t *testing.T) {
	dir := t.TempDir()
	tb := &Table{Name: "t", XLabel: "x", Series: []string{"y"}, Rows: [][]float64{{1, 2}}}
	path, err := tb.SaveCSV(dir)
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(path) != "t.csv" {
		t.Fatalf("path %q", path)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "x,y\n") {
		t.Fatalf("file contents %q", data)
	}
}

func TestFig2TableShape(t *testing.T) {
	rows := []experiments.Fig2Row{
		{Level: 1, L1IMiss: 0.01, L1DMiss: 0.1, L2Miss: 0.02, CPI: 2},
		{Level: 8, L1IMiss: 0.01, L1DMiss: 0.1, L2Miss: 0.05, CPI: 2.4},
	}
	tb := Fig2Table(rows)
	if len(tb.Rows) != 2 || len(tb.Rows[0]) != 5 {
		t.Fatalf("table shape %dx%d", len(tb.Rows), len(tb.Rows[0]))
	}
	if tb.Rows[1][0] != 8 || tb.Rows[1][4] != 2.4 {
		t.Fatalf("row values wrong: %v", tb.Rows[1])
	}
}

func TestFig5TableAlignsPolicies(t *testing.T) {
	rows := []experiments.Fig5Row{
		{Policy: 0, AccessTime: 2, CPI: 2.2},
		{Policy: 2, AccessTime: 2, CPI: 2.0},
	}
	tb := Fig5Table("fig5", rows)
	if len(tb.Rows) != len(experiments.Fig5AccessTimes) {
		t.Fatalf("rows %d", len(tb.Rows))
	}
	first := tb.Rows[0]
	if first[0] != 2 || first[1] != 2.2 || first[3] != 2.0 {
		t.Fatalf("first row %v", first)
	}
}

func TestStagesTable(t *testing.T) {
	rows := []experiments.StageRow{
		{Label: "a", CPI: 2.0, MemCPI: 0.7},
		{Label: "b", CPI: 1.9, MemCPI: 0.6},
	}
	tb := StagesTable("fig9", rows)
	if tb.Rows[1][1] != 1.9 {
		t.Fatalf("stage table wrong: %v", tb.Rows)
	}
}

// exportDigest is the sha256 of ExportAll's files at a 100k-instruction
// cap, each hashed as its base name, a newline and its bytes, in the
// order ExportAll writes them.
const exportDigest = "d0b050603a5f26f6c8f3a4c9be19819362db77a57462367c76183406eebe0718"

// TestExportAllSmoke requires ExportAll to write its ten CSV files and
// pins their bytes.
func TestExportAllSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs many sweeps")
	}
	files, err := ExportAll(t.TempDir(), experiments.Options{MaxInstructions: 100_000})
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 10 {
		t.Fatalf("wrote %d files, want 10", len(files))
	}
	h := sha256.New()
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(h, "%s\n%s", filepath.Base(f), data)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != exportDigest {
		t.Errorf("CSV export digest = %s, want %s", got, exportDigest)
	}
}
