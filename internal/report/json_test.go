package report

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/workload"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenRun is a small, fully deterministic run (explicit-seed synthetic
// workload) whose Report the golden file freezes.
func goldenRun(t *testing.T) Report {
	t.Helper()
	cfg := core.Base()
	res, err := sim.Run(cfg, workload.ReplayProcesses(workload.RecordPaperLike(2, 30_000)), sched.Config{Level: 2})
	if err != nil {
		t.Fatal(err)
	}
	return New(cfg, res)
}

func TestReportJSONGolden(t *testing.T) {
	r := goldenRun(t)
	got, err := r.JSON()
	if err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "report_golden.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("report JSON drifted from golden file %s\ngot:\n%s\nwant:\n%s\n(run with -update if the change is intended)",
			golden, got, want)
	}
}

// TestReportJSONRoundTrip checks the encoding is lossless and stable:
// unmarshal then re-marshal reproduces the exact bytes, the property the
// service's result cache depends on.
func TestReportJSONRoundTrip(t *testing.T) {
	r := goldenRun(t)
	data, err := r.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	again, err := back.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, again) {
		t.Errorf("round trip not byte-identical:\nfirst:\n%s\nsecond:\n%s", data, again)
	}
}

// TestReportJSONRepeatable checks two independent runs of the same
// configuration marshal to byte-identical JSON.
func TestReportJSONRepeatable(t *testing.T) {
	a, err := goldenRun(t).JSON()
	if err != nil {
		t.Fatal(err)
	}
	b, err := goldenRun(t).JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Error("two identical runs produced different JSON")
	}
}
