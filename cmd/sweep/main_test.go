package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"testing"
)

// sweepBin is the sweep binary TestMain builds for these tests, which
// drive it the way a user does: flags in, stdout, stderr and the exit
// status out.
var sweepBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "sweep-test")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	sweepBin = filepath.Join(dir, "sweep")
	out, err := exec.Command("go", "build", "-o", sweepBin, ".").CombinedOutput()
	code := 1
	if err != nil {
		fmt.Fprintf(os.Stderr, "go build: %v\n%s", err, out)
	} else {
		code = m.Run()
	}
	os.RemoveAll(dir)
	os.Exit(code)
}

// runSweep runs the binary with args and returns its stdout, stderr
// and exit status.
func runSweep(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	var out, errb bytes.Buffer
	cmd := exec.Command(sweepBin, args...)
	cmd.Stdout, cmd.Stderr = &out, &errb
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case errors.As(err, &exit):
		code = exit.ExitCode()
	case err != nil:
		t.Fatalf("sweep %q: %v", args, err)
	}
	return out.String(), errb.String(), code
}

func golden(t *testing.T, name string) string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestListNotesReducedTiers pins `-exp list`: every experiment in paper
// order, each noting the reduced tiers that serve it.
func TestListNotesReducedTiers(t *testing.T) {
	out, errOut, code := runSweep(t, "-exp", "list")
	if code != 0 || errOut != "" {
		t.Fatalf("exit %d, stderr %q", code, errOut)
	}
	if want := golden(t, "list.golden"); out != want {
		t.Errorf("-exp list:\n%s\nwant:\n%s", out, want)
	}
}

// TestRefusalsNameServedIDs pins the refusal of an id a reduced tier
// does not serve: exit 1, nothing run, and the ids that tier does serve.
// A sampled -max below two sampling periods, the default or -period, is
// refused the same way, naming the minimum: fewer than two intervals
// give no confidence interval.
func TestRefusalsNameServedIDs(t *testing.T) {
	for _, c := range []struct {
		args   []string
		golden string
	}{
		{[]string{"-onepass", "-exp", "fig2"}, "onepass_fig2.stderr.golden"},
		{[]string{"-sampled", "-exp", "fig3"}, "sampled_fig3.stderr.golden"},
		{[]string{"-sampled", "-exp", "fig2", "-max", "200000"}, "sampled_fig2_max.stderr.golden"},
		{[]string{"-sampled", "-period", "100000", "-exp", "fig2", "-max", "150000"}, "sampled_fig2_period.stderr.golden"},
	} {
		out, errOut, code := runSweep(t, c.args...)
		if code != 1 || out != "" {
			t.Errorf("%q: exit %d, stdout %q; want exit 1 and no output", c.args, code, out)
		}
		if want := golden(t, c.golden); errOut != want {
			t.Errorf("%q: stderr %q, want %q", c.args, errOut, want)
		}
	}
}

// elapsed matches the wall time a result header ends with.
var elapsed = regexp.MustCompile(`(?m)^(== .*) \([0-9.]+s\)$`)

// comparePrintsDeltas pins `-compare -exp id -max 100000` against
// testdata/compare_<id>.golden, wall times stripped.
func comparePrintsDeltas(t *testing.T, id string) {
	t.Helper()
	out, errOut, code := runSweep(t, "-compare", "-exp", id, "-max", "100000")
	if code != 0 || errOut != "" {
		t.Fatalf("exit %d, stderr %q", code, errOut)
	}
	if got, want := elapsed.ReplaceAllString(out, "$1"), golden(t, "compare_"+id+".golden"); got != want {
		t.Errorf("-compare -exp %s:\n%s\nwant:\n%s", id, got, want)
	}
}

// TestCompareFig6PrintsDeltas pins `-compare` on fig6: screening
// against exact at every grid point of the paper-calibrated recording.
func TestCompareFig6PrintsDeltas(t *testing.T) { comparePrintsDeltas(t, "fig6") }

// TestCompareFig7PrintsDeltas pins `-compare` on fig7: the screening
// minus exact speed-size table over the same recording.
func TestCompareFig7PrintsDeltas(t *testing.T) { comparePrintsDeltas(t, "fig7") }

// TestCompareFig8PrintsDeltas pins `-compare` on fig8, the data side of
// fig7's table.
func TestCompareFig8PrintsDeltas(t *testing.T) { comparePrintsDeltas(t, "fig8") }
