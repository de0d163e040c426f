package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// cachesimBin is the cachesim binary TestMain builds for these tests,
// which run it the way a user does: flags in, stdout out.
var cachesimBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "cachesim-test")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	cachesimBin = filepath.Join(dir, "cachesim")
	out, err := exec.Command("go", "build", "-o", cachesimBin, ".").CombinedOutput()
	code := 1
	if err != nil {
		fmt.Fprintf(os.Stderr, "go build: %v\n%s", err, out)
	} else {
		code = m.Run()
	}
	os.RemoveAll(dir)
	os.Exit(code)
}

// TestMaxOutputGolden pins what a capped run prints, byte for byte, on
// recordings that grow only as far as the run reads: the whole report of
// `-max 200000`, whose one running member reads a prefix of its
// recording, and of a level-4 run with a short slice, which reads a
// prefix of each of four members, switching among them mid-chunk. The
// goldens were printed by the version that recorded the whole suite, or
// each member up to the cap, before running.
func TestMaxOutputGolden(t *testing.T) {
	for _, tc := range []struct {
		golden string
		args   []string
	}{
		{"max200000.golden", []string{"-max", "200000"}},
		{"optimized_level4_max200000.golden", []string{"-preset", "optimized", "-level", "4", "-slice", "20000", "-max", "200000"}},
	} {
		var out, errOut bytes.Buffer
		cmd := exec.Command(cachesimBin, tc.args...)
		cmd.Stdout, cmd.Stderr = &out, &errOut
		if err := cmd.Run(); err != nil || errOut.Len() != 0 {
			t.Fatalf("cachesim %q: %v, stderr %q", tc.args, err, errOut.String())
		}
		want, err := os.ReadFile(filepath.Join("testdata", tc.golden))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), want) {
			t.Errorf("cachesim %q printed\n%s\nwant\n%s", tc.args, out.Bytes(), want)
		}
	}
}
