package main

// End-to-end crash test: build the real daemon, populate its disk
// store over HTTP, SIGKILL it mid-write, corrupt the segment tail the
// way a dying disk would, restart, and demand byte-identical cache
// hits for everything that was acknowledged — with the damage counted
// in /metrics and never served.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// buildDaemon compiles cachesimd once per test binary.
func buildDaemon(t *testing.T) string {
	t.Helper()
	if _, err := exec.LookPath("go"); err != nil {
		t.Skipf("go toolchain not on PATH: %v", err)
	}
	bin := filepath.Join(t.TempDir(), "cachesimd")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

type daemon struct {
	cmd      *exec.Cmd
	base     string // http://host:port
	out      *bytes.Buffer
	mu       *sync.Mutex // guards out
	scanDone chan struct{}
}

// output returns everything the daemon has printed so far. Safe to call
// after waitScan (or any time, for diagnostics).
func (d *daemon) output() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.out.String()
}

// waitScan blocks until the stdout scanner has drained the pipe (the
// process must have exited first).
func (d *daemon) waitScan() { <-d.scanDone }

// startDaemon launches bin on an ephemeral port and waits for its
// "serving on" line.
func startDaemon(t *testing.T, bin string, args ...string) *daemon {
	t.Helper()
	cmd := exec.Command(bin, append([]string{"-addr", "localhost:0"}, args...)...)
	var mu sync.Mutex
	var buf bytes.Buffer
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if cmd.Process != nil {
			cmd.Process.Kill()
			cmd.Wait()
		}
	})

	scanDone := make(chan struct{})
	lines := make(chan string, 1)
	go func() {
		io.Copy(io.Discard, stderr)
	}()
	go func() {
		defer close(scanDone)
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			mu.Lock()
			buf.WriteString(line + "\n")
			mu.Unlock()
			if strings.Contains(line, "serving on http://") {
				select {
				case lines <- line:
				default:
				}
			}
		}
	}()
	select {
	case line := <-lines:
		i := strings.Index(line, "http://")
		addr := strings.Fields(line[i:])[0]
		return &daemon{cmd: cmd, base: addr, out: &buf, mu: &mu, scanDone: scanDone}
	case <-time.After(30 * time.Second):
		mu.Lock()
		defer mu.Unlock()
		t.Fatalf("daemon never announced its port; output:\n%s", buf.String())
		return nil
	}
}

func (d *daemon) post(t *testing.T, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(d.base+"/v1/sweep", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", body, err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

// sweepBody builds a cheap request: the cost experiment runs no
// simulation, so each scale is a distinct cache key at trivial cost.
func sweepBody(scale int) string {
	return fmt.Sprintf(`{"experiment":"cost","scale":%d}`, scale)
}

func TestCrashRecoveryEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and kills a real daemon")
	}
	bin := buildDaemon(t)
	storeDir := t.TempDir()

	// ---- Phase 1: populate, then SIGKILL mid-write. -fsync always so
	// every acknowledged response is on disk before the 200 goes out.
	d1 := startDaemon(t, bin, "-store-dir", storeDir, "-fsync", "always")
	const acked = 5
	bodies := make(map[int][]byte)
	for scale := 1; scale <= acked; scale++ {
		resp, body := d1.post(t, sweepBody(scale))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("populate scale %d: %d %s", scale, resp.StatusCode, body)
		}
		if got := resp.Header.Get("X-Cache"); got != "miss" {
			t.Fatalf("populate scale %d X-Cache %q, want miss", scale, got)
		}
		bodies[scale] = body
	}

	// Churn more writes in the background so the kill lands mid-stream.
	stop := make(chan struct{})
	churnDone := make(chan struct{})
	go func() {
		defer close(churnDone)
		for scale := acked + 1; ; scale++ {
			select {
			case <-stop:
				return
			default:
			}
			resp, err := http.Post(d1.base+"/v1/sweep", "application/json",
				strings.NewReader(sweepBody(scale%60+1)))
			if err != nil {
				return // daemon died under us: that's the point
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	time.Sleep(100 * time.Millisecond)
	if err := d1.cmd.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	d1.cmd.Wait()
	close(stop)
	<-churnDone

	// ---- Phase 2: wound the newest segment the way a dying disk
	// would — flip a byte near the tail so the final record fails CRC.
	segs, err := filepath.Glob(filepath.Join(storeDir, "*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments on disk after kill (%v)", err)
	}
	sort.Strings(segs)
	seg := segs[len(segs)-1]
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) < 16 {
		t.Fatalf("newest segment only %d bytes", len(data))
	}
	data[len(data)-8] ^= 0xFF
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}

	// ---- Phase 3: restart over the damaged directory.
	d2 := startDaemon(t, bin, "-store-dir", storeDir, "-fsync", "always")

	// The damage is detected, counted, and visible in /metrics.
	resp, err := http.Get(d2.base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mdata, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var m struct {
		Store struct {
			Mode  string `json:"mode"`
			Stats *struct {
				Entries  int `json:"entries"`
				Recovery struct {
					TornTails      int `json:"torn_tails"`
					CorruptRecords int `json:"corrupt_records"`
				} `json:"recovery"`
			} `json:"stats"`
		} `json:"store"`
	}
	if err := json.Unmarshal(mdata, &m); err != nil {
		t.Fatalf("metrics not JSON: %v\n%s", err, mdata)
	}
	if m.Store.Mode != "disk" || m.Store.Stats == nil {
		t.Fatalf("store tier missing after restart: %s", mdata)
	}
	rec := m.Store.Stats.Recovery
	if rec.TornTails+rec.CorruptRecords == 0 {
		t.Fatalf("corrupted tail not detected by recovery: %s", mdata)
	}
	if m.Store.Stats.Entries < acked-1 {
		t.Fatalf("recovery kept %d entries, want >= %d acknowledged-and-intact", m.Store.Stats.Entries, acked-1)
	}

	// Every acknowledged result except possibly the one wounded at the
	// tail must come back as a byte-identical disk hit.
	for scale := 1; scale < acked; scale++ {
		resp, body := d2.post(t, sweepBody(scale))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("scale %d after crash: %d %s", scale, resp.StatusCode, body)
		}
		if got := resp.Header.Get("X-Cache"); got != "hit" {
			t.Fatalf("scale %d after crash X-Cache %q, want hit", scale, got)
		}
		if got := resp.Header.Get("X-Cache-Tier"); got != "disk" {
			t.Fatalf("scale %d after crash tier %q, want disk", scale, got)
		}
		if !bytes.Equal(body, bodies[scale]) {
			t.Fatalf("scale %d not byte-identical across the crash:\nbefore: %s\nafter:  %s",
				scale, bodies[scale], body)
		}
	}
	// The wounded record is recomputed, never served corrupt: status 200
	// with the same deterministic bytes either way.
	resp5, body5 := d2.post(t, sweepBody(acked))
	if resp5.StatusCode != http.StatusOK || !bytes.Equal(body5, bodies[acked]) {
		t.Fatalf("scale %d after crash: %d, byte-identical=%v",
			acked, resp5.StatusCode, bytes.Equal(body5, bodies[acked]))
	}

	// ---- Phase 4: SIGTERM drains cleanly and flushes the store.
	if err := d2.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	// Wait closes the stdout pipe once the process exits, so it runs
	// only after the scanner has read the pipe to EOF; otherwise the
	// daemon's last lines can be lost.
	go func() {
		d2.waitScan()
		done <- d2.cmd.Wait()
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("SIGTERM exit: %v\noutput:\n%s", err, d2.output())
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("daemon did not drain after SIGTERM; output:\n%s", d2.output())
	}
	if !strings.Contains(d2.output(), "drained, exiting") {
		t.Fatalf("no clean drain message; output:\n%s", d2.output())
	}
}

// TestDegradedStartupEndToEnd: a store directory that cannot be
// created costs durability, not availability.
func TestDegradedStartupEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a real daemon")
	}
	bin := buildDaemon(t)
	// A file where the store directory should be makes MkdirAll fail.
	blocked := filepath.Join(t.TempDir(), "not-a-dir")
	if err := os.WriteFile(blocked, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	d := startDaemon(t, bin, "-store-dir", blocked)

	resp, err := http.Get(d.base + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(data), `"degraded"`) {
		t.Fatalf("/readyz -> %d %s, want 200 degraded", resp.StatusCode, data)
	}
	// Still serves.
	pr, body := d.post(t, sweepBody(1))
	if pr.StatusCode != http.StatusOK {
		t.Fatalf("degraded daemon refused work: %d %s", pr.StatusCode, body)
	}
}
