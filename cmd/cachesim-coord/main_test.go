package main

// End-to-end cluster test: build the real coordinator and worker
// binaries, stand up a 3-worker fabric on loopback, and demand the
// distributed answers be byte-identical to a single daemon's — with
// cluster-wide caching (a repeat is a hit, nothing recomputes) and
// graceful degradation when a worker is SIGKILLed mid-run.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/fabric"
	"repro/internal/service"
)

// buildBin compiles a command directory into a temp binary.
func buildBin(t *testing.T, pkgDir, name string) string {
	t.Helper()
	if _, err := exec.LookPath("go"); err != nil {
		t.Skipf("go toolchain not on PATH: %v", err)
	}
	bin := filepath.Join(t.TempDir(), name)
	cmd := exec.Command("go", "build", "-o", bin, pkgDir)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go build %s: %v\n%s", pkgDir, err, out)
	}
	return bin
}

type proc struct {
	cmd      *exec.Cmd
	base     string // http://host:port
	out      *bytes.Buffer
	mu       *sync.Mutex
	scanDone chan struct{}
}

func (p *proc) output() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.out.String()
}

// startProc launches bin on an ephemeral port and waits for its
// "serving on" line.
func startProc(t *testing.T, bin string, args ...string) *proc {
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

	go func() { io.Copy(io.Discard, stderr) }()
	scanDone := make(chan struct{})
	lines := make(chan string, 1)
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
		return &proc{cmd: cmd, base: addr, out: &buf, mu: &mu, scanDone: scanDone}
	case <-time.After(30 * time.Second):
		mu.Lock()
		defer mu.Unlock()
		t.Fatalf("process never announced its port; output:\n%s", buf.String())
		return nil
	}
}

func post(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

// clusterView is the slice of /v1/cluster this test reads.
type clusterView struct {
	RingVersion uint64 `json:"ring_version"`
	Workers     []struct {
		ID    string `json:"id"`
		Stats struct {
			CacheHits   uint64 `json:"cache_hits"`
			CacheMisses uint64 `json:"cache_misses"`
		} `json:"stats"`
	} `json:"workers"`
}

func getCluster(t *testing.T, coordBase string) clusterView {
	t.Helper()
	resp, err := http.Get(coordBase + "/v1/cluster")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var cv clusterView
	if err := json.NewDecoder(resp.Body).Decode(&cv); err != nil {
		t.Fatal(err)
	}
	return cv
}

func waitWorkers(t *testing.T, coordBase string, want int, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		if cv := getCluster(t, coordBase); len(cv.Workers) == want {
			return
		}
		if time.Now().After(deadline) {
			cv := getCluster(t, coordBase)
			t.Fatalf("cluster never settled at %d workers (have %d)", want, len(cv.Workers))
		}
		time.Sleep(50 * time.Millisecond)
	}
}

func TestClusterEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster end-to-end test in -short mode")
	}
	coordBin := buildBin(t, ".", "cachesim-coord")
	workerBin := buildBin(t, "../cachesimd", "cachesimd")

	// Fast churn so the kill phase settles in a couple of seconds: TTL
	// 1.5s, heartbeats every 300ms.
	coord := startProc(t, coordBin, "-heartbeat-ttl", "1500ms")
	workers := map[string]*proc{}
	for _, id := range []string{"w1", "w2", "w3"} {
		w := startProc(t, workerBin,
			"-coordinator", coord.base,
			"-worker-id", id,
			"-heartbeat-interval", "300ms")
		workers[id] = w
	}
	waitWorkers(t, coord.base, 3, 10*time.Second)

	// Phase 1: a Fig. 6 sweep through the coordinator is byte-identical
	// to the same request served directly by a single cachesimd.
	sweep := `{"experiment":"fig6","max_instructions":50000}`
	resp, clusterBody := post(t, coord.base+"/v1/sweep", sweep)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cluster sweep: %d %s", resp.StatusCode, clusterBody)
	}
	if got := resp.Header.Get("X-Cache"); got != "miss" {
		t.Fatalf("first cluster sweep X-Cache=%q, want miss", got)
	}
	home := resp.Header.Get("X-Fabric-Worker")
	if _, ok := workers[home]; !ok {
		t.Fatalf("X-Fabric-Worker=%q is not a known worker", home)
	}

	var direct *proc
	for id, w := range workers {
		if id != home {
			direct = w
			break
		}
	}
	dresp, directBody := post(t, direct.base+"/v1/sweep", sweep)
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("direct sweep: %d %s", dresp.StatusCode, directBody)
	}
	if !bytes.Equal(clusterBody, directBody) {
		t.Fatalf("coordinator and direct bodies differ:\n%s\nvs\n%s", clusterBody, directBody)
	}

	// Phase 2: a repeated identical request is a cluster-wide cache hit
	// — same home worker, X-Cache: hit, same bytes — answered by the
	// coordinator's own tier without a second hop.
	resp2, body2 := post(t, coord.base+"/v1/sweep", sweep)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("repeat sweep: %d %s", resp2.StatusCode, body2)
	}
	if resp2.Header.Get("X-Cache") != "hit" {
		t.Fatalf("repeat sweep X-Cache=%q, want hit (cluster recomputed)", resp2.Header.Get("X-Cache"))
	}
	if got := resp2.Header.Get("X-Cache-Tier"); got != "coordinator" {
		t.Fatalf("repeat sweep X-Cache-Tier=%q, want coordinator", got)
	}
	if got := resp2.Header.Get("X-Fabric-Worker"); got != home {
		t.Fatalf("repeat sweep re-routed to %q (home %q): ring routing unstable", got, home)
	}
	if !bytes.Equal(clusterBody, body2) {
		t.Fatal("repeat sweep bytes differ from the first serve")
	}

	// Phase 3: scatter-gather grid, twice — deterministic merged bytes.
	grid := `{"configs":[{"preset":"base"},{"preset":"optimized"},{"preset":"base","policy":"wmi"}],"max_instructions":50000}`
	gresp, gbody := post(t, coord.base+"/v1/grid", grid)
	if gresp.StatusCode != http.StatusOK {
		t.Fatalf("grid: %d %s", gresp.StatusCode, gbody)
	}
	var gr struct {
		Count   int `json:"count"`
		Entries []struct {
			Key      string          `json:"key"`
			Response json.RawMessage `json:"response"`
		} `json:"entries"`
	}
	if err := json.Unmarshal(gbody, &gr); err != nil {
		t.Fatal(err)
	}
	if gr.Count != 3 {
		t.Fatalf("grid count %d, want 3", gr.Count)
	}
	for i, e := range gr.Entries {
		if len(e.Key) != 64 || !bytes.Contains(e.Response, []byte(`"report"`)) {
			t.Fatalf("grid entry %d malformed: key=%q response=%.80s", i, e.Key, e.Response)
		}
	}
	gresp2, gbody2 := post(t, coord.base+"/v1/grid", grid)
	if gresp2.StatusCode != http.StatusOK || !bytes.Equal(gbody, gbody2) {
		t.Fatalf("grid repeat not byte-identical (status %d)", gresp2.StatusCode)
	}

	// Phase 4: SIGKILL the home worker mid-fleet. Every subsequent
	// request must still succeed — first by failover to the next
	// replica, then, once the TTL drains the corpse, by direct routing.
	// The coordinator's tier holds `sweep`, and a key it holds never
	// reaches a worker, so these requests use keys it has not seen, each
	// owned by the home worker on the ring (the coordinator runs the
	// default vnodes). Their reference bodies come from the home worker
	// directly, before the kill.
	ring := fabric.NewRing([]string{"w1", "w2", "w3"}, fabric.DefaultVnodes)
	var postKill []string
	var refs [][]byte
	for n := uint64(50_001); len(postKill) < 6; n++ {
		key, err := service.SweepKey(service.SweepRequest{Experiment: "fig6", MaxInstructions: n})
		if err != nil {
			t.Fatal(err)
		}
		if owner, err := ring.Owner(key); err != nil || owner != home {
			continue
		}
		body := fmt.Sprintf(`{"experiment":"fig6","max_instructions":%d}`, n)
		rr, ref := post(t, workers[home].base+"/v1/sweep", body)
		if rr.StatusCode != http.StatusOK {
			t.Fatalf("reference %s on the home worker: %d %s", body, rr.StatusCode, ref)
		}
		postKill = append(postKill, body)
		refs = append(refs, ref)
	}
	if err := workers[home].cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		ri, bi := post(t, coord.base+"/v1/sweep", postKill[i])
		if ri.StatusCode != http.StatusOK {
			t.Fatalf("request %d after kill: %d %s", i, ri.StatusCode, bi)
		}
		if !bytes.Equal(bi, refs[i]) {
			t.Fatalf("request %d after kill: bytes differ from the home worker's", i)
		}
		if got := ri.Header.Get("X-Fabric-Worker"); got == home {
			t.Fatalf("request %d after kill attributed to the dead worker %q", i, got)
		}
	}
	var m struct {
		Failovers uint64 `json:"failovers"`
	}
	mresp, err := http.Get(coord.base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	err = json.NewDecoder(mresp.Body).Decode(&m)
	mresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if m.Failovers == 0 {
		t.Fatal("no failover after the home worker died")
	}
	// What the coordinator's tier holds outlives the worker that
	// produced it.
	if rt, bt := post(t, coord.base+"/v1/sweep", sweep); rt.StatusCode != http.StatusOK || !bytes.Equal(bt, clusterBody) {
		t.Fatalf("remembered sweep after kill: status %d, byte-identical=%v", rt.StatusCode, bytes.Equal(bt, clusterBody))
	}
	waitWorkers(t, coord.base, 2, 10*time.Second)

	// After the ring settles, requests route straight to the new owner:
	// still 200, still the same bytes.
	rf, bf := post(t, coord.base+"/v1/sweep", postKill[5])
	if rf.StatusCode != http.StatusOK || !bytes.Equal(bf, refs[5]) {
		t.Fatalf("post-settle sweep: status %d, byte-identical=%v", rf.StatusCode, bytes.Equal(bf, refs[5]))
	}
	if got := rf.Header.Get("X-Fabric-Worker"); got == home || rf.Header.Get("X-Cache-Tier") == "coordinator" {
		t.Fatalf("post-settle sweep served by %q from tier %q, want a survivor's answer", got, rf.Header.Get("X-Cache-Tier"))
	}

	// The cluster report still carries heartbeat stats for survivors.
	cv := getCluster(t, coord.base)
	for _, w := range cv.Workers {
		if w.ID == home {
			t.Fatalf("dead worker %q still in the ring after settle", home)
		}
	}
}

// TestCoordinatorAnnouncesAndDrains: flag validation and the SIGTERM
// drain path of the coordinator binary itself.
func TestCoordinatorAnnouncesAndDrains(t *testing.T) {
	if testing.Short() {
		t.Skip("daemon lifecycle test in -short mode")
	}
	coordBin := buildBin(t, ".", "cachesim-coord")
	coord := startProc(t, coordBin)

	resp, err := http.Get(coord.base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}
	// No workers yet: not ready.
	rz, err := http.Get(coord.base + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	rz.Body.Close()
	if rz.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz with no workers: %d, want 503", rz.StatusCode)
	}

	if err := coord.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	// Drain the stdout scanner before Wait: Wait closes the pipe, which
	// would drop whatever the scanner had not read yet. The scanner sees
	// EOF on its own once the process exits.
	<-coord.scanDone
	if err := coord.cmd.Wait(); err != nil {
		t.Fatalf("coordinator exited non-zero after SIGTERM: %v\n%s", err, coord.output())
	}
	coord.cmd.Process = nil // cleanup already ran Wait
	if out := coord.output(); !strings.Contains(out, "drained, exiting") {
		t.Fatalf("drain line missing from output:\n%s", out)
	}
}
