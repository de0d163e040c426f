package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/client"
	"repro/internal/service"
)

// clients is the closed-loop client count: the daemon's callers are
// sweep scripts that wait for each reply before sending the next
// request.
const clients = 2

// minRequests is how many requests a phase completes whatever its
// duration, so that a p90 has ten samples beyond it. The output digest
// covers the same leading requests.
var minRequests = map[string]int{designSweep: 120, tierSweep: 120, hotFigures: 2000}

// outcome is a completed request whose body the run keeps: for replay,
// for the digest, and for coalesced pairs.
type outcome struct {
	req    request
	rid    int32
	served string // X-Cache outcome, with the tier for hits
	body   []byte
}

// phase is one timed stretch of closed-loop load. Per request it keeps
// only the latency, so its own memory does not grow with throughput.
type phase struct {
	window       time.Duration
	cpu          time.Duration
	rssPeakMB    float64
	latencies    []time.Duration // successful requests, send to last body byte
	attempted    int
	failed       int
	failures     []error // the first few, for the report
	instructions uint64  // simulated instructions in the served /v1/sim reports
	served       map[string]int
	kept         []outcome // by request index
	clients      []client.Stats
	digest       string
}

// tally is one client's share of a phase.
type tally struct {
	latencies    []time.Duration
	failed       int
	failures     []error // the first maxReportedFailures
	instructions uint64
	served       map[string]int
	kept         []outcome
}

// dispatcher hands out the workload's requests in list order. A pair
// request goes to both clients: the first taker waits until the second
// has it too, so the two reach the fabric together.
type dispatcher struct {
	mu       sync.Mutex
	src      source
	deadline time.Time
	minItems int
	handed   int
	pending  *item
}

type item struct {
	req  request
	wait chan struct{} // non-nil for the first taker of a pair
}

func (d *dispatcher) take() (item, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.pending != nil {
		it := *d.pending
		d.pending = nil
		close(it.wait)
		it.wait = nil
		return it, true
	}
	if d.handed >= d.minItems && !time.Now().Before(d.deadline) {
		return item{}, false
	}
	it := item{req: d.src.next()}
	d.handed++
	if it.req.Pair {
		it.wait = make(chan struct{})
		d.pending = &it
	}
	return it, true
}

// verifier checks every served body.
type verifier struct {
	// warm holds, for hot-figures, the body each key returned when
	// set-up computed it; every later hit must return the same bytes.
	warm  map[string][]byte
	mu    sync.Mutex
	pairs map[string][]byte
}

func newVerifier(warm map[string][]byte) *verifier {
	return &verifier{warm: warm, pairs: map[string][]byte{}}
}

func (v *verifier) check(req request, body []byte) (uint64, error) {
	if req.Pair {
		v.mu.Lock()
		prev, seen := v.pairs[req.Key]
		if !seen {
			v.pairs[req.Key] = body
		}
		v.mu.Unlock()
		if seen && !bytes.Equal(prev, body) {
			return 0, fmt.Errorf("request %d: the two coalesced bodies differ", req.Index)
		}
	} else if v.warm != nil {
		if !bytes.Equal(body, v.warm[req.Key]) {
			return 0, fmt.Errorf("request %d: hit body differs from the body its key returned on the miss", req.Index)
		}
		return 0, nil
	}
	if req.Sim != nil {
		return checkSim(req, body)
	}
	return 0, checkSweep(req, body)
}

// checkSim: the report echoes the request and ran exactly
// max_instructions instructions.
func checkSim(req request, body []byte) (uint64, error) {
	var resp service.SimResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return 0, fmt.Errorf("request %d: sim body: %w", req.Index, err)
	}
	switch {
	case resp.CodeVersion != service.CodeVersion:
		return 0, fmt.Errorf("request %d: code version %q", req.Index, resp.CodeVersion)
	case resp.Request != *req.Sim:
		return 0, fmt.Errorf("request %d: echoed request %+v differs", req.Index, resp.Request)
	case resp.Report.Instructions != req.Sim.MaxInstructions:
		return 0, fmt.Errorf("request %d: %d instructions, want %d", req.Index, resp.Report.Instructions, req.Sim.MaxInstructions)
	}
	return resp.Report.Instructions, nil
}

// checkSweep: the response names the request's sweep and carries a
// table.
func checkSweep(req request, body []byte) error {
	var resp service.SweepResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("request %d: sweep body: %w", req.Index, err)
	}
	r := req.Sweep
	if resp.Experiment != r.Experiment || resp.Fidelity != r.Fidelity || resp.MaxInstructions != r.MaxInstructions ||
		resp.Level != r.Level || resp.Scale != r.Scale || resp.CodeVersion != service.CodeVersion || resp.Output == "" {
		return fmt.Errorf("request %d: sweep response does not match its request", req.Index)
	}
	return nil
}

// load runs closed-loop clients against one fabric.
type load struct {
	url        string
	tr         *tracer
	v          *verifier
	keepBodies bool
	minItems   int // also the number of leading requests the digest covers
	rids       atomic.Int32
}

// run drives src for at least d and at least minItems requests, then
// waits for the requests in flight.
func (ld *load) run(ctx context.Context, src source, d time.Duration) (*phase, error) {
	cls := make([]*client.Client, clients)
	hcs := make([]interface{ CloseIdleConnections() }, clients)
	for i := range cls {
		hc := newHTTPClient(ld.tr)
		hcs[i] = hc
		c, err := client.New(client.Options{HTTPClient: hc, Seed: uint64(i + 1)})
		if err != nil {
			return nil, err
		}
		cls[i] = c
	}
	defer func() {
		for _, hc := range hcs {
			hc.CloseIdleConnections()
		}
	}()
	rss := startRSSSampler()
	cpu0 := cpuTime()
	start := time.Now()
	disp := &dispatcher{src: src, deadline: start.Add(d), minItems: ld.minItems}
	tallies := make([]tally, clients)
	var wg sync.WaitGroup
	for i := range cls {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for {
				it, ok := disp.take()
				if !ok {
					return
				}
				if it.wait != nil {
					<-it.wait
				}
				ld.send(ctx, cls[i], it.req, &tallies[i])
			}
		}(i)
	}
	wg.Wait()
	p := &phase{window: time.Since(start), cpu: cpuTime() - cpu0, rssPeakMB: rss.Stop(), served: map[string]int{}}
	for i := range tallies {
		t := &tallies[i]
		p.latencies = append(p.latencies, t.latencies...)
		p.failed += t.failed
		p.failures = append(p.failures, t.failures...)
		p.instructions += t.instructions
		for k, n := range t.served {
			p.served[k] += n
		}
		p.kept = append(p.kept, t.kept...)
		p.clients = append(p.clients, cls[i].Stats())
	}
	p.attempted = len(p.latencies) + p.failed
	if len(p.failures) > maxReportedFailures {
		p.failures = p.failures[:maxReportedFailures]
	}
	sort.SliceStable(p.kept, func(i, j int) bool { return p.kept[i].req.Index < p.kept[j].req.Index })
	bodies := make([][]byte, ld.minItems)
	for _, o := range p.kept {
		if o.req.Index < ld.minItems && bodies[o.req.Index] == nil {
			bodies[o.req.Index] = o.body
		}
	}
	p.digest = digest(bodies)
	return p, nil
}

// maxReportedFailures bounds the failure messages a phase keeps.
const maxReportedFailures = 10

func (ld *load) send(ctx context.Context, cl *client.Client, req request, t *tally) {
	var sc spanCtx
	var start int64
	if ld.tr != nil {
		sc = spanCtx{rid: ld.rids.Add(1), id: ld.tr.newID()}
		ctx = withSpan(ctx, sc)
		start = ld.tr.now()
	}
	t0 := time.Now()
	res, err := cl.PostJSON(ctx, ld.url+req.Path, req.Body)
	lat := time.Since(t0)
	if err != nil {
		err = fmt.Errorf("request %d: %w", req.Index, err)
	}
	if ld.tr != nil {
		ld.tr.record(span{ID: sc.id, RID: sc.rid, Start: start, End: ld.tr.now(), Name: spanClient, Worker: -1,
			Outcome: outcomeOf(res.Header)})
	}
	if err == nil {
		var n uint64
		n, err = ld.v.check(req, res.Body)
		t.instructions += n
	}
	if err != nil {
		t.failed++
		if len(t.failures) < maxReportedFailures {
			t.failures = append(t.failures, err)
		}
		return
	}
	t.latencies = append(t.latencies, lat)
	served := outcomeOf(res.Header)
	if t.served == nil {
		t.served = map[string]int{}
	}
	t.served[served]++
	if ld.keepBodies || req.Index < ld.minItems || req.Pair {
		t.kept = append(t.kept, outcome{req: req, rid: sc.rid, served: served, body: res.Body})
	}
}

// warmUp computes every key of a hot-figures key set once, through the
// coordinator, and returns the body each key produced.
func warmUp(ctx context.Context, url string, keys []request) (map[string][]byte, error) {
	hc := newHTTPClient(nil)
	defer hc.CloseIdleConnections()
	cl, err := client.New(client.Options{HTTPClient: hc})
	if err != nil {
		return nil, err
	}
	bodies := make([][]byte, len(keys))
	errs := make([]error, len(keys))
	var next atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1)) - 1
				if k >= len(keys) {
					return
				}
				res, err := cl.PostJSON(ctx, url+keys[k].Path, keys[k].Body)
				if err != nil {
					errs[k] = err
					continue
				}
				bodies[k] = res.Body
				if keys[k].Sim != nil {
					_, errs[k] = checkSim(keys[k], res.Body)
				} else {
					errs[k] = checkSweep(keys[k], res.Body)
				}
			}
		}()
	}
	wg.Wait()
	warm := make(map[string][]byte, len(keys))
	for k, req := range keys {
		if errs[k] != nil {
			return nil, fmt.Errorf("warm-up key %d: %w", k, errs[k])
		}
		warm[req.Key] = bodies[k]
	}
	return warm, nil
}
