package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"text/tabwriter"
	"time"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/service"
	"repro/internal/store"
)

// runTraced is the per-layer run: an untraced phase (the reference for
// throughput and simulated counters), a traced phase on a fresh fabric,
// and a timed replay of the traced phase's computed requests.
func runTraced(cfg config) (*result, error) {
	res := &result{}
	s, err := setUp(cfg, nil)
	if err != nil {
		return nil, err
	}
	keep := cfg.workload != hotFigures
	var pA *phase
	err = res.checkDigest(cfg)
	if err == nil {
		ldA := &load{url: s.cl.url, v: newVerifier(s.warm), minItems: minRequests[cfg.workload], keepBodies: keep}
		pA, err = ldA.run(context.Background(), s.src, cfg.seconds)
	}
	if err = errors.Join(err, s.cl.stop()); err != nil {
		return nil, err
	}
	res.addPhase(pA)

	tr := newTracer()
	b, err := setUp(cfg, tr)
	if err != nil {
		return nil, err
	}
	for key, body := range s.warm {
		if !bytes.Equal(b.warm[key], body) {
			res.fail("key %s: the traced fabric computed different bytes than the untraced one", key)
		}
	}
	before := snapshotCounters(b.cl)
	tr.Start()
	ldB := &load{url: b.cl.url, tr: tr, v: newVerifier(b.warm), minItems: minRequests[cfg.workload], keepBodies: keep}
	pB, err := ldB.run(context.Background(), b.src, cfg.seconds)
	tr.Stop()
	after := snapshotCounters(b.cl)
	if err = errors.Join(err, b.cl.stop()); err != nil {
		return nil, err
	}
	res.addPhase(pB)
	if pA.digest != pB.digest {
		res.fail("traced and untraced phases produced different output digests")
	}

	replays := replayComputed(pB.kept, cfg.seconds/2)
	checkReplays(res, pA, pB, replays)

	spans := tr.snapshot()
	a := newAnalysis(spans, replays)
	layerMetrics(res, cfg, s, pA, pB, before, after, a)
	table := a.selfTimeTable(cfg.workload)
	fmt.Print(table)
	if err := os.WriteFile(filepath.Join(cfg.outDir, "selftime.txt"), []byte(table), 0o644); err != nil {
		return nil, err
	}
	if err := writeSpans(filepath.Join(cfg.outDir, "spans.jsonl"), spans, replays); err != nil {
		return nil, err
	}
	res.notes = append(res.notes, fmt.Sprintf("spans of the first %d requests and every replay written to %s",
		spanFileRequests, filepath.Join(cfg.outDir, "spans.jsonl")))
	return res, nil
}

// replayComputed re-executes, in request order on two goroutines, the
// requests the traced phase computed, until budget has passed.
func replayComputed(kept []outcome, budget time.Duration) []*replay {
	var todo []outcome
	for _, o := range kept {
		if o.served == "miss" {
			todo = append(todo, o)
		}
	}
	out := make([]*replay, len(todo))
	errs := make([]error, len(todo))
	deadline := time.Now().Add(budget)
	var mu sync.Mutex
	next := 0
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= len(todo) || (i > 0 && time.Now().After(deadline)) {
					return
				}
				o := todo[i]
				var r *replay
				var err error
				if o.req.Sim != nil {
					r, err = replaySim(*o.req.Sim)
				} else {
					r, err = replaySweep(*o.req.Sweep)
				}
				if err != nil {
					r = &replay{}
					errs[i] = err
				}
				r.rid, r.idx = o.rid, o.req.Index
				out[i] = r
			}
		}()
	}
	wg.Wait()
	var done []*replay
	for i, r := range out {
		if r == nil {
			continue
		}
		if errs[i] != nil {
			r.body = nil
			r.fidelity = "error: " + errs[i].Error()
		}
		done = append(done, r)
	}
	return done
}

// checkReplays: every replay must equal its served body byte for byte,
// and a replayed simulation's counters must equal those the untraced
// phase served for the same request.
func checkReplays(res *result, pA, pB *phase, replays []*replay) {
	served := map[int32][]byte{}
	for _, o := range pB.kept {
		served[o.rid] = o.body
	}
	untraced := map[int][]byte{}
	for _, o := range pA.kept {
		untraced[o.req.Index] = o.body
	}
	for _, r := range replays {
		res.attempted++
		if r.body == nil {
			res.fail("replay of request %d: %s", r.idx, r.fidelity)
			continue
		}
		if !bytes.Equal(r.body, served[r.rid]) {
			res.fail("replay of request %d differs from the served body", r.idx)
			continue
		}
		a, ok := untraced[r.idx]
		if !ok {
			continue
		}
		if r.fidelity == "" {
			var resp service.SimResponse
			if err := json.Unmarshal(a, &resp); err != nil || resp.Report.Counters != r.stats ||
				resp.Report.Sched.Switches != r.switches {
				res.fail("request %d: traced simulated counters differ from the untraced run's", r.idx)
			}
		} else if !bytes.Equal(a, r.body) {
			res.fail("request %d: traced sweep output differs from the untraced run's", r.idx)
		}
	}
}

// counters is a snapshot of the program's own public counters.
type counters struct {
	service  []service.MetricsSnapshot
	store    []store.Stats
	cluster  fabric.ClusterState
	gcCycles uint64
	pauseNs  uint64
}

func snapshotCounters(cl *cluster) counters {
	var c counters
	for _, n := range cl.nodes {
		c.service = append(c.service, n.srv.Metrics())
		c.store = append(c.store, n.store.Stats())
	}
	hc := newHTTPClient(nil)
	defer hc.CloseIdleConnections()
	if resp, err := hc.Get(cl.url + "/v1/cluster"); err == nil {
		_ = json.NewDecoder(resp.Body).Decode(&c.cluster) // a missing report leaves the counters at zero
		resp.Body.Close()
	}
	sample := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(sample)
	if sample[0].Value.Kind() == metrics.KindUint64 {
		c.gcCycles = sample[0].Value.Uint64()
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.pauseNs = ms.PauseTotalNs
	return c
}

// analysis joins the traced phase's spans into per-request paths and
// the replays into per-request compute.
type analysis struct {
	spans   []span
	hops    []hop
	replays map[int32]*replay // by request id
}

// hop is one request's path through the layers.
type hop struct {
	client, coord, worker span
	store                 []span
}

// newAnalysis keeps each client request with exactly one coordinator
// and one worker span below it; a hedged or failed-over request has
// more and is left out.
func newAnalysis(spans []span, replays []*replay) *analysis {
	byParent := map[int32][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			byParent[s.Parent] = append(byParent[s.Parent], s)
		}
	}
	children := func(id int32, want func(spanName) bool) []span {
		var out []span
		for _, c := range byParent[id] {
			if want(c.Name) {
				out = append(out, c)
			}
		}
		return out
	}
	is := func(n spanName) func(spanName) bool { return func(m spanName) bool { return m == n } }
	a := &analysis{spans: spans, replays: map[int32]*replay{}}
	for _, s := range spans {
		if s.Name != spanClient {
			continue
		}
		coords := children(s.ID, is(spanCoordinator))
		if len(coords) != 1 {
			continue
		}
		ws := children(coords[0].ID, is(spanWorker))
		if len(ws) != 1 {
			continue
		}
		a.hops = append(a.hops, hop{client: s, coord: coords[0], worker: ws[0],
			store: children(ws[0].ID, spanName.isStore)})
	}
	for _, r := range replays {
		if r.body != nil {
			a.replays[r.rid] = r
		}
	}
	return a
}

func medianUS(ns []float64) float64 { return median(ns) / 1e3 }

// layerMetrics derives every per-layer metric of BENCHMARK.json. Layers
// the workload does not exercise report 0.
func layerMetrics(res *result, cfg config, s *setup, pA, pB *phase, before, after counters, a *analysis) {
	add := func(name string, v float64, unit string, n int) {
		res.add(metric{name: name, value: v, unit: unit, n: n, gated: true})
	}
	add("workload.record_s", s.record.Seconds(), "s", 1)
	add("workload.trace_mb", traceMB(), "MB", 0)

	// Compute, from the replays.
	var step, decode, schedRun, simRun, encode, analyze, sampleRun layerTime
	var stats core.Stats
	var switches, measured uint64
	var reportBytes, sims int
	var screening, sampled []float64
	for _, r := range a.replays {
		switch r.fidelity {
		case "":
			sims++
			step.add(r.step)
			decode.add(r.decode)
			schedRun.add(r.schedRun)
			simRun.add(r.simRun)
			encode.add(r.encode)
			stats.Add(&r.stats)
			switches += r.switches
			reportBytes += r.reportBytes
		case service.FidelityScreening:
			screening = append(screening, float64(r.runFid.ns)/1e6)
			analyze.add(r.analyze)
		case service.FidelitySampled:
			sampled = append(sampled, float64(r.runFid.ns)/1e6)
			sampleRun.add(r.sampleRun)
			measured += r.measured
		}
	}
	perEvent := func(l layerTime) float64 { return ratio(float64(l.ns), float64(l.events)) }
	add("trace.decode_events", float64(decode.events), "count", int(decode.calls))
	add("trace.decode_ns_per_event", perEvent(decode), "ns/event", int(decode.calls))
	add("core.step_events", float64(step.events), "count", int(step.calls))
	add("core.step_ns_per_event", perEvent(step), "ns/event", int(step.calls))
	add("core.sim_cycles", float64(stats.Cycles), "cycles", sims)
	add("core.cpi", stats.CPI(), "cycles/instr", sims)
	for _, c := range core.Causes() {
		add("core.cpi_stack."+causeKey(c), stats.CPIOf(c), "cycles/instr", sims)
	}
	add("core.l1i_miss_ratio", stats.L1IMissRatio(), "ratio", sims)
	add("core.l1d_miss_ratio", stats.L1DMissRatio(), "ratio", sims)
	add("core.l2_miss_ratio", stats.L2MissRatio(), "ratio", sims)
	add("sched.self_ns_per_event", ratio(float64(schedRun.ns-step.ns-decode.ns), float64(schedRun.events)), "ns/event", sims)
	add("sched.switches", float64(switches), "count", sims)
	add("sim.run_ms", ratio(float64(simRun.ns)/1e6, float64(simRun.calls)), "ms", sims)
	add("report.encode_us", ratio(float64(encode.ns)/1e3, float64(encode.calls)), "us", sims)
	add("report.bytes", ratio(float64(reportBytes), float64(sims)), "bytes", sims)
	add("stackdist.events", float64(analyze.events), "count", int(analyze.calls))
	add("stackdist.ns_per_event", perEvent(analyze), "ns/event", int(analyze.calls))
	add("sample.covered_events", float64(sampleRun.events), "count", int(sampleRun.calls))
	add("sample.ns_per_covered_event", perEvent(sampleRun), "ns/event", int(sampleRun.calls))
	add("sample.measured_share", ratio(float64(measured), float64(sampleRun.events)), "ratio", int(sampleRun.calls))
	add("experiments.screening_ms", mean(screening), "ms", len(screening))
	add("experiments.sampled_ms", mean(sampled), "ms", len(sampled))

	// Serving, from the spans and the program's own counters.
	hops := a.hops
	var hitMem, hitDisk, miss, hopNs, transportNs []float64
	perWorker := make([][]float64, workers)
	for _, h := range hops {
		d := float64(h.worker.dur())
		switch h.worker.Outcome {
		case "hit-memory":
			hitMem = append(hitMem, d)
		case "hit-disk":
			hitDisk = append(hitDisk, d)
		case "miss":
			miss = append(miss, d)
		}
		if w := int(h.worker.Worker); w >= 0 && w < workers {
			perWorker[w] = append(perWorker[w], d)
		}
		hopNs = append(hopNs, float64(h.coord.dur()-h.worker.dur()))
		transportNs = append(transportNs, float64(h.client.dur()-h.coord.dur()))
	}
	add("service.hit_memory_us", medianUS(hitMem), "us", len(hitMem))
	add("service.hit_disk_us", medianUS(hitDisk), "us", len(hitDisk))
	add("service.miss_us", medianUS(miss), "us", len(miss))
	var requests, memHits, coalesced, overloads, gets, storeHits, puts float64
	var p50Ratios []float64
	for i := range after.service {
		sa, sb := after.service[i], before.service[i]
		requests += float64(sa.Requests - sb.Requests)
		memHits += float64(sa.Cache.Hits - sb.Cache.Hits)
		coalesced += float64(sa.Coalesced - sb.Coalesced)
		overloads += float64(sa.Overloads - sb.Overloads)
		ta, tb := after.store[i], before.store[i]
		gets += float64(ta.Hits + ta.Misses - tb.Hits - tb.Misses)
		storeHits += float64(ta.Hits - tb.Hits)
		puts += float64(ta.Puts - tb.Puts)
		if m := median(perWorker[i]); m > 0 {
			p50Ratios = append(p50Ratios, sa.Latency.P50MS*1e6/m)
		}
	}
	add("service.hit_ratio", ratio(memHits+storeHits, requests), "ratio", int(requests))
	add("service.coalesced", coalesced, "count", 0)
	add("service.overloads", overloads, "count", 0)
	add("service.reported_p50_ratio", mean(p50Ratios), "ratio", len(p50Ratios))

	var getIO, putIO, syncNs float64
	var syncs int
	for _, sp := range a.spans {
		switch sp.Name {
		case spanStoreOpen, spanStoreRead, spanStoreClose:
			getIO += float64(sp.dur())
		case spanStoreWrite:
			putIO += float64(sp.dur())
		case spanStoreSync:
			syncs++
			syncNs += float64(sp.dur())
		default: // request spans and rare maintenance operations
		}
	}
	add("store.gets", gets, "count", 0)
	add("store.get_io_us", ratio(getIO/1e3, storeHits), "us", int(storeHits))
	add("store.hit_ratio", ratio(storeHits, gets), "ratio", int(gets))
	add("store.puts", puts, "count", 0)
	add("store.put_io_us", ratio(putIO/1e3, puts), "us", int(puts))
	add("store.syncs", float64(syncs), "count", 0)
	add("store.sync_ms", ratio(syncNs/1e6, float64(syncs)), "ms", syncs)

	var failovers, hedges uint64
	for _, w := range after.cluster.Workers {
		failovers += w.Routing.Failovers
		hedges += w.Routing.Hedges
	}
	for _, w := range before.cluster.Workers {
		failovers -= w.Routing.Failovers
		hedges -= w.Routing.Hedges
	}
	add("fabric.hop_us", medianUS(hopNs), "us", len(hopNs))
	add("fabric.failovers", float64(failovers), "count", 0)
	add("fabric.hedges", float64(hedges), "count", 0)

	var retries, opens uint64
	for _, c := range pB.clients {
		retries += c.Retries
		opens += c.BreakerOpens
	}
	add("client.transport_us", medianUS(transportNs), "us", len(transportNs))
	add("client.retries", float64(retries), "count", 0)
	add("client.breaker_opens", float64(opens), "count", 0)

	add("runtime.gc_cycles", float64(after.gcCycles-before.gcCycles), "count", 0)
	add("runtime.gc_pause_ms", float64(after.pauseNs-before.pauseNs)/1e6, "ms", 0)

	rpsA := float64(len(pA.latencies)) / pA.window.Seconds()
	rpsB := float64(len(pB.latencies)) / pB.window.Seconds()
	add("tracing.overhead_ratio", 1-ratio(rpsB, rpsA), "ratio", len(pB.latencies))
	res.notes = append(res.notes, fmt.Sprintf("tracing overhead: req_per_s %.4g untraced vs %.4g traced (%.1f%% drop)",
		rpsA, rpsB, 100*(1-ratio(rpsB, rpsA))),
		fmt.Sprintf("replayed %d computed requests of the traced phase", len(a.replays)))
}

// causeKey is a stall cause's metric suffix.
func causeKey(c core.Cause) string {
	switch c {
	case core.CauseCPU:
		return "cpu"
	case core.CauseL1IMiss:
		return "l1i_miss"
	case core.CauseL1DMiss:
		return "l1d_miss"
	case core.CauseL1Write:
		return "l1_write"
	case core.CauseWB:
		return "wb"
	case core.CauseL2IMiss:
		return "l2i_miss"
	case core.CauseL2DMiss:
		return "l2d_miss"
	case core.CauseTLB:
		return "tlb"
	default:
		return fmt.Sprintf("cause%d", int(c))
	}
}

func mean(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return ratio(s, float64(len(v)))
}

// selfTimeTable splits the client latency of the traced requests into
// each layer's self time: its span minus its children. Compute inside a
// worker has no span; it comes from the request's timed replay, so only
// requests that computed nothing or were replayed enter the table.
func (a *analysis) selfTimeTable(wl string) string {
	var total float64
	self := map[string]float64{}
	n := 0
	for _, h := range a.hops {
		r := a.replays[h.client.RID]
		if h.worker.Outcome == "miss" && r == nil {
			continue
		}
		n++
		total += float64(h.client.dur())
		self["client"] += float64(h.client.dur() - h.coord.dur())
		self["fabric"] += float64(h.coord.dur() - h.worker.dur())
		var st float64
		for _, s := range h.store {
			st += float64(s.dur())
		}
		self["store"] += st
		compute := 0.0
		if h.worker.Outcome == "miss" {
			compute = float64(r.simRun.ns + r.encode.ns + r.runFid.ns)
			self["sim"] += float64(r.simRun.ns - r.schedRun.ns)
			self["sched"] += float64(r.schedRun.ns - r.step.ns - r.decode.ns)
			self["core"] += float64(r.step.ns)
			self["trace"] += float64(r.decode.ns)
			self["report"] += float64(r.encode.ns)
			self["experiments"] += float64(r.runFid.ns - r.analyze.ns - r.sampleRun.ns)
			self["stackdist"] += float64(r.analyze.ns)
			self["sample"] += float64(r.sampleRun.ns)
		}
		self["service"] += float64(h.worker.dur()) - st - compute
	}
	layers := []string{"client", "fabric", "service", "store", "sim", "sched", "core", "trace", "report",
		"experiments", "stackdist", "sample"}
	var b bytes.Buffer
	fmt.Fprintf(&b, "self time per layer over %d traced requests (%.1f ms of client latency):\n", n, total/1e6)
	tw := tabwriter.NewWriter(&b, 0, 4, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "layer\tself ms\tper request us\tshare\t")
	for _, l := range layers {
		fmt.Fprintf(tw, "%s\t%.1f\t%.1f\t%.3f\t\n", l, self[l]/1e6, ratio(self[l]/1e3, float64(n)), ratio(self[l], total))
	}
	tw.Flush()
	chosen := map[string][]string{
		designSweep: {"trace", "core", "sched"},
		tierSweep:   {"stackdist", "sample"},
		hotFigures:  {"client", "fabric", "service", "store"},
	}[wl]
	var share float64
	for _, l := range chosen {
		share += ratio(self[l], total)
	}
	verdict := "yes"
	if share <= 0.5 {
		verdict = "no"
	}
	fmt.Fprintf(&b, "layers this workload was chosen for (%v): %.3f of client latency; most: %s\n", chosen, share, verdict)
	b.WriteString("(compute rows come from a separate timed replay, so the service row absorbs the replay's own timing overhead)\n")
	return b.String()
}

// spanFileRequests bounds the requests whose spans are written out; the
// table above covers every traced request.
const spanFileRequests = 2000

// writeSpans writes the spans of the first spanFileRequests requests,
// then one line per replay with its layer totals.
func writeSpans(path string, spans []span, replays []*replay) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	sorted := append([]span(nil), spans...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Start < sorted[j].Start })
	for _, s := range sorted {
		if s.RID > spanFileRequests {
			continue
		}
		_ = enc.Encode(map[string]any{"rid": s.RID, "id": s.ID, "parent": s.Parent, "name": s.Name.String(),
			"start_ns": s.Start, "end_ns": s.End, "worker": s.Worker, "outcome": s.Outcome}) // encoding plain values cannot fail
	}
	for _, r := range replays {
		layers := map[string]layerTime{"sim.run": r.simRun, "sched.run": r.schedRun, "core.step_batch": r.step,
			"trace.batch": r.decode, "report.encode": r.encode, "experiments.run_fidelity": r.runFid,
			"stackdist.analyze": r.analyze, "sample.run": r.sampleRun}
		out := map[string]any{"rid": r.rid, "replay_of_request": r.idx}
		for name, l := range layers {
			if l.calls > 0 {
				out[name] = map[string]int64{"calls": l.calls, "events": l.events, "ns": l.ns}
			}
		}
		_ = enc.Encode(out) // encoding plain values cannot fail
	}
	return errors.Join(w.Flush(), f.Close())
}
