package main

import (
	"context"
	"io/fs"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/store"
)

// spanName names the layer boundary a span was recorded at.
type spanName uint8

const (
	spanClient      spanName = iota // client.Client.PostJSON, in a load client
	spanCoordinator                 // fabric.Coordinator.Handler
	spanWorker                      // service.Server.Handler
	spanStoreOpen                   // store.FS operations of a worker's store
	spanStoreRead
	spanStoreWrite
	spanStoreSync
	spanStoreClose
	spanStoreOther
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"client.post_json", "fabric.coordinator", "service.worker",
	"store.open", "store.read_at", "store.write", "store.sync", "store.close", "store.other",
}

func (n spanName) String() string { return spanNames[n] }

func (n spanName) isStore() bool { return n >= spanStoreOpen && n <= spanStoreOther }

// span is one timed call at a layer boundary. Spans of one request share
// RID; Parent is the span that caused it (0 for a root).
type span struct {
	ID, Parent, RID int32
	Start, End      int64 // ns since the tracer started
	Name            spanName
	Worker          int8   // worker index, -1 off the workers
	Outcome         string // X-Cache (+ tier) of a handler span
}

func (s span) dur() int64 { return s.End - s.Start }

// spanHeader carries "<rid>.<parent span id>" across HTTP hops.
const spanHeader = "X-Perfbench-Span"

type spanCtx struct{ rid, id int32 }

type spanCtxKey struct{}

func withSpan(ctx context.Context, sc spanCtx) context.Context {
	return context.WithValue(ctx, spanCtxKey{}, sc)
}

func spanFrom(ctx context.Context) (spanCtx, bool) {
	sc, ok := ctx.Value(spanCtxKey{}).(spanCtx)
	return sc, ok
}

func parseSpanHeader(v string) (spanCtx, bool) {
	a, b, ok := strings.Cut(v, ".")
	if !ok {
		return spanCtx{}, false
	}
	rid, err1 := strconv.ParseInt(a, 10, 32)
	id, err2 := strconv.ParseInt(b, 10, 32)
	if err1 != nil || err2 != nil {
		return spanCtx{}, false
	}
	return spanCtx{rid: int32(rid), id: int32(id)}, true
}

// tracer keeps spans in memory until the run ends. Recording is off
// until Start, so set-up and warm-up traffic leaves no spans.
type tracer struct {
	t0    time.Time
	ids   atomic.Int32
	on    atomic.Bool
	mu    sync.Mutex
	spans []span
	// active lists each worker's handler spans in flight, so a store
	// operation (which carries no context) is attributed to the most
	// recent request on its worker.
	active [workers]inflight
}

type inflight struct {
	mu  sync.Mutex
	ids []spanCtx
}

func (f *inflight) push(sc spanCtx) {
	f.mu.Lock()
	f.ids = append(f.ids, sc)
	f.mu.Unlock()
}

func (f *inflight) remove(id int32) {
	f.mu.Lock()
	for i, sc := range f.ids {
		if sc.id == id {
			f.ids = append(f.ids[:i], f.ids[i+1:]...)
			break
		}
	}
	f.mu.Unlock()
}

func (f *inflight) latest() spanCtx {
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.ids) == 0 {
		return spanCtx{}
	}
	return f.ids[len(f.ids)-1]
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) Start() { t.on.Store(true) }
func (t *tracer) Stop()  { t.on.Store(false) }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

func (t *tracer) newID() int32 { return t.ids.Add(1) }

func (t *tracer) record(s span) {
	if !t.on.Load() {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// wrap mounts h behind a span recorder. worker is the worker index for
// a service handler, -1 for the coordinator. Requests without a span
// header (heartbeats, readiness probes, warm-up) pass through untraced.
func (t *tracer) wrap(name spanName, worker int, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, ok := parseSpanHeader(r.Header.Get(spanHeader))
		if !ok || !t.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		sc := spanCtx{rid: parent.rid, id: t.newID()}
		start := t.now()
		if worker >= 0 {
			t.active[worker].push(sc)
		}
		h.ServeHTTP(w, r.WithContext(withSpan(r.Context(), sc)))
		if worker >= 0 {
			t.active[worker].remove(sc.id)
		}
		t.record(span{ID: sc.id, Parent: parent.id, RID: parent.rid, Start: start, End: t.now(),
			Name: name, Worker: int8(worker), Outcome: outcomeOf(w.Header())})
	})
}

// outcomeOf names how a result was served: hit-memory, hit-disk, miss
// or coalesced.
func outcomeOf(h http.Header) string {
	o := h.Get("X-Cache")
	if tier := h.Get("X-Cache-Tier"); tier != "" {
		o += "-" + tier
	}
	return o
}

// spanTransport stamps the caller's span on outgoing requests, so the
// next hop's handler span can name its parent.
type spanTransport struct{ base http.RoundTripper }

func (s spanTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if sc, ok := spanFrom(req.Context()); ok {
		req = req.Clone(req.Context())
		req.Header.Set(spanHeader, strconv.Itoa(int(sc.rid))+"."+strconv.Itoa(int(sc.id)))
	}
	return s.base.RoundTrip(req)
}

// CloseIdleConnections lets http.Client.CloseIdleConnections reach the
// wrapped transport.
func (s spanTransport) CloseIdleConnections() {
	if c, ok := s.base.(interface{ CloseIdleConnections() }); ok {
		c.CloseIdleConnections()
	}
}

// tracedFS is the store.FS handed to a worker's store in the traced run:
// every filesystem operation becomes a span under the worker's request.
type tracedFS struct {
	base   store.FS
	t      *tracer
	worker int
}

func (f *tracedFS) rec(name spanName, start int64) {
	if !f.t.on.Load() {
		return
	}
	parent := f.t.active[f.worker].latest()
	f.t.record(span{ID: f.t.newID(), Parent: parent.id, RID: parent.rid, Start: start, End: f.t.now(),
		Name: name, Worker: int8(f.worker)})
}

func (f *tracedFS) OpenFile(name string, flag int, perm fs.FileMode) (store.File, error) {
	start := f.t.now()
	file, err := f.base.OpenFile(name, flag, perm)
	f.rec(spanStoreOpen, start)
	if err != nil {
		return nil, err
	}
	return &tracedFile{File: file, fs: f}, nil
}

func (f *tracedFS) Rename(oldname, newname string) error {
	start := f.t.now()
	defer f.rec(spanStoreOther, start)
	return f.base.Rename(oldname, newname)
}

func (f *tracedFS) Remove(name string) error {
	start := f.t.now()
	defer f.rec(spanStoreOther, start)
	return f.base.Remove(name)
}

func (f *tracedFS) ReadDir(dir string) ([]string, error) {
	start := f.t.now()
	defer f.rec(spanStoreOther, start)
	return f.base.ReadDir(dir)
}

func (f *tracedFS) MkdirAll(dir string, perm fs.FileMode) error {
	start := f.t.now()
	defer f.rec(spanStoreOther, start)
	return f.base.MkdirAll(dir, perm)
}

func (f *tracedFS) Size(name string) (int64, error) {
	start := f.t.now()
	defer f.rec(spanStoreOther, start)
	return f.base.Size(name)
}

func (f *tracedFS) SyncDir(dir string) error {
	start := f.t.now()
	defer f.rec(spanStoreSync, start)
	return f.base.SyncDir(dir)
}

type tracedFile struct {
	store.File
	fs *tracedFS
}

func (f *tracedFile) Write(p []byte) (int, error) {
	start := f.fs.t.now()
	defer f.fs.rec(spanStoreWrite, start)
	return f.File.Write(p)
}

func (f *tracedFile) ReadAt(p []byte, off int64) (int, error) {
	start := f.fs.t.now()
	defer f.fs.rec(spanStoreRead, start)
	return f.File.ReadAt(p, off)
}

func (f *tracedFile) Sync() error {
	start := f.fs.t.now()
	defer f.fs.rec(spanStoreSync, start)
	return f.File.Sync()
}

func (f *tracedFile) Close() error {
	start := f.fs.t.now()
	defer f.fs.rec(spanStoreClose, start)
	return f.File.Close()
}

func (f *tracedFile) Truncate(size int64) error {
	start := f.fs.t.now()
	defer f.fs.rec(spanStoreOther, start)
	return f.File.Truncate(size)
}
