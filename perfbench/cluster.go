package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/client"
	"repro/internal/fabric"
	"repro/internal/service"
	"repro/internal/store"
)

// workers is the fabric size: one coordinator in front of two workers.
const workers = 2

// cluster is one coordinator and its workers, serving on loopback
// inside this process. Each worker has a fresh store in its own
// directory under dir.
type cluster struct {
	url      string
	coord    *fabric.Coordinator
	nodes    []*node
	servers  []*http.Server
	serving  sync.WaitGroup
	regs     []*fabric.Registrar
	cancel   context.CancelFunc
	legHTTP  *http.Client
	dir      string
	serveErr chan error
}

type node struct {
	id    string
	url   string
	srv   *service.Server
	store *store.Store
}

// startCluster brings the fabric up and returns once both workers have
// registered through POST /v1/fabric/register. A non-nil tracer mounts
// every handler behind a span recorder and hands each store a traced FS.
func startCluster(parentDir string, tr *tracer) (*cluster, error) {
	dir, err := os.MkdirTemp(parentDir, "cluster-")
	if err != nil {
		return nil, fmt.Errorf("cluster dir: %w", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	c := &cluster{cancel: cancel, dir: dir, legHTTP: newHTTPClient(tr), serveErr: make(chan error, workers+1)}
	if err := c.start(ctx, tr); err != nil {
		c.stop()
		return nil, err
	}
	return c, nil
}

func (c *cluster) start(ctx context.Context, tr *tracer) error {
	coord, err := fabric.NewCoordinator(ctx, fabric.CoordinatorOptions{
		Client: client.Options{HTTPClient: c.legHTTP},
	})
	if err != nil {
		return err
	}
	c.coord = coord
	var h http.Handler = coord.Handler()
	if tr != nil {
		h = tr.wrap(spanCoordinator, -1, h)
	}
	if c.url, err = c.serve(h); err != nil {
		return err
	}
	for i := 0; i < workers; i++ {
		id := fmt.Sprintf("w%d", i+1)
		so := store.Options{Dir: filepath.Join(c.dir, id)}
		if tr != nil {
			so.FS = &tracedFS{base: store.OS, t: tr, worker: i}
		}
		st, err := store.Open(so)
		if err != nil {
			return err
		}
		srv, err := service.New(service.Options{CacheEntries: cacheEntries, Store: st, WorkerID: id})
		if err != nil {
			st.Close()
			return err
		}
		n := &node{id: id, srv: srv, store: st}
		c.nodes = append(c.nodes, n)
		h := srv.Handler()
		if tr != nil {
			h = tr.wrap(spanWorker, i, h)
		}
		if n.url, err = c.serve(h); err != nil {
			return err
		}
		reg, err := fabric.StartRegistrar(ctx, fabric.RegistrarOptions{
			Coordinator: c.url, ID: id, Addr: n.url,
			Stats: func() fabric.WorkerStats {
				m := srv.Metrics()
				return fabric.WorkerStats{CacheHits: m.Cache.Hits, CacheMisses: m.Cache.Misses, InFlight: m.InFlight}
			},
		})
		if err != nil {
			return err
		}
		c.regs = append(c.regs, reg)
	}
	deadline := time.Now().Add(10 * time.Second)
	for c.coord.Membership().Ring().Size() < workers {
		if time.Now().After(deadline) {
			return fmt.Errorf("workers did not register within 10s")
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// serve starts an HTTP server for h on a loopback port.
func (c *cluster) serve(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("listen: %w", err)
	}
	hs := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	c.servers = append(c.servers, hs)
	c.serving.Add(1)
	go func() {
		defer c.serving.Done()
		if err := hs.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			c.serveErr <- err
		}
	}()
	return "http://" + ln.Addr().String(), nil
}

// stop shuts the fabric down and waits for every goroutine it started:
// heartbeats first, then the HTTP servers, then the stores.
func (c *cluster) stop() error {
	c.cancel()
	for _, r := range c.regs {
		r.Wait()
	}
	// Every request has finished by now. A connection a client dialed but
	// never used holds Shutdown for 5 s, so Close ends whatever is left
	// after a second.
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	var errs []error
	for _, hs := range c.servers {
		if hs.Shutdown(ctx) != nil {
			if err := hs.Close(); err != nil {
				errs = append(errs, err)
			}
		}
	}
	c.serving.Wait()
	for _, n := range c.nodes {
		if err := n.srv.Close(); err != nil {
			errs = append(errs, err)
		}
	}
	c.legHTTP.CloseIdleConnections()
	close(c.serveErr)
	for err := range c.serveErr {
		errs = append(errs, err)
	}
	if err := os.RemoveAll(c.dir); err != nil {
		errs = append(errs, err)
	}
	return errors.Join(errs...)
}

// newHTTPClient returns a client with its own connection pool; with a
// tracer it also propagates the caller's span to the next hop.
func newHTTPClient(tr *tracer) *http.Client {
	var rt http.RoundTripper = &http.Transport{
		MaxIdleConns:        64,
		MaxIdleConnsPerHost: 16,
		IdleConnTimeout:     90 * time.Second,
		DisableCompression:  true,
	}
	if tr != nil {
		rt = spanTransport{base: rt}
	}
	return &http.Client{Transport: rt}
}
