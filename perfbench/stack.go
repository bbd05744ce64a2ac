package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"expertfind/internal/cluster"
	"expertfind/internal/core"
	"expertfind/internal/dataset"
	"expertfind/internal/durable"
	"expertfind/internal/obs"
	"expertfind/internal/pgindex"
	"expertfind/internal/serve"
	"expertfind/internal/ta"
	"expertfind/internal/train"
)

// Served defaults, copied from cmd/expertserve's flag defaults so the
// benchmark measures the configuration that binary serves.
const (
	servedDim        = 64
	servedSeed       = 7
	servedM          = 200
	servedN          = 10
	servedCache      = 4096
	servedCacheTTL   = 5 * time.Minute
	servedTimeout    = 2 * time.Second
	servedInflight   = 256
	servedTraceCap   = 512
	servedTraceSlow  = 32
	servedTraceEvery = 64
	numShards        = 2
)

// setupBreakdown is where one set-up's time went, by layer.
type setupBreakdown struct {
	Total    time.Duration
	Build    core.BuildStats
	Triples  float64
	Carve    time.Duration // sharded-read: both NewShardEngine calls
	Snapshot time.Duration // write-mix: the store's first snapshot
}

// stack is one served topology, listening on loopback.
type stack struct {
	data    *dataset.Dataset
	eng     *core.Engine
	reg     *obs.Registry // engine and shard servers
	rreg    *obs.Registry // router (sharded-read only)
	shards  []*cluster.ShardEngine
	store   *core.Store
	dataDir string
	url     string // where clients send /experts, /papers, /add, /similar

	// trace, when set, receives a span for every request the servers
	// handle; nil during untraced loops.
	trace atomic.Pointer[recorder]

	cancel  context.CancelFunc // stops router probes
	servers []*http.Server
	wg      sync.WaitGroup
}

// newStack builds the workload's topology from scratch — corpus, engine,
// shards or durable store — and starts its HTTP servers. Everything it
// does counts as set-up time.
func newStack(w workload, papers int, dir string) (*stack, setupBreakdown, error) {
	start := time.Now()
	var bd setupBreakdown
	st := &stack{reg: obs.NewRegistry()}
	st.data = dataset.Generate(dataset.AminerSim(papers))
	build := func() (*core.Engine, error) {
		return core.Build(st.data.Graph, core.Options{Dim: servedDim, Seed: servedSeed, Metrics: st.reg})
	}
	var err error
	if w.durable {
		st.dataDir = dir
		if err := os.RemoveAll(dir); err != nil {
			return nil, bd, err
		}
		st.store, err = core.OpenStore(dir, st.data.Graph, build, core.StoreOptions{
			Sync:         durable.SyncAlways,
			SyncEvery:    50 * time.Millisecond,
			SegmentBytes: 4 << 20,
			Metrics:      st.reg,
		})
		if err == nil {
			st.eng = st.store.Engine()
			bd.Snapshot = time.Duration(histogramSum(st.reg, "expertfind_snapshot_seconds") * float64(time.Second))
		}
	} else {
		st.eng, err = build()
	}
	if err != nil {
		return nil, bd, fmt.Errorf("set-up: %w", err)
	}
	bd.Build = st.eng.Stats()
	bd.Triples = counter(st.reg, "expertfind_build_triples_sampled_total")
	st.eng.EnableQueryCache(core.CacheConfig{MaxEntries: servedCache, TTL: servedCacheTTL})

	if w.sharded {
		carve := time.Now()
		idx := pgindex.DefaultConfig()
		idx.Seed = servedSeed
		for i := 0; i < numShards; i++ {
			se, err := cluster.NewShardEngine(st.eng, cluster.ShardConfig{ID: i, Of: numShards, Index: idx, UsePGIndex: true})
			if err != nil {
				return nil, bd, fmt.Errorf("set-up: %w", err)
			}
			st.shards = append(st.shards, se)
		}
		bd.Carve = time.Since(carve)
		err = st.startCluster()
	} else {
		srv := st.newServer()
		var addr string
		addr, err = st.listen(srv, "serve")
		st.url = "http://" + addr
	}
	if err != nil {
		st.close()
		return nil, bd, fmt.Errorf("set-up: %w", err)
	}
	bd.Total = time.Since(start)
	return st, bd, nil
}

// reclaimSinks makes the stack's registry the pipeline packages'
// measurement sink again. serve.New installs its engine's registry as
// the package-wide sink, so building another stack takes the PG-Index,
// TA and training counters away from this one.
func (st *stack) reclaimSinks() {
	pgindex.SetSink(st.reg)
	ta.SetSink(st.reg)
	train.SetSink(st.reg)
}

// newServer mirrors expertserve's single/shard server wiring.
func (st *stack) newServer() *serve.Server {
	srv := serve.New(st.eng)
	srv.QueryTimeout = servedTimeout
	srv.MaxInFlight = servedInflight
	srv.Traces = newTraceStore(st.reg)
	srv.SetReady(true)
	return srv
}

func newTraceStore(reg *obs.Registry) *obs.TraceStore {
	return obs.NewTraceStore(obs.TracePolicy{
		Capacity: servedTraceCap, SlowestN: servedTraceSlow, SampleEvery: servedTraceEvery,
	}, reg)
}

// startCluster serves each shard on its own listener and puts a router
// over them, as `expertserve -role shard` and `-role router` do.
func (st *stack) startCluster() error {
	var addrs [][]string
	for i, se := range st.shards {
		srv := st.newServer()
		cluster.MountShard(srv, se)
		addr, err := st.listen(srv, "shard"+strconv.Itoa(i))
		if err != nil {
			return err
		}
		addrs = append(addrs, []string{addr})
	}
	st.rreg = obs.NewRegistry()
	client, err := cluster.NewShardClient(addrs, cluster.ClientConfig{
		Retries: 2, EjectAfter: 3, ProbeInterval: 2 * time.Second,
	}, st.rreg, nil)
	if err != nil {
		return err
	}
	ctx, cancel := context.WithCancel(context.Background())
	st.cancel = cancel
	client.StartProbes(ctx)
	router := cluster.NewRouter(client, cluster.RouterConfig{QueryTimeout: servedTimeout}, st.rreg, nil)
	router.Traces = newTraceStore(st.rreg)
	addr, err := st.listen(router, "serve")
	st.url = "http://" + addr
	return err
}

// listen serves h on a fresh loopback port. The span wrapper costs one
// atomic load per request when tracing is off, in every run alike.
func (st *stack) listen(h http.Handler, name string) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: &spanHandler{next: h, name: name, st: st}, ReadHeaderTimeout: 5 * time.Second}
	st.servers = append(st.servers, srv)
	st.wg.Add(1)
	go func() {
		defer st.wg.Done()
		if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "perfbench: server:", err)
		}
	}()
	return ln.Addr().String(), nil
}

// close stops the servers and probes and waits for them, then closes
// the durable store. The caller removes the data directory.
func (st *stack) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, s := range st.servers {
		_ = s.Shutdown(ctx) // best effort: Close below forces the rest
		s.Close()
	}
	st.wg.Wait()
	if st.cancel != nil {
		st.cancel()
	}
	if st.store != nil {
		return st.store.Close()
	}
	return nil
}

// spanHandler records one span per request while a recorder is
// installed, parented by the operation id the client put in
// X-Request-ID (the router forwards it to the shards).
type spanHandler struct {
	next http.Handler
	name string
	st   *stack
}

func (h *spanHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rec := h.st.trace.Load()
	if rec == nil {
		h.next.ServeHTTP(w, r)
		return
	}
	start := time.Now()
	h.next.ServeHTTP(w, r)
	end := time.Now()
	op, ok := parseOpID(r.Header.Get("X-Request-ID"))
	if !ok {
		return
	}
	if h.name == "serve" {
		rec.add(span{Op: op, ID: servedSpanID(op, 1), Parent: servedSpanID(op, 0), Name: "serve"}, start, end)
	} else {
		rec.add(span{Op: op, ID: rec.newID(), Parent: servedSpanID(op, 1), Name: "cluster.shard"}, start, end)
	}
}

func counter(reg *obs.Registry, name string, labels ...obs.Label) float64 {
	return reg.Counter(name, "", labels...).Value()
}

func histogramSum(reg *obs.Registry, name string, labels ...obs.Label) float64 {
	return reg.Histogram(name, "", nil, labels...).Sum()
}

// copyDir copies a store directory as a crashed process leaves it, so
// the restart check reopens it while the live store stays untouched.
func copyDir(src, dst string) error {
	return filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, b, 0o644)
	})
}
