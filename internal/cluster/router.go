package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"expertfind/internal/hetgraph"
	"expertfind/internal/obs"
	"expertfind/internal/serve"
	"expertfind/internal/ta"
)

// RouterConfig tunes the router's query handling.
type RouterConfig struct {
	// DefaultM/DefaultN/MaxM/MaxN mirror the single-node serve bounds.
	DefaultM, DefaultN, MaxM, MaxN int
	// QueryTimeout bounds each query end to end (504 past it); the
	// per-shard budgets of the scatter derive from what remains of it.
	QueryTimeout time.Duration
}

func (c RouterConfig) withDefaults() RouterConfig {
	if c.DefaultM <= 0 {
		c.DefaultM = 200
	}
	if c.DefaultN <= 0 {
		c.DefaultN = 10
	}
	if c.MaxM <= 0 {
		c.MaxM = 5000
	}
	if c.MaxN <= 0 {
		c.MaxN = 500
	}
	return c
}

// Router is the scatter-gather front of a sharded cluster. It holds no
// corpus: a query fans out to one replica of every shard through a
// ShardClient, once, and the router ranks experts itself with the paper's
// TA over the merged papers' author lists. Responses match the
// single-node /experts and /papers shapes byte for byte, so clients
// cannot tell the topologies apart.
type Router struct {
	mux    *http.ServeMux
	client *ShardClient
	cfg    RouterConfig
	reg    *obs.Registry
	Log    *obs.Logger
	// Traces, when set, retains assembled cross-node query traces under
	// its tail-based keep rules and serves them on /debug/traces. It also
	// switches span collection on: sub-requests ask shards to return
	// their span trees, which are grafted under the fan-out spans. Set
	// before serving.
	Traces *obs.TraceStore
	// SlowQuery, when positive, logs one structured warn line (with
	// trace id) for every query at least this slow. Set before serving.
	SlowQuery time.Duration

	bootOK atomic.Bool
	ready  atomic.Bool
}

// NewRouter assembles a router over a shard client.
func NewRouter(client *ShardClient, cfg RouterConfig, reg *obs.Registry, log *obs.Logger) *Router {
	if reg == nil {
		reg = obs.Default()
	}
	if log == nil {
		log = obs.NopLogger()
	}
	obs.RegisterCluster(reg)
	rt := &Router{
		mux:    http.NewServeMux(),
		client: client,
		cfg:    cfg.withDefaults(),
		reg:    reg,
		Log:    log,
	}
	rt.ready.Store(true)
	rt.mux.HandleFunc("/experts", rt.handleExperts)
	rt.mux.HandleFunc("/papers", rt.handlePapers)
	rt.mux.HandleFunc("/healthz", rt.handleHealth)
	rt.mux.HandleFunc("/readyz", rt.handleReady)
	rt.mux.HandleFunc("/metrics", rt.handleMetrics)
	rt.mux.HandleFunc("/debug/vars", rt.handleDebugVars)
	rt.mux.HandleFunc("/debug/traces", rt.handleTraces)
	rt.mux.HandleFunc("/debug/traces/", rt.handleTraces)
	return rt
}

// SetReady flips the router's own readiness contribution (shutdown sets
// it false so probes drain traffic away; shard readiness is evaluated on
// top of it).
func (rt *Router) SetReady(ready bool) { rt.ready.Store(ready) }

// ServeHTTP wraps the routes in the same observability envelope as the
// single-node server: request IDs, per-route latency and status metrics,
// one access-log line per request.
func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	reqID := r.Header.Get("X-Request-ID")
	if reqID == "" {
		reqID = obs.NewRequestID()
	}
	w.Header().Set("X-Request-ID", reqID)
	route := "other"
	switch r.URL.Path {
	case "/experts", "/papers", "/healthz", "/readyz", "/metrics", "/debug/vars", "/debug/traces":
		route = r.URL.Path
	}
	if strings.HasPrefix(r.URL.Path, "/debug/traces/") {
		route = "/debug/traces"
	}
	inflight := rt.reg.Gauge("expertfind_http_in_flight", "Requests currently being served.")
	inflight.Add(1)
	sw := &routerStatusWriter{ResponseWriter: w}
	// Propagate the request ID to shard sub-requests through the context,
	// and set up the trace plumbing: the registry for span recording, a
	// capture that hands the query handler's root span back here, and —
	// when a trace store is attached — the collect flag that makes
	// sub-requests ask shards for their span trees.
	ctx := context.WithValue(r.Context(), requestIDKey{}, reqID)
	ctx = obs.WithRegistry(ctx, rt.reg)
	var capture *obs.TraceCapture
	if route == "/experts" || route == "/papers" {
		ctx, capture = obs.WithTraceCapture(ctx)
		if rt.Traces != nil {
			ctx = withCollect(ctx)
		}
	}
	r = r.WithContext(ctx)
	rt.mux.ServeHTTP(sw, r)
	inflight.Add(-1)
	if sw.code == 0 {
		sw.code = http.StatusOK
	}
	dur := time.Since(start)
	durMs := float64(dur.Microseconds()) / 1000
	traceID := rt.finishTrace(capture, r, route, sw.code, durMs)
	rt.reg.Counter("expertfind_http_requests_total", "HTTP requests by route and status code.",
		obs.L("route", route), obs.L("code", strconv.Itoa(sw.code))).Inc()
	rt.reg.Histogram("expertfind_http_request_seconds", "HTTP request latency by route.",
		nil, obs.L("route", route)).ObserveWithExemplar(dur.Seconds(), traceID)
	rt.Log.Info("access", "req_id", reqID, "method", r.Method, "path", r.URL.Path,
		"route", route, "status", sw.code, "bytes", sw.bytes,
		"dur_ms", durMs)
}

// finishTrace offers the assembled trace to the store and emits the
// slow-query log line. Returns the query's trace id, or "".
func (rt *Router) finishTrace(capture *obs.TraceCapture, r *http.Request, route string,
	status int, durMs float64) string {
	if capture == nil {
		return ""
	}
	root := capture.Root()
	if root == nil {
		return ""
	}
	traceID := root.TraceID().String()
	if rt.Traces != nil {
		tree := root.Tree()
		rt.Traces.Add(obs.TraceRecord{
			TraceID:    traceID,
			Route:      route,
			Query:      r.URL.Query().Get("q"),
			Status:     status,
			Start:      root.Start(),
			DurationMs: durMs,
			Root:       tree,
		}, obs.KeepFlags{
			Error:  status >= 500,
			Hedged: tree.HasAttr("hedge"),
		})
	}
	if rt.SlowQuery > 0 && durMs >= rt.SlowQuery.Seconds()*1000 {
		rt.reg.Counter("expertfind_slow_queries_total",
			"Queries slower than the slow-query log threshold.").Inc()
		rt.Log.Warn("slow_query", "trace_id", traceID, "route", route,
			"q", r.URL.Query().Get("q"), "status", status, "dur_ms", durMs)
	}
	return traceID
}

func (rt *Router) handleTraces(w http.ResponseWriter, r *http.Request) {
	serve.ServeTraces(w, r, rt.Traces, rt.writeJSON)
}

type requestIDKey struct{}

type routerStatusWriter struct {
	http.ResponseWriter
	code  int
	bytes int64
}

func (w *routerStatusWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *routerStatusWriter) Write(p []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(p)
	w.bytes += int64(n)
	return n, err
}

func (rt *Router) queryContext(r *http.Request) (context.Context, context.CancelFunc) {
	if rt.cfg.QueryTimeout <= 0 {
		return r.Context(), func() {}
	}
	return context.WithTimeout(r.Context(), rt.cfg.QueryTimeout)
}

// writeRouterError maps fan-out failures onto client statuses: a whole
// shard down is 502 (the merge would be silently wrong without its
// partials — correctness beats availability), an expired budget is 504,
// a departed client 499, bad parameters 400.
func (rt *Router) writeRouterError(w http.ResponseWriter, err error) bool {
	if err == nil {
		return false
	}
	var se *shardError
	switch {
	case errors.As(err, &se):
		if errors.Is(err, context.DeadlineExceeded) {
			http.Error(w, "query deadline exceeded", http.StatusGatewayTimeout)
			return true
		}
		rt.reg.Counter("expertfind_cluster_shard_unavailable_total",
			"Queries failed because a whole shard (every replica) was unreachable.").Inc()
		http.Error(w, err.Error(), http.StatusBadGateway)
	case errors.Is(err, context.DeadlineExceeded):
		http.Error(w, "query deadline exceeded", http.StatusGatewayTimeout)
	case errors.Is(err, context.Canceled):
		http.Error(w, "client closed request", 499)
	default:
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
	return true
}

func (rt *Router) intParam(r *http.Request, name string, def, max int) (int, error) {
	raw := r.URL.Query().Get(name)
	if raw == "" {
		return def, nil
	}
	v, err := strconv.Atoi(raw)
	if err != nil || v < 1 {
		return 0, fmt.Errorf("parameter %s must be a positive integer", name)
	}
	if v > max {
		return 0, fmt.Errorf("parameter %s exceeds the maximum %d", name, max)
	}
	return v, nil
}

// startFanout opens the per-shard fan-out span under ctx: the parent of
// this sub-request's rpc attempts and the graft point for the shard's
// returned span tree.
func startFanout(ctx context.Context, shard int) (context.Context, *obs.Span) {
	fctx, span := obs.StartSpan(ctx, "fanout")
	span.Annotate("shard", strconv.Itoa(shard))
	return fctx, span
}

// scatterPapers fans GET /shard/papers out to every shard, with extra
// appended to the query string, and returns the per-shard results. Any
// shard failing entirely fails the query.
func (rt *Router) scatterPapers(ctx context.Context, q string, m int, extra string) ([]*PapersResponse, error) {
	s := rt.client.NumShards()
	path := "/shard/papers?q=" + url.QueryEscape(q) + "&m=" + strconv.Itoa(m) + extra
	resps := make([]*PapersResponse, s)
	errs := make([]error, s)
	var wg sync.WaitGroup
	for i := 0; i < s; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			fctx, fanout := startFanout(ctx, i)
			defer fanout.End()
			b, err := rt.client.Get(fctx, i, path)
			if err != nil {
				errs[i] = err
				return
			}
			var pr PapersResponse
			if err := json.Unmarshal(b, &pr); err != nil {
				errs[i] = &shardError{shard: i, err: fmt.Errorf("bad papers payload: %w", err)}
				return
			}
			fanout.End()
			if pr.Trace != nil {
				fanout.Graft(*pr.Trace)
			}
			resps[i] = &pr
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return resps, nil
}

// mergePapers combines per-shard retrieval lists into the global top-m by
// (distance ascending, id ascending) — the exact comparator of the
// single-node brute-force retrieval, applied to the same distance bits,
// so the merged list equals the single-node list when shards retrieve
// exactly. Position i holds global rank i+1.
func mergePapers(resps []*PapersResponse, m int) []WirePaper {
	var all []WirePaper
	for _, r := range resps {
		all = append(all, r.Papers...)
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Dist != all[j].Dist {
			return all[i].Dist < all[j].Dist
		}
		return all[i].ID < all[j].ID
	})
	if len(all) > m {
		all = all[:m]
	}
	return all
}

// rankExperts serves one /experts query in one round trip per shard: the
// scatter returns each owned retrieved paper's byline, the merge assigns
// global ranks, and the paper's TA runs here over the merged bylines —
// the single-node computation over the same retrieved list, so ranking,
// score bits and stats match it exactly.
func (rt *Router) rankExperts(ctx context.Context, q string, m, n int) ([]serve.ExpertResult, ta.Stats, error) {
	sctx, sp := obs.StartSpan(ctx, "scatter_papers")
	resps, err := rt.scatterPapers(sctx, q, m, "&authors=1")
	sp.End()
	if err != nil {
		return nil, ta.Stats{}, err
	}
	_, mp := obs.StartSpan(ctx, "merge_papers")
	papers := mergePapers(resps, m)
	bylines := make([][]hetgraph.NodeID, len(papers))
	for j, p := range papers {
		bylines[j] = p.AuthorIDs
	}
	mp.End()

	rctx, rk := obs.StartSpan(ctx, "rank")
	ranked, st, err := ta.TopExpertsAuthorsCtx(rctx, bylines, n)
	rk.End()
	if err != nil {
		return nil, st, err
	}
	pos := make(map[hetgraph.NodeID]int, len(ranked))
	out := make([]serve.ExpertResult, len(ranked))
	for i, r := range ranked {
		pos[r.Expert] = i
		out[i] = serve.ExpertResult{Rank: i + 1, ID: int32(r.Expert), Score: r.Score}
	}
	for _, r := range resps {
		for _, row := range r.AuthorTable {
			if i, ok := pos[row.ID]; ok {
				out[i].Name, out[i].Papers = row.Name, row.Papers
			}
		}
	}
	return out, st, nil
}

func (rt *Router) handleExperts(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	q := r.URL.Query().Get("q")
	if q == "" {
		http.Error(w, "missing q parameter", http.StatusBadRequest)
		return
	}
	n, err := rt.intParam(r, "n", rt.cfg.DefaultN, rt.cfg.MaxN)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	m, err := rt.intParam(r, "m", rt.cfg.DefaultM, rt.cfg.MaxM)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	ctx, cancel := rt.queryContext(r)
	defer cancel()

	// The root span of the distributed query: every fan-out, retry and
	// hedge below shares its trace id, and the middleware capture picks
	// it up for the trace store.
	qctx, root := obs.StartSpan(ctx, "query")
	experts, st, err := rt.rankExperts(qctx, q, m, n)
	root.End()
	if rt.writeRouterError(w, err) {
		return
	}
	resp := serve.ExpertsResponse{
		Query:      q,
		ResponseMs: float64(time.Since(start).Microseconds()) / 1000,
		Candidates: st.Candidates,
		TADepth:    st.Depth,
		Experts:    experts,
	}
	if r.URL.Query().Get("debug") == "1" {
		resp.Debug = &serve.QueryDebug{
			TraceID: root.TraceID().String(),
			Stages:  serve.StagesFromTree(root.Tree()),
		}
	}
	rt.writeJSON(w, resp)
}

func (rt *Router) handlePapers(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query().Get("q")
	if q == "" {
		http.Error(w, "missing q parameter", http.StatusBadRequest)
		return
	}
	m, err := rt.intParam(r, "m", rt.cfg.DefaultN, rt.cfg.MaxM)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	ctx, cancel := rt.queryContext(r)
	defer cancel()
	qctx, root := obs.StartSpan(ctx, "papers")
	resps, err := rt.scatterPapers(qctx, q, m, "&meta=1")
	root.End()
	if rt.writeRouterError(w, err) {
		return
	}
	merged := mergePapers(resps, m)
	out := make([]serve.PaperResult, 0, len(merged))
	for i, p := range merged {
		out = append(out, serve.PaperResult{
			Rank:    i + 1,
			ID:      p.ID,
			Text:    runeTruncate(p.Text, 120),
			Authors: p.Authors,
		})
	}
	rt.writeJSON(w, out)
}

// RouterHealth is the router's /healthz payload.
type RouterHealth struct {
	serve.Topology
	AliveReplicas []int `json:"alive_replicas"`
}

func (rt *Router) handleHealth(w http.ResponseWriter, r *http.Request) {
	rt.writeJSON(w, RouterHealth{
		Topology: serve.Topology{
			Role:     "router",
			Shards:   rt.client.NumShards(),
			Replicas: rt.client.Replicas(),
		},
		AliveReplicas: rt.client.AliveReplicas(),
	})
}

// handleReady gates traffic on the whole topology: at boot the router
// scans every shard for a ready replica once; afterwards a shard losing
// all its non-ejected replicas flips readiness off until a probe
// re-admits one.
func (rt *Router) handleReady(w http.ResponseWriter, r *http.Request) {
	notReady := func(why string) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintf(w, "{\n  \"status\": %q\n}\n", why)
	}
	if !rt.ready.Load() {
		notReady("draining")
		return
	}
	if !rt.bootOK.Load() {
		if !rt.client.CheckReady(r.Context()) {
			notReady("waiting for shards")
			return
		}
		rt.bootOK.Store(true)
	}
	for shard, alive := range rt.client.AliveReplicas() {
		if alive == 0 {
			notReady(fmt.Sprintf("shard %d has no live replicas", shard))
			return
		}
	}
	rt.writeJSON(w, serve.ReadyResponse{Status: "ready"})
}

func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if obs.AcceptsOpenMetrics(r.Header.Get("Accept")) {
		w.Header().Set("Content-Type", obs.ContentTypeOpenMetrics)
		rt.reg.WriteOpenMetrics(w)
		return
	}
	w.Header().Set("Content-Type", obs.ContentTypeText)
	rt.reg.WritePrometheus(w)
}

func (rt *Router) handleDebugVars(w http.ResponseWriter, r *http.Request) {
	rt.writeJSON(w, rt.reg.Snapshot())
}

func (rt *Router) writeJSON(w http.ResponseWriter, v interface{}) {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		http.Error(w, "response encoding failed", http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(append(b, '\n'))
}

// runeTruncate shortens s to at most n runes plus an ellipsis, matching
// the single-node /papers text truncation.
func runeTruncate(s string, n int) string {
	seen := 0
	for i := range s {
		if seen == n {
			return s[:i] + "..."
		}
		seen++
	}
	return s
}
