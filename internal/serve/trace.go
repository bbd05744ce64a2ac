package serve

import (
	"net/http"
	"strings"

	"expertfind/internal/obs"
)

// QueryDebug is the opt-in (?debug=1) diagnostics block of an /experts
// response: the query's trace id (joinable against /debug/traces and the
// slow-query log) and its per-stage latency breakdown.
type QueryDebug struct {
	TraceID string        `json:"trace_id,omitempty"`
	Stages  []StageTiming `json:"stages,omitempty"`
}

// StageTiming is one stage of a query's latency breakdown.
type StageTiming struct {
	Name string  `json:"name"`
	Ms   float64 `json:"ms"`
}

// StagesFromTree flattens the direct children of an assembled span tree
// into a stage breakdown — the router's ?debug=1 view of its fan-out.
func StagesFromTree(root obs.SpanNode) []StageTiming {
	out := make([]StageTiming, 0, len(root.Children))
	for _, c := range root.Children {
		out = append(out, StageTiming{Name: c.Name, Ms: float64(c.DurationNano) / 1e6})
	}
	return out
}

// TraceIndexResponse is the /debug/traces payload.
type TraceIndexResponse struct {
	Count  int                `json:"count"`
	Traces []obs.TraceSummary `json:"traces"`
}

// TraceResponse is the /debug/traces/{id} payload. Records is a slice
// because one node can retain several records for a trace (a shard
// that serves a retried sub-request of one query twice).
type TraceResponse struct {
	TraceID string            `json:"trace_id"`
	Records []obs.TraceRecord `json:"records"`
}

// ServeTraces answers both /debug/traces (index) and /debug/traces/{id}
// (full span trees) from store. Shared by the single-node/shard server
// and the cluster router, which carry different response plumbing —
// hence the writeJSON callback.
func ServeTraces(w http.ResponseWriter, r *http.Request, store *obs.TraceStore,
	writeJSON func(http.ResponseWriter, interface{})) {
	if store == nil {
		http.Error(w, "trace store disabled (enable with -trace-capacity)", http.StatusNotFound)
		return
	}
	id := strings.TrimPrefix(r.URL.Path, "/debug/traces")
	id = strings.Trim(id, "/")
	if id == "" {
		idx := store.Index()
		writeJSON(w, TraceIndexResponse{Count: len(idx), Traces: idx})
		return
	}
	recs := store.Get(id)
	if len(recs) == 0 {
		http.Error(w, "trace not found (evicted, dropped by keep rules, or never sampled)",
			http.StatusNotFound)
		return
	}
	writeJSON(w, TraceResponse{TraceID: id, Records: recs})
}

// tracedRoutes are the routes whose root spans feed the trace store: the
// query-serving paths, public and internal. Health, metrics and debug
// endpoints stay untraced.
var tracedRoutes = map[string]bool{
	"/experts":      true,
	"/papers":       true,
	"/similar":      true,
	"/shard/papers": true,
}

// enrichContext prepares a request context for tracing: the metric
// registry for span recording, any remote trace context extracted from
// the TraceHeader, and — on traced routes — a capture that hands the
// handler's root span back to the middleware. The returned capture is
// nil on untraced routes.
func enrichContext(r *http.Request, reg *obs.Registry, route string) (*http.Request, *obs.TraceCapture) {
	ctx := obs.WithRegistry(r.Context(), reg)
	if tc, ok := obs.ParseTraceContext(r.Header.Get(obs.TraceHeader)); ok {
		ctx = obs.ContextWithRemote(ctx, tc)
	}
	var capture *obs.TraceCapture
	if tracedRoutes[route] {
		ctx, capture = obs.WithTraceCapture(ctx)
	}
	return r.WithContext(ctx), capture
}

// finishTrace runs the middleware's tail work for one request: offer the
// captured root to the trace store under the tail-based keep rules, and
// emit the slow-query log line. Returns the trace id ("" when the
// request produced no span — e.g. a cache hit).
func (s *Server) finishTrace(capture *obs.TraceCapture, r *http.Request, route string,
	status int, durMs float64) string {
	if capture == nil {
		return ""
	}
	root := capture.Root()
	if root == nil {
		return ""
	}
	traceID := root.TraceID().String()
	if s.Traces != nil {
		tree := root.Tree()
		s.Traces.Add(obs.TraceRecord{
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
	if s.SlowQuery > 0 && durMs >= s.SlowQuery.Seconds()*1000 {
		s.reg.Counter("expertfind_slow_queries_total",
			"Queries slower than the slow-query log threshold.").Inc()
		s.Log.Warn("slow_query",
			"trace_id", traceID,
			"route", route,
			"q", r.URL.Query().Get("q"),
			"status", status,
			"dur_ms", durMs,
		)
	}
	return traceID
}

// handleTraces serves /debug/traces and /debug/traces/{id}.
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	ServeTraces(w, r, s.Traces, s.writeJSON)
}
