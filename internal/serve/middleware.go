package serve

import (
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"

	"expertfind/internal/obs"
)

// knownRoutes bounds the route label's cardinality: anything else is
// folded into "other" so a path-scanning client cannot grow the registry
// without bound.
var knownRoutes = map[string]string{
	"/experts":      "/experts",
	"/papers":       "/papers",
	"/similar":      "/similar",
	"/add":          "/add",
	"/healthz":      "/healthz",
	"/readyz":       "/readyz",
	"/metrics":      "/metrics",
	"/debug/vars":   "/debug/vars",
	"/debug/traces": "/debug/traces",
	"/shard/papers": "/shard/papers",
}

func routeLabel(path string) string {
	if r, ok := knownRoutes[path]; ok {
		return r
	}
	if len(path) >= len("/debug/pprof/") && path[:len("/debug/pprof/")] == "/debug/pprof/" {
		return "/debug/pprof"
	}
	if len(path) >= len("/debug/traces/") && path[:len("/debug/traces/")] == "/debug/traces/" {
		return "/debug/traces"
	}
	return "other"
}

// statusWriter captures the response code and body size for metrics and
// the access log.
type statusWriter struct {
	http.ResponseWriter
	code  int
	bytes int64
}

func (w *statusWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(p)
	w.bytes += int64(n)
	return n, err
}

// ServeHTTP implements http.Handler: the observability middleware around
// the route mux. Each request gets a request ID (honouring an incoming
// X-Request-ID so ids propagate across services), an access-log line, and
// per-route metrics. Query routes additionally run under a trace-aware
// context: an incoming X-Trace-Context joins the request to its
// originating distributed trace, and the handler's root span is captured
// here — rather than wrapped in a middleware span, which would rename
// every stage metric series — for trace retention, exemplars and the
// slow-query log.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	reqID := r.Header.Get("X-Request-ID")
	if reqID == "" {
		reqID = obs.NewRequestID()
	}
	w.Header().Set("X-Request-ID", reqID)
	route := routeLabel(r.URL.Path)
	r, capture := enrichContext(r, s.reg, route)

	inflight := s.reg.Gauge("expertfind_http_in_flight", "Requests currently being served.")
	inflight.Add(1)
	sw := &statusWriter{ResponseWriter: w}
	s.mux.ServeHTTP(sw, r)
	inflight.Add(-1)

	if sw.code == 0 { // handler wrote nothing at all
		sw.code = http.StatusOK
	}
	dur := time.Since(start)
	durMs := float64(dur.Microseconds()) / 1000
	traceID := s.finishTrace(capture, r, route, sw.code, durMs)
	s.reg.Counter("expertfind_http_requests_total", "HTTP requests by route and status code.",
		obs.L("route", route), obs.L("code", strconv.Itoa(sw.code))).Inc()
	s.reg.Histogram("expertfind_http_request_seconds", "HTTP request latency by route.",
		nil, obs.L("route", route)).ObserveWithExemplar(dur.Seconds(), traceID)
	s.Log.Info("access",
		"req_id", reqID,
		"method", r.Method,
		"path", r.URL.Path,
		"route", route,
		"status", sw.code,
		"bytes", sw.bytes,
		"dur_ms", durMs,
	)
}

// handleMetrics serves the registry in the Prometheus text exposition
// format; scrapers that negotiate OpenMetrics via Accept additionally
// get histogram exemplars, which the classic 0.0.4 parser rejects.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if obs.AcceptsOpenMetrics(r.Header.Get("Accept")) {
		w.Header().Set("Content-Type", obs.ContentTypeOpenMetrics)
		s.reg.WriteOpenMetrics(w)
		return
	}
	w.Header().Set("Content-Type", obs.ContentTypeText)
	s.reg.WritePrometheus(w)
}

// handleDebugVars serves a JSON snapshot of every metric, histograms
// summarised as count/sum/p50/p90/p99 — a quick human-readable mirror of
// /metrics in the expvar tradition.
func (s *Server) handleDebugVars(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, s.reg.Snapshot())
}

// EnablePprof mounts the net/http/pprof profiling handlers under
// /debug/pprof/. Off by default: profiling endpoints can stall the
// process (CPU profiles block for their duration) and belong behind an
// operator flag.
func (s *Server) EnablePprof() {
	s.mux.HandleFunc("/debug/pprof/", pprof.Index)
	s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}
