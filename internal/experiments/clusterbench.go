package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"expertfind/internal/cluster"
	"expertfind/internal/core"
	"expertfind/internal/dataset"
	"expertfind/internal/obs"
	"expertfind/internal/serve"
)

// ClusterBenchReport is the payload of BENCH_cluster.json: single-node
// query latency against a real router-over-HTTP-shards topology on the
// same corpus and query set. Latencies are milliseconds, measured at the
// client of each topology.
type ClusterBenchReport struct {
	Dataset string `json:"dataset"`
	Papers  int    `json:"papers"`
	Queries int    `json:"queries"`

	SingleP50Ms float64 `json:"single_p50_ms"`
	SingleP99Ms float64 `json:"single_p99_ms"`

	Topologies []ClusterTopologyReport `json:"topologies"`
}

// ClusterTopologyReport measures one router+S-shards deployment.
type ClusterTopologyReport struct {
	Shards int `json:"shards"`

	P50Ms float64 `json:"p50_ms"`
	P99Ms float64 `json:"p99_ms"`

	// WireBytesPerQuery is the mean shard-response volume the router read
	// per query.
	WireBytesPerQuery float64 `json:"wire_bytes_per_query"`
	// RoundTripsPerQuery is the mean number of shard sub-requests per
	// query, counted from the router's fan-out latency observations.
	RoundTripsPerQuery float64 `json:"round_trips_per_query"`

	// Warm p50 over a replay of the query set with trace retention off
	// versus on (span collection headers, shard tree export in the
	// envelope, router-side assembly and ring retention) — the tracing
	// overhead delta. Both replays run against pre-warmed routers.
	WarmP50NoTraceMs float64 `json:"warm_p50_no_trace_ms"`
	WarmP50TraceMs   float64 `json:"warm_p50_trace_ms"`
	// TraceOverheadPct is (traced - untraced) / untraced * 100.
	TraceOverheadPct float64 `json:"trace_overhead_pct"`
}

// RunClusterBench builds one engine, serves it single-node style, then
// re-serves the same corpus as router + {2, 4} shards over real loopback
// HTTP and replays the same query set against each topology. Retrieval is
// exact (brute force) in every topology so the rankings are identical and
// the comparison is pure serving overhead: fan-out, wire, merge.
func RunClusterBench(sc Scale) ClusterBenchReport {
	ds := dataset.Generate(dataset.AminerSim(sc.Papers))
	eng, err := core.Build(ds.Graph, core.Options{
		Dim: sc.Dim, Seed: sc.Seed, UsePGIndex: core.Bool(false),
	})
	if err != nil {
		panic(err)
	}
	queries := ds.Queries(sc.Queries, rand.New(rand.NewSource(sc.Seed)))
	rep := ClusterBenchReport{Dataset: "aminer-sim", Papers: sc.Papers, Queries: len(queries)}

	// Single node over HTTP, so both topologies pay the same envelope.
	single := serve.New(eng)
	single.SetReady(true)
	singleAddr, stopSingle := serveOnLoopback(single)
	lat := make([]time.Duration, 0, len(queries))
	for _, q := range queries {
		lat = append(lat, timeExpertsQuery(singleAddr, q.Text, sc.M, sc.N))
	}
	stopSingle()
	rep.SingleP50Ms = durPercentile(lat, 0.50)
	rep.SingleP99Ms = durPercentile(lat, 0.99)

	for _, s := range []int{2, 4} {
		rep.Topologies = append(rep.Topologies, runClusterTopology(eng, queries, sc, s))
	}
	return rep
}

func runClusterTopology(eng *core.Engine, queries []dataset.Query, sc Scale, shards int) ClusterTopologyReport {
	reg := obs.NewRegistry()
	var stops []func()
	defer func() {
		for _, stop := range stops {
			stop()
		}
	}()

	addrs := make([][]string, shards)
	for i := 0; i < shards; i++ {
		se, err := cluster.NewShardEngine(eng, cluster.ShardConfig{ID: i, Of: shards})
		if err != nil {
			panic(err)
		}
		srv := serve.New(eng)
		srv.SetReady(true)
		cluster.MountShard(srv, se)
		addr, stop := serveOnLoopback(srv)
		stops = append(stops, stop)
		addrs[i] = []string{addr}
	}
	client, err := cluster.NewShardClient(addrs, cluster.ClientConfig{}, reg, nil)
	if err != nil {
		panic(err)
	}
	router := cluster.NewRouter(client, cluster.RouterConfig{MaxM: maxInt(sc.M, 5000)}, reg, nil)
	raddr, stopRouter := serveOnLoopback(router)
	stops = append(stops, stopRouter)

	lat := make([]time.Duration, 0, len(queries))
	for _, q := range queries {
		lat = append(lat, timeExpertsQuery(raddr, q.Text, sc.M, sc.N))
	}

	var wire, trips float64
	for i := 0; i < shards; i++ {
		shard := obs.L("shard", strconv.Itoa(i))
		wire += reg.Counter("expertfind_cluster_wire_bytes_total", "", shard).Value()
		trips += float64(reg.Histogram("expertfind_cluster_fanout_seconds", "", nil, shard).Count())
	}
	rep := ClusterTopologyReport{
		Shards:             shards,
		P50Ms:              durPercentile(lat, 0.50),
		P99Ms:              durPercentile(lat, 0.99),
		WireBytesPerQuery:  wire / float64(len(queries)),
		RoundTripsPerQuery: trips / float64(len(queries)),
	}

	// Trace overhead: warm p50 of the same replay with tracing off vs on.
	// A second router over the SAME shards carries a trace store, and the
	// two are measured interleaved query-by-query over several rounds, so
	// machine noise drifts hit both sides equally. One untimed replay
	// warms the traced router's connections first.
	traced := cluster.NewRouter(client, cluster.RouterConfig{MaxM: maxInt(sc.M, 5000)}, reg, nil)
	traced.Traces = obs.NewTraceStore(obs.TracePolicy{SampleEvery: 1}, reg)
	taddr, stopTraced := serveOnLoopback(traced)
	stops = append(stops, stopTraced)
	for _, q := range queries {
		timeExpertsQuery(taddr, q.Text, sc.M, sc.N)
	}
	var warmOff, warmOn []time.Duration
	for round := 0; round < 3; round++ {
		for _, q := range queries {
			warmOff = append(warmOff, timeExpertsQuery(raddr, q.Text, sc.M, sc.N))
			warmOn = append(warmOn, timeExpertsQuery(taddr, q.Text, sc.M, sc.N))
		}
	}
	rep.WarmP50NoTraceMs = durPercentile(warmOff, 0.50)
	rep.WarmP50TraceMs = durPercentile(warmOn, 0.50)
	if rep.WarmP50NoTraceMs > 0 {
		rep.TraceOverheadPct = (rep.WarmP50TraceMs - rep.WarmP50NoTraceMs) /
			rep.WarmP50NoTraceMs * 100
	}
	return rep
}

// serveOnLoopback serves h on an ephemeral loopback port and returns the
// address plus a shutdown func.
func serveOnLoopback(h http.Handler) (addr string, stop func()) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		panic(err)
	}
	srv := &http.Server{Handler: h}
	go srv.Serve(ln)
	return ln.Addr().String(), func() { srv.Close() }
}

// timeExpertsQuery issues one /experts query over HTTP and returns its
// client-observed latency.
func timeExpertsQuery(addr, text string, m, n int) time.Duration {
	u := "http://" + addr + "/experts?q=" + url.QueryEscape(text) +
		"&m=" + strconv.Itoa(m) + "&n=" + strconv.Itoa(n)
	t0 := time.Now()
	resp, err := http.Get(u)
	if err != nil {
		panic(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		panic(fmt.Sprintf("query %q: status %d", text, resp.StatusCode))
	}
	return time.Since(t0)
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// FormatClusterBench renders the report as a human-readable table.
func FormatClusterBench(r ClusterBenchReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Cluster benchmark — %s, %d papers, %d queries (exact retrieval everywhere)\n",
		r.Dataset, r.Papers, r.Queries)
	fmt.Fprintf(&b, "%-16s %10s %10s %16s %8s %14s %12s %9s\n",
		"topology", "p50 ms", "p99 ms", "wire B/query", "trips/q",
		"warm p50 off", "warm p50 on", "trace Δ%")
	fmt.Fprintf(&b, "%-16s %10.3f %10.3f %16s %8s %14s %12s %9s\n",
		"single", r.SingleP50Ms, r.SingleP99Ms, "-", "-", "-", "-", "-")
	for _, t := range r.Topologies {
		fmt.Fprintf(&b, "%-16s %10.3f %10.3f %16.0f %8.2f %14.3f %12.3f %+9.1f\n",
			fmt.Sprintf("router+%d shards", t.Shards), t.P50Ms, t.P99Ms,
			t.WireBytesPerQuery, t.RoundTripsPerQuery,
			t.WarmP50NoTraceMs, t.WarmP50TraceMs, t.TraceOverheadPct)
	}
	return b.String()
}

// WriteJSON writes the report as indented JSON (the BENCH_cluster.json
// format).
func (r ClusterBenchReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
