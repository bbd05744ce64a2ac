package main

import (
	"strconv"
	"time"

	"expertfind/internal/obs"
)

// Registry series the benchmark reads — the counters /metrics exports.
var engineCounters = map[string]string{
	"qcache_hits":   "expertfind_qcache_hits_total",
	"qcache_misses": "expertfind_qcache_misses_total",
	"shed":          "expertfind_http_shed_total",
	"timeouts":      "expertfind_http_timeouts_total",
	"pg_searches":   "expertfind_pgindex_searches_total",
	"pg_dist":       "expertfind_pgindex_distance_computations_total",
	"pg_visited":    "expertfind_pgindex_nodes_visited_total",
	"ta_runs":       "expertfind_ta_runs_total",
	"ta_sorted":     "expertfind_ta_sorted_accesses_total",
	"ta_cand":       "expertfind_ta_candidates_total",
	"ta_early":      "expertfind_ta_early_terminations_total",
}

func readCounters(st *stack) map[string]float64 {
	out := map[string]float64{}
	for k, name := range engineCounters {
		out[k] = counter(st.reg, name)
	}
	if st.rreg != nil {
		out["deep"] = counter(st.rreg, "expertfind_cluster_deep_fetches_total")
		for i := range st.shards {
			out["wire"] += counter(st.rreg, "expertfind_cluster_wire_bytes_total", obs.L("shard", strconv.Itoa(i)))
		}
	}
	return out
}

func deltas(before, after map[string]float64) map[string]float64 {
	out := map[string]float64{}
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// counterLayers fills the per-layer figures that come from registry
// counter deltas over one loop's measured window.
func counterLayers(layers map[string]float64, l loopStats, st *stack) {
	d := l.counters
	layers["core.qcache_hit_ratio"] = ratio(d["qcache_hits"], d["qcache_hits"]+d["qcache_misses"])
	layers["serve.shed_total"] = d["shed"]
	layers["serve.timeouts_total"] = d["timeouts"]
	layers["pgindex.dist_comps_per_search"] = ratio(d["pg_dist"], d["pg_searches"])
	layers["pgindex.visited_per_search"] = ratio(d["pg_visited"], d["pg_searches"])
	layers["ta.sorted_accesses_per_query"] = ratio(d["ta_sorted"], d["ta_runs"])
	layers["ta.candidates_per_query"] = ratio(d["ta_cand"], d["ta_runs"])
	layers["ta.early_stop_ratio"] = ratio(d["ta_early"], d["ta_runs"])
	layers["cluster.deep_fetch_ratio"] = ratio(d["deep"], float64(l.windowReads))
	layers["cluster.wire_bytes_per_query"] = ratio(d["wire"], float64(l.windowReads))
	if st.rreg != nil {
		// The router's fan-out histogram, bucket-interpolated, averaged
		// over the shards; it covers the whole run.
		var sum float64
		for i := range st.shards {
			h := st.rreg.Histogram("expertfind_cluster_fanout_seconds", "", nil, obs.L("shard", strconv.Itoa(i)))
			sum += h.Quantile(0.5)
		}
		layers["cluster.fanout_us_p50"] = sum / float64(len(st.shards)) * 1e6
	}
}

// tracedLayers fills the per-layer figures of a traced run: latencies
// from the spans, counts from the traced loop's counter deltas and the
// spans of its measured window.
func tracedLayers(layers map[string]float64, ss spanStats, p plan, b loopStats, st *stack) {
	p50 := func(name string) float64 { return us(percentile(ss.durations(name), 0.5)) }
	for metric, name := range map[string]string{
		"textenc.encode_us_p50":         "textenc.encode",
		"pgindex.search_us_p50":         "pgindex.search",
		"pgindex.insert_us_p50":         "pgindex.insert",
		"ta.rank_us_p50":                "ta.rank",
		"ta.merge_us_p50":               "ta.merge",
		"core.query_us_p50":             "core.query",
		"core.add_paper_us_p50":         "core.add_paper",
		"cluster.shard_retrieve_us_p50": "cluster.shard_retrieve",
		"cluster.shard_score_us_p50":    "cluster.shard_score",
		"durable.append_us_p50":         "durable.append",
	} {
		layers[metric] = p50(name)
	}
	layers["pgindex.search_us_p99"] = us(percentile(ss.durations("pgindex.search"), 0.99))
	layers["core.self_us_p50"] = us(percentile(ss.selfTimes("core.query"), 0.5))
	trips := 0
	for _, sp := range ss.byName["cluster.shard"] {
		if sp.Op < int64(len(b.opAt)) && b.opAt[sp.Op] >= 0 {
			trips++
		}
	}
	layers["cluster.round_trips_per_query"] = ratio(float64(trips), float64(b.windowReads))

	// What the served path adds over the in-process computation of the
	// same operation: client latency minus the replayed core (or
	// cluster) work.
	work := ss.byOp("core.query")
	if len(st.shards) > 0 {
		work = ss.byOp("cluster.query")
	}
	var over []time.Duration
	for i, o := range p.ops[:b.issued] {
		if wd, ok := work[int64(i)]; ok && o.add == nil {
			over = append(over, b.clientSpan[i]-wd)
		}
	}
	layers["serve.overhead_us_p50"] = us(percentile(over, 0.5))
	counterLayers(layers, b, st)
}
