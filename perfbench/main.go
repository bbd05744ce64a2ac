// Command perfbench is expertfind's served-path benchmark. It builds the
// configuration cmd/expertserve serves — PG-Index on, query cache on,
// HTTP on loopback, a router over two shards when sharded, a durable
// store under fsync always when writing — drives it with a closed loop
// of clients in this one process, checks every answer, and prints the
// workload's metrics.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload single-read --seed 1 --seconds 8 --trace 0
//	bash perfbench/run.sh --workload all --seed 1 --seconds 8 --trace 1
//
// The last line of standard output is one JSON object: correct,
// attempted, failed and metrics — the end-to-end metrics with --trace 0,
// the per-layer metrics with --trace 1. The lines before it are the full
// report: environment stamp, set-up breakdown, checks, and every metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"expertfind/internal/hetgraph"
	"expertfind/internal/obs"
	"expertfind/internal/vec"
)

// metricDef names a reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd is what a user of the service sees; every workload reports
// all of them.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"read_p50_ms", "ms"},
	{"rss_mib", "MiB"},
	{"recall_at_m", "ratio"},
	{"precision_at_10", "ratio"},
	{"map", "ratio"},
}

// perLayer comes from the traced run. Figures of a layer a workload does
// not exercise read 0.
var perLayer = []metricDef{
	{"read_p99_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"write_p50_ms", "ms"},
	{"write_p99_ms", "ms"},
	{"restart_s", "s"},
	{"error_ratio", "ratio"},
	{"textenc.encode_us_p50", "us"},
	{"pgindex.search_us_p50", "us"},
	{"pgindex.search_us_p99", "us"},
	{"pgindex.dist_comps_per_search", "count"},
	{"pgindex.visited_per_search", "count"},
	{"pgindex.insert_us_p50", "us"},
	{"pgindex.build_s", "s"},
	{"ta.rank_us_p50", "us"},
	{"ta.sorted_accesses_per_query", "count"},
	{"ta.candidates_per_query", "count"},
	{"ta.early_stop_ratio", "ratio"},
	{"ta.merge_us_p50", "us"},
	{"core.query_us_p50", "us"},
	{"core.self_us_p50", "us"},
	{"core.qcache_hit_ratio", "ratio"},
	{"core.add_paper_us_p50", "us"},
	{"serve.overhead_us_p50", "us"},
	{"serve.shed_total", "count"},
	{"serve.timeouts_total", "count"},
	{"cluster.fanout_us_p50", "us"},
	{"cluster.shard_retrieve_us_p50", "us"},
	{"cluster.shard_score_us_p50", "us"},
	{"cluster.round_trips_per_query", "count"},
	{"cluster.deep_fetch_ratio", "ratio"},
	{"cluster.wire_bytes_per_query", "bytes"},
	{"cluster.carve_s", "s"},
	{"durable.append_us_p50", "us"},
	{"store.snapshot_s", "s"},
	{"store.recovery_s", "s"},
	{"store.wal_replayed", "count"},
	{"build.pretrain_s", "s"},
	{"build.sampling_s", "s"},
	{"build.train_s", "s"},
	{"build.embed_s", "s"},
	{"build.triples", "count"},
	{"go.alloc_bytes_per_op", "bytes"},
	{"go.gc_cycles", "count"},
	{"obs.trace_overhead_pct", "%"},
}

// The corpus size and the set-ups per run are fixed, so every run's
// figures compare; the smoke test alone lowers them, through config.
const (
	corpusPapers = 1000 // AminerSim corpus size
	setupsPerRun = 3    // setup_s is their median
)

type config struct {
	workload workload
	seed     int64
	seconds  int
	trace    bool
	papers   int
	setups   int
	dir      string // scratch space: data dirs and span dumps
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "single-read, sharded-read, write-mix, or all")
		seed    = flag.Int64("seed", 1, "seed for the query texts, the read mix and the writes")
		seconds = flag.Int("seconds", 8, "length of each timed loop")
		trace   = flag.Int("trace", 0, "1 runs the traced run and reports per-layer metrics")
		dir     = flag.String("dir", filepath.Join(".bench_build", "perfbench"), "scratch directory")
	)
	flag.Parse()
	names := []string{*name}
	if *name == "all" {
		names = nil
		for _, w := range workloads {
			names = append(names, w.name)
		}
	}
	final := result{Correct: true, Metrics: map[string]metricValue{}}
	for _, n := range names {
		w, ok := findWorkload(n)
		if !ok {
			fail(fmt.Errorf("unknown --workload %q", n))
		}
		if *seconds < 1 {
			fail(fmt.Errorf("--seconds must be positive"))
		}
		res, err := run(config{workload: w, seed: *seed, seconds: *seconds, trace: *trace == 1,
			papers: corpusPapers, setups: setupsPerRun, dir: *dir})
		if err != nil {
			fail(fmt.Errorf("%s: %w", n, err))
		}
		final.Correct = final.Correct && res.Correct
		final.Attempted += res.Attempted
		final.Failed += res.Failed
		for k, v := range res.Metrics {
			if len(names) > 1 {
				k = n + "/" + k
			}
			final.Metrics[k] = v
		}
	}
	line, err := json.Marshal(final)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(line))
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// run performs one workload run and prints its report.
func run(cfg config) (result, error) {
	w := cfg.workload
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		return result{}, err
	}
	rep := map[string]interface{}{"workload": w.name, "env": envStamp(cfg)}
	phases := map[string]float64{} // where the run's wall time went
	mark := time.Now()
	phase := func(name string) {
		phases[name] = time.Since(mark).Seconds()
		mark = time.Now()
	}

	// Set up several times and report the median. The first set-up's
	// stack serves the run; the others are timed between the parts of
	// the measured window (see runLoop) and closed again.
	dataDir := func(k int) string { return filepath.Join(cfg.dir, fmt.Sprintf("data-%s-%d", w.name, k)) }
	runtime.GC()
	st, bd, err := newStack(w, cfg.papers, dataDir(0))
	if err != nil {
		return result{}, err
	}
	defer func() {
		st.close()
		os.RemoveAll(st.dataDir)
	}()
	bds := []setupBreakdown{bd}
	var paused time.Duration
	setUpAgain := func() error {
		t0 := time.Now()
		defer func() { paused += time.Since(t0) }()
		runtime.GC()
		other, bd, err := newStack(w, cfg.papers, dataDir(len(bds)))
		if err != nil {
			return err
		}
		bds = append(bds, bd)
		st.reclaimSinks()
		err = other.close()
		os.RemoveAll(other.dataDir)
		return err
	}
	// The write layers' scratch index is built over the set-up corpus.
	var base map[hetgraph.NodeID]vec.Vec32
	if cfg.trace && w.writeEvery > 0 {
		base = maps.Clone(st.eng.Embeddings)
	}

	phase("setup")
	loop := time.Duration(cfg.seconds)*time.Second + time.Duration(cfg.setups)*warmUpTime
	maxOps := int(math.Ceil(loop.Seconds())) * opsPerSecondBound(w)
	p := newPlan(w, st.data, cfg.seed, cfg.seed+1, maxOps)
	phase("plan")
	c := newClient(st.url, 2*w.clients)
	defer c.close()

	cs := &checkStats{}
	runtime.GC() // the loop starts from a collected heap, not the set-up's garbage
	counters := func() map[string]float64 { return readCounters(st) }
	a, err := runLoop(c, p, w.clients, time.Duration(cfg.seconds)*time.Second, cfg.setups, setUpAgain, nil, counters)
	if err != nil {
		return result{}, err
	}
	phase("loop")
	phases["loop"] -= paused.Seconds()
	phases["setup"] += paused.Seconds()
	setup := medianBreakdown(bds)
	rep["setup"] = setup

	qsample := p.queries[:min(poolSize, len(p.queries))]
	q := checkAnswers(c, st, qsample, !w.sharded, cs)
	checkAcked(c, a.acked, cs)
	phase("checks")

	runtime.GC()
	debug.FreeOSMemory()
	ps, _ := obs.ReadProcStat()

	q50 := func(l []time.Duration, _ time.Duration) float64 { return ms(percentile(l, 0.50)) }
	rate := func(l []time.Duration, width time.Duration) float64 { return float64(len(l)) / width.Seconds() }
	// The p50s and throughput are medians over the window's parts, so a
	// spell of the shared machine, slow or fast, that covers one part
	// does not move them.
	parts := map[string][]float64{
		"read_p50_ms":  partValues(a.reads, a.partEnds, q50),
		"write_p50_ms": partValues(a.writes, a.partEnds, q50),
		"ops_per_s":    partValues(a.done, a.partEnds, rate),
	}
	e2e := map[string]float64{
		"setup_s":         setup["setup_s"],
		"read_p50_ms":     median(parts["read_p50_ms"]),
		"read_p99_ms":     ms(percentile(window(a.reads), 0.99)),
		"ops_per_s":       median(parts["ops_per_s"]),
		"rss_mib":         float64(ps.RSSBytes) / (1 << 20),
		"recall_at_m":     q.recallAtM,
		"precision_at_10": q.precisionAt10,
		"map":             q.meanAP,
		"write_p50_ms":    median(parts["write_p50_ms"]),
		"write_p99_ms":    ms(percentile(window(a.writes), 0.99)),
	}
	layers := map[string]float64{}
	for k, v := range setup {
		layers[k] = v
	}
	if w.durable {
		took, info, err := restart(st, cfg.papers, filepath.Join(cfg.dir, "restart-"+w.name), a.acked, cs)
		os.RemoveAll(filepath.Join(cfg.dir, "restart-"+w.name))
		if err != nil {
			return result{}, err
		}
		e2e["restart_s"] = took.Seconds()
		layers["store.recovery_s"] = info.Duration.Seconds()
		layers["store.wal_replayed"] = float64(info.Replayed)
		phase("restart")
	}
	rep["repeat_share"] = 1 - float64(a.distinct)/math.Max(1, float64(a.readOps))
	layers["go.alloc_bytes_per_op"] = float64(a.allocBytes) / math.Max(1, float64(a.windowOps))
	layers["go.gc_cycles"] = float64(a.gcCycles)

	attempted, failed, failures := a.attempted, a.failed, a.failures
	if cfg.trace {
		// The traced loop reads what the untraced one read; its writes
		// are new papers, checked like the first loop's.
		pb := p
		if w.writeEvery > 0 {
			pb = newPlan(w, st.data, cfg.seed, cfg.seed+2, maxOps)
		}
		st.eng.InvalidateQueryCache()
		rec := newRecorder()
		st.trace.Store(rec)
		b, err := runLoop(c, pb, w.clients, time.Duration(cfg.seconds)*time.Second, 1, nil, rec, counters)
		if err != nil {
			return result{}, err
		}
		st.trace.Store(nil)
		attempted += b.attempted
		failed += b.failed
		failures = merge(failures, b.failures)
		checkAcked(c, b.acked, cs)
		if w.durable {
			// Untimed: restart_s is the first restart's.
			dir := filepath.Join(cfg.dir, "restart-traced-"+w.name)
			_, _, err := restart(st, cfg.papers, dir, append(append([]ackedWrite(nil), a.acked...), b.acked...), cs)
			os.RemoveAll(dir)
			if err != nil {
				return result{}, err
			}
		}
		ops := replayReads(pb, b)
		if w.sharded {
			err = replayCluster(rec, st, pb, ops)
		} else {
			err = replayCore(rec, st, pb, ops, cachedInLoop(pb, b.issued))
		}
		if err == nil && w.writeEvery > 0 {
			err = writeLayers(rec, st, base, b.acked, cfg.dir, int64(len(pb.ops)))
		}
		if err != nil {
			return result{}, err
		}
		spanFile := filepath.Join(cfg.dir, fmt.Sprintf("spans-%s-seed%d.jsonl", w.name, cfg.seed))
		if err := rec.write(spanFile); err != nil {
			return result{}, err
		}
		rep["spans"] = spanFile
		tracedLayers(layers, rec.stats(), pb, b, st)
		// Whole-window p50s on both sides: the traced loop has one part.
		layers["obs.trace_overhead_pct"] = 100 * (percentile(window(b.reads), 0.5).Seconds()/
			percentile(window(a.reads), 0.5).Seconds() - 1)
		phase("trace")
	} else {
		counterLayers(layers, a, st)
	}
	attempted += cs.attempted
	failed += cs.failed
	failures = merge(failures, cs.failures)
	errorRatio := float64(failed) / float64(attempted)
	e2e["error_ratio"] = errorRatio
	layers["error_ratio"] = errorRatio
	for _, k := range []string{"read_p99_ms", "ops_per_s", "write_p50_ms", "write_p99_ms", "restart_s"} {
		layers[k] = e2e[k]
	}

	rep["phase_s"] = phases
	rep["parts"] = parts
	rep["samples"] = map[string]int{"reads": len(a.reads), "writes": len(a.writes), "quality_queries": len(qsample)}
	rep["checks"] = map[string]interface{}{"attempted": cs.attempted, "failed": cs.failed}
	rep["failures"] = failures
	rep["end_to_end"] = withUnits(e2e, endToEnd, []metricDef{{"read_p99_ms", "ms"}, {"ops_per_s", "1/s"}, {"error_ratio", "ratio"},
		{"write_p50_ms", "ms"}, {"write_p99_ms", "ms"}, {"restart_s", "s"}})
	rep["per_layer"] = withUnits(layers, perLayer, nil)
	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return result{}, err
	}
	fmt.Println(string(out))

	res := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	defs, vals := endToEnd, e2e
	if cfg.trace {
		defs, vals = perLayer, layers
	}
	for _, d := range defs {
		res.Metrics[d.name] = metricValue{Value: vals[d.name], Unit: d.unit}
	}
	return res, nil
}

// opsPerSecondBound caps how many operations a run draws per second of
// loop; comfortably above what the clients reach on loopback.
func opsPerSecondBound(w workload) int {
	if w.distinct {
		return 600
	}
	return 20000
}

// medianBreakdown reduces the set-ups to the median of each figure.
func medianBreakdown(bds []setupBreakdown) map[string]float64 {
	pick := func(f func(setupBreakdown) float64) float64 {
		var v []float64
		for _, b := range bds {
			v = append(v, f(b))
		}
		return median(v)
	}
	return map[string]float64{
		"setup_s": pick(func(b setupBreakdown) float64 { return b.Total.Seconds() }),
		"build.pretrain_s": pick(func(b setupBreakdown) float64 {
			s := b.Build
			return (s.TotalTime - s.CommunityTime - s.TrainTime - s.EmbedTime - s.IndexTime).Seconds()
		}),
		"build.sampling_s": pick(func(b setupBreakdown) float64 { return b.Build.CommunityTime.Seconds() }),
		"build.train_s":    pick(func(b setupBreakdown) float64 { return b.Build.TrainTime.Seconds() }),
		"build.embed_s":    pick(func(b setupBreakdown) float64 { return b.Build.EmbedTime.Seconds() }),
		"pgindex.build_s":  pick(func(b setupBreakdown) float64 { return b.Build.IndexTime.Seconds() }),
		"build.triples":    pick(func(b setupBreakdown) float64 { return b.Triples }),
		"cluster.carve_s":  pick(func(b setupBreakdown) float64 { return b.Carve.Seconds() }),
		"store.snapshot_s": pick(func(b setupBreakdown) float64 { return b.Snapshot.Seconds() }),
	}
}

func withUnits(vals map[string]float64, defs, extra []metricDef) map[string]metricValue {
	out := map[string]metricValue{}
	for _, d := range append(append([]metricDef(nil), defs...), extra...) {
		if v, ok := vals[d.name]; ok {
			out[d.name] = metricValue{Value: v, Unit: d.unit}
		}
	}
	return out
}

func merge(a, b map[string]int) map[string]int {
	out := map[string]int{}
	for k, v := range a {
		out[k] += v
	}
	for k, v := range b {
		out[k] += v
	}
	return out
}

// percentile is the nearest-rank q-quantile; 0 for no samples.
func percentile(d []time.Duration, q float64) time.Duration {
	if len(d) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), d...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	k := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(k, 0)]
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// envStamp records what a result was measured on, so results from
// different commits compare.
func envStamp(cfg config) map[string]interface{} {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	return map[string]interface{}{
		"go":         runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu":        cpu,
		"commit":     commit,
		"papers":     cfg.papers,
		"seed":       cfg.seed,
		"build_seed": servedSeed,
		"clients":    cfg.workload.clients,
		"seconds":    cfg.seconds,
		"setups":     cfg.setups,
		"trace":      cfg.trace,
	}
}
