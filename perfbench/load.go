package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"expertfind/internal/core"
	"expertfind/internal/dataset"
	"expertfind/internal/hetgraph"
	"expertfind/internal/serve"
)

// workload is one traffic mix against one topology.
type workload struct {
	name       string
	sharded    bool // router over numShards shards
	durable    bool // core.OpenStore under fsync always
	distinct   bool // every query text distinct (no Zipf pool)
	writeEvery int  // every writeEvery-th op is an /add; 0 = read-only
	clients    int  // closed-loop clients
}

// Reads run one client: a second one on the 2-core target only queues
// behind the first, and its share of the machine, not the program,
// then sets the read latency. write-mix runs two, so reads meet the
// write lock and the cache invalidations of a concurrent writer.
var workloads = []workload{
	{name: "single-read", clients: 1},
	{name: "sharded-read", sharded: true, distinct: true, clients: 1},
	{name: "write-mix", durable: true, writeEvery: 10, clients: 2},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// The read mix of single-read and write-mix. Neither figure is taken
// from a measured query log: both are assumptions. A Zipf exponent just
// above 1 and a pool small enough for the query cache to hold whole make
// repeats dominate; the report prints the repeat share each run
// measured.
const (
	poolSize = 300 // distinct texts in the Zipf pool, and the quality sample
	zipfS    = 1.1 // Zipf exponent of the pool reads
)

// op is one client operation: a read of texts[q], or a write of add.
type op struct {
	q   int
	add *serve.AddRequest
}

// plan is a run's inputs, all drawn from the seed.
type plan struct {
	queries []dataset.Query // texts the reads use
	ops     []op
}

// newPlan draws the run's operations. Pool reads are Zipf over poolSize
// distinct texts; distinct reads never repeat a text; writes add a
// paraphrased paper by an existing paper's authors, drawn from
// writeSeed, so two plans with one seed and different write seeds read
// the same texts in the same order but add different papers. maxOps
// bounds a run of the given length generously — the loop ends early if
// it runs out.
func newPlan(w workload, d *dataset.Dataset, seed, writeSeed int64, maxOps int) plan {
	rng := rand.New(rand.NewSource(seed))
	var p plan
	if w.distinct {
		seen := map[string]bool{}
		for len(p.queries) < maxOps {
			for _, q := range d.Queries(maxOps, rng) {
				if key := core.NormalizeQueryKey(q.Text); !seen[key] {
					seen[key] = true
					p.queries = append(p.queries, q)
				}
			}
		}
		p.queries = p.queries[:maxOps]
		for i := range p.queries {
			p.ops = append(p.ops, op{q: i})
		}
		return p
	}
	p.queries = d.Queries(poolSize, rng)
	zipf := rand.NewZipf(rng, zipfS, 1, uint64(len(p.queries)-1))
	var writes []dataset.Query
	if w.writeEvery > 0 {
		writes = d.Queries(maxOps/w.writeEvery+1, rand.New(rand.NewSource(writeSeed)))
	}
	for i := 0; i < maxOps; i++ {
		if w.writeEvery > 0 && i%w.writeEvery == w.writeEvery-1 {
			src := writes[(i/w.writeEvery)%len(writes)]
			add := &serve.AddRequest{Text: src.Text, Authors: authorsOf(d.Graph, src.Source)}
			p.ops = append(p.ops, op{q: -1, add: add})
			continue
		}
		p.ops = append(p.ops, op{q: int(zipf.Uint64())})
	}
	return p
}

// loopStats is what one closed-loop run measured.
type loopStats struct {
	elapsed    time.Duration
	attempted  int
	failed     int
	failures   map[string]int // failure reason -> count
	reads      []sample
	writes     []sample
	done       []sample        // completion time of every op, failed ones too
	clientSpan []time.Duration // per op index: client latency
	opAt       []time.Duration // per op index: completion time, as in sample.at
	acked      []ackedWrite
	issued     int // ops issued, a prefix of plan.ops
	distinct   int // distinct query texts read
	readOps    int
	// Measured over the window only: its parts, without their warm-ups.
	counters    map[string]float64 // registry counter deltas
	partEnds    []time.Duration    // measured time at the end of each part
	windowOps   int
	windowReads int
	allocBytes  uint64
	gcCycles    uint32
}

// sample is one successful operation's latency and when it completed,
// relative to the start of the measured window; warm-up samples are
// negative.
type sample struct{ at, lat time.Duration }

// window returns the latencies of the samples in the measured window.
// Tail percentiles are taken over the whole window, not per part, so
// that at least ten samples lie beyond a p99 on every workload.
func window(s []sample) []time.Duration {
	var out []time.Duration
	for _, x := range s {
		if x.at >= 0 {
			out = append(out, x.lat)
		}
	}
	return out
}

// partValues applies f to the samples of each part of a loop's window
// and to the part's measured length.
func partValues(s []sample, ends []time.Duration, f func([]time.Duration, time.Duration) float64) []float64 {
	parts := make([][]time.Duration, len(ends))
	for _, x := range s {
		if x.at < 0 {
			continue
		}
		k := min(sort.Search(len(ends), func(k int) bool { return x.at < ends[k] }), len(ends)-1)
		parts[k] = append(parts[k], x.lat)
	}
	vals := make([]float64, len(ends))
	for k, p := range parts {
		width := ends[k]
		if k > 0 {
			width -= ends[k-1]
		}
		vals[k] = f(p, width)
	}
	return vals
}

type ackedWrite struct {
	id  int32
	req *serve.AddRequest
	at  time.Duration // completion time, as in sample.at
}

type client struct {
	http *http.Client
	base string
}

func newClient(base string, conns int) *client {
	return &client{base: base, http: &http.Client{
		Timeout:   10 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: conns, DisableCompression: true},
	}}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// opRequestID names operation i in X-Request-ID, which the served
// stack echoes and forwards, so server-side spans find their operation.
func opRequestID(i int64) string { return "op-" + strconv.FormatInt(i, 10) }

func parseOpID(s string) (int64, bool) {
	rest, ok := strings.CutPrefix(s, "op-")
	if !ok {
		return 0, false
	}
	n, err := strconv.ParseInt(rest, 10, 64)
	return n, err == nil
}

func (c *client) get(path string, reqID string, out interface{}) error {
	req, err := http.NewRequest(http.MethodGet, c.base+path, nil)
	if err != nil {
		return err
	}
	if reqID != "" {
		req.Header.Set("X-Request-ID", reqID)
	}
	return c.do(req, out)
}

func (c *client) post(path string, reqID string, body interface{}, out interface{}) error {
	b, err := json.Marshal(body)
	if err != nil {
		return err
	}
	req, err := http.NewRequest(http.MethodPost, c.base+path, bytes.NewReader(b))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-ID", reqID)
	return c.do(req, out)
}

func (c *client) do(req *http.Request, out interface{}) error {
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d", resp.StatusCode)
	}
	return json.Unmarshal(b, out)
}

func expertsPath(q string) string {
	return "/experts?q=" + url.QueryEscape(q) + "&n=" + strconv.Itoa(servedN) + "&m=" + strconv.Itoa(servedM)
}

// checkExperts is the per-reply check: at most n experts, scores
// non-increasing.
func checkExperts(r *serve.ExpertsResponse) error {
	if len(r.Experts) > servedN {
		return fmt.Errorf("%d experts for n=%d", len(r.Experts), servedN)
	}
	for i := 1; i < len(r.Experts); i++ {
		if r.Experts[i].Score > r.Experts[i-1].Score {
			return fmt.Errorf("score rises at rank %d", i+1)
		}
	}
	return nil
}

// warmUpTime runs the loop before each part of its measured window, so
// a part does not start with connection set-up, cold caches or the
// garbage of a set-up run just before it. Its operations are sent
// and checked like the rest; their samples fall before the window and
// are left out of the figures.
const warmUpTime = 500 * time.Millisecond

// runLoop drives the stack with `clients` closed-loop clients over d,
// the measured window, cut into `parts` equal parts, each after its own
// warm-up: each client sends its next operation only after the previous
// reply. Between two parts every client idles while pause runs, so the
// window samples the shared machine at several moments of a run rather
// than one. Sample times count measured time from the window's start;
// warm-up samples are negative. With rec set it also records one client
// span per operation. counters, when set, is read at the start and end
// of every part; the loop's counter and runtime figures are the sums
// over the parts.
func runLoop(c *client, p plan, clients int, d time.Duration, parts int, pause func() error,
	rec *recorder, counters func() map[string]float64) (loopStats, error) {
	var next atomic.Int64
	type local struct {
		reads, writes []sample
		done          []sample
		acked         []ackedWrite
		failures      map[string]int
		failed        int
	}
	locals := make([]local, clients)
	for k := range locals {
		locals[k].failures = map[string]int{}
	}
	spans := make([]time.Duration, len(p.ops))
	opAt := make([]time.Duration, len(p.ops))
	ls := loopStats{failures: map[string]int{}, counters: map[string]float64{}}
	var offset time.Duration // measured time of the parts before this one
	for part := 0; part < parts; part++ {
		if part > 0 {
			if err := pause(); err != nil {
				return ls, err
			}
			runtime.GC()
		}
		var ms0, ms1 runtime.MemStats
		var before map[string]float64
		start := time.Now().Add(warmUpTime)
		deadline := start.Add(d / time.Duration(parts))
		at := func() time.Duration {
			s := time.Since(start)
			if s < 0 {
				return s
			}
			return offset + s
		}
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			time.Sleep(time.Until(start))
			runtime.ReadMemStats(&ms0)
			if counters != nil {
				before = counters()
			}
		}()
		for k := range locals {
			wg.Add(1)
			go func(l *local) {
				defer wg.Done()
				for time.Now().Before(deadline) {
					i := next.Add(1) - 1
					if int(i) >= len(p.ops) {
						return
					}
					o := p.ops[i]
					reqID := opRequestID(i)
					t0 := time.Now()
					var err error
					if o.add != nil {
						var ar serve.AddResponse
						err = c.post("/add", reqID, o.add, &ar)
						lat := time.Since(t0)
						opAt[i] = at()
						if err == nil && ar.ID <= 0 {
							err = fmt.Errorf("add acked without an id")
						}
						if err == nil {
							l.writes = append(l.writes, sample{at: opAt[i], lat: lat})
							l.acked = append(l.acked, ackedWrite{id: ar.ID, req: o.add, at: opAt[i]})
						}
						spans[i] = lat
					} else {
						var er serve.ExpertsResponse
						err = c.get(expertsPath(p.queries[o.q].Text), reqID, &er)
						lat := time.Since(t0)
						opAt[i] = at()
						if err == nil {
							err = checkExperts(&er)
						}
						if err == nil {
							l.reads = append(l.reads, sample{at: opAt[i], lat: lat})
						}
						spans[i] = lat
					}
					l.done = append(l.done, sample{at: opAt[i]})
					if rec != nil {
						rec.add(span{Op: i, ID: servedSpanID(i, 0), Name: "client"}, t0, t0.Add(spans[i]))
					}
					if err != nil {
						l.failed++
						l.failures[err.Error()]++
					}
				}
			}(&locals[k])
		}
		wg.Wait()
		offset += time.Since(start)
		ls.partEnds = append(ls.partEnds, offset)
		runtime.ReadMemStats(&ms1)
		ls.allocBytes += ms1.TotalAlloc - ms0.TotalAlloc
		ls.gcCycles += ms1.NumGC - ms0.NumGC
		if counters != nil {
			for k, v := range deltas(before, counters()) {
				ls.counters[k] += v
			}
		}
	}
	ls.elapsed = offset
	ls.issued = int(min(next.Load(), int64(len(p.ops))))
	ls.attempted = ls.issued
	ls.clientSpan = spans[:ls.issued]
	ls.opAt = opAt[:ls.issued]
	for _, l := range locals {
		ls.reads = append(ls.reads, l.reads...)
		ls.writes = append(ls.writes, l.writes...)
		ls.done = append(ls.done, l.done...)
		ls.acked = append(ls.acked, l.acked...)
		ls.failed += l.failed
		for k, v := range l.failures {
			ls.failures[k] += v
		}
	}
	seen := map[int]bool{}
	for i, o := range p.ops[:ls.issued] {
		if opAt[i] >= 0 {
			ls.windowOps++
		}
		if o.add == nil {
			seen[o.q] = true
			ls.readOps++
			if opAt[i] >= 0 {
				ls.windowReads++
			}
		}
	}
	ls.distinct = len(seen)
	return ls, nil
}

// authorsOf returns a paper's author ids in author-rank order.
func authorsOf(g *hetgraph.Graph, p hetgraph.NodeID) []int32 {
	var out []int32
	for _, a := range g.AuthorsOf(p) {
		out = append(out, int32(a))
	}
	return out
}
