package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"time"

	"expertfind/internal/cluster"
	"expertfind/internal/core"
	"expertfind/internal/durable"
	"expertfind/internal/hetgraph"
	"expertfind/internal/obs"
	"expertfind/internal/pgindex"
	"expertfind/internal/ta"
	"expertfind/internal/vec"
)

// replayCap bounds how many of the traced loop's reads are replayed
// through the layers, keeping a traced run's length bounded; a fifth as
// many of its writes are.
const replayCap = 1500

// inWindow picks up to limit of the traced loop's operations that
// completed inside the measured window and satisfy keep, at an even
// stride across the window, so the layer figures describe the window the
// end-to-end figures come from rather than the warm-up.
func inWindow(n int, at func(int) time.Duration, keep func(int) bool, limit int) []int {
	var in []int
	for i := 0; i < n; i++ {
		if at(i) >= 0 && keep(i) {
			in = append(in, i)
		}
	}
	if len(in) <= limit {
		return in
	}
	out := make([]int, limit)
	for k := range out {
		out[k] = in[k*len(in)/limit]
	}
	return out
}

// replayReads picks the traced loop's reads the replay covers.
func replayReads(p plan, b loopStats) []int {
	at := func(i int) time.Duration { return b.opAt[i] }
	return inWindow(b.issued, at, func(i int) bool { return p.ops[i].add == nil }, replayCap)
}

// cachedInLoop reports, for each of the loop's operations, whether its
// text was read earlier with no write in between: the loop's query
// cache, emptied just before the loop, held it when the read arrived.
func cachedInLoop(p plan, issued int) []bool {
	out := make([]bool, issued)
	last := map[int]int{} // text -> index of its last read
	lastWrite := -1
	for i, o := range p.ops[:issued] {
		if o.add != nil {
			lastWrite = i
			continue
		}
		if j, ok := last[o.q]; ok && j > lastWrite {
			out[i] = true
		}
		last[o.q] = i
	}
	return out
}

// Benchmark span names for the program's own stage spans, which nest
// under the spans the benchmark opens around a layer call.
var (
	coreNames = map[string]string{
		"core.query": "core.query",
		"encode":     "textenc.encode",
		"retrieve":   "pgindex.search",
		"rank":       "ta.rank",
	}
	clusterNames = map[string]string{
		"cluster.query":          "cluster.query",
		"cluster.shard_retrieve": "cluster.shard_retrieve",
		"encode":                 "textenc.encode",
		"search":                 "pgindex.search",
		"cluster.shard_score":    "cluster.shard_score",
		"ta.merge":               "ta.merge",
	}
)

// replayCore replays the replayed reads through core.Engine.TopExpertsCtx,
// one at a time, under a span the benchmark opens around each call. Each
// call finds the query cache as the loop left it for that read: emptied,
// then filled with the read's text by an untimed call if the loop had it
// cached, so hits and misses follow the loop's pattern.
func replayCore(rec *recorder, st *stack, p plan, ops []int, cached []bool) error {
	for _, i := range ops {
		q := p.queries[p.ops[i].q].Text
		st.eng.InvalidateQueryCache()
		if cached[i] {
			if _, _, err := st.eng.TopExpertsCtx(context.Background(), q, servedM, servedN); err != nil {
				return fmt.Errorf("replay core.TopExpertsCtx: %w", err)
			}
		}
		ctx, root := obs.StartSpan(context.Background(), "core.query")
		_, _, err := st.eng.TopExpertsCtx(ctx, q, servedM, servedN)
		root.End()
		if err != nil {
			return fmt.Errorf("replay core.TopExpertsCtx: %w", err)
		}
		rec.addTree(int64(i), 0, root.Tree(), coreNames)
	}
	return nil
}

// replayCluster replays the replayed reads through the shard layer's
// public calls — ShardEngine.Retrieve on every shard, the global top-m
// merge, ShardEngine.ScoreExperts at the router's first partial-list
// depth, and ta.MergePartials — under benchmark spans.
func replayCluster(rec *recorder, st *stack, p plan, ops []int) error {
	limit := max(2*servedN, 16) // the router's first-round depth
	for _, i := range ops {
		q := p.queries[p.ops[i].q].Text
		ctx, root := obs.StartSpan(context.Background(), "cluster.query")
		type hit struct {
			pgindex.Result
			shard int
		}
		var all []hit
		for s, se := range st.shards {
			sctx, sp := obs.StartSpan(ctx, "cluster.shard_retrieve")
			res, err := se.Retrieve(sctx, q, servedM)
			sp.End()
			if err != nil {
				return fmt.Errorf("replay cluster.Retrieve: %w", err)
			}
			for _, r := range res {
				all = append(all, hit{r, s})
			}
		}
		sort.Slice(all, func(a, b int) bool {
			if all[a].Dist != all[b].Dist {
				return all[a].Dist < all[b].Dist
			}
			return all[a].ID < all[b].ID
		})
		all = all[:min(len(all), servedM)]
		reqs := make([]cluster.ExpertsRequest, len(st.shards))
		for rank, h := range all {
			reqs[h.shard].Papers = append(reqs[h.shard].Papers, cluster.RankedPaper{ID: int32(h.ID), Rank: rank + 1})
		}
		var parts []ta.Partial
		for s, se := range st.shards {
			if len(reqs[s].Papers) == 0 {
				continue
			}
			reqs[s].Limit = limit
			_, sp := obs.StartSpan(ctx, "cluster.shard_score")
			resp, err := se.ScoreExperts(reqs[s])
			sp.End()
			if err != nil {
				return fmt.Errorf("replay cluster.ScoreExperts: %w", err)
			}
			part := ta.Partial{Threshold: resp.Threshold, Exhausted: resp.Exhausted}
			for _, e := range resp.Experts {
				part.Entries = append(part.Entries, ta.Ranking{Expert: hetgraph.NodeID(e.ID), Score: e.Score})
			}
			parts = append(parts, part)
		}
		_, sp := obs.StartSpan(ctx, "ta.merge")
		ta.MergePartials(parts, servedN)
		sp.End()
		root.End()
		rec.addTree(int64(i), 0, root.Tree(), clusterNames)
	}
	return nil
}

// writeLayers times the write path's layers by direct calls, replaying
// the writes the traced loop acknowledged inside the measured window:
// durable.WAL.Append of their encoded updates on a scratch log under the
// served sync policy, pgindex.Index.Insert of their embeddings into a
// scratch index over the set-up corpus, and core.Engine.AddPaper of the
// same papers, which the live engine then holds twice; it runs after
// every check.
func writeLayers(rec *recorder, st *stack, base map[hetgraph.NodeID]vec.Vec32, all []ackedWrite, scratch string, opBase int64) error {
	var acked []ackedWrite
	at := func(i int) time.Duration { return all[i].at }
	for _, i := range inWindow(len(all), at, func(int) bool { return true }, replayCap/5) {
		acked = append(acked, all[i])
	}
	walDir := filepath.Join(scratch, "scratch-wal")
	if err := os.RemoveAll(walDir); err != nil {
		return err
	}
	defer os.RemoveAll(walDir)
	wal, err := durable.OpenWAL(walDir, durable.WALOptions{Sync: durable.SyncAlways, SegmentBytes: 4 << 20})
	if err != nil {
		return err
	}
	cfg := pgindex.DefaultConfig()
	cfg.Seed = servedSeed
	idx := pgindex.BuildWithRand(base, cfg, rand.New(rand.NewSource(servedSeed)))
	for k, a := range acked {
		op := opBase + int64(k)
		paper := core.NewPaper{Text: a.req.Text, Authors: toNodeIDs(a.req.Authors)}
		payload, err := core.EncodeUpdate(paper)
		if err != nil {
			wal.Close()
			return err
		}
		t0 := time.Now()
		_, err = wal.Append(payload)
		rec.add(span{Op: op, ID: rec.newID(), Name: "durable.append"}, t0, time.Now())
		if err != nil {
			wal.Close()
			return fmt.Errorf("durable.Append: %w", err)
		}
		id := hetgraph.NodeID(a.id)
		t0 = time.Now()
		err = idx.Insert(id, st.eng.Embeddings[id])
		rec.add(span{Op: op, ID: rec.newID(), Name: "pgindex.insert"}, t0, time.Now())
		if err != nil {
			wal.Close()
			return fmt.Errorf("pgindex.Insert: %w", err)
		}
		t0 = time.Now()
		_, err = st.eng.AddPaper(paper)
		rec.add(span{Op: op, ID: rec.newID(), Name: "core.add_paper"}, t0, time.Now())
		if err != nil {
			wal.Close()
			return fmt.Errorf("core.AddPaper: %w", err)
		}
	}
	return wal.Close()
}

func toNodeIDs(ids []int32) []hetgraph.NodeID {
	out := make([]hetgraph.NodeID, len(ids))
	for i, id := range ids {
		out[i] = hetgraph.NodeID(id)
	}
	return out
}
