package main

import (
	"fmt"
	"math"
	"net/url"
	"strconv"
	"time"

	"expertfind/internal/core"
	"expertfind/internal/dataset"
	"expertfind/internal/durable"
	"expertfind/internal/hetgraph"
	"expertfind/internal/metrics"
	"expertfind/internal/obs"
	"expertfind/internal/pgindex"
	"expertfind/internal/serve"
)

// checkStats counts the checks made outside the timed loop; each
// failed check counts as one failed operation.
type checkStats struct {
	attempted int
	failed    int
	failures  map[string]int
}

func (c *checkStats) record(what string, err error) {
	c.attempted++
	if err != nil {
		c.failed++
		if c.failures == nil {
			c.failures = map[string]int{}
		}
		c.failures[what+": "+err.Error()]++
	}
}

// quality holds the retrieval and ranking quality of the served answers.
type quality struct {
	recallAtM, precisionAt10, meanAP float64
}

// checkAnswers fetches the served answer for each sample query and
// scores it: recall@m of /papers against exact search over the live
// embeddings, and P@10 and MAP of /experts against the query's ground
// truth. With equal set, each /experts answer must also be
// bit-identical to a fresh in-process Engine.TopExperts computation.
func checkAnswers(c *client, st *stack, sample []dataset.Query, equal bool, cs *checkStats) quality {
	answers := make([]*serve.ExpertsResponse, len(sample))
	var recall, p10 float64
	var aps []float64
	for i, q := range sample {
		var er serve.ExpertsResponse
		err := c.get(expertsPath(q.Text), "", &er)
		if err == nil {
			err = checkExperts(&er)
		}
		cs.record("experts reply", err)
		if err != nil {
			continue
		}
		answers[i] = &er
		ids := make([]hetgraph.NodeID, len(er.Experts))
		for k, e := range er.Experts {
			ids[k] = hetgraph.NodeID(e.ID)
		}
		p10 += metrics.PrecisionAtN(ids, q.Truth, 10)
		aps = append(aps, metrics.AveragePrecision(ids, q.Truth))

		var papers []serve.PaperResult
		err = c.get("/papers?q="+url.QueryEscape(q.Text)+"&m="+strconv.Itoa(servedM), "", &papers)
		cs.record("papers reply", err)
		if err != nil {
			continue
		}
		exact := pgindex.BruteForce(st.eng.Embeddings, st.eng.EncodeQuery(q.Text), servedM)
		want := map[hetgraph.NodeID]bool{}
		for _, r := range exact {
			want[r.ID] = true
		}
		hits := 0
		for _, p := range papers {
			if want[hetgraph.NodeID(p.ID)] {
				hits++
			}
		}
		recall += float64(hits) / float64(len(exact))
	}
	if equal {
		// A fresh computation, not the cached answer the server returned.
		st.eng.InvalidateQueryCache()
		for i, q := range sample {
			if answers[i] == nil {
				continue
			}
			cs.record("http equals in-process", sameRanking(st.eng, q.Text, answers[i]))
		}
	}
	n := float64(len(sample))
	return quality{recallAtM: recall / n, precisionAt10: p10 / n, meanAP: metrics.MAP(aps)}
}

func sameRanking(eng *core.Engine, q string, got *serve.ExpertsResponse) error {
	want, _, err := eng.TopExperts(q, servedM, servedN)
	if err != nil {
		return err
	}
	if len(want) != len(got.Experts) {
		return fmt.Errorf("%d experts over HTTP, %d in-process", len(got.Experts), len(want))
	}
	for i, w := range want {
		g := got.Experts[i]
		if int32(w.Expert) != g.ID || math.Float64bits(w.Score) != math.Float64bits(g.Score) {
			return fmt.Errorf("rank %d: HTTP (%d, %v), in-process (%d, %v)", i+1, g.ID, g.Score, w.Expert, w.Score)
		}
	}
	return nil
}

// checkAcked asks /similar about every acknowledged paper.
func checkAcked(c *client, acked []ackedWrite, cs *checkStats) {
	for _, a := range acked {
		var papers []serve.PaperResult
		err := c.get("/similar?id="+strconv.Itoa(int(a.id))+"&m=5", "", &papers)
		if err == nil && len(papers) == 0 {
			err = fmt.Errorf("no similar papers")
		}
		cs.record("similar finds acked id", err)
	}
}

// restart reopens a copy of the store directory the way a server
// restarting after a crash would — regenerate the corpus, load the
// snapshot, replay the WAL — and checks every acknowledged write
// survived. The build callback fails: a restart must not rebuild.
func restart(st *stack, papers int, dir string, acked []ackedWrite, cs *checkStats) (time.Duration, core.RecoveryInfo, error) {
	if err := copyDir(st.dataDir, dir); err != nil {
		return 0, core.RecoveryInfo{}, err
	}
	start := time.Now()
	d := dataset.Generate(dataset.AminerSim(papers))
	store, err := core.OpenStore(dir, d.Graph, func() (*core.Engine, error) {
		return nil, fmt.Errorf("restart found no snapshot")
	}, core.StoreOptions{Sync: durable.SyncAlways, SegmentBytes: 4 << 20, Metrics: obs.NewRegistry()})
	took := time.Since(start)
	if err != nil {
		return 0, core.RecoveryInfo{}, fmt.Errorf("restart: %w", err)
	}
	eng := store.Engine()
	for _, a := range acked {
		id := hetgraph.NodeID(a.id)
		var err error
		if _, ok := eng.Embeddings[id]; !ok || eng.Graph().Label(id) != a.req.Text {
			err = fmt.Errorf("paper %d lost", a.id)
		}
		cs.record("acked write survives restart", err)
	}
	return took, store.Recovery(), store.Close()
}
