// Package ta implements §IV-C: expert scoring over the retrieved top-m
// papers (Eq. 4-6, with Zipf-distributed author-contribution weights) and
// the threshold-algorithm (TA/NRA) top-n expert finding that terminates
// without scanning and ranking all candidates. A full-scan ranker is the
// "w/o TA" baseline of Figure 7. The generic list-aggregation core lives
// in aggregate.go.
//
// Note on polarity: Problem 1 writes arg min R(a), but the score of Eq. 4-6
// accumulates reciprocal ranks, so larger R means a better expert, and the
// paper's own TA walkthrough (Example 5) returns the experts with the
// greatest R. We follow the walkthrough: top-n means the n largest R(a).
package ta

import (
	"context"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"expertfind/internal/hetgraph"
)

// Ranking is one returned expert with its ranking score R(a).
type Ranking struct {
	Expert hetgraph.NodeID
	Score  float64
}

// Stats reports the work done by a TA run, for the efficiency evaluation.
type Stats struct {
	// Candidates is |C|, the number of distinct candidate experts.
	Candidates int
	// SortedAccesses counts entries read from the ranked lists before
	// termination.
	SortedAccesses int
	// Depth is the list depth reached when the threshold test fired.
	Depth int
	// EarlyTermination reports whether TA stopped before exhausting the
	// lists.
	EarlyTermination bool
}

// ContributionWeight returns w(a,p) of Eq. 5 for the author at 1-based
// rank within a paper having numAuthors authors: a Zipf distribution over
// author positions, normalised by the harmonic number H(numAuthors).
func ContributionWeight(rank, numAuthors int) float64 {
	if rank < 1 || numAuthors < 1 || rank > numAuthors {
		return 0
	}
	return 1 / (float64(rank) * harmonic(numAuthors))
}

// ExpertScore returns S(a,p) of Eq. 4 for the author at 1-based authorRank
// of the paper at 1-based paperRank in the retrieved list.
func ExpertScore(paperRank, authorRank, numAuthors int) float64 {
	if paperRank < 1 {
		return 0
	}
	return ContributionWeight(authorRank, numAuthors) / float64(paperRank)
}

// harmonic returns H(n), memoised: every H(i) extends H(i-1) by 1/i, the
// same ascending summation the direct loop performs, so cached and
// uncached values are bit-identical. The table is tiny (author counts),
// swapped atomically so concurrent rankings read without locking.
func harmonic(n int) float64 {
	if n < 1 {
		return 0
	}
	tab, _ := harmonicVal.Load().([]float64)
	if n < len(tab) {
		return tab[n]
	}
	harmonicMu.Lock()
	defer harmonicMu.Unlock()
	tab, _ = harmonicVal.Load().([]float64)
	if n < len(tab) {
		return tab[n]
	}
	nt := make([]float64, n+1)
	copy(nt, tab)
	start := len(tab)
	if start < 1 {
		start = 1
	}
	for i := start; i <= n; i++ {
		nt[i] = nt[i-1] + 1/float64(i)
	}
	harmonicVal.Store(nt)
	return nt[n]
}

var (
	harmonicMu  sync.Mutex
	harmonicVal atomic.Value // []float64; index i holds H(i)
)

// candidateIndex interns expert NodeIDs as dense keys for Aggregate: the
// key of id is its position in the sorted ids slice.
type candidateIndex struct {
	ids []hetgraph.NodeID
}

// buildLists materialises the m ranked lists of Figure 6, one per
// retrieved paper given as its author ids in byline order (rank 1
// first), restricted to experts with non-zero score (a paper's own
// authors; all other candidates implicitly score zero, exactly the
// S(a,p_j)=0 convention of the paper). The Zipf weight is strictly
// decreasing in author rank, so each list is already in descending score
// order. All entries live in one flat arena sliced per paper.
func buildLists(authorLists [][]hetgraph.NodeID) ([][]ListEntry, *candidateIndex) {
	// Assign dense keys in ascending NodeID order so Aggregate's key
	// tie-break coincides with the package's NodeID tie-break — otherwise
	// equal-score experts at the top-n boundary could differ from the
	// full-scan ranking. Sort-and-compact plus binary search beats a hash
	// map here: candidate sets are a few hundred ids.
	total := 0
	for _, authors := range authorLists {
		total += len(authors)
	}
	all := make([]hetgraph.NodeID, 0, total)
	for _, authors := range authorLists {
		all = append(all, authors...)
	}
	slices.Sort(all)
	all = slices.Compact(all)
	cands := &candidateIndex{ids: all}

	arena := make([]ListEntry, 0, total)
	lists := make([][]ListEntry, 0, len(authorLists))
	for j, authors := range authorLists {
		start := len(arena)
		for i, a := range authors {
			k, _ := slices.BinarySearch(all, a)
			arena = append(arena, ListEntry{Key: int32(k), Score: ExpertScore(j+1, i+1, len(authors))})
		}
		lists = append(lists, arena[start:len(arena):len(arena)])
	}
	return lists, cands
}

// TopExperts runs the TA-based top-n expert finding of §IV-C over the
// ranked retrieved papers (rank 1 first). It maintains upper and lower
// bounds of R(a) per visited expert (Eq. 7) and terminates as soon as the
// n-th largest lower bound is at least every other candidate's upper bound
// (Theorem 2). The returned experts carry their exact scores, descending.
func TopExperts(g *hetgraph.Graph, papers []hetgraph.NodeID, n int) ([]Ranking, Stats) {
	out, st, _ := TopExpertsCtx(context.Background(), g, papers, n)
	return out, st
}

// TopExpertsCtx is TopExperts with cooperative cancellation, checked once
// per TA depth round. On cancellation it returns ctx.Err() and the work
// stats accumulated so far; no partial ranking is returned, because a
// truncated TA scan carries no correctness guarantee.
func TopExpertsCtx(ctx context.Context, g *hetgraph.Graph, papers []hetgraph.NodeID, n int) ([]Ranking, Stats, error) {
	authorLists := make([][]hetgraph.NodeID, len(papers))
	for j, p := range papers {
		authorLists[j] = g.AuthorsOf(p)
	}
	return TopExpertsAuthorsCtx(ctx, authorLists, n)
}

// TopExpertsAuthorsCtx is TopExpertsCtx over the retrieved papers' author
// lists instead of a graph: authorLists[j] holds the author ids, in
// byline order, of the paper at rank j+1. S(a,p) depends only on the
// paper's rank and its byline, so a caller holding the lists — a cluster
// router that gathered them from its shards — ranks experts exactly as
// the single-node path does, down to the score bits and the stats.
func TopExpertsAuthorsCtx(ctx context.Context, authorLists [][]hetgraph.NodeID, n int) ([]Ranking, Stats, error) {
	lists, cands := buildLists(authorLists)

	// Random-access scorer: recompute R(a) by walking the retrieved list
	// in ASCENDING PAPER RANK. This order is the package's canonical
	// summation order — Aggregate re-scores every returned winner through
	// it, so published scores are a pure function of the lists. The
	// per-key contribution index (CSR over one flat buffer, filled in
	// ascending paper rank so the prefix order IS the canonical order) is
	// built lazily on the first call — TA often terminates without needing
	// random access at all.
	var coff, ccnt []int32
	var cbuf []float64
	exact := func(key int32) float64 {
		if cbuf == nil {
			total := 0
			ccnt = make([]int32, len(cands.ids))
			for _, l := range lists {
				total += len(l)
				for _, e := range l {
					ccnt[e.Key]++
				}
			}
			coff = make([]int32, len(cands.ids))
			var off int32
			for k := range coff {
				coff[k] = off
				off += ccnt[k]
				ccnt[k] = 0
			}
			cbuf = make([]float64, total)
			for _, l := range lists {
				for _, e := range l {
					cbuf[coff[e.Key]+ccnt[e.Key]] = e.Score
					ccnt[e.Key]++
				}
			}
		}
		var r float64
		for _, s := range cbuf[coff[key] : coff[key]+ccnt[key]] {
			r += s
		}
		return r
	}

	top, st, err := AggregateCtx(ctx, lists, len(cands.ids), n, exact)
	st.record()
	if err != nil {
		return nil, st, err
	}
	if len(top) == 0 {
		return nil, st, nil
	}
	out := make([]Ranking, len(top))
	for i, ks := range top {
		out[i] = Ranking{Expert: cands.ids[ks.Key], Score: ks.Score}
	}
	// Aggregate breaks ties by dense key; re-break by NodeID for a stable
	// public contract.
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].Expert < out[j].Expert
	})
	return out, st, nil
}

// TopExpertsFullScan computes R(a) for every candidate expert of the
// retrieved papers and returns the n largest — the "w/o TA" baseline.
func TopExpertsFullScan(g *hetgraph.Graph, papers []hetgraph.NodeID, n int) []Ranking {
	scores := map[hetgraph.NodeID]float64{}
	for j, p := range papers {
		authors := g.AuthorsOf(p)
		for i, a := range authors {
			scores[a] += ExpertScore(j+1, i+1, len(authors))
		}
	}
	out := make([]Ranking, 0, len(scores))
	for a, s := range scores {
		out = append(out, Ranking{Expert: a, Score: s})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].Expert < out[j].Expert
	})
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}
