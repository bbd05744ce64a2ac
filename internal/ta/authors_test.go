package ta

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"expertfind/internal/hetgraph"
	"expertfind/internal/hetgraph/testgraph"
)

// wireAuthorLists copies each retrieved paper's byline into fresh slices,
// the way a cluster router holds them after decoding shard responses:
// nothing is shared with the graph.
func wireAuthorLists(g *hetgraph.Graph, papers []hetgraph.NodeID) [][]hetgraph.NodeID {
	out := make([][]hetgraph.NodeID, len(papers))
	for j, p := range papers {
		out[j] = append([]hetgraph.NodeID(nil), g.AuthorsOf(p)...)
	}
	return out
}

// assertSameTA compares the graph path with the author-list path bit for
// bit: experts, order, Float64bits scores and every work stat.
func assertSameTA(t *testing.T, label string, g *hetgraph.Graph, papers []hetgraph.NodeID, n int) []Ranking {
	t.Helper()
	want, wst, err := TopExpertsCtx(context.Background(), g, papers, n)
	if err != nil {
		t.Fatal(err)
	}
	got, gst, err := TopExpertsAuthorsCtx(context.Background(), wireAuthorLists(g, papers), n)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%s n=%d: %d experts from author lists, %d from the graph", label, n, len(got), len(want))
	}
	for i := range want {
		if got[i].Expert != want[i].Expert ||
			math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
			t.Fatalf("%s n=%d rank %d: author lists %+v, graph %+v", label, n, i+1, got[i], want[i])
		}
	}
	if gst != wst {
		t.Fatalf("%s n=%d: stats %+v from author lists, %+v from the graph", label, n, gst, wst)
	}
	return want
}

// Property: ranking from the retrieved papers' author lists equals the
// graph-backed TopExpertsCtx bit for bit on random graphs, for retrieved
// lists from one paper up to the whole corpus (a request for more papers
// than exist retrieves them all).
func TestTopExpertsAuthorsMatchesGraph(t *testing.T) {
	for seed := int64(0); seed < 24; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := testgraph.Random(rng, 40+rng.Intn(40), 10+rng.Intn(30), 1+rng.Intn(4), 3)
		papers := g.NodesOfType(hetgraph.Paper)
		perm := rng.Perm(len(papers))
		m := 1 + rng.Intn(2*len(papers))
		if m > len(papers) {
			m = len(papers)
		}
		retrieved := make([]hetgraph.NodeID, m)
		for i := range retrieved {
			retrieved[i] = papers[perm[i]]
		}
		for _, n := range []int{1, 3, 10, 1000} {
			assertSameTA(t, "random", g, retrieved, n)
		}
	}
}

// Exact ties at the n-th place: both paths must keep the smaller NodeID
// in the last slot, whichever paper the tied score came from.
func TestTopExpertsAuthorsTieAtBoundary(t *testing.T) {
	for _, tiedFirst := range []bool{true, false} {
		g, papers, tied := tieGraph(t, tiedFirst)
		full := assertSameTA(t, "tie", g, papers, 4)
		if full[1].Score != full[2].Score {
			t.Fatalf("tiedFirst=%v: no tie at positions 2,3: %v", tiedFirst, full)
		}
		for n := 1; n <= 4; n++ {
			got := assertSameTA(t, "tie", g, papers, n)
			if !reflect.DeepEqual(got, full[:n]) {
				t.Fatalf("tiedFirst=%v n=%d: %v, want prefix %v", tiedFirst, n, got, full[:n])
			}
		}
		if top2 := assertSameTA(t, "tie", g, papers, 2); top2[1].Expert != tied[0] {
			t.Fatalf("tiedFirst=%v: boundary tie kept %v, want the smaller id %v", tiedFirst, top2[1], tied[0])
		}
	}
}
