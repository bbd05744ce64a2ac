package cluster

import (
	"expertfind/internal/hetgraph"
	"expertfind/internal/obs"
)

// The internal shard wire protocol. One round trip per shard serves one
// /experts query:
//
//	GET /shard/papers?q=<text>&m=<count>&authors=1
//
// Each shard retrieves the top-m papers among the papers it OWNS, with
// exact distances, and sends each one's author ids in byline order plus
// one table of the distinct authors on the page (label and total paper
// count). The router merges all shards' lists by (distance, id) into the
// global top-m and runs the paper's TA over those author lists itself
// (ta.TopExpertsAuthorsCtx): an expert's score from one paper depends only
// on the paper's global rank and its byline (Eq. 4-6), so the router's
// ranking, candidate count and TA depth are those of the single-node path
// over the same retrieved list. The router's /papers asks for meta=1
// (paper text and author labels) instead of authors=1.
//
// Responses are compact JSON: only the router reads this wire.
// Expert and paper ids on it are GLOBAL: every process builds the same
// deterministic engine over the same corpus, so node ids agree
// everywhere and no translation tables are needed in the hot path.
//
// ExpertsRequest, RankedPaper, ShardExpertsResponse and WireExpert are
// the payloads of ShardEngine.ScoreExperts, a shard-local partial expert
// ranking that the served path does not use.

// WirePaper is one retrieved paper in a /shard/papers response. Dist is
// the exact L2 distance to the encoded query; JSON round-trips float64
// losslessly (shortest-form encoding), so cross-shard merge order is
// decided on the same bits the shard computed.
type WirePaper struct {
	ID   int32   `json:"id"`
	Dist float64 `json:"dist"`
	// Text and Authors are filled only when the request asked for
	// metadata (meta=1) — the router's /papers needs them, /experts does
	// not.
	Text    string   `json:"text,omitempty"`
	Authors []string `json:"authors,omitempty"`
	// AuthorIDs is the paper's byline as global author ids, filled only
	// when the request asked for authors=1.
	AuthorIDs []hetgraph.NodeID `json:"author_ids,omitempty"`
}

// WireAuthor is one row of a /shard/papers author table: what the router
// needs to render an expert it ranked without holding the corpus.
type WireAuthor struct {
	ID   hetgraph.NodeID `json:"id"`
	Name string          `json:"name"`
	// Papers is the author's total paper count over the whole corpus
	// (every shard holds the full graph).
	Papers int `json:"papers"`
}

// PapersResponse is the /shard/papers payload.
type PapersResponse struct {
	Shard  int         `json:"shard"`
	Papers []WirePaper `json:"papers"`
	// AuthorTable lists each distinct author of Papers once, present only
	// when the request asked for authors=1.
	AuthorTable []WireAuthor `json:"author_table,omitempty"`
	// Trace is the shard's completed span tree for this sub-request,
	// present only when the router asked for collection (X-Trace-Collect)
	// — the raw material it grafts into the assembled per-query trace.
	Trace *obs.SpanNode `json:"trace,omitempty"`
}

// RankedPaper names one globally ranked retrieved paper in an
// ExpertsRequest. Rank is 1-based over the merged global list.
type RankedPaper struct {
	ID   int32 `json:"id"`
	Rank int   `json:"rank"`
}

// ExpertsRequest asks ShardEngine.ScoreExperts for a partial ranking.
// Papers must all be owned by the receiving shard. Limit bounds the
// returned partial list; <= 0 asks for the complete list (Exhausted
// response).
type ExpertsRequest struct {
	Papers []RankedPaper `json:"papers"`
	Limit  int           `json:"limit"`
}

// Contribution is one per-paper term of an expert's partial score:
// S(a, p) of Eq. 4 for the owned paper at global rank Rank, listed in
// ascending rank — the float summation order of single-node
// ta.TopExperts.
type Contribution struct {
	Rank int     `json:"rank"`
	S    float64 `json:"s"`
}

// WireExpert is one entry of a shard's partial expert list.
type WireExpert struct {
	ID int32 `json:"id"`
	// Score is the shard-local partial sum, the ordering/threshold key.
	Score float64 `json:"score"`
	// Name and Papers carry response metadata (author label, total
	// authored papers).
	Name   string `json:"name"`
	Papers int    `json:"papers"`
	// Contribs lists the per-paper terms of Score, ascending by rank.
	Contribs []Contribution `json:"contribs"`
}

// ShardExpertsResponse is the ScoreExperts result: the shard's partial
// top list (score descending, id ascending), truncated to the requested
// limit, plus the bound information ta.MergePartials needs.
type ShardExpertsResponse struct {
	Shard   int          `json:"shard"`
	Experts []WireExpert `json:"experts"`
	// Threshold is the largest partial score omitted by truncation
	// (0 when Exhausted).
	Threshold float64 `json:"threshold"`
	// Exhausted reports the list is complete: every expert with a
	// non-zero partial score on this shard is present.
	Exhausted bool `json:"exhausted"`
	// Candidates counts distinct experts over the shard's owned papers,
	// before truncation.
	Candidates int `json:"candidates"`
}
