// Package cluster is the multi-process topology of the system: a
// deterministic corpus partitioner, a shard server mode that retrieves
// over its slice of the papers on the internal /shard/papers API, and a
// router mode that gathers each shard's retrieved papers with their
// author lists in one round trip and ranks experts itself with the
// paper's TA (see DESIGN.md, "Sharded cluster layer").
//
// Shards own disjoint subsets of the papers, assigned by a hash of the
// paper id that every process computes identically, so the router needs no
// placement service: ownership is a pure function of (paper id, shard
// count). Authors are not partitioned — every process holds the full
// graph, and the router scores an author over the merged global list.
package cluster

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"expertfind/internal/hetgraph"
)

// AssignShard returns the shard (0..shards-1) owning paper p: FNV-1a over
// the id's little-endian bytes, reduced modulo the shard count. The hash —
// not the raw id — decides ownership so consecutive ids (papers generated
// or ingested together, likely on related topics) spread across shards
// instead of landing on one.
func AssignShard(p hetgraph.NodeID, shards int) int {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	v := uint32(p)
	for i := 0; i < 4; i++ {
		h ^= v & 0xff
		h *= prime32
		v >>= 8
	}
	return int(h % uint32(shards))
}

// PartitionPapers splits the graph's papers into shard-owned lists, each
// in ascending id order. Every paper lands in exactly one list.
func PartitionPapers(g *hetgraph.Graph, shards int) [][]hetgraph.NodeID {
	out := make([][]hetgraph.NodeID, shards)
	for _, p := range g.NodesOfType(hetgraph.Paper) {
		s := AssignShard(p, shards)
		out[s] = append(out[s], p)
	}
	return out
}

// ShardInfo describes one shard slice in a partition manifest.
type ShardInfo struct {
	Papers  int `json:"papers"`
	Authors int `json:"authors"`
	Nodes   int `json:"nodes"`
	Edges   int `json:"edges"`
}

// Manifest describes a partitioned corpus directory.
type Manifest struct {
	Shards int         `json:"shards"`
	Papers int         `json:"papers"`
	Slices []ShardInfo `json:"slices"`
}

// WritePartition materialises the S-way partition of g under dir:
//
//	dir/manifest.json         partition summary
//	dir/shard-<i>/graph.json  the induced subgraph owned by shard i
//	dir/shard-<i>/idmap.json  global id -> slice-local id
//
// Each slice keeps the shard's papers plus every adjacent author, venue
// and topic (authors therefore appear in several slices), with author
// order — and hence Zipf contribution ranks — preserved. The output is
// deterministic: same graph, same shard count, same bytes.
func WritePartition(dir string, g *hetgraph.Graph, shards int) (*Manifest, error) {
	if shards < 1 {
		return nil, fmt.Errorf("cluster: shard count must be positive, got %d", shards)
	}
	parts := PartitionPapers(g, shards)
	man := &Manifest{Shards: shards, Papers: g.NumNodesOfType(hetgraph.Paper)}
	for i, papers := range parts {
		sub, idmap, err := hetgraph.InducedSubgraph(g, papers)
		if err != nil {
			return nil, fmt.Errorf("cluster: slice %d: %w", i, err)
		}
		sdir := filepath.Join(dir, fmt.Sprintf("shard-%d", i))
		if err := os.MkdirAll(sdir, 0o755); err != nil {
			return nil, err
		}
		if err := writeGraphFile(filepath.Join(sdir, "graph.json"), sub); err != nil {
			return nil, err
		}
		if err := writeJSONFile(filepath.Join(sdir, "idmap.json"), idmapWire(idmap)); err != nil {
			return nil, err
		}
		man.Slices = append(man.Slices, ShardInfo{
			Papers:  sub.NumNodesOfType(hetgraph.Paper),
			Authors: sub.NumNodesOfType(hetgraph.Author),
			Nodes:   sub.NumNodes(),
			Edges:   sub.NumEdges(),
		})
	}
	if err := writeJSONFile(filepath.Join(dir, "manifest.json"), man); err != nil {
		return nil, err
	}
	return man, nil
}

// ReadManifest loads dir/manifest.json.
func ReadManifest(dir string) (*Manifest, error) {
	b, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		return nil, err
	}
	var m Manifest
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("cluster: manifest: %w", err)
	}
	if m.Shards < 1 || len(m.Slices) != m.Shards {
		return nil, fmt.Errorf("cluster: manifest lists %d slices for %d shards", len(m.Slices), m.Shards)
	}
	return &m, nil
}

// ReadSlice loads shard i's graph slice and its global->local id map.
func ReadSlice(dir string, i int) (*hetgraph.Graph, map[hetgraph.NodeID]hetgraph.NodeID, error) {
	sdir := filepath.Join(dir, fmt.Sprintf("shard-%d", i))
	f, err := os.Open(filepath.Join(sdir, "graph.json"))
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	g, err := hetgraph.ReadJSON(f)
	if err != nil {
		return nil, nil, fmt.Errorf("cluster: slice %d graph: %w", i, err)
	}
	b, err := os.ReadFile(filepath.Join(sdir, "idmap.json"))
	if err != nil {
		return nil, nil, err
	}
	var wire map[string]int32
	if err := json.Unmarshal(b, &wire); err != nil {
		return nil, nil, fmt.Errorf("cluster: slice %d idmap: %w", i, err)
	}
	idmap := make(map[hetgraph.NodeID]hetgraph.NodeID, len(wire))
	for k, v := range wire {
		var old int32
		if _, err := fmt.Sscanf(k, "%d", &old); err != nil {
			return nil, nil, fmt.Errorf("cluster: slice %d idmap key %q: %w", i, k, err)
		}
		idmap[hetgraph.NodeID(old)] = hetgraph.NodeID(v)
	}
	return g, idmap, nil
}

// idmapWire renders the id map with string keys (JSON objects cannot key
// on numbers) in a shape json.Unmarshal reverses losslessly.
func idmapWire(m map[hetgraph.NodeID]hetgraph.NodeID) map[string]int32 {
	out := make(map[string]int32, len(m))
	for k, v := range m {
		out[fmt.Sprintf("%d", k)] = int32(v)
	}
	return out
}

func writeGraphFile(path string, g *hetgraph.Graph) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := g.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func writeJSONFile(path string, v interface{}) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
