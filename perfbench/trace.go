package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"expertfind/internal/obs"
)

// span is one timed interval of one operation. Spans of an operation
// share Op; Parent is the id of the enclosing span (0 for a root).
type span struct {
	Op     int64  `json:"op"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the recorder's epoch
	End    int64  `json:"end_ns"`
}

// servedSpanID gives the served loop's per-operation spans fixed ids —
// level 0 the client, level 1 the front server — so a server-side span
// can name its parent from the operation id alone.
func servedSpanID(op int64, level int64) int64 { return op*4 + level + 1 }

// recorder keeps spans in memory; write dumps them at the end of a run.
type recorder struct {
	epoch time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder {
	r := &recorder{epoch: time.Now()}
	r.ids.Store(1 << 48) // above every servedSpanID
	return r
}

func (r *recorder) newID() int64 { return r.ids.Add(1) }

func (r *recorder) add(s span, start, end time.Time) {
	s.Start = start.Sub(r.epoch).Nanoseconds()
	s.End = end.Sub(r.epoch).Nanoseconds()
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// addTree records an obs span tree rooted at a span the benchmark
// started around a layer call. Nodes named in rename are kept under
// their benchmark name; the program's other spans are skipped, their
// children moving up to the nearest kept ancestor.
func (r *recorder) addTree(op int64, parent int64, n obs.SpanNode, rename map[string]string) {
	name, keep := rename[n.Name]
	id := parent
	if keep {
		id = r.newID()
		start := time.Unix(0, n.StartUnixNano)
		r.add(span{Op: op, ID: id, Parent: parent, Name: name}, start, start.Add(time.Duration(n.DurationNano)))
	}
	for _, c := range n.Children {
		r.addTree(op, id, c, rename)
	}
}

func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanStats indexes recorded spans for the per-layer figures.
type spanStats struct {
	byName map[string][]span
	kids   map[int64][]span
}

func (r *recorder) stats() spanStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := spanStats{byName: map[string][]span{}, kids: map[int64][]span{}}
	for _, sp := range r.spans {
		s.byName[sp.Name] = append(s.byName[sp.Name], sp)
		if sp.Parent != 0 {
			s.kids[sp.Parent] = append(s.kids[sp.Parent], sp)
		}
	}
	return s
}

// durations returns the durations of every span with that name.
func (s spanStats) durations(name string) []time.Duration {
	var out []time.Duration
	for _, sp := range s.byName[name] {
		out = append(out, time.Duration(sp.End-sp.Start))
	}
	return out
}

// selfTimes returns, for every span with that name, its duration minus
// the part of it its children cover.
func (s spanStats) selfTimes(name string) []time.Duration {
	var out []time.Duration
	for _, sp := range s.byName[name] {
		out = append(out, time.Duration(sp.End-sp.Start-covered(sp, s.kids[sp.ID])))
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) int64 {
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, end int64
	end = parent.Start
	for _, v := range iv {
		if v[0] > end {
			end = v[0]
		}
		if v[1] > end {
			total += v[1] - end
			end = v[1]
		}
	}
	return total
}

// byOp maps operation id to the duration of that op's span with name.
func (s spanStats) byOp(name string) map[int64]time.Duration {
	out := map[int64]time.Duration{}
	for _, sp := range s.byName[name] {
		out[sp.Op] = time.Duration(sp.End - sp.Start)
	}
	return out
}
