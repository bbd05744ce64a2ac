package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestSmoke runs every workload, untraced and traced, at a tiny corpus
// and checks that each metric BENCHMARK.json names is emitted, with its
// unit, and that no operation or check failed.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds an engine per workload")
	}
	contract := readContract(t)
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			res, err := run(config{workload: w, seed: 3, seconds: 1, trace: traced,
				papers: 100, setups: 2, dir: t.TempDir()})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d",
					w.name, traced, res.Correct, res.Attempted, res.Failed)
			}
			want := contract.EndToEnd
			if traced {
				want = contract.PerLayer
				if r := res.Metrics["error_ratio"].Value; r != 0 {
					t.Errorf("%s: error_ratio = %v", w.name, r)
				}
				// write-mix misses the cache, so the window's PG-Index and
				// TA counters move, also after the set-ups between parts.
				for _, m := range []string{"pgindex.dist_comps_per_search", "ta.sorted_accesses_per_query"} {
					if w.writeEvery > 0 && res.Metrics[m].Value == 0 {
						t.Errorf("%s: %s = 0", w.name, m)
					}
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, contract names %d", w.name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", w.name, traced, m.Name, got, m.Unit)
				}
			}
		}
	}
}

// TestContractNamesWorkloads checks BENCHMARK.json lists exactly the
// workloads the benchmark runs.
func TestContractNamesWorkloads(t *testing.T) {
	contract := readContract(t)
	if len(contract.Workloads) != len(workloads) {
		t.Fatalf("contract has %d workloads, benchmark %d", len(contract.Workloads), len(workloads))
	}
	for _, cw := range contract.Workloads {
		if _, ok := findWorkload(cw.Name); !ok {
			t.Errorf("contract workload %q unknown to the benchmark", cw.Name)
		}
	}
}

type contractMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type contract struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []contractMetric `json:"end_to_end"`
	PerLayer []contractMetric `json:"per_layer"`
}

func readContract(t *testing.T) contract {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(b, &c); err != nil {
		t.Fatal(err)
	}
	return c
}
