package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// benchmarkFile is the part of the repository's BENCHMARK.json the
// smoke test checks the program against.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// smallConfig is a tiny world with a few dozen jobs per workload.
func smallConfig(t *testing.T, workload string, trace int) config {
	cfg := defaultConfig()
	cfg.Workload = workload
	cfg.Seed = 3
	cfg.Seconds = 1
	cfg.Trace = trace
	cfg.WorkDir = t.TempDir()
	cfg.ASes = 150
	cfg.Sites = 8
	cfg.Rounds = 1
	cfg.PairLimit = 40
	cfg.BulkBatch = 16
	cfg.LayerPairs = 20
	return cfg
}

// TestSmoke runs every workload BENCHMARK.json names, untraced and
// traced, on a tiny world: each run must pass the correctness gate and
// emit exactly the metrics BENCHMARK.json lists, each with its unit.
func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) == 0 || len(bf.EndToEnd) == 0 || len(bf.PerLayer) == 0 {
		t.Fatalf("BENCHMARK.json lists no workloads or metrics")
	}
	for _, wl := range bf.Workloads {
		for trace, want := range [][]struct{ Name, Unit string }{toPairs(bf.EndToEnd), toPairs(bf.PerLayer)} {
			t.Run(wl.Name+map[int]string{0: "/untraced", 1: "/traced"}[trace], func(t *testing.T) {
				if _, ok := workloads[wl.Name]; !ok {
					t.Fatalf("BENCHMARK.json names workload %q, which the program does not know", wl.Name)
				}
				res, err := run(smallConfig(t, wl.Name, trace))
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("correct=%v failed=%d attempted=%d", res.Correct, res.Failed, res.Attempted)
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics emitted, BENCHMARK.json lists %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					switch {
					case !ok:
						t.Errorf("metric %s not emitted", m.Name)
					case got.Unit != m.Unit:
						t.Errorf("metric %s has unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
					}
				}
			})
		}
	}
}

func toPairs(ms []struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}) []struct{ Name, Unit string } {
	out := make([]struct{ Name, Unit string }, len(ms))
	for i, m := range ms {
		out[i] = struct{ Name, Unit string }{m.Name, m.Unit}
	}
	return out
}
