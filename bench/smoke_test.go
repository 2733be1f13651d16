package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"

	"pathhist/internal/analysis"
)

// benchmarkJSON is the driver's view of the benchmark.
type benchmarkJSON struct {
	Command   []string `json:"command"`
	Paths     []string `json:"paths"`
	Seconds   int      `json:"run_seconds"`
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T, lay layout) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(filepath.Dir(lay.module), "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json and metrics.go in step.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	lay, err := layoutAt(".")
	if err != nil {
		t.Fatal(err)
	}
	b := readBenchmarkJSON(t, lay)
	if len(b.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(b.Workloads), len(workloadNames))
	}
	for i, w := range b.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the benchmark", i, w.Name, workloadNames[i])
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, metrics.go %d", len(b.EndToEnd), len(endToEnd))
	}
	for i, m := range b.EndToEnd {
		if d := endToEnd[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, metrics.go %+v", i, m, d)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, metrics.go %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		if d := perLayer[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, metrics.go %+v", i, m, d)
		}
	}
}

// TestSmoke runs every workload end to end on the small dataset — real
// ttserve child, timed window, answer check, restart, traced replay — and
// requires every metric BENCHMARK.json names to come back finite.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns ttserve; skipped with -short")
	}
	lay, err := layoutAt(".")
	if err != nil {
		t.Fatal(err)
	}
	b := readBenchmarkJSON(t, lay)
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			o, err := runWorkload(context.Background(), lay, params{workload: name, seed: 42, seconds: 1, trace: true, small: true})
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range o.problems {
				t.Errorf("incorrect run: %s", p)
			}
			if o.attempted < 50 { // sharded_cold answers about a hundred requests in its second
				t.Errorf("only %d operations attempted", o.attempted)
			}
			for _, m := range b.EndToEnd {
				if v, ok := o.e2e[m.Name]; !ok || v <= 0 || math.IsInf(v, 0) || math.IsNaN(v) {
					t.Errorf("end-to-end metric %s = %v (present %v): want a positive finite value", m.Name, v, ok)
				}
			}
			for _, m := range b.PerLayer {
				if v, ok := o.layer[m.Name]; !ok || v < 0 || math.IsInf(v, 0) || math.IsNaN(v) {
					t.Errorf("per-layer metric %s = %v (present %v): want a finite value", m.Name, v, ok)
				}
			}
			if name == "ingest_mixed" {
				for _, d := range ingestOnly {
					if v := o.ingest[d.name]; v <= 0 {
						t.Errorf("%s = %v", d.name, v)
					}
				}
			}
			if _, err := os.Stat(filepath.Join(lay.module, "out", "trace-"+name+".json")); err != nil {
				t.Errorf("no span file: %v", err)
			}
		})
	}
}

// TestLintClean holds the benchmark to the repository's own invariant lint
// suite; the root module's TestLintClean cannot see a nested module.
func TestLintClean(t *testing.T) {
	lay, err := layoutAt(".")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := analysis.Run(lay.module, []string{"./..."}, analysis.All())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}
