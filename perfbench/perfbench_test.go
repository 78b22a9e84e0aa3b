package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// The set-up probes re-execute the running binary; under test that is
// the test binary, which serves them here.
func TestMain(m *testing.M) {
	if spec := os.Getenv(probeEnv); spec != "" {
		if err := setupProbe(spec); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	errLog = io.Discard
	os.Exit(m.Run())
}

// A tiny run of every workload, timed and traced, reports every metric
// with its unit, and its result line has exactly the contract's keys.
func TestTinyRunsEmitEveryMetric(t *testing.T) {
	for _, wl := range allWorkloads {
		for _, trace := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", wl, trace), func(t *testing.T) {
				if testing.Short() && wl == wScale {
					t.Skip("ext-scale has no tiny size")
				}
				cfg := config{Workload: wl, Seed: 3, Seconds: 0.01, Trace: trace, Work: t.TempDir(), Tiny: true}
				res, err := run(cfg, t.Logf)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				defs := endToEnd
				if trace {
					defs = perLayer
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					v, ok := res.Metrics[d.Name]
					if !ok || v.Unit != d.Unit {
						t.Errorf("metric %s = %+v, want unit %s", d.Name, v, d.Unit)
					}
					if !trace && v.Value == 0 {
						t.Errorf("end-to-end metric %s is 0", d.Name)
					}
				}

				var out bytes.Buffer
				if err := printResult(&out, record{Workload: wl, Trace: trace, Host: fingerprint(), Result: res}); err != nil {
					t.Fatal(err)
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var last map[string]json.RawMessage
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
					t.Fatal(err)
				}
				var keys []string
				for k := range last {
					keys = append(keys, k)
				}
				sort.Strings(keys)
				if want := []string{"attempted", "correct", "failed", "metrics"}; !reflect.DeepEqual(keys, want) {
					t.Errorf("result keys %v, want %v", keys, want)
				}
			})
		}
	}
}

// The metric tables here and BENCHMARK.json at the repository root must
// name the same workloads and metrics with the same units and directions.
func TestBenchmarkJSONMatchesDefinitions(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, allWorkloads) {
		t.Errorf("workloads %v, want %v", names, allWorkloads)
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics, want %d", len(spec.EndToEnd), len(endToEnd))
	}
	for i, m := range spec.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end_to_end[%d] = %+v, want %s %s %s with a bound in (0, 0.25]", i, m, d.Name, d.Unit, d.Better)
		}
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics, want %d", len(spec.PerLayer), len(perLayer))
	}
	for i, m := range spec.PerLayer {
		d := perLayer[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per_layer[%d] = %+v, want %s %s %s", i, m, d.Name, d.Unit, d.Better)
		}
	}
}

func TestCompareRefusesOtherHosts(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, h host, wall float64) string {
		rec := record{Workload: wPaper, Host: h, Result: runResult{Correct: true, Attempted: 1,
			Metrics: map[string]metricValue{"wall_s": {Value: wall, Unit: "s"}}}}
		var out bytes.Buffer
		if err := printResult(&out, rec); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a := host{CPU: "cpu A", NProc: 2, GOMAXPROCS: 2, Go: "go1.24.0"}
	b := a
	b.CPU = "cpu B"
	base, same, other := write("base", a, 2), write("same", a, 1.5), write("other", b, 1)

	var out bytes.Buffer
	if err := compareFiles(&out, base, same); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "wall_s") || !strings.Contains(out.String(), "-25.0%") {
		t.Errorf("comparison output lacks the wall_s change:\n%s", out.String())
	}
	if err := compareFiles(io.Discard, base, other); err == nil || !strings.Contains(err.Error(), "different hosts") {
		t.Errorf("comparing across hosts: err = %v, want a refusal", err)
	}
}

func TestCollectRejectsMissingMetrics(t *testing.T) {
	if _, err := collect(endToEnd, wSweep, map[string]float64{"setup_s": 1}, notApplicable); err == nil {
		t.Error("collect accepted a run that did not measure wall_s")
	}
	got, err := collect(endToEnd[:3], wPaper, map[string]float64{"setup_s": 1, "wall_s": 2}, notApplicable)
	if err != nil {
		t.Fatal(err)
	}
	if got["cold_cells_per_s"].Value != notApplicable {
		t.Errorf("inapplicable metric = %v, want %v", got["cold_cells_per_s"], notApplicable)
	}
}
