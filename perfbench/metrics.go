package main

import (
	"fmt"
	"math"
)

// metricDef declares one reported metric. Applies lists the workloads
// that measure it. On any other workload an end-to-end metric reads
// notApplicable and a per-layer metric reads 0 (the layer did no work
// there, or is not observable from outside on it).
type metricDef struct {
	Name    string
	Unit    string
	Better  string // "lower" or "higher"
	Applies []string
}

// notApplicable is what an end-to-end metric reads on a workload that
// does not exercise it: every run must report every end-to-end metric,
// and a constant keeps the parent/child comparison of that pairing
// trivially equal. Zero would have no relative spread.
const notApplicable = 1

const (
	wPaper  = "paper-tables"
	wScale  = "scale-10k"
	wSweep  = "sweep-service"
	wScreen = "screen-grid"
)

var allWorkloads = []string{wPaper, wScale, wSweep, wScreen}

// endToEnd are the metrics a user of the simulator or the sweep service
// sees, measured with tracing off.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", allWorkloads},
	{"wall_s", "s", "lower", allWorkloads},
	{"cold_cells_per_s", "cells/s", "higher", []string{wSweep}},
	{"warm_cells_per_s", "cells/s", "higher", []string{wSweep}},
	{"screen_cells_per_s", "cells/s", "higher", []string{wScreen}},
	{"peak_heap_bytes", "B", "lower", allWorkloads},
	{"fidelity_spearman", "rho", "higher", []string{wPaper}},
}

var engine = []string{wPaper, wScale, wSweep}

// perLayer are the traced run's per-layer metrics.
var perLayer = []metricDef{
	{"sim.events", "count", "lower", engine},
	{"sim.flows", "count", "lower", engine},
	{"sim.settles", "count", "lower", engine},
	{"sim.spawns", "count", "lower", engine},
	{"sim.ns_per_event", "ns/event", "lower", engine},
	{"sim.cpu_share", "fraction", "lower", engine},
	{"mpi.cpu_share", "fraction", "lower", engine},
	{"mem.cpu_share", "fraction", "lower", engine},
	{"mpi.messages", "count", "lower", []string{wScale}},
	{"go.mallocs", "count", "lower", allWorkloads},
	{"go.alloc_bytes", "B", "lower", allWorkloads},
	{"go.gc_cycles", "count", "lower", allWorkloads},
	{"go.gc_cpu_share", "fraction", "lower", allWorkloads},
	{"go.mallocs_per_event", "count/event", "lower", engine},
	{"experiments.cell_s.p50", "s", "lower", []string{wSweep}},
	{"experiments.cell_s.p99", "s", "lower", []string{wSweep}},
	{"sweepd.poll_rtt_s.p50", "s", "lower", []string{wSweep}},
	{"sweepd.poll_rtt_s.p99", "s", "lower", []string{wSweep}},
	{"sweepd.complete_rtt_s.p50", "s", "lower", []string{wSweep}},
	{"sweepd.complete_rtt_s.p99", "s", "lower", []string{wSweep}},
	{"sweepd.requests", "count", "lower", []string{wSweep}},
	{"sweepd.first_cell_s", "s", "lower", []string{wSweep}},
	{"journal.records", "count", "lower", []string{wSweep}},
	{"journal.bytes", "B", "lower", []string{wSweep}},
	{"journal.append_s.p50", "s", "lower", []string{wSweep}},
	{"journal.sync_s.p50", "s", "lower", []string{wSweep}},
	{"journal.sync_s.p99", "s", "lower", []string{wSweep}},
	{"store.entries", "count", "lower", []string{wSweep}},
	{"store.bytes", "B", "lower", []string{wSweep}},
	{"store.hit_ratio", "fraction", "higher", []string{wSweep}},
	{"store.get_s.p50", "s", "lower", []string{wSweep}},
	{"store.get_s.p99", "s", "lower", []string{wSweep}},
	{"store.put_s.p50", "s", "lower", []string{wSweep}},
	{"store.put_s.p99", "s", "lower", []string{wSweep}},
	{"analytic.cell_ns", "ns", "lower", []string{wScreen}},
	{"analytic.mallocs_per_cell", "count/cell", "lower", []string{wScreen}},
	{"analytic.estimate_ns", "ns", "lower", []string{wScreen}},
	{"analytic.promoted_frac", "fraction", "lower", []string{wScreen}},
	{"trace.overhead_s", "s", "lower", allWorkloads},
}

func (d metricDef) appliesTo(workload string) bool {
	for _, w := range d.Applies {
		if w == workload {
			return true
		}
	}
	return false
}

// metricValue is one entry of the result line's "metrics" object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// collect picks the defs' values for a workload out of measured, filling
// the ones that do not apply. A metric that applies but was not measured
// is an error in the benchmark, never silently defaulted.
func collect(defs []metricDef, workload string, measured map[string]float64, fill float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := measured[d.Name]
		switch {
		case !d.appliesTo(workload):
			v = fill
		case !ok:
			return nil, fmt.Errorf("metric %s was not measured on %s", d.Name, workload)
		case math.IsNaN(v) || math.IsInf(v, 0):
			return nil, fmt.Errorf("metric %s on %s is %v", d.Name, workload, v)
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return out, nil
}
