// Package experiments reproduces every table and figure of the paper's
// evaluation: each experiment is a registered runner that executes the
// relevant workloads on the simulated systems and emits tables shaped like
// the paper's artifacts. The cmd/mcbench tool and the repository's
// benchmark harness both drive this registry through a Runner, which owns
// cancellation, the worker pool, and the (optionally persistent) result
// cache.
package experiments

import (
	"fmt"
	"math"
	"sort"

	"multicore/internal/affinity"
	"multicore/internal/core"
	"multicore/internal/mpi"
	"multicore/internal/report"
)

// Scale selects problem sizes: Quick runs in seconds per experiment and is
// what tests and the default bench harness use; Full uses the paper's
// problem sizes (class B and the complete 100-step runs).
type Scale int

// Quick and Full scales.
const (
	Quick Scale = iota
	Full
)

// String names the scale; it participates in persistent store keys, so
// the names are part of the on-disk format.
func (s Scale) String() string {
	switch s {
	case Quick:
		return "quick"
	case Full:
		return "full"
	}
	return fmt.Sprintf("Scale(%d)", int(s))
}

// Experiment is one reproducible paper artifact.
type Experiment struct {
	// ID is the artifact name: "fig2".."fig17", "table2".."table14".
	ID string
	// Title summarizes the artifact.
	Title string
	// Paper states the headline result the paper reports for it.
	Paper string
	// Run executes the experiment on the given runner and returns its
	// tables. Call it through Runner.Run, which adds panic isolation
	// and cancellation handling.
	Run func(r *Runner, s Scale) []*report.Table
}

var registry []Experiment

func register(e Experiment) {
	registry = append(registry, e)
}

// All returns the experiments in registration (paper) order.
func All() []Experiment {
	out := make([]Experiment, len(registry))
	copy(out, registry)
	return out
}

// IDs returns every registered experiment id, sorted.
func IDs() []string {
	ids := make([]string, 0, len(registry))
	for _, e := range registry {
		ids = append(ids, e.ID)
	}
	sort.Strings(ids)
	return ids
}

// ByID finds an experiment.
func ByID(id string) (Experiment, bool) {
	for _, e := range registry {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// sysRanks describes which rank counts a table sweeps per system.
type sysRanks struct {
	System string
	Ranks  []int
}

// numactlColumns is the paper's Table 5 column order.
var numactlColumns = []affinity.Scheme{
	affinity.Default,
	affinity.OneMPILocalAlloc,
	affinity.OneMPIMembind,
	affinity.TwoMPILocalAlloc,
	affinity.TwoMPIMembind,
	affinity.Interleave,
}

// cellValue is the outcome of one table cell's simulation.
type cellValue struct {
	v   float64
	err error
}

// cellString renders a cell value in the paper's style: fmt formats a
// feasible value, infeasible placements show the paper's dash, and any
// other failure (a panicked cell, a deadlock, a stored error under a
// non-resume run) renders as ERR — the sweep continues and the message
// is available via Runner.CellErrors.
func cellString(c cellValue, format func(float64) string) string {
	if c.err != nil {
		if isInfeasible(c.err) {
			return report.NA
		}
		return report.Err
	}
	return format(c.v)
}

// numactlTable builds a paper-style placement table: rows are
// (ranks, system), columns the six schemes; infeasible cells show the
// paper's dash. The (ranks, system, scheme) grid is declared up front and
// executed on the runner's worker pool; rows are assembled in declared
// order, so the table is identical however many workers run.
func numactlTable(r *Runner, title string, sweep []sysRanks, run func(system string, ranks int, scheme affinity.Scheme) (float64, error)) *report.Table {
	t := report.New(title,
		"MPI tasks", "System", "Default", "One MPI + Local Alloc", "One MPI + Membind",
		"Two MPI + Local Alloc", "Two MPI + Membind", "Interleave")
	type coord struct {
		system string
		ranks  int
		scheme affinity.Scheme
	}
	var grid []coord
	for _, sr := range sweep {
		for _, ranks := range sr.Ranks {
			for _, scheme := range numactlColumns {
				grid = append(grid, coord{sr.System, ranks, scheme})
			}
		}
	}
	vals := parMap(r, len(grid), func(i int) cellValue {
		v, err := run(grid[i].system, grid[i].ranks, grid[i].scheme)
		return cellValue{v, err}
	})
	for i := 0; i < len(grid); i += len(numactlColumns) {
		cells := []string{fmt.Sprint(grid[i].ranks), grid[i].system}
		for j := range numactlColumns {
			cells = append(cells, cellString(vals[i+j], report.Seconds))
		}
		t.AddRow(cells...)
	}
	return t
}

// speedupTable builds a multi-core speedup table: rows are (cores, system)
// with one column per labelled workload. Baselines and sweep cells are
// declared as one grid and executed on the runner's worker pool. A failed
// baseline renders its whole column as ERR (no ratio is computable).
func speedupTable(r *Runner, title string, sweep []sysRanks, labels []string,
	run func(system string, ranks int, which int) (float64, error)) *report.Table {
	cols := append([]string{"Number of cores", "System"}, labels...)
	t := report.New(title, cols...)
	type coord struct {
		system string
		ranks  int
		which  int
	}
	var grid []coord
	for _, sr := range sweep {
		for w := range labels {
			grid = append(grid, coord{sr.System, 1, w})
		}
		for _, ranks := range sr.Ranks {
			for w := range labels {
				grid = append(grid, coord{sr.System, ranks, w})
			}
		}
	}
	vals := parMap(r, len(grid), func(i int) cellValue {
		v, err := run(grid[i].system, grid[i].ranks, grid[i].which)
		return cellValue{v, err}
	})
	i := 0
	for _, sr := range sweep {
		base := make([]float64, len(labels))
		for w := range labels {
			if vals[i].err != nil {
				base[w] = math.NaN()
			} else {
				base[w] = vals[i].v
			}
			i++
		}
		for _, ranks := range sr.Ranks {
			cells := []string{fmt.Sprint(ranks), sr.System}
			for w := range labels {
				c := vals[i]
				if c.err == nil && math.IsNaN(base[w]) {
					c = cellValue{err: fmt.Errorf("experiments: %s: no baseline for %s", title, labels[w])}
				}
				b := base[w]
				cells = append(cells, cellString(c, func(v float64) string {
					return report.F(b / v)
				}))
				i++
			}
			t.AddRow(cells...)
		}
	}
	return t
}

// runJob is the core.Job front for simulate: the job resolves to its
// mpi.Config through core.Job.Config, exactly as core.RunContext
// resolves it, and simulates under label.
func (r *Runner) runJob(label string, job core.Job, body func(*mpi.Rank)) (*mpi.Result, error) {
	cfg, err := job.Config()
	if err != nil {
		return nil, err
	}
	return r.simulate(label, cfg, body)
}

// runMPICH2 runs body on the paper's NPB/application stack, MPICH2 on the
// named system under a scheme, labelled by the cell (cellLabel).
func (r *Runner) runMPICH2(workload, system string, ranks int, scheme affinity.Scheme, body func(*mpi.Rank)) (*mpi.Result, error) {
	return r.runJob(cellLabel(workload, system, ranks, scheme),
		core.Job{System: system, Ranks: ranks, Scheme: scheme, Impl: mpi.MPICH2()}, body)
}
