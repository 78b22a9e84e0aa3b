package sweepd

import (
	"fmt"
	"sync"

	"multicore/internal/affinity"
	"multicore/internal/experiments"
	"multicore/internal/report"
	"multicore/internal/workload"
)

// Table assembles streamed cell results into the sweep's results table:
// one row per (workload, system, ranks) in grid order, one column per
// scheme, makespan seconds in the paper's cell style (dash for
// infeasible placements, ERR for failures). Local and remote sweeps
// build their tables through this one function, so a distributed run is
// byte-identical to the serial one whenever the cell values are.
func Table(g Grid, results map[string]CellResult) *report.Table {
	cols := append([]string{"Workload", "System", "MPI tasks"}, g.Schemes...)
	t := report.New(g.String(), cols...)
	for _, w := range g.Workloads {
		for _, sys := range g.Systems {
			for _, r := range g.Ranks {
				cells := []string{w, sys, fmt.Sprint(r)}
				for _, sch := range g.Schemes {
					spec := CellSpec{Workload: w, Class: g.Class, Steps: g.Steps, N: g.N,
						System: sys, Ranks: r, Scheme: sch, Scale: g.Scale}
					res, ok := results[spec.Key()]
					switch {
					case !ok:
						cells = append(cells, report.Err)
					case res.Status == StatusOK && res.Promoted:
						// Promoted by the screening tier: simulated seconds,
						// marked so a screened table shows its tier per cell.
						cells = append(cells, report.Seconds(res.Seconds)+"*")
					case res.Status == StatusOK:
						cells = append(cells, report.Seconds(res.Seconds))
					case res.Status == StatusEstimated:
						cells = append(cells, "~"+report.Seconds(res.Seconds))
					case res.Status == StatusInfeasible:
						cells = append(cells, report.NA)
					default:
						cells = append(cells, report.Err)
					}
				}
				t.AddRow(cells...)
			}
		}
	}
	return t
}

// resolveCell turns a wire CellSpec into executor arguments. Errors are
// deterministic properties of the spec (unknown scheme or scale), so
// they become error cells, never retries.
func resolveCell(c CellSpec) (workload.Spec, affinity.Scheme, experiments.Scale, error) {
	spec, err := workload.ParseSpec(c.Workload)
	if err != nil {
		return workload.Spec{}, 0, 0, err
	}
	spec.Class, spec.Steps, spec.N = c.Class, c.Steps, c.N
	scheme, err := affinity.ParseScheme(c.Scheme)
	if err != nil {
		return workload.Spec{}, 0, 0, err
	}
	scale, err := experiments.ParseScale(c.Scale)
	if err != nil {
		return workload.Spec{}, 0, 0, err
	}
	return spec, scheme, scale, nil
}

// resultFor maps one executed cell to its wire result and stamps the
// fingerprint. Cancellation must be filtered by the caller — a canceled
// run describes the sweep stopping, not the cell, and must never be
// reported as the cell's result.
func resultFor(c CellSpec, secs float64, err error) CellResult {
	res := CellResult{Cell: c}
	switch {
	case err == nil:
		res.Status = StatusOK
		res.Seconds = secs
	case isInfeasible(err):
		res.Status = StatusInfeasible
	default:
		res.Status = StatusError
		res.Error = err.Error()
	}
	res.Fingerprint = Fingerprint(res)
	return res
}

// RunLocal executes a grid on one in-process runner — the serial golden
// path distributed runs are checked against. Cells run on up to workers
// goroutines (the runner's own parallelism bound applies inside
// RunWorkloadCell's store/retry path; this pool is the cell-level
// fan-out), and results are keyed by cell for Table. With workers <= 1
// the grid runs strictly in declared order.
func RunLocal(r *experiments.Runner, g Grid, workers int) map[string]CellResult {
	return runCells(r, g.Cells(), workers)
}

// runCells is the cell-level worker pool shared by full sweeps
// (RunLocal) and the promoted tier of screened sweeps (RunScreened).
func runCells(r *experiments.Runner, cells []CellSpec, workers int) map[string]CellResult {
	out := make([]CellResult, len(cells))
	run := func(i int) {
		c := cells[i]
		spec, scheme, scale, err := resolveCell(c)
		var secs float64
		if err == nil {
			secs, err = r.RunWorkloadCell(spec, c.System, c.Ranks, scheme, scale)
		}
		if err != nil && experiments.IsCanceled(err) {
			return // sweep stopped; not a cell outcome
		}
		out[i] = resultFor(c, secs, err)
	}
	if workers > len(cells) {
		workers = len(cells)
	}
	if workers <= 1 {
		for i := range cells {
			if r.Context().Err() != nil {
				break
			}
			run(i)
		}
	} else {
		var (
			wg   sync.WaitGroup
			mu   sync.Mutex
			next int
		)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					if r.Context().Err() != nil {
						return
					}
					mu.Lock()
					i := next
					next++
					mu.Unlock()
					if i >= len(cells) {
						return
					}
					run(i)
				}
			}()
		}
		wg.Wait()
	}
	results := make(map[string]CellResult, len(cells))
	for i, c := range cells {
		if out[i].Status == "" {
			continue // canceled before this cell ran
		}
		results[c.Key()] = out[i]
	}
	return results
}
