package experiments

import (
	"fmt"
	"strconv"

	"multicore/internal/affinity"
	"multicore/internal/kernels/blas"
	"multicore/internal/kernels/stream"
	"multicore/internal/machine"
	"multicore/internal/mpi"
	"multicore/internal/report"
	"multicore/internal/topology"
	"multicore/internal/units"
)

func init() {
	register(Experiment{
		ID:    "fig2",
		Title: "Memory bandwidth scaling (STREAM triad)",
		Paper: "Bandwidth rises almost linearly while first cores activate; second cores are flat or degrade it; the 8-socket system starts far lower.",
		Run: func(r *Runner, s Scale) []*report.Table {
			return runTriadFigure(r, s, "Figure 2: aggregate STREAM triad bandwidth (GB/s)", false)
		},
	})
	register(Experiment{
		ID:    "fig3",
		Title: "Memory bandwidth per core (STREAM triad)",
		Paper: "Per-core bandwidth halves (or worse) when the second core of each socket joins.",
		Run: func(r *Runner, s Scale) []*report.Table {
			return runTriadFigure(r, s, "Figure 3: per-core STREAM triad bandwidth (GB/s)", true)
		},
	})
	register(Experiment{
		ID:    "fig4",
		Title: "BLAS-1 DAXPY performance, ACML (aggregate and per core)",
		Paper: "In-cache DAXPY scales with cores; out-of-cache runs collide on the memory link.",
		Run: func(r *Runner, s Scale) []*report.Table {
			return runBLASScaling(r, s, "Figure 4: DAXPY (ACML) on DMZ — aggregate and per-core MFlop/s", daxpy(s, blas.ACML))
		},
	})
	register(Experiment{
		ID:    "fig5",
		Title: "BLAS-1 DAXPY performance per core, vanilla",
		Paper: "One vs two MPI tasks per socket: the second task gains little once vectors leave cache.",
		Run: func(r *Runner, s Scale) []*report.Table {
			return runBLASPerSocket(r, s, "Figure 5: DAXPY (vanilla) per-core MFlop/s — one vs two tasks per socket (DMZ)", daxpy(s, blas.Vanilla))
		},
	})
	register(Experiment{
		ID:    "fig6",
		Title: "BLAS-3 DGEMM performance, ACML",
		Paper: "DGEMM is cache-friendly: near-peak rates, aggregate scales with core count.",
		Run: func(r *Runner, s Scale) []*report.Table {
			return runBLASScaling(r, s, "Figure 6: DGEMM (ACML) on DMZ — aggregate and per-core GFlop/s", dgemm(s, blas.ACML))
		},
	})
	register(Experiment{
		ID:    "fig7",
		Title: "BLAS-3 DGEMM performance per core, vanilla",
		Paper: "Per-core DGEMM holds up with two tasks per socket even for the unoptimized code.",
		Run: func(r *Runner, s Scale) []*report.Table {
			return runBLASPerSocket(r, s, "Figure 7: DGEMM (vanilla) per-core GFlop/s — one vs two tasks per socket (DMZ)", dgemm(s, blas.Vanilla))
		},
	})
}

// streamCores lists the paper's activation order: first core of each
// socket, then second cores.
func streamCores(spec *machine.Spec) []topology.CoreID {
	var order []topology.CoreID
	for c := 0; c < spec.Topo.CoresPerSock; c++ {
		for s := 0; s < spec.Topo.NumSockets; s++ {
			cores := spec.Topo.CoresOn(topology.SocketID(s))
			if c < len(cores) {
				order = append(order, cores[c])
			}
		}
	}
	return order
}

// triadAggregate runs the triad on the first n cores of the activation
// order and returns aggregate bandwidth in GB/s. Memoized: Figure 3 is
// Figure 2 normalized per core, so the grids share every cell.
func triadAggregate(r *Runner, spec *machine.Spec, n int, vecBytes float64) (float64, error) {
	return runCell(r, CellKey{
		Workload: fmt.Sprintf("stream-triad/%g", vecBytes),
		System:   spec.Topo.Name, Ranks: n,
	}, func() (float64, error) {
		order := streamCores(spec)[:n]
		bindings := make([]affinity.Binding, n)
		for i, c := range order {
			bindings[i] = affinity.Binding{Core: c, MemPolicy: 1 /* LocalAlloc */}
		}
		res, err := r.simulate(cellLabel(fmt.Sprintf("stream-triad-%g", vecBytes), spec.Topo.Name, n, affinity.Default),
			mpi.Config{Spec: spec, Impl: mpi.LAM(), Bindings: bindings}, func(r *mpi.Rank) {
				stream.RunTriad(r, stream.Params{VectorBytes: vecBytes, Iters: 2})
			})
		if err != nil {
			return 0, err
		}
		return res.Sum(stream.MetricBandwidth) / units.Giga, nil
	})
}

// triadGrid evaluates the (active cores × system) STREAM grid on the
// worker pool and returns cells indexed [n-1][system]; cells with more
// cores than the system has are infeasible.
func triadGrid(r *Runner, maxCores int, vec float64) [][]cellValue[float64] {
	specs := figSystems()
	flat := parMap(r, maxCores*len(specs), func(i int) cellValue[float64] {
		n, spec := i/len(specs)+1, specs[i%len(specs)]
		if n > spec.Topo.NumCores() {
			return cellValue[float64]{err: &affinity.ErrInfeasible{Ranks: n, System: spec.Topo.Name}}
		}
		v, err := triadAggregate(r, spec, n, vec)
		return cellValue[float64]{v, err}
	})
	grid := make([][]cellValue[float64], maxCores)
	for n := 0; n < maxCores; n++ {
		grid[n] = flat[n*len(specs) : (n+1)*len(specs)]
	}
	return grid
}

func figSystems() []*machine.Spec {
	return []*machine.Spec{machine.Tiger(), machine.DMZ(), machine.Longs()}
}

// runTriadFigure is Figure 2, or Figure 3 (the same cells per core).
func runTriadFigure(r *Runner, s Scale, title string, perCore bool) []*report.Table {
	vec := 16.0 * units.MB
	if s == Full {
		vec = 64 * units.MB
	}
	t := report.New(title, "Active cores", "Tiger", "DMZ", "Longs")
	for n, row := range triadGrid(r, 16, vec) {
		cells := []string{fmt.Sprint(n + 1)}
		for _, c := range row {
			if perCore {
				c.v /= float64(n + 1)
			}
			cells = append(cells, cellString(c, report.F))
		}
		t.AddRow(cells...)
	}
	return []*report.Table{t}
}

// blasKernel is one BLAS kernel variant of Figures 4–7, swept over
// problem sizes on DMZ.
type blasKernel struct {
	label, sizeCol string // engine label prefix ("daxpy-ACML") and the size column
	sizes          []int
	body           func(n int) func(*mpi.Rank)
	metric         string  // the kernel's reported flop rate
	unit           float64 // of the table's rates
}

// daxpy is the DAXPY kernel of Figures 4 and 5.
func daxpy(s Scale, v blas.Variant) blasKernel {
	sizes := []int{1 << 10, 1 << 12, 1 << 14, 1 << 16, 1 << 18, 1 << 20, 1 << 22}
	if s == Full {
		sizes = append(sizes, 1<<23, 1<<24)
	}
	return blasKernel{"daxpy-" + v.String(), "Vector length", sizes, func(n int) func(*mpi.Rank) {
		return func(r *mpi.Rank) { blas.RunDaxpy(r, blas.DaxpyParams{N: n, Variant: v, Iters: 4}) }
	}, blas.MetricDaxpyFlops, units.Mega}
}

// dgemm is the DGEMM kernel of Figures 6 and 7.
func dgemm(s Scale, v blas.Variant) blasKernel {
	sizes := []int{64, 128, 256, 512, 1024}
	if s == Full {
		sizes = append(sizes, 2048)
	}
	return blasKernel{"dgemm-" + v.String(), "Matrix order", sizes, func(n int) func(*mpi.Rank) {
		return func(r *mpi.Rank) { blas.RunDgemm(r, blas.DgemmParams{N: n, Variant: v, Iters: 1}) }
	}, blas.MetricDgemmFlops, units.Giga}
}

// runOnDMZ runs k at size on n tasks of DMZ (spec) with local pages, as
// one cell: spread across sockets first like the paper's DMZ runs or,
// when packed, on as few sockets as possible. The cell's value is the
// sum of the tasks' rates (each task reports one).
func runOnDMZ(r *Runner, s Scale, spec *machine.Spec, k blasKernel, size, n int, packed bool) cellValue[float64] {
	bindings := make([]affinity.Binding, n)
	for i := range bindings {
		bindings[i] = affinity.Binding{Core: topology.CoreID(i), MemPolicy: 1 /* LocalAlloc */}
	}
	layout := "packed"
	if !packed {
		layout = "spread"
		for i, c := range streamCores(spec)[:n] {
			bindings[i].Core = c
		}
	}
	label := k.label + "-" + strconv.Itoa(size) + "-dmz-r" + strconv.Itoa(n) + "-" + layout
	return engineCell(r, s, label, func(run mpi.RunFunc) float64 {
		return run(mpi.Config{Spec: spec, Impl: mpi.LAM(), Bindings: bindings}, k.body(size)).Sum(k.metric)
	})
}

// runBLASScaling is Figures 4 and 6: the aggregate rate of 1, 2 and 4
// spread tasks, and the per-core rate of the 2- and 4-task runs.
func runBLASScaling(r *Runner, s Scale, title string, k blasKernel) []*report.Table {
	t := report.New(title, k.sizeCol, "Total (1)", "Total (2)", "Per core (2)", "Total (4)", "Per core (4)")
	dmz, taskCounts := machine.DMZ(), []int{1, 2, 4}
	totals := parMap(r, len(k.sizes)*len(taskCounts), func(i int) cellValue[float64] {
		return runOnDMZ(r, s, dmz, k, k.sizes[i/len(taskCounts)], taskCounts[i%len(taskCounts)], false)
	})
	for i, n := range k.sizes {
		row := []string{fmt.Sprint(n)}
		for j, tasks := range taskCounts {
			total := totals[i*len(taskCounts)+j]
			total.v /= k.unit
			row = append(row, cellString(total, report.F))
			if tasks > 1 {
				total.v /= float64(tasks)
				row = append(row, cellString(total, report.F))
			}
		}
		t.AddRow(row...)
	}
	return []*report.Table{t}
}

// runBLASPerSocket is Figures 5 and 7: the per-core rate of two tasks,
// one per socket (spread, cores 0 and 2) or both on one (packed, cores 0
// and 1).
func runBLASPerSocket(r *Runner, s Scale, title string, k blasKernel) []*report.Table {
	t := report.New(title, k.sizeCol, "1 task/socket (2 tasks)", "2 tasks/socket (2 tasks)")
	dmz := machine.DMZ()
	vals := parMap(r, 2*len(k.sizes), func(i int) cellValue[float64] {
		c := runOnDMZ(r, s, dmz, k, k.sizes[i/2], 2, i%2 == 1)
		c.v = c.v / 2 / k.unit // the mean of the two tasks' rates
		return c
	})
	for i, n := range k.sizes {
		t.AddRow(fmt.Sprint(n), cellString(vals[2*i], report.F), cellString(vals[2*i+1], report.F))
	}
	return []*report.Table{t}
}
