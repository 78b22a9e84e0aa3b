package experiments

import (
	"fmt"
	"math"
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
		Run:   runFig2,
	})
	register(Experiment{
		ID:    "fig3",
		Title: "Memory bandwidth per core (STREAM triad)",
		Paper: "Per-core bandwidth halves (or worse) when the second core of each socket joins.",
		Run:   runFig3,
	})
	register(Experiment{
		ID:    "fig4",
		Title: "BLAS-1 DAXPY performance, ACML (aggregate and per core)",
		Paper: "In-cache DAXPY scales with cores; out-of-cache runs collide on the memory link.",
		Run:   func(r *Runner, s Scale) []*report.Table { return runDaxpy(r, s, blas.ACML) },
	})
	register(Experiment{
		ID:    "fig5",
		Title: "BLAS-1 DAXPY performance per core, vanilla",
		Paper: "One vs two MPI tasks per socket: the second task gains little once vectors leave cache.",
		Run:   func(r *Runner, s Scale) []*report.Table { return runDaxpyPerSocket(r, s, blas.Vanilla) },
	})
	register(Experiment{
		ID:    "fig6",
		Title: "BLAS-3 DGEMM performance, ACML",
		Paper: "DGEMM is cache-friendly: near-peak rates, aggregate scales with core count.",
		Run:   func(r *Runner, s Scale) []*report.Table { return runDgemm(r, s, blas.ACML) },
	})
	register(Experiment{
		ID:    "fig7",
		Title: "BLAS-3 DGEMM performance per core, vanilla",
		Paper: "Per-core DGEMM holds up with two tasks per socket even for the unoptimized code.",
		Run:   func(r *Runner, s Scale) []*report.Table { return runDgemmPerSocket(r, s, blas.Vanilla) },
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
// worker pool and returns values indexed [n-1][system]; infeasible cells
// (more cores than the system has) are NaN.
func triadGrid(r *Runner, maxCores int, vec float64) [][]float64 {
	specs := figSystems()
	flat := parMap(r, maxCores*len(specs), func(i int) float64 {
		n, spec := i/len(specs)+1, specs[i%len(specs)]
		if n > spec.Topo.NumCores() {
			return math.NaN()
		}
		v, err := triadAggregate(r, spec, n, vec)
		if err != nil {
			return math.NaN()
		}
		return v
	})
	grid := make([][]float64, maxCores)
	for n := 0; n < maxCores; n++ {
		grid[n] = flat[n*len(specs) : (n+1)*len(specs)]
	}
	return grid
}

func figSystems() []*machine.Spec {
	return []*machine.Spec{machine.Tiger(), machine.DMZ(), machine.Longs()}
}

func runFig2(r *Runner, s Scale) []*report.Table {
	vec := 16.0 * units.MB
	if s == Full {
		vec = 64 * units.MB
	}
	t := report.New("Figure 2: aggregate STREAM triad bandwidth (GB/s)",
		"Active cores", "Tiger", "DMZ", "Longs")
	for n, row := range triadGrid(r, 16, vec) {
		cells := []string{fmt.Sprint(n + 1)}
		for _, v := range row {
			if math.IsNaN(v) {
				cells = append(cells, report.NA)
				continue
			}
			cells = append(cells, report.F(v))
		}
		t.AddRow(cells...)
	}
	return []*report.Table{t}
}

func runFig3(r *Runner, s Scale) []*report.Table {
	vec := 16.0 * units.MB
	if s == Full {
		vec = 64 * units.MB
	}
	t := report.New("Figure 3: per-core STREAM triad bandwidth (GB/s)",
		"Active cores", "Tiger", "DMZ", "Longs")
	for n, row := range triadGrid(r, 16, vec) {
		cells := []string{fmt.Sprint(n + 1)}
		for _, v := range row {
			if math.IsNaN(v) {
				cells = append(cells, report.NA)
				continue
			}
			cells = append(cells, report.F(v/float64(n+1)))
		}
		t.AddRow(cells...)
	}
	return []*report.Table{t}
}

// daxpySizes is the vector-length sweep (elements).
func daxpySizes(s Scale) []int {
	sizes := []int{1 << 10, 1 << 12, 1 << 14, 1 << 16, 1 << 18, 1 << 20, 1 << 22}
	if s == Full {
		sizes = append(sizes, 1<<23, 1<<24)
	}
	return sizes
}

// runOnDMZ runs body on n tasks of DMZ with local pages: spread across
// sockets first like the paper's DMZ runs or, when packed, on as few
// sockets as possible. kernel and size name the engine's trace label. A
// failed run panics (see runFunc).
func runOnDMZ(r *Runner, kernel string, size, n int, packed bool, body func(*mpi.Rank)) *mpi.Result {
	spec := machine.DMZ()
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
	label := kernel + "-" + strconv.Itoa(size) + "-dmz-r" + strconv.Itoa(n) + "-" + layout
	return must(r.simulate(label, mpi.Config{Spec: spec, Impl: mpi.LAM(), Bindings: bindings}, body))
}

func runDaxpy(r *Runner, s Scale, v blas.Variant) []*report.Table {
	t := report.New(
		fmt.Sprintf("Figure 4: DAXPY (%s) on DMZ — aggregate and per-core MFlop/s", v),
		"Vector length", "Total (1)", "Total (2)", "Per core (2)", "Total (4)", "Per core (4)")
	sizes, kernel := daxpySizes(s), "daxpy-"+v.String()
	taskCounts := []int{1, 2, 4}
	totals := parMap(r, len(sizes)*len(taskCounts), func(i int) float64 {
		n, tasks := sizes[i/len(taskCounts)], taskCounts[i%len(taskCounts)]
		res := runOnDMZ(r, kernel, n, tasks, false, func(r *mpi.Rank) {
			blas.RunDaxpy(r, blas.DaxpyParams{N: n, Variant: v, Iters: 4})
		})
		return res.Sum(blas.MetricDaxpyFlops) / units.Mega
	})
	for i, n := range sizes {
		row := []string{fmt.Sprint(n)}
		for j, tasks := range taskCounts {
			total := totals[i*len(taskCounts)+j]
			if tasks == 1 {
				row = append(row, report.F(total))
			} else {
				row = append(row, report.F(total), report.F(total/float64(tasks)))
			}
		}
		t.AddRow(row...)
	}
	return []*report.Table{t}
}

func runDaxpyPerSocket(r *Runner, s Scale, v blas.Variant) []*report.Table {
	t := report.New(
		fmt.Sprintf("Figure 5: DAXPY (%s) per-core MFlop/s — one vs two tasks per socket (DMZ)", v),
		"Vector length", "1 task/socket (2 tasks)", "2 tasks/socket (2 tasks)")
	sizes, kernel := daxpySizes(s), "daxpy-"+v.String()
	vals := parMap(r, 2*len(sizes), func(i int) float64 {
		n, packed := sizes[i/2], i%2 == 1
		body := func(r *mpi.Rank) {
			blas.RunDaxpy(r, blas.DaxpyParams{N: n, Variant: v, Iters: 4})
		}
		// Packed is cores 0 and 1, spread cores 0 and 2.
		return runOnDMZ(r, kernel, n, 2, packed, body).Mean(blas.MetricDaxpyFlops)
	})
	for i, n := range sizes {
		t.AddRow(fmt.Sprint(n), report.F(vals[2*i]/units.Mega), report.F(vals[2*i+1]/units.Mega))
	}
	return []*report.Table{t}
}

func dgemmSizes(s Scale) []int {
	sizes := []int{64, 128, 256, 512, 1024}
	if s == Full {
		sizes = append(sizes, 2048)
	}
	return sizes
}

func runDgemm(r *Runner, s Scale, v blas.Variant) []*report.Table {
	t := report.New(
		fmt.Sprintf("Figure 6: DGEMM (%s) on DMZ — aggregate and per-core GFlop/s", v),
		"Matrix order", "Total (1)", "Total (2)", "Per core (2)", "Total (4)", "Per core (4)")
	sizes, kernel := dgemmSizes(s), "dgemm-"+v.String()
	taskCounts := []int{1, 2, 4}
	totals := parMap(r, len(sizes)*len(taskCounts), func(i int) float64 {
		n, tasks := sizes[i/len(taskCounts)], taskCounts[i%len(taskCounts)]
		res := runOnDMZ(r, kernel, n, tasks, false, func(r *mpi.Rank) {
			blas.RunDgemm(r, blas.DgemmParams{N: n, Variant: v, Iters: 1})
		})
		return res.Sum(blas.MetricDgemmFlops) / units.Giga
	})
	for i, n := range sizes {
		row := []string{fmt.Sprint(n)}
		for j, tasks := range taskCounts {
			total := totals[i*len(taskCounts)+j]
			if tasks == 1 {
				row = append(row, report.F(total))
			} else {
				row = append(row, report.F(total), report.F(total/float64(tasks)))
			}
		}
		t.AddRow(row...)
	}
	return []*report.Table{t}
}

func runDgemmPerSocket(r *Runner, s Scale, v blas.Variant) []*report.Table {
	t := report.New(
		fmt.Sprintf("Figure 7: DGEMM (%s) per-core GFlop/s — one vs two tasks per socket (DMZ)", v),
		"Matrix order", "1 task/socket (2 tasks)", "2 tasks/socket (2 tasks)")
	sizes, kernel := dgemmSizes(s), "dgemm-"+v.String()
	vals := parMap(r, 2*len(sizes), func(i int) float64 {
		n, packed := sizes[i/2], i%2 == 1
		body := func(r *mpi.Rank) {
			blas.RunDgemm(r, blas.DgemmParams{N: n, Variant: v, Iters: 1})
		}
		return runOnDMZ(r, kernel, n, 2, packed, body).Mean(blas.MetricDgemmFlops)
	})
	for i, n := range sizes {
		t.AddRow(fmt.Sprint(n), report.F(vals[2*i]/units.Giga), report.F(vals[2*i+1]/units.Giga))
	}
	return []*report.Table{t}
}
