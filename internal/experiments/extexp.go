package experiments

import (
	"fmt"

	"multicore/internal/affinity"
	"multicore/internal/apps/lammps"
	"multicore/internal/core"
	"multicore/internal/kernels/lmbench"
	"multicore/internal/machine"
	"multicore/internal/mpi"
	"multicore/internal/npb"
	"multicore/internal/report"
	"multicore/internal/units"
)

func init() {
	register(Experiment{
		ID:    "ext-latency",
		Title: "LMbench lat_mem_rd load-latency curves",
		Paper: "Companion to the Section 3.1 LMbench STREAM runs: cache plateaus, the capacity cliff, and NUMA distance per system.",
		Run:   runExtLatency,
	})
	register(Experiment{
		ID:    "ext-openmp",
		Title: "Hybrid OpenMP+MPI vs pure MPI on NAS FT (Longs)",
		Paper: "Tests the Section 3.4 proposal: OpenMP within each multi-core processor, MPI between sockets.",
		Run:   runExtOpenMP,
	})
}

func runExtLatency(r *Runner, s Scale) []*report.Table {
	t := report.New("LMbench-style dependent-load latency (ns)",
		"Working set", "Tiger local", "DMZ local", "DMZ remote", "Longs local", "Longs 4-hop")
	cfgs := []struct {
		system string
		scheme affinity.Scheme
	}{
		{"tiger", affinity.OneMPILocalAlloc},
		{"dmz", affinity.OneMPILocalAlloc},
		{"dmz", affinity.OneMPIMembind},
		{"longs", affinity.OneMPILocalAlloc},
		{"longs", affinity.OneMPIMembind},
	}
	curves := parMap(r, len(cfgs), func(i int) []lmbench.Point {
		c := cfgs[i]
		res := must(r.runJob(fmt.Sprintf("ext-latency-%s-%s", c.system, c.scheme),
			core.Job{System: c.system, Ranks: 1, Scheme: c.scheme}, func(r *mpi.Rank) {
				pts := lmbench.Run(r, lmbench.Params{})
				for _, p := range pts {
					r.Report(fmt.Sprintf("%s%.0f", lmbench.MetricPrefix, p.WorkingSetBytes), p.LatencySeconds)
				}
			}))
		var pts []lmbench.Point
		for size := 4.0 * 1024; size <= 64*1024*1024; size *= 4 {
			key := fmt.Sprintf("%s%.0f", lmbench.MetricPrefix, size)
			pts = append(pts, lmbench.Point{WorkingSetBytes: size, LatencySeconds: res.Max(key)})
		}
		return pts
	})
	for i, p := range curves[1] {
		row := []string{units.Bytes(p.WorkingSetBytes)}
		for _, curve := range curves {
			row = append(row, report.F(curve[i].LatencySeconds/units.Nanosecond))
		}
		t.AddRow(row...)
	}
	return []*report.Table{t}
}

func runExtOpenMP(r *Runner, s Scale) []*report.Table {
	class := npb.ClassA
	if s == Full {
		class = npb.ClassB
	}
	t := report.New("NAS FT on Longs: pure MPI vs hybrid OpenMP+MPI",
		"Configuration", "Ranks x threads", "FT time (s)")

	cases := []struct {
		name           string
		ranks, threads int
		scheme         affinity.Scheme
	}{
		{"pure MPI, all cores", 16, 1, affinity.Default},
		{"pure MPI, one rank/socket", 8, 1, affinity.OneMPILocalAlloc},
		{"hybrid, one rank/socket + 2 threads", 8, 2, affinity.OneMPILocalAlloc},
	}
	rows := parMap(r, len(cases), func(i int) []string {
		c := cases[i]
		res := must(r.runJob(fmt.Sprintf("ext-openmp-r%dx%d-%s", c.ranks, c.threads, c.scheme),
			core.Job{System: "longs", Ranks: c.ranks, Scheme: c.scheme, Impl: mpi.MPICH2()},
			must(npb.RunFTHybrid(class, c.threads))))
		return []string{c.name, fmt.Sprintf("%dx%d", c.ranks, c.threads),
			report.Seconds(res.Max(npb.MetricFTTime))}
	})
	for _, row := range rows {
		t.AddRow(row...)
	}
	return []*report.Table{t}
}

// Scheduler-jitter ablation.
func init() {
	register(Experiment{
		ID:    "ablate-migration",
		Title: "Scheduler jitter (migration/preemption) period sweep",
		Paper: "Models the unbound OS run's hidden cost: each migration evicts a task's working set; cache-resident workloads feel it most.",
		Run:   runAblateMigration,
	})
}

func runAblateMigration(r *Runner, s Scale) []*report.Table {
	t := report.New("Migration-period sweep: LAMMPS chain (cache-friendly) vs LJ (streaming), 8 ranks on Longs",
		"Migration period", "Chain time (s)", "LJ time (s)")
	spec := machine.Longs()
	timeFor := func(bench lammps.Benchmark, period float64) float64 {
		b := must(affinity.Layout(affinity.TwoMPILocalAlloc, spec.Topo, 8))
		cfg := mpi.Config{Spec: spec, Impl: mpi.MPICH2(), Bindings: b,
			OSMigrationPeriod: period}
		res := must(r.simulate(fmt.Sprintf("ablate-migration-%s-%g", bench, period), cfg, func(r *mpi.Rank) {
			lammps.Run(r, lammps.Params{Bench: bench, Steps: 20})
		}))
		return res.Max(lammps.MetricTime)
	}
	periods := []float64{0, 10e-3, 1e-3, 100e-6}
	benches := []lammps.Benchmark{lammps.Chain, lammps.LJ}
	times := parMap(r, len(periods)*len(benches), func(i int) float64 {
		return timeFor(benches[i%len(benches)], periods[i/len(benches)])
	})
	for i, p := range periods {
		label := "off"
		if p > 0 {
			label = units.Duration(p)
		}
		t.AddRow(label,
			report.Seconds(times[i*len(benches)]),
			report.Seconds(times[i*len(benches)+1]))
	}
	return []*report.Table{t}
}

// ext-npb: the EP and MG kernels complete the NAS picture.
func init() {
	register(Experiment{
		ID:    "ext-npb",
		Title: "NAS EP and MG: the scaling envelope around CG/FT",
		Paper: "EP bounds scaling from above (pure compute); MG from below (multigrid bandwidth + latency at every level).",
		Run:   runExtNPB,
	})
}

func runExtNPB(r *Runner, s Scale) []*report.Table {
	class := npb.ClassW
	if s == Full {
		class = npb.ClassA
	}
	t := report.New("NAS EP and MG on Longs: speedup and placement sensitivity",
		"Kernel", "Speedup @8", "Speedup @16", "Membind penalty @8")
	kernels := []string{"ep", "mg"}
	cells := []struct {
		ranks  int
		scheme affinity.Scheme
	}{
		{1, affinity.Default},
		{8, affinity.Default},
		{16, affinity.Default},
		{8, affinity.OneMPILocalAlloc},
		{8, affinity.OneMPIMembind},
	}
	times := parMap(r, len(kernels)*len(cells), func(i int) float64 {
		k, c := kernels[i/len(cells)], cells[i%len(cells)]
		var (
			body func(*mpi.Rank)
			key  string
			err  error
		)
		if k == "ep" {
			body, err = npb.RunEP(class)
			key = npb.MetricEPTime
		} else {
			body, err = npb.RunMG(class)
			key = npb.MetricMGTime
		}
		if err != nil {
			panic(err)
		}
		res, err := r.runMPICH2("npb-"+k+"-"+string(class), "longs", c.ranks, c.scheme, body)
		if err != nil {
			panic(err)
		}
		return res.Max(key)
	})
	for i, k := range kernels {
		row := times[i*len(cells) : (i+1)*len(cells)]
		t1, def8, def16, local8, membind8 := row[0], row[1], row[2], row[3], row[4]
		t.AddRow(k,
			report.F(t1/def8),
			report.F(t1/def16),
			report.F(membind8/local8))
	}
	return []*report.Table{t}
}

// ext-cluster: leave the single node, as the paper's terminology section
// anticipates ("a computing system is a collection of nodes").
func init() {
	register(Experiment{
		ID:    "ext-cluster",
		Title: "Scaling beyond the node: NAS CG across DMZ nodes",
		Paper: "The fourth communication class — the system interconnect — joins the paper's three; fabric quality decides whether leaving the node pays.",
		Run:   runExtCluster,
	})
}

func runExtCluster(r *Runner, s Scale) []*report.Table {
	class := npb.ClassA
	if s == Full {
		class = npb.ClassB
	}
	body, err := npb.RunCG(class)
	if err != nil {
		panic(err)
	}
	t := report.New("NAS CG on DMZ nodes (4 ranks per node)",
		"Configuration", "Total ranks", "CG time (s)")
	cases := []struct {
		name  string
		nodes int
		net   *mpi.NetSpec
	}{
		{"1 node", 1, nil},
		{"2 nodes, RapidArray", 2, mpi.RapidArray()},
		{"4 nodes, RapidArray", 4, mpi.RapidArray()},
		{"2 nodes, GigE", 2, mpi.GigE()},
		{"4 nodes, GigE", 4, mpi.GigE()},
	}
	rows := parMap(r, len(cases), func(i int) []string {
		c := cases[i]
		res := must(r.runJob("ext-cluster-"+c.name, core.Job{System: "dmz", Ranks: 4,
			Scheme: affinity.TwoMPILocalAlloc, Impl: mpi.MPICH2(),
			Nodes: c.nodes, Net: c.net}, body))
		return []string{c.name, fmt.Sprint(4 * max(1, c.nodes)), report.Seconds(res.Max(npb.MetricCGTime))}
	})
	for _, row := range rows {
		t.AddRow(row...)
	}
	return []*report.Table{t}
}
