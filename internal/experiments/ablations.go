package experiments

import (
	"fmt"

	"multicore/internal/affinity"
	"multicore/internal/core"
	"multicore/internal/kernels/imb"
	"multicore/internal/kernels/rnda"
	"multicore/internal/kernels/stream"
	"multicore/internal/machine"
	"multicore/internal/mem"
	"multicore/internal/mpi"
	"multicore/internal/npb"
	"multicore/internal/report"
	"multicore/internal/topology"
	"multicore/internal/units"
)

// Ablations probe the model's load-bearing design choices and the paper's
// forward-looking claims: what happens if the coherence overhead the paper
// blames is removed, if the HT ladder is replaced by a full crossbar, or
// as the lock sub-layer's latency sweeps between spin locks and kernel
// semaphores. ext-hybrid quantifies the paper's proposed three-class
// communication hierarchy.
func init() {
	register(Experiment{
		ID:    "ablate-coherence",
		Title: "Longs without the coherence bandwidth derating",
		Paper: "The paper expects future processors to recover the bandwidth the 8-socket probe scheme costs; this ablation restores it.",
		Run:   runAblateCoherence,
	})
	register(Experiment{
		ID:    "ablate-topology",
		Title: "HT ladder vs fully-connected 8-socket fabric",
		Paper: "Quantifies how much of the Longs communication cost is the 2x4 ladder itself.",
		Run:   runAblateTopology,
	})
	register(Experiment{
		ID:    "ablate-sublayer",
		Title: "Lock sub-layer latency sweep",
		Paper: "Interpolates between USysV spin locks and SysV semaphores to locate the latency cliff for small-message workloads.",
		Run:   runAblateSublayer,
	})
	register(Experiment{
		ID:    "ext-hybrid",
		Title: "Three communication classes on Longs (paper Section 3.4 proposal)",
		Paper: "Intra-socket, neighbor-socket, and cross-ladder channels differ enough to justify a hierarchy-aware programming model.",
		Run:   runExtHybrid,
	})
}

// longsNoCoherence restores the DDR-400 controller to its two-socket
// efficiency and drops the probe latency to DMZ-like values.
func longsNoCoherence() *machine.Spec {
	spec := machine.Longs()
	spec.MCBandwidth = 3.4 * units.Giga
	spec.LocalLatency = 100 * units.Nanosecond
	return spec
}

func runAblateCoherence(r *Runner, s Scale) []*report.Table {
	vec := 16.0 * units.MB
	t := report.New("Coherence ablation: STREAM triad and NAS CG on Longs",
		"Metric", "Calibrated (paper-like)", "No coherence derating", "Gain")

	specs := []func() *machine.Spec{machine.Longs, longsNoCoherence}
	names := []string{"calibrated", "no-coherence"}
	triads := parMap(r, len(specs), func(i int) float64 {
		res := must(r.runJob("ablate-coherence-stream-"+names[i],
			core.Job{Spec: specs[i](), Ranks: 1, Scheme: affinity.OneMPILocalAlloc}, func(r *mpi.Rank) {
				stream.RunTriad(r, stream.Params{VectorBytes: vec, Iters: 2})
			}))
		return res.Max(stream.MetricBandwidth) / units.Giga
	})
	base, fixed := triads[0], triads[1]
	t.AddRow("1-core STREAM GB/s", report.F(base), report.F(fixed), report.F(fixed/base))

	cgs := parMap(r, len(specs), func(i int) float64 {
		res := must(r.runJob("ablate-coherence-cg-"+names[i], core.Job{Spec: specs[i](), Ranks: 8,
			Scheme: affinity.OneMPILocalAlloc, Impl: mpi.MPICH2()}, must(npb.RunCG(npbClass(s)))))
		return res.Max(npb.MetricCGTime)
	})
	baseCG, fixedCG := cgs[0], cgs[1]
	t.AddRow("NAS CG 8 ranks (s)", report.Seconds(baseCG), report.Seconds(fixedCG), report.F(baseCG/fixedCG))
	return []*report.Table{t}
}

// longsCrossbar keeps the Longs cores and memory but links every socket
// pair directly.
func longsCrossbar() *machine.Spec {
	spec := machine.Longs()
	var links []topology.Link
	for a := 0; a < 8; a++ {
		for b := a + 1; b < 8; b++ {
			links = append(links, topology.Link{A: topology.SocketID(a), B: topology.SocketID(b)})
		}
	}
	spec.Topo = topology.New("Longs-xbar", 8, 2, links)
	return spec
}

func runAblateTopology(r *Runner, s Scale) []*report.Table {
	t := report.New("Topology ablation: 2x4 ladder vs full crossbar (Longs, 16 ranks)",
		"Metric", "Ladder", "Crossbar", "Ladder cost")

	specs := []func() *machine.Spec{machine.Longs, longsCrossbar}
	names := []string{"ladder", "crossbar"}
	fts := parMap(r, len(specs), func(i int) float64 {
		res := must(r.runJob("ablate-topology-ft-"+names[i], core.Job{Spec: specs[i](), Ranks: 16, Impl: mpi.MPICH2()},
			must(npb.RunFT(npb.ClassA))))
		return res.Max(npb.MetricFTTime)
	})
	ladder, xbar := fts[0], fts[1]
	t.AddRow("NAS FT 16 ranks (s)", report.Seconds(ladder), report.Seconds(xbar), report.F(ladder/xbar))

	rings := parMap(r, len(specs), func(i int) float64 {
		spec := specs[i]()
		b := must(affinity.Layout(affinity.Default, spec.Topo, 16))
		pt := imb.Ring(r.runFunc("ablate-topology-ring-"+names[i]),
			mpi.Config{Spec: spec, Impl: mpi.LAM().WithSublayer(mpi.USysV()), Bindings: b}, 8, 30)
		return pt.Latency / units.Microsecond
	})
	lr, xr := rings[0], rings[1]
	t.AddRow("Ring latency 8 B (us)", report.F(lr), report.F(xr), report.F(lr/xr))
	return []*report.Table{t}
}

func runAblateSublayer(r *Runner, s Scale) []*report.Table {
	t := report.New("Sub-layer latency sweep: MPI RandomAccess, 16 ranks on Longs",
		"Lock+wake latency (us)", "MPI GUPS per core", "PingPong latency (us)")
	lockSweep := []float64{0.5, 1, 2, 4, 8, 16, 32}
	rows := parMap(r, len(lockSweep), func(i int) []string {
		lockUS := lockSweep[i]
		sub := mpi.Sublayer{
			Name:        fmt.Sprintf("sweep-%g", lockUS),
			LockLatency: lockUS / 3 * units.Microsecond,
			WakeLatency: lockUS * 2 / 3 * units.Microsecond,
		}
		impl := mpi.LAM().WithSublayer(sub)
		spec := machine.Longs()
		b := must(affinity.Layout(affinity.Default, spec.Topo, 16))
		res := must(r.simulate("ablate-sublayer-ra-"+sub.Name, mpi.Config{Spec: spec, Impl: impl, Bindings: b}, func(r *mpi.Rank) {
			rnda.Run(r, rnda.Params{TableBytes: 32 << 20, Updates: 8e5, MPI: true})
		}))
		b2 := []affinity.Binding{
			{Core: 0, MemPolicy: mem.LocalAlloc},
			{Core: 2, MemPolicy: mem.LocalAlloc},
		}
		pt := imb.PingPong(r.runFunc("ablate-sublayer-pingpong-"+sub.Name), mpi.Config{Spec: spec, Impl: impl, Bindings: b2}, 8, 30)
		return []string{report.F(lockUS),
			report.F(res.Mean(rnda.MetricGUPS)),
			report.F(pt.Latency / units.Microsecond)}
	})
	for _, row := range rows {
		t.AddRow(row...)
	}
	return []*report.Table{t}
}

func runExtHybrid(r *Runner, s Scale) []*report.Table {
	t := report.New("Three communication classes on Longs (OpenMPI PingPong)",
		"Channel", "Latency 8 B (us)", "Bandwidth 1 MiB (MB/s)")
	spec := machine.Longs()
	cases := []struct {
		name  string
		cores [2]topology.CoreID
	}{
		{"within a socket (cores 0,1)", [2]topology.CoreID{0, 1}},
		{"neighbor sockets (1 hop)", [2]topology.CoreID{0, 2}},
		{"across the ladder (4 hops)", [2]topology.CoreID{0, 14}},
	}
	rows := parMap(r, len(cases), func(i int) []string {
		c := cases[i]
		b := []affinity.Binding{
			{Core: c.cores[0], MemPolicy: mem.LocalAlloc},
			{Core: c.cores[1], MemPolicy: mem.LocalAlloc},
		}
		cfg := mpi.Config{Spec: spec, Impl: mpi.OpenMPI(), Bindings: b}
		label := fmt.Sprintf("ext-hybrid-c%d-%d", c.cores[0], c.cores[1])
		lat := imb.PingPong(r.runFunc(label+"-lat"), cfg, 8, 30)
		bw := imb.PingPong(r.runFunc(label+"-bw"), cfg, units.MB, 15)
		return []string{c.name, report.F(lat.Latency / units.Microsecond), report.F(bw.Bandwidth / units.Mega)}
	})
	for _, row := range rows {
		t.AddRow(row...)
	}
	return []*report.Table{t}
}

// Collective-algorithm ablation: quantifies why the runtime switches
// algorithms by payload size.
func init() {
	register(Experiment{
		ID:    "ablate-collectives",
		Title: "Allreduce/Bcast algorithm crossover (Longs, 8 ranks)",
		Paper: "Justifies the size-adaptive collective selection: latency-optimal trees for small payloads, bandwidth-optimal rings for large ones.",
		Run:   runAblateCollectives,
	})
}

func runAblateCollectives(r *Runner, s Scale) []*report.Table {
	t := report.New("Collective algorithms by payload (seconds, 8 ranks on Longs)",
		"Payload", "Allreduce doubling", "Allreduce ring", "Bcast binomial", "Bcast scatter+allgather")
	spec := machine.Longs()
	b := must(affinity.Layout(affinity.OneMPILocalAlloc, spec.Topo, 8))
	sizes := []float64{64, 4 * units.KB, 64 * units.KB, units.MB, 8 * units.MB}
	if s == Quick {
		sizes = sizes[:4]
	}
	names := []string{"allreduce-doubling", "allreduce-ring", "bcast-binomial", "bcast-scatter-allgather"}
	algos := []func(*mpi.Rank, float64){
		func(r *mpi.Rank, b float64) { r.AllreduceRecursiveDoubling(b) },
		func(r *mpi.Rank, b float64) { r.AllreduceRing(b) },
		func(r *mpi.Rank, b float64) { r.BcastBinomial(0, b) },
		func(r *mpi.Rank, b float64) { r.BcastScatterAllgather(0, b) },
	}
	times := parMap(r, len(sizes)*len(algos), func(i int) float64 {
		bytes, algo := sizes[i/len(algos)], algos[i%len(algos)]
		label := fmt.Sprintf("ablate-collectives-%s-%g", names[i%len(algos)], bytes)
		return must(r.simulate(label, mpi.Config{Spec: spec, Impl: mpi.MPICH2(), Bindings: b},
			func(r *mpi.Rank) { algo(r, bytes) })).Time
	})
	for i, bytes := range sizes {
		t.AddRow(units.Bytes(bytes),
			report.Seconds(times[i*len(algos)]),
			report.Seconds(times[i*len(algos)+1]),
			report.Seconds(times[i*len(algos)+2]),
			report.Seconds(times[i*len(algos)+3]))
	}
	return []*report.Table{t}
}
