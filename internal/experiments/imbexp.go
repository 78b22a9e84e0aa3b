package experiments

import (
	"fmt"
	"strconv"

	"multicore/internal/affinity"
	"multicore/internal/kernels/imb"
	"multicore/internal/machine"
	"multicore/internal/mem"
	"multicore/internal/mpi"
	"multicore/internal/report"
	"multicore/internal/topology"
	"multicore/internal/units"
)

func init() {
	register(Experiment{
		ID:    "fig14",
		Title: "Intra-node IMB PingPong across MPI implementations (DMZ)",
		Paper: "LAM fastest below ~16 KB, OpenMPI best in between, MPICH2 best for large messages.",
		Run:   runFig14,
	})
	register(Experiment{
		ID:    "fig15",
		Title: "Intra-node IMB Exchange across MPI implementations (DMZ)",
		Paper: "Same implementation ordering holds for the heavier Exchange pattern.",
		Run:   runFig15,
	})
	register(Experiment{
		ID:    "fig16",
		Title: "OpenMPI PingPong with scheduler affinity (DMZ)",
		Paper: "Binding both processes inside one dual-core socket gains ~10-13% bandwidth and small-message latency.",
		Run:   runFig16,
	})
	register(Experiment{
		ID:    "fig17",
		Title: "OpenMPI Exchange with scheduler affinity (DMZ)",
		Paper: "The intra-socket benefit persists for Exchange; a 4-process run shows the cost of using every core.",
		Run:   runFig17,
	})
}

func imbSizes(s Scale) []float64 {
	if s == Full {
		return imb.Sizes(4 * units.MB)
	}
	return []float64{8, 256, 4 * units.KB, 64 * units.KB, 512 * units.KB, 4 * units.MB}
}

// dmzPair builds a 2-rank config on the given cores.
func dmzPair(impl *mpi.Impl, cores ...int) mpi.Config {
	spec := machine.DMZ()
	b := make([]affinity.Binding, len(cores))
	for i, c := range cores {
		b[i] = affinity.Binding{Core: topology.CoreID(c), MemPolicy: mem.LocalAlloc}
	}
	return mpi.Config{Spec: spec, Impl: impl, Bindings: b}
}

// bytesLabel writes a message size for an engine label.
func bytesLabel(size float64) string { return strconv.FormatFloat(size, 'f', 0, 64) }

func imbImpls() []*mpi.Impl {
	return []*mpi.Impl{mpi.MPICH2(), mpi.LAM(), mpi.OpenMPI()}
}

func runFig14(r *Runner, s Scale) []*report.Table {
	t := report.New("Figure 14: PingPong latency (us) and bandwidth (MB/s) by implementation",
		"Bytes", "MPICH2 lat", "LAM lat", "OpenMPI lat", "MPICH2 bw", "LAM bw", "OpenMPI bw")
	sizes := imbSizes(s)
	impls := imbImpls()
	pts := parMap(r, len(sizes)*len(impls), func(i int) imb.Point {
		impl, size := impls[i%len(impls)], sizes[i/len(impls)]
		return imb.PingPong(r.runFunc("fig14-"+impl.Name+"-"+bytesLabel(size)), dmzPair(impl, 0, 2), size, 20)
	})
	for i, size := range sizes {
		lats := make([]string, 0, 3)
		bws := make([]string, 0, 3)
		for j := range impls {
			pt := pts[i*len(impls)+j]
			lats = append(lats, report.F(pt.Latency/units.Microsecond))
			bws = append(bws, report.F(pt.Bandwidth/units.Mega))
		}
		t.AddRow(append(append([]string{fmt.Sprintf("%.0f", size)}, lats...), bws...)...)
	}
	return []*report.Table{t}
}

func runFig15(r *Runner, s Scale) []*report.Table {
	t := report.New("Figure 15: Exchange period (us) and bandwidth (MB/s) by implementation",
		"Bytes", "MPICH2 t", "LAM t", "OpenMPI t", "MPICH2 bw", "LAM bw", "OpenMPI bw")
	sizes := imbSizes(s)
	impls := imbImpls()
	pts := parMap(r, len(sizes)*len(impls), func(i int) imb.Point {
		impl, size := impls[i%len(impls)], sizes[i/len(impls)]
		return imb.Exchange(r.runFunc("fig15-"+impl.Name+"-"+bytesLabel(size)), dmzPairN(impl, 4), size, 15)
	})
	for i, size := range sizes {
		ts := make([]string, 0, 3)
		bws := make([]string, 0, 3)
		for j := range impls {
			pt := pts[i*len(impls)+j]
			ts = append(ts, report.F(pt.Latency/units.Microsecond))
			bws = append(bws, report.F(pt.Bandwidth/units.Mega))
		}
		t.AddRow(append(append([]string{fmt.Sprintf("%.0f", size)}, ts...), bws...)...)
	}
	return []*report.Table{t}
}

// dmzPairN builds an n-rank config on cores 0..n-1 in OS order (socket
// spread first).
func dmzPairN(impl *mpi.Impl, n int) mpi.Config {
	spec := machine.DMZ()
	b, err := affinity.Layout(affinity.Default, spec.Topo, n)
	if err != nil {
		panic(err)
	}
	return mpi.Config{Spec: spec, Impl: impl, Bindings: b}
}

// bindingConfigs are the paper's Figure 16/17 affinity configurations.
func bindingConfigs() []struct {
	Name  string
	Cores []int
} {
	return []struct {
		Name  string
		Cores []int
	}{
		{Name: "2 procs, bound 0", Cores: []int{0, 1}}, // both on socket 0
		{Name: "2 procs, bound 1", Cores: []int{2, 3}}, // both on socket 1
		{Name: "2 procs, unbound", Cores: []int{0, 2}}, // OS spreads sockets
		{Name: "2 procs, unbound, 2 parked", Cores: []int{0, 2, 1, 3}},
	}
}

func runFig16(r *Runner, s Scale) []*report.Table {
	t := report.New("Figure 16: OpenMPI PingPong with affinity configurations",
		append([]string{"Bytes"}, fig16Cols()...)...)
	sizes := imbSizes(s)
	cfgs := bindingConfigs()
	pts := parMap(r, len(sizes)*len(cfgs), func(i int) imb.Point {
		cfg, size := cfgs[i%len(cfgs)], sizes[i/len(cfgs)]
		return imb.PingPong(r.runFunc("fig16-"+cfg.Name+"-"+bytesLabel(size)), dmzPair(mpi.OpenMPI(), cfg.Cores...), size, 20)
	})
	for i, size := range sizes {
		row := []string{fmt.Sprintf("%.0f", size)}
		for j := range cfgs {
			row = append(row, report.F(pts[i*len(cfgs)+j].Bandwidth/units.Mega))
		}
		t.AddRow(row...)
	}
	return []*report.Table{t}
}

func fig16Cols() []string {
	var cols []string
	for _, cfg := range bindingConfigs() {
		cols = append(cols, cfg.Name+" MB/s")
	}
	return cols
}

func runFig17(r *Runner, s Scale) []*report.Table {
	cols := append([]string{"Bytes"}, fig16Cols()...)
	cols = append(cols, "4 procs MB/s")
	t := report.New("Figure 17: OpenMPI Exchange with affinity configurations", cols...)
	sizes := imbSizes(s)
	cfgs := bindingConfigs()
	stride := len(cfgs) + 1
	pts := parMap(r, len(sizes)*stride, func(i int) imb.Point {
		size, j := sizes[i/stride], i%stride
		if j == len(cfgs) {
			return imb.Exchange(r.runFunc("fig17-r4-"+bytesLabel(size)), dmzPairN(mpi.OpenMPI(), 4), size, 15)
		}
		// Exchange needs communicating neighbors only; parked ranks
		// do not apply, so reuse the first two cores.
		c0, c1 := cfgs[j].Cores[0], cfgs[j].Cores[1]
		label := "fig17-c" + strconv.Itoa(c0) + "-" + strconv.Itoa(c1) + "-" + bytesLabel(size)
		return imb.Exchange(r.runFunc(label), dmzPair(mpi.OpenMPI(), c0, c1), size, 15)
	})
	for i, size := range sizes {
		row := []string{fmt.Sprintf("%.0f", size)}
		for j := 0; j < stride; j++ {
			row = append(row, report.F(pts[i*stride+j].Bandwidth/units.Mega))
		}
		t.AddRow(row...)
	}
	return []*report.Table{t}
}
