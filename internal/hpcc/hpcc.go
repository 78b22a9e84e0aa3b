// Package hpcc drives the HPC Challenge benchmark suite the way the paper
// does (Section 3.3, Figures 8-13): one binary's worth of kernels run in
// Single mode (one rank), Star mode (every core, no communication), or
// MPI mode, under the six LAM/NUMA runtime option combinations evaluated
// on the Longs system. Each measurement simulates through the run
// function it is given: mpi.Run, or a caller's wrapper of it.
package hpcc

import (
	"fmt"

	"multicore/internal/affinity"
	"multicore/internal/kernels/blas"
	"multicore/internal/kernels/fft"
	"multicore/internal/kernels/hpl"
	"multicore/internal/kernels/imb"
	"multicore/internal/kernels/ptrans"
	"multicore/internal/kernels/rnda"
	"multicore/internal/kernels/stream"
	"multicore/internal/machine"
	"multicore/internal/mem"
	"multicore/internal/mpi"
)

// RuntimeOption is one LAM/NUMA configuration: a numactl memory policy
// plus a lock sub-layer. Unlike the NAS/application experiments, HPCC
// always keeps every core busy, so the options differ only in memory
// placement and locking — exactly the paper's six Longs configurations.
type RuntimeOption struct {
	Name string
	// Policy overrides the per-rank memory policy (FirstTouch means the
	// OS default with its early-migration misplacement).
	Policy mem.Policy
	Sub    mpi.Sublayer
}

// LongsOptions are the six runtime options of the paper's Longs figures.
func LongsOptions() []RuntimeOption {
	return []RuntimeOption{
		{Name: "default", Policy: mem.FirstTouch, Sub: mpi.DefaultSub()},
		{Name: "SysV", Policy: mem.FirstTouch, Sub: mpi.SysV()},
		{Name: "USysV", Policy: mem.FirstTouch, Sub: mpi.USysV()},
		{Name: "localalloc", Policy: mem.LocalAlloc, Sub: mpi.DefaultSub()},
		{Name: "interleave", Policy: mem.Interleave, Sub: mpi.DefaultSub()},
		{Name: "localalloc+USysV", Policy: mem.LocalAlloc, Sub: mpi.USysV()},
	}
}

// DMZOption is the single configuration the paper reports for DMZ (its
// two-socket organization is minimally affected by NUMA options).
func DMZOption() RuntimeOption {
	return RuntimeOption{Name: "default", Policy: mem.FirstTouch, Sub: mpi.DefaultSub()}
}

// bindingsFor lays ranks out the way the OS does for every option (HPCC
// always fills cores in the same order) and applies the option's memory
// policy.
func bindingsFor(spec *machine.Spec, opt RuntimeOption, ranks int) []affinity.Binding {
	b, err := affinity.Layout(affinity.Default, spec.Topo, ranks)
	if err != nil {
		panic(fmt.Sprintf("hpcc: %v", err))
	}
	for i := range b {
		switch opt.Policy {
		case mem.FirstTouch:
			// Keep the Default layout's first-touch misplacement.
		default:
			b[i].MemPolicy = opt.Policy
			b[i].MisplacedFrac = 0
		}
	}
	return b
}

// config is the job every measurement runs: LAM with the option's lock
// sub-layer, ranks laid out by bindingsFor.
func config(spec *machine.Spec, opt RuntimeOption, ranks int) mpi.Config {
	return mpi.Config{
		Spec:          spec,
		Impl:          mpi.LAM().WithSublayer(opt.Sub),
		Bindings:      bindingsFor(spec, opt, ranks),
		DeriveBufMode: true,
	}
}

// HPL runs the Linpack benchmark over all cores and returns GFlop/s
// (Figure 8).
func HPL(run mpi.RunFunc, spec *machine.Spec, opt RuntimeOption, n int) float64 {
	res := run(config(spec, opt, spec.Topo.NumCores()), func(r *mpi.Rank) {
		hpl.Run(r, hpl.Params{N: n})
	})
	return res.Max(hpl.MetricGFlops)
}

// DGEMM returns per-core GFlop/s in Single (star=false) or Star mode
// (Figure 9).
func DGEMM(run mpi.RunFunc, spec *machine.Spec, opt RuntimeOption, star bool, n int) float64 {
	ranks := 1
	if star {
		ranks = spec.Topo.NumCores()
	}
	res := run(config(spec, opt, ranks), func(r *mpi.Rank) {
		blas.RunDgemm(r, blas.DgemmParams{N: n, Variant: blas.ACML, Iters: 1})
	})
	return res.Mean(blas.MetricDgemmFlops) / 1e9
}

// FFT returns per-core GFlop/s for the local FFT kernel in Single or Star
// mode (Figure 9).
func FFT(run mpi.RunFunc, spec *machine.Spec, opt RuntimeOption, star bool, n int) float64 {
	ranks := 1
	if star {
		ranks = spec.Topo.NumCores()
	}
	res := run(config(spec, opt, ranks), func(r *mpi.Rank) {
		fft.RunLocal(r, fft.LocalParams{N: n, Iters: 1})
	})
	return res.Mean(fft.MetricFlops) / 1e9
}

// STREAM returns per-core triad bandwidth (GB/s) in Single or Star mode
// (Figure 10).
func STREAM(run mpi.RunFunc, spec *machine.Spec, opt RuntimeOption, star bool) float64 {
	ranks := 1
	if star {
		ranks = spec.Topo.NumCores()
	}
	res := run(config(spec, opt, ranks), func(r *mpi.Rank) {
		stream.RunTriad(r, stream.Params{VectorBytes: 16 << 20, Iters: 2})
	})
	return res.Mean(stream.MetricBandwidth) / 1e9
}

// RAMode selects the RandomAccess flavour.
type RAMode int

// RandomAccess modes: one rank, every rank independently, or the bucketed
// MPI version.
const (
	RASingle RAMode = iota
	RAStar
	RAMPI
)

// RandomAccess returns per-core GUPS for the chosen mode (Figure 11).
func RandomAccess(run mpi.RunFunc, spec *machine.Spec, opt RuntimeOption, mode RAMode) float64 {
	ranks := 1
	if mode != RASingle {
		ranks = spec.Topo.NumCores()
	}
	res := run(config(spec, opt, ranks), func(r *mpi.Rank) {
		rnda.Run(r, rnda.Params{
			TableBytes: 64 << 20,
			Updates:    2e6,
			MPI:        mode == RAMPI,
		})
	})
	return res.Mean(rnda.MetricGUPS)
}

// PTRANS returns per-core transpose bandwidth in GB/s over all cores
// (Figure 12). Pick n so the per-pair block (8*n^2/p^2) stays inside the
// transport's segment pool if pool-placement effects are under study.
func PTRANS(run mpi.RunFunc, spec *machine.Spec, opt RuntimeOption, n int) float64 {
	res := run(config(spec, opt, spec.Topo.NumCores()), func(r *mpi.Rank) {
		ptrans.Run(r, ptrans.Params{N: n, Iters: 1})
	})
	return res.Mean(ptrans.MetricBandwidth) / 1e9
}

// PingPong returns the two-rank point (Figure 12/13 bandwidth and
// latency).
func PingPong(run mpi.RunFunc, spec *machine.Spec, opt RuntimeOption, bytes float64) imb.Point {
	return imb.PingPong(run, config(spec, opt, 2), bytes, 30)
}

// Ring returns the all-core ring point (Figure 12/13).
func Ring(run mpi.RunFunc, spec *machine.Spec, opt RuntimeOption, bytes float64) imb.Point {
	return imb.Ring(run, config(spec, opt, spec.Topo.NumCores()), bytes, 30)
}
