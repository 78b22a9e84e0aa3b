package experiments

import (
	"strings"

	"multicore/internal/hpcc"
	"multicore/internal/kernels/imb"
	"multicore/internal/machine"
	"multicore/internal/mpi"
	"multicore/internal/report"
	"multicore/internal/units"
)

func init() {
	register(Experiment{
		ID:    "fig8",
		Title: "HPL performance with LAM/NUMA options",
		Paper: "Memory placement schemes have a smaller impact on HPL than the MPI sub-layer selection.",
		Run:   runFig8,
	})
	register(Experiment{
		ID:    "fig9",
		Title: "Single vs Star DGEMM and FFT with runtime options",
		Paper: "Star DGEMM ~ Single DGEMM (second core doubles socket throughput); FFT slightly more impacted.",
		Run:   runFig9,
	})
	register(Experiment{
		ID:    "fig10",
		Title: "Single vs Star STREAM with LAM/NUMA options",
		Paper: "Single:Star ratio exceeds 2:1 — the second core is a net per-socket loss for STREAM.",
		Run:   runFig10,
	})
	register(Experiment{
		ID:    "fig11",
		Title: "Single/Star/MPI RandomAccess with runtime options",
		Paper: "RandomAccess is latency bound: the second core is a net gain; SysV collapses the MPI variant.",
		Run:   runFig11,
	})
	register(Experiment{
		ID:    "fig12",
		Title: "PTRANS and ring/pingpong bandwidth with runtime options",
		Paper: "USysV's spin locks clearly beat SysV; localalloc degrades both when combined.",
		Run:   runFig12,
	})
	register(Experiment{
		ID:    "fig13",
		Title: "Ring vs PingPong latency with runtime options",
		Paper: "Ring latencies exceed PingPong, but SysV sub-layer latencies overwhelm both.",
		Run:   runFig13,
	})
}

func hplN(s Scale) int {
	if s == Full {
		return 4096
	}
	return 1536
}

func runFig8(r *Runner, s Scale) []*report.Table {
	t := report.New("Figure 8: HPL GFlop/s, 16 cores on Longs (plus DMZ reference)",
		"System", "Option", "GFlop/s")
	longs := machine.Longs()
	opts := hpcc.LongsOptions()
	hpl := func(system string, spec *machine.Spec, opt hpcc.RuntimeOption, n int) []string {
		gflops := engineCell(r, s, "fig8-hpl-"+strings.ToLower(system)+"-"+opt.Name, func(run mpi.RunFunc) float64 {
			return hpcc.HPL(run, spec, opt, n)
		})
		return []string{system, opt.Name, cellString(gflops, report.F)}
	}
	rows := parMap(r, len(opts)+1, func(i int) []string {
		if i == len(opts) {
			return hpl("DMZ", machine.DMZ(), hpcc.DMZOption(), hplN(s)/2)
		}
		return hpl("Longs", longs, opts[i], hplN(s))
	})
	for _, row := range rows {
		t.AddRow(row...)
	}
	return []*report.Table{t}
}

func runFig9(r *Runner, s Scale) []*report.Table {
	n := 512
	fftN := 1 << 20
	if s == Full {
		n = 1024
		fftN = 1 << 22
	}
	t := report.New("Figure 9: per-core GFlop/s, Single vs Star modes (Longs)",
		"Option", "Single DGEMM", "Star DGEMM", "Single FFT", "Star FFT")
	longs := machine.Longs()
	opts := hpcc.LongsOptions()
	rows := parMap(r, len(opts), func(i int) []string {
		opt := opts[i]
		gflops := func(kind string, drive func(run mpi.RunFunc) float64) string {
			return cellString(engineCell(r, s, "fig9-"+kind+"-"+opt.Name, drive), report.F)
		}
		return []string{opt.Name,
			gflops("dgemm-single", func(run mpi.RunFunc) float64 { return hpcc.DGEMM(run, longs, opt, false, n) }),
			gflops("dgemm-star", func(run mpi.RunFunc) float64 { return hpcc.DGEMM(run, longs, opt, true, n) }),
			gflops("fft-single", func(run mpi.RunFunc) float64 { return hpcc.FFT(run, longs, opt, false, fftN) }),
			gflops("fft-star", func(run mpi.RunFunc) float64 { return hpcc.FFT(run, longs, opt, true, fftN) })}
	})
	for _, row := range rows {
		t.AddRow(row...)
	}
	return []*report.Table{t}
}

func runFig10(r *Runner, s Scale) []*report.Table {
	t := report.New("Figure 10: per-core STREAM triad GB/s, Single vs Star (Longs)",
		"Option", "Single", "Star", "Single:Star ratio")
	longs := machine.Longs()
	opts := hpcc.LongsOptions()
	rows := parMap(r, len(opts), func(i int) []string {
		opt := opts[i]
		single := engineCell(r, s, "fig10-single-"+opt.Name, func(run mpi.RunFunc) float64 { return hpcc.STREAM(run, longs, opt, false) })
		star := engineCell(r, s, "fig10-star-"+opt.Name, func(run mpi.RunFunc) float64 { return hpcc.STREAM(run, longs, opt, true) })
		return []string{opt.Name, cellString(single, report.F), cellString(star, report.F), cellString(ratio(single, star), report.F)}
	})
	for _, row := range rows {
		t.AddRow(row...)
	}
	return []*report.Table{t}
}

func runFig11(r *Runner, s Scale) []*report.Table {
	t := report.New("Figure 11: RandomAccess GUPS per core (Longs)",
		"Option", "Single", "Star", "MPI", "Single:Star ratio")
	longs := machine.Longs()
	opts := hpcc.LongsOptions()
	rows := parMap(r, len(opts), func(i int) []string {
		opt := opts[i]
		gups := func(kind string, mode hpcc.RAMode) cellValue[float64] {
			return engineCell(r, s, "fig11-"+kind+"-"+opt.Name, func(run mpi.RunFunc) float64 { return hpcc.RandomAccess(run, longs, opt, mode) })
		}
		single, star, mpiRA := gups("single", hpcc.RASingle), gups("star", hpcc.RAStar), gups("mpi", hpcc.RAMPI)
		return []string{opt.Name, cellString(single, report.F), cellString(star, report.F),
			cellString(mpiRA, report.F), cellString(ratio(single, star), report.F)}
	})
	for _, row := range rows {
		t.AddRow(row...)
	}
	return []*report.Table{t}
}

func runFig12(r *Runner, s Scale) []*report.Table {
	n := 1024
	if s == Full {
		n = 2048
	}
	msg := 256.0 * units.KB
	t := report.New("Figure 12: communication bandwidth with runtime options (Longs)",
		"Option", "PTRANS GB/s per core", "PingPong MB/s", "Ring MB/s")
	longs := machine.Longs()
	opts := hpcc.LongsOptions()
	rows := parMap(r, len(opts), func(i int) []string {
		opt := opts[i]
		pp := engineCell(r, s, "fig12-pingpong-"+opt.Name, func(run mpi.RunFunc) imb.Point { return hpcc.PingPong(run, longs, opt, msg) })
		ring := engineCell(r, s, "fig12-ring-"+opt.Name, func(run mpi.RunFunc) imb.Point { return hpcc.Ring(run, longs, opt, msg) })
		ptrans := engineCell(r, s, "fig12-ptrans-"+opt.Name, func(run mpi.RunFunc) float64 { return hpcc.PTRANS(run, longs, opt, n) })
		return []string{opt.Name, cellString(ptrans, report.F), cellString(pp, mbBandwidth), cellString(ring, mbBandwidth)}
	})
	for _, row := range rows {
		t.AddRow(row...)
	}
	return []*report.Table{t}
}

func runFig13(r *Runner, s Scale) []*report.Table {
	t := report.New("Figure 13: communication latency with runtime options (Longs, 8 B messages)",
		"Option", "PingPong us", "Ring us")
	longs := machine.Longs()
	opts := hpcc.LongsOptions()
	rows := parMap(r, len(opts), func(i int) []string {
		opt := opts[i]
		pp := engineCell(r, s, "fig13-pingpong-"+opt.Name, func(run mpi.RunFunc) imb.Point { return hpcc.PingPong(run, longs, opt, 8) })
		ring := engineCell(r, s, "fig13-ring-"+opt.Name, func(run mpi.RunFunc) imb.Point { return hpcc.Ring(run, longs, opt, 8) })
		return []string{opt.Name, cellString(pp, usLatency), cellString(ring, usLatency)}
	})
	for _, row := range rows {
		t.AddRow(row...)
	}
	return []*report.Table{t}
}
