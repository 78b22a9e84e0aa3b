package experiments

import (
	"multicore/internal/hpcc"
	"multicore/internal/machine"
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
	rows := parMap(r, len(opts)+1, func(i int) []string {
		if i == len(opts) {
			dmz := hpcc.DMZOption()
			return []string{"DMZ", dmz.Name,
				report.F(hpcc.HPL(r.runFunc("fig8-hpl-dmz-"+dmz.Name), machine.DMZ(), dmz, hplN(s)/2))}
		}
		return []string{"Longs", opts[i].Name,
			report.F(hpcc.HPL(r.runFunc("fig8-hpl-longs-"+opts[i].Name), longs, opts[i], hplN(s)))}
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
		return []string{opt.Name,
			report.F(hpcc.DGEMM(r.runFunc("fig9-dgemm-single-"+opt.Name), longs, opt, false, n)),
			report.F(hpcc.DGEMM(r.runFunc("fig9-dgemm-star-"+opt.Name), longs, opt, true, n)),
			report.F(hpcc.FFT(r.runFunc("fig9-fft-single-"+opt.Name), longs, opt, false, fftN)),
			report.F(hpcc.FFT(r.runFunc("fig9-fft-star-"+opt.Name), longs, opt, true, fftN))}
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
		single := hpcc.STREAM(r.runFunc("fig10-single-"+opt.Name), longs, opt, false)
		star := hpcc.STREAM(r.runFunc("fig10-star-"+opt.Name), longs, opt, true)
		return []string{opt.Name, report.F(single), report.F(star), report.F(single / star)}
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
		single := hpcc.RandomAccess(r.runFunc("fig11-single-"+opt.Name), longs, opt, hpcc.RASingle)
		star := hpcc.RandomAccess(r.runFunc("fig11-star-"+opt.Name), longs, opt, hpcc.RAStar)
		mpiRA := hpcc.RandomAccess(r.runFunc("fig11-mpi-"+opt.Name), longs, opt, hpcc.RAMPI)
		return []string{opt.Name, report.F(single), report.F(star), report.F(mpiRA), report.F(single / star)}
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
		pp := hpcc.PingPong(r.runFunc("fig12-pingpong-"+opt.Name), longs, opt, msg)
		ring := hpcc.Ring(r.runFunc("fig12-ring-"+opt.Name), longs, opt, msg)
		return []string{opt.Name,
			report.F(hpcc.PTRANS(r.runFunc("fig12-ptrans-"+opt.Name), longs, opt, n)),
			report.F(pp.Bandwidth / units.Mega),
			report.F(ring.Bandwidth / units.Mega)}
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
		pp := hpcc.PingPong(r.runFunc("fig13-pingpong-"+opt.Name), longs, opt, 8)
		ring := hpcc.Ring(r.runFunc("fig13-ring-"+opt.Name), longs, opt, 8)
		return []string{opt.Name,
			report.F(pp.Latency / units.Microsecond),
			report.F(ring.Latency / units.Microsecond)}
	})
	for _, row := range rows {
		t.AddRow(row...)
	}
	return []*report.Table{t}
}
