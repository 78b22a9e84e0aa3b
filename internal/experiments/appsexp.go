package experiments

import (
	"fmt"

	"multicore/internal/affinity"
	"multicore/internal/apps/amber"
	"multicore/internal/apps/lammps"
	"multicore/internal/apps/pop"
	"multicore/internal/report"
	"multicore/internal/workload"
)

func init() {
	register(Experiment{
		ID:    "table7",
		Title: "FFT time in the AMBER JAC benchmark vs numactl options",
		Paper: "The PME reciprocal FFT phase responds to placement like NAS FT: membind and interleave hurt on Longs.",
		Run:   runTable7,
	})
	register(Experiment{
		ID:    "table8",
		Title: "AMBER multi-core speedup (no numactl)",
		Paper: "PME near-linear to 4 cores, saturating at ~6-8x by 16; GB scales to ~14-15x.",
		Run:   runTable8,
	})
	register(Experiment{
		ID:    "table9",
		Title: "Overall AMBER JAC runtime vs numactl options",
		Paper: "Placement shifts full-application runtime 10-20% on Longs; DMZ default is near-optimal.",
		Run:   runTable9,
	})
	register(Experiment{
		ID:    "table10",
		Title: "LAMMPS multi-core speedup (LJ, Chain, EAM)",
		Paper: "Chain superlinear (19.95x at 16), EAM 12.5x, LJ 10.7x; consistent across systems.",
		Run:   runTable10,
	})
	register(Experiment{
		ID:    "table11",
		Title: "LAMMPS LJ runtime vs numactl options",
		Paper: "Same placement sensitivities as AMBER: membind worst, localalloc best.",
		Run:   runTable11,
	})
	register(Experiment{
		ID:    "table12",
		Title: "POP multi-core speedup (baroclinic, barotropic)",
		Paper: "Both phases scale nearly linearly on all three systems (baroclinic slightly better at 16).",
		Run:   runTable12,
	})
	register(Experiment{
		ID:    "table13",
		Title: "POP baroclinic time vs numactl options",
		Paper: "Localalloc best; membind up to ~2x worse at 8 tasks on Longs.",
		Run:   runTable13,
	})
	register(Experiment{
		ID:    "table14",
		Title: "POP barotropic time vs numactl options",
		Paper: "Latency-sensitive solver: placement matters at middling core counts, washes out at 16.",
		Run:   runTable14,
	})
}

func amberSteps(s Scale) int {
	if s == Full {
		return 50
	}
	return 4
}

// amberTimes is the pair of metrics one AMBER run yields; caching the
// pair lets Table 7 (FFT time) and Table 9 (total time) share runs.
// The fields are exported so the pair round-trips the persistent store.
type amberTimes struct {
	Total, FFT float64
}

// amberRun runs one AMBER benchmark (resolved through the workload
// registry) and returns (total, fft) times.
func amberRun(r *Runner, name, system string, ranks int, scheme affinity.Scheme, steps int, s Scale) (total, fft float64, err error) {
	times, err := runCell(r, CellKey{
		Workload: fmt.Sprintf("amber/%s/%d", name, steps),
		System:   system, Ranks: ranks, Scheme: scheme, Scale: s,
	}, func() (amberTimes, error) {
		wl, err := workload.New(workload.Spec{Name: "amber", Arg: name, Steps: steps})
		if err != nil {
			return amberTimes{}, err
		}
		res, err := r.runMPICH2(fmt.Sprintf("amber-%s-%d", name, steps), system, ranks, scheme, wl.Body)
		if err != nil {
			return amberTimes{}, err
		}
		return amberTimes{Total: res.Max(amber.MetricTotalTime), FFT: res.Max(amber.MetricFFTTime)}, nil
	})
	return times.Total, times.FFT, err
}

var appSweep = []sysRanks{
	{System: "longs", Ranks: []int{2, 4, 8, 16}},
	{System: "dmz", Ranks: []int{2, 4}},
}

func runTable7(r *Runner, s Scale) []*report.Table {
	t := numactlTable(r, "Table 7: FFT time in the JAC benchmark (seconds)",
		appSweep,
		func(system string, ranks int, scheme affinity.Scheme) (float64, error) {
			_, fft, err := amberRun(r, "JAC", system, ranks, scheme, amberSteps(s), s)
			return fft, err
		})
	return []*report.Table{t}
}

func runTable8(r *Runner, s Scale) []*report.Table {
	names := []string{"dhfr", "factor_ix", "gb_cox2", "gb_mb", "JAC"}
	t := speedupTable(r, "Table 8: AMBER multi-core speedup (no numactl)",
		[]sysRanks{
			{System: "dmz", Ranks: []int{2, 4}},
			{System: "longs", Ranks: []int{2, 4, 8, 16}},
		},
		names,
		func(system string, ranks int, which int) (float64, error) {
			total, _, err := amberRun(r, names[which], system, ranks, affinity.Default, amberSteps(s), s)
			return total, err
		})
	return []*report.Table{t}
}

func runTable9(r *Runner, s Scale) []*report.Table {
	t := numactlTable(r, "Table 9: overall JAC runtime (seconds)",
		appSweep,
		func(system string, ranks int, scheme affinity.Scheme) (float64, error) {
			total, _, err := amberRun(r, "JAC", system, ranks, scheme, amberSteps(s), s)
			return total, err
		})
	return []*report.Table{t}
}

func lammpsSteps(s Scale) int {
	if s == Full {
		return 100
	}
	return 20
}

func lammpsRun(r *Runner, b lammps.Benchmark, system string, ranks int, scheme affinity.Scheme, steps int, s Scale) (float64, error) {
	return runCell(r, CellKey{
		Workload: fmt.Sprintf("lammps/%s/%d", b, steps),
		System:   system, Ranks: ranks, Scheme: scheme, Scale: s,
	}, func() (float64, error) {
		wl, err := workload.New(workload.Spec{Name: "lammps", Arg: b.String(), Steps: steps})
		if err != nil {
			return 0, err
		}
		res, err := r.runMPICH2(fmt.Sprintf("lammps-%s-%d", b, steps), system, ranks, scheme, wl.Body)
		if err != nil {
			return 0, err
		}
		return res.Max(lammps.MetricTime), nil
	})
}

func runTable10(r *Runner, s Scale) []*report.Table {
	benches := []lammps.Benchmark{lammps.LJ, lammps.Chain, lammps.EAM}
	t := speedupTable(r, "Table 10: LAMMPS multi-core speedup (no numactl)",
		[]sysRanks{
			{System: "dmz", Ranks: []int{2, 4}},
			{System: "longs", Ranks: []int{2, 4, 8, 16}},
			{System: "tiger", Ranks: []int{2}},
		},
		[]string{"LJ", "Chain", "EAM"},
		func(system string, ranks int, which int) (float64, error) {
			return lammpsRun(r, benches[which], system, ranks, affinity.Default, lammpsSteps(s), s)
		})
	return []*report.Table{t}
}

func runTable11(r *Runner, s Scale) []*report.Table {
	t := numactlTable(r, "Table 11: LAMMPS LJ runtime vs numactl options (seconds)",
		appSweep,
		func(system string, ranks int, scheme affinity.Scheme) (float64, error) {
			return lammpsRun(r, lammps.LJ, system, ranks, scheme, lammpsSteps(s), s)
		})
	return []*report.Table{t}
}

func popSteps(s Scale) int {
	if s == Full {
		return 50
	}
	return 3
}

// popTimes pairs the two POP phase metrics, so Table 12 (speedup),
// Table 13 (baroclinic), and Table 14 (barotropic) share runs. The
// fields are exported so the pair round-trips the persistent store.
type popTimes struct {
	Clinic, Tropic float64
}

func popRun(r *Runner, system string, ranks int, scheme affinity.Scheme, steps int, s Scale) (clinic, tropic float64, err error) {
	times, err := runCell(r, CellKey{
		Workload: fmt.Sprintf("pop/%d", steps),
		System:   system, Ranks: ranks, Scheme: scheme, Scale: s,
	}, func() (popTimes, error) {
		wl, err := workload.New(workload.Spec{Name: "pop", Steps: steps})
		if err != nil {
			return popTimes{}, err
		}
		res, err := r.runMPICH2(fmt.Sprintf("pop-%d", steps), system, ranks, scheme, wl.Body)
		if err != nil {
			return popTimes{}, err
		}
		return popTimes{Clinic: res.Max(pop.MetricBaroclinic), Tropic: res.Max(pop.MetricBarotropic)}, nil
	})
	return times.Clinic, times.Tropic, err
}

func runTable12(r *Runner, s Scale) []*report.Table {
	t := speedupTable(r, "Table 12: POP multi-core speedup",
		[]sysRanks{
			{System: "dmz", Ranks: []int{2, 4}},
			{System: "tiger", Ranks: []int{2}},
			{System: "longs", Ranks: []int{2, 4, 8, 16}},
		},
		[]string{"Baroclinic", "Barotropic"},
		func(system string, ranks int, which int) (float64, error) {
			clinic, tropic, err := popRun(r, system, ranks, affinity.Default, popSteps(s), s)
			if which == 0 {
				return clinic, err
			}
			return tropic, err
		})
	return []*report.Table{t}
}

func runTable13(r *Runner, s Scale) []*report.Table {
	t := numactlTable(r, "Table 13: POP baroclinic execution time (seconds)",
		appSweep,
		func(system string, ranks int, scheme affinity.Scheme) (float64, error) {
			clinic, _, err := popRun(r, system, ranks, scheme, popSteps(s), s)
			return clinic, err
		})
	return []*report.Table{t}
}

func runTable14(r *Runner, s Scale) []*report.Table {
	t := numactlTable(r, "Table 14: POP barotropic execution time (seconds)",
		appSweep,
		func(system string, ranks int, scheme affinity.Scheme) (float64, error) {
			_, tropic, err := popRun(r, system, ranks, scheme, popSteps(s), s)
			return tropic, err
		})
	return []*report.Table{t}
}
