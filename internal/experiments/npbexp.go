package experiments

import (
	"multicore/internal/affinity"
	"multicore/internal/npb"
	"multicore/internal/report"
	"multicore/internal/workload"
)

func init() {
	register(Experiment{
		ID:    "table2",
		Title: "NAS CG and FT vs numactl options on Longs",
		Paper: "One task per socket with localalloc wins; membind and interleave are worst (up to ~2x slower).",
		Run:   runTable2,
	})
	register(Experiment{
		ID:    "table3",
		Title: "NAS CG and FT vs numactl options on DMZ",
		Paper: "The simple two-socket system is far less sensitive: default is near-optimal.",
		Run:   runTable3,
	})
	register(Experiment{
		ID:    "table4",
		Title: "NAS multi-core speedup (CG, FT)",
		Paper: "CG ~1.07 efficiency at 2 cores falling to 0.25-0.52 at 8-16; FT 0.82-0.88 at 2, 0.42 at 16.",
		Run:   runTable4,
	})
}

// npbClass returns the problem class per scale: class A preserves the
// out-of-cache matrix slices that make placement matter; Full uses the
// paper's class B.
func npbClass(s Scale) npb.Class {
	if s == Full {
		return npb.ClassB
	}
	return npb.ClassA
}

// npbTime runs one NAS kernel (resolved through the workload registry)
// and returns its benchmark time. Results are memoized: Table 2/3's
// Default columns and Table 4's sweep share cells.
func npbTime(r *Runner, kernel string, class npb.Class, system string, ranks int, scheme affinity.Scheme, s Scale) (float64, error) {
	return runCell(r, CellKey{
		Workload: "npb/" + kernel + "/" + string(class),
		System:   system, Ranks: ranks, Scheme: scheme, Scale: s,
	}, func() (float64, error) {
		wl, err := workload.New(workload.Spec{Name: kernel, Class: string(class)})
		if err != nil {
			return 0, err
		}
		res, err := r.runMPICH2("npb-"+kernel+"-"+string(class), system, ranks, scheme, wl.Body)
		if err != nil {
			return 0, err
		}
		return res.Max(wl.Metrics[0].Key), nil
	})
}

func runTable2(r *Runner, s Scale) []*report.Table {
	class := npbClass(s)
	var tables []*report.Table
	for _, kernel := range []string{"cg", "ft"} {
		k := kernel
		tables = append(tables, numactlTable(r,
			"Table 2 ("+k+"): effect of numactl options on NAS "+k+" (Longs), seconds",
			[]sysRanks{{System: "longs", Ranks: []int{2, 4, 8, 16}}},
			func(system string, ranks int, scheme affinity.Scheme) (float64, error) {
				return npbTime(r, k, class, system, ranks, scheme, s)
			}))
	}
	return tables
}

func runTable3(r *Runner, s Scale) []*report.Table {
	class := npbClass(s)
	var tables []*report.Table
	for _, kernel := range []string{"cg", "ft"} {
		k := kernel
		tables = append(tables, numactlTable(r,
			"Table 3 ("+k+"): effect of numactl options on NAS "+k+" (DMZ), seconds",
			[]sysRanks{{System: "dmz", Ranks: []int{2, 4}}},
			func(system string, ranks int, scheme affinity.Scheme) (float64, error) {
				return npbTime(r, k, class, system, ranks, scheme, s)
			}))
	}
	return tables
}

func runTable4(r *Runner, s Scale) []*report.Table {
	class := npbClass(s)
	kernels := []string{"CG", "FT"}
	t := speedupTable(r, "Table 4: NAS multi-core speedup",
		[]sysRanks{
			{System: "dmz", Ranks: []int{2, 4}},
			{System: "longs", Ranks: []int{2, 4, 8, 16}},
			{System: "tiger", Ranks: []int{2}},
		},
		kernels,
		func(system string, ranks int, which int) (float64, error) {
			k := "cg"
			if which == 1 {
				k = "ft"
			}
			return npbTime(r, k, class, system, ranks, affinity.Default, s)
		})
	return []*report.Table{t}
}
