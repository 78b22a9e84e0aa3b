// Command mccompare scores the reproduction against the paper's published
// numbers: it re-runs each transcribed table on the simulator and reports
// per-row rank correlation (does the same option/workload ordering hold?)
// and spread ratio (is the placement effect the same magnitude?).
//
// Usage:
//
//	mccompare [-scale quick|full] [table2 table9 ...]
//
// Each argument names a transcribed table (table2-cg) or the experiment
// that regenerates it (table2 selects table2-cg and table2-ft); an
// argument that selects no transcribed table is an error.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"

	"multicore/internal/experiments"
	"multicore/internal/paperdata"
	"multicore/internal/report"
)

// binding of a paperdata table to the experiment artifact that regenerates
// it: experiment id, table index within the experiment's output, and an
// optional transform from measured cell to the paper's unit.
type binding struct {
	expID string
	index int
	// toEfficiency divides a measured speedup by the row's task count
	// (the paper's Table 4 reports efficiencies).
	toEfficiency bool
}

var bindings = map[string]binding{
	"table2-cg": {expID: "table2", index: 0},
	"table2-ft": {expID: "table2", index: 1},
	"table3-cg": {expID: "table3", index: 0},
	"table3-ft": {expID: "table3", index: 1},
	"table4":    {expID: "table4", index: 0, toEfficiency: true},
	"table7":    {expID: "table7", index: 0},
	"table8":    {expID: "table8", index: 0},
	"table9":    {expID: "table9", index: 0},
	"table10":   {expID: "table10", index: 0},
	"table11":   {expID: "table11", index: 0},
	"table12":   {expID: "table12", index: 0},
	"table13":   {expID: "table13", index: 0},
	"table14":   {expID: "table14", index: 0},
}

func main() {
	scale := flag.String("scale", "quick", "problem scale: quick or full")
	flag.Parse()
	sc, ids, err := resolve(*scale, flag.Args())
	if err != nil {
		fatalf("%v", err)
	}

	runner := experiments.NewRunner(nil, experiments.Options{})
	paper := paperdata.Tables()

	// Run each needed experiment once.
	measured := map[string][]*report.Table{}
	var all []paperdata.Agreement
	for _, id := range ids {
		b, ok := bindings[id]
		if !ok {
			fatalf("%s: no experiment regenerates this table", id)
		}
		if _, done := measured[b.expID]; !done {
			e, ok := experiments.ByID(b.expID)
			if !ok {
				fatalf("no experiment %q", b.expID)
			}
			fmt.Fprintf(os.Stderr, "running %s...\n", b.expID)
			tabs, err := runner.Run(e, sc)
			if err != nil {
				fatalf("%s: %v", b.expID, err)
			}
			measured[b.expID] = tabs
		}
		tabs := measured[b.expID]
		if b.index >= len(tabs) {
			fatalf("%s: experiment %s returned %d tables", id, b.expID, len(tabs))
		}
		ptab := paper[id]
		fmt.Printf("%s — %s\n", id, ptab.Title)
		var ags []paperdata.Agreement
		for _, row := range ptab.Rows {
			cells, ok := measuredRow(tabs[b.index], row.Tasks, row.System)
			if !ok {
				fmt.Printf("  (%2d, %-6s) no measured row\n", row.Tasks, row.System)
				continue
			}
			if b.toEfficiency {
				for i := range cells {
					cells[i] /= float64(row.Tasks)
				}
			}
			ag := paperdata.Compare(row.Cells, cells)
			ags = append(ags, ag)
			fmt.Printf("  (%2d, %-6s) %s\n", row.Tasks, row.System, ag)
		}
		s, g := paperdata.Summary(ags)
		fmt.Printf("  => mean spearman %.2f, geo spread ratio %.2f\n\n", s, g)
		all = append(all, ags...)
	}

	s, g := paperdata.Summary(all)
	fmt.Printf("OVERALL: %d rows, mean spearman %.2f, geo spread ratio %.2f\n", len(all), s, g)
	if !math.IsNaN(s) && s < 0.3 {
		fmt.Println("WARNING: weak ordering agreement with the paper")
		os.Exit(1)
	}
}

// resolve parses the scale and picks the transcribed tables to score, in
// id order: all of them with no arguments, else those the arguments
// select. An argument that selects no table is an error.
func resolve(scale string, args []string) (experiments.Scale, []string, error) {
	sc, err := experiments.ParseScale(scale)
	if err != nil {
		return 0, nil, err
	}
	var known, ids []string
	for id := range paperdata.Tables() {
		known = append(known, id)
	}
	sort.Strings(known)
	if len(args) == 0 {
		return sc, known, nil
	}
	for _, arg := range args {
		if !slices.ContainsFunc(known, func(id string) bool { return selects(arg, id) }) {
			return 0, nil, fmt.Errorf("no transcribed paper table %q (known: %s)", arg, strings.Join(known, ", "))
		}
	}
	for _, id := range known {
		if slices.ContainsFunc(args, func(arg string) bool { return selects(arg, id) }) {
			ids = append(ids, id)
		}
	}
	return sc, ids, nil
}

// selects reports whether an argument names the table id exactly or as
// its experiment ("table2" selects table2-cg and table2-ft).
func selects(arg, id string) bool {
	return id == arg || strings.HasPrefix(id, arg+"-")
}

// measuredRow finds the experiment-table row whose first two cells are
// (tasks, system) — or, for speedup tables, ("cores", system) — and
// parses the remaining cells ("-" becomes NaN).
func measuredRow(t *report.Table, tasks int, system string) ([]float64, bool) {
	want := strconv.Itoa(tasks)
	for i := 0; i < t.NumRows(); i++ {
		if t.Cell(i, 0) != want || t.Cell(i, 1) != system {
			continue
		}
		var out []float64
		for c := 2; c < len(t.Columns); c++ {
			v, err := strconv.ParseFloat(t.Cell(i, c), 64)
			if err != nil {
				v = math.NaN()
			}
			out = append(out, v)
		}
		return out, true
	}
	return nil, false
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "mccompare: "+format+"\n", args...)
	os.Exit(1)
}
