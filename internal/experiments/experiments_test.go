package experiments

import (
	"context"
	"os"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"multicore/internal/fault"
	"multicore/internal/report"
)

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9",
		"fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16", "fig17",
		"table2", "table3", "table4", "table7", "table8", "table9",
		"table10", "table11", "table12", "table13", "table14",
		"ablate-coherence", "ablate-topology", "ablate-sublayer", "ext-hybrid",
		"ext-latency", "ext-openmp", "ext-npb", "ext-cluster", "ext-scale",
		"ablate-collectives", "ablate-migration", "numa-stream",
	}
	for _, id := range want {
		if _, ok := ByID(id); !ok {
			t.Fatalf("experiment %q not registered", id)
		}
	}
	if len(All()) != len(want) {
		t.Fatalf("registry has %d experiments, want %d", len(All()), len(want))
	}
}

func TestAblationShapes(t *testing.T) {
	tabs := mustRun(t, "ablate-coherence")
	// Removing the derating must raise single-core STREAM substantially.
	if gain := cell(t, tabs[0].Cell(0, 3)); gain < 1.3 {
		t.Fatalf("coherence ablation STREAM gain = %v, want > 1.3", gain)
	}
	tabs = mustRun(t, "ext-hybrid")
	// Latency must grow monotonically across the three channel classes.
	l0 := cell(t, tabs[0].Cell(0, 1))
	l1 := cell(t, tabs[0].Cell(1, 1))
	l2 := cell(t, tabs[0].Cell(2, 1))
	if !(l0 < l1 && l1 < l2) {
		t.Fatalf("channel latencies not ordered: %v %v %v", l0, l1, l2)
	}
	// Intra-socket bandwidth must beat the 4-hop path.
	b0 := cell(t, tabs[0].Cell(0, 2))
	b2 := cell(t, tabs[0].Cell(2, 2))
	if b0 <= b2 {
		t.Fatalf("intra-socket bandwidth %v should beat cross-ladder %v", b0, b2)
	}
}

func TestByIDUnknown(t *testing.T) {
	if _, ok := ByID("fig99"); ok {
		t.Fatal("fig99 should not exist")
	}
}

// cell parses a numeric table cell.
func cell(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("cell %q is not numeric: %v", s, err)
	}
	return v
}

func TestFig2Shape(t *testing.T) {
	tabs := mustRun(t, "fig2")
	tab := tabs[0]
	// Longs column: 16 rows; bandwidth at 8 active cores (all first
	// cores) must far exceed 1 core.
	var bw1, bw8 float64
	for i := 0; i < tab.NumRows(); i++ {
		switch tab.Cell(i, 0) {
		case "1":
			bw1 = cell(t, tab.Cell(i, 3))
		case "8":
			bw8 = cell(t, tab.Cell(i, 3))
		}
	}
	if bw8 < 6*bw1 {
		t.Fatalf("Longs bandwidth should scale across first cores: 1=%v 8=%v", bw1, bw8)
	}
	// Tiger has only 2 cores: row 3 shows a dash.
	found := false
	for i := 0; i < tab.NumRows(); i++ {
		if tab.Cell(i, 0) == "3" && tab.Cell(i, 1) == "-" {
			found = true
		}
	}
	if !found {
		t.Fatal("Tiger should be dashed beyond 2 cores")
	}
}

func TestFig10Shape(t *testing.T) {
	tabs := mustRun(t, "fig10")
	tab := tabs[0]
	// At least the localalloc row must show Single:Star > 2.
	for i := 0; i < tab.NumRows(); i++ {
		if tab.Cell(i, 0) == "localalloc" {
			if ratio := cell(t, tab.Cell(i, 3)); ratio <= 2 {
				t.Fatalf("localalloc Single:Star = %v, want > 2", ratio)
			}
			return
		}
	}
	t.Fatal("localalloc row missing")
}

func TestTable4Shape(t *testing.T) {
	tabs := mustRun(t, "table4")
	tab := tabs[0]
	// Longs CG at 16 must show poor efficiency (speedup well below 16).
	for i := 0; i < tab.NumRows(); i++ {
		if tab.Cell(i, 0) == "16" && tab.Cell(i, 1) == "longs" {
			cg := cell(t, tab.Cell(i, 2))
			if cg > 10 {
				t.Fatalf("Longs CG speedup at 16 = %v, paper shows collapse (4.0)", cg)
			}
			return
		}
	}
	t.Fatal("Longs/16 row missing")
}

func TestTable2HasDashesAt16OneMPI(t *testing.T) {
	tabs := mustRun(t, "table2")
	for _, tab := range tabs {
		found := false
		for i := 0; i < tab.NumRows(); i++ {
			if tab.Cell(i, 0) == "16" {
				if tab.Cell(i, 3) != "-" || tab.Cell(i, 4) != "-" {
					t.Fatalf("16-rank One-MPI cells should be dashes, got %q %q",
						tab.Cell(i, 3), tab.Cell(i, 4))
				}
				found = true
			}
		}
		if !found {
			t.Fatal("missing 16-rank row")
		}
	}
}

// cleanTables holds each experiment's tables from its latest clean run:
// TestSerialParallelIdentical's serial pass, or mustRun's fallback.
var (
	cleanMu     sync.Mutex
	cleanTables = map[string][]*report.Table{}
)

func keepClean(id string, tabs []*report.Table) {
	cleanMu.Lock()
	defer cleanMu.Unlock()
	cleanTables[id] = tabs
}

// testRunner runs the experiments no clean pass has run yet: its cache
// keeps cells shared across tests to one simulation.
var testRunner = NewRunner(nil, Options{})

// mustRun returns an experiment's clean tables at Quick scale, running
// it on testRunner unless TestSerialParallelIdentical already has, and
// checks that every table renders. Under -short it skips an experiment
// outside shortIDs rather than simulate one the short sweep never ran.
func mustRun(t *testing.T, id string) []*report.Table {
	t.Helper()
	if testing.Short() && !slices.Contains(shortIDs, id) {
		t.Skipf("%s is outside the -short sweep; the full pass (go test without -short) checks it", id)
	}
	e, ok := ByID(id)
	if !ok {
		t.Fatalf("no experiment %q", id)
	}
	cleanMu.Lock()
	tabs, ok := cleanTables[id]
	cleanMu.Unlock()
	if !ok {
		tabs = runTables(t, testRunner, e)
		keepClean(id, tabs)
	}
	if len(tabs) == 0 {
		t.Fatalf("%s returned no tables", id)
	}
	for _, tab := range tabs {
		if tab.NumRows() == 0 {
			t.Fatalf("%s produced an empty table", id)
		}
		if !strings.Contains(tab.Markdown(), "|") {
			t.Fatalf("%s markdown looks wrong", id)
		}
		if tab.CSV() == "" || tab.Text() == "" {
			t.Fatalf("%s rendering failed", id)
		}
	}
	return tabs
}

// TestAllExperimentsProduceTables checks that every experiment the clean
// pass sweeps renders at least one non-empty table as text, Markdown and
// CSV.
func TestAllExperimentsProduceTables(t *testing.T) {
	for _, e := range sweptExperiments(t) {
		e := e
		t.Run(e.ID, func(t *testing.T) { mustRun(t, e.ID) })
	}
}

// honourPlan perturbs every engine of every experiment: noise on every
// core, a slow memory controller on socket 0 and a degraded s0-s1 link.
const honourPlan = "noise:core=*,period=100us,frac=0.5;mcslow:socket=0,factor=0.5;linkdown:s0-s1,t=0s..inf,factor=0.5"

// TestEveryExperimentHonoursRunner checks that every experiment starts
// its engines through the runner: under a perturbing fault plan its
// tables differ from its clean tables, and with a trace directory it
// writes a trace file.
func TestEveryExperimentHonoursRunner(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment twice")
	}
	plan := fault.MustParse(honourPlan, 1)
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			clean := renderText(mustRun(t, e.ID))
			if faulted := renderAll(t, NewRunner(nil, Options{Faults: plan}), e); faulted == clean {
				t.Errorf("%s: tables under %q equal the clean tables", e.ID, honourPlan)
			}
			if !writesTrace(t, e) {
				t.Errorf("%s: traced run wrote no trace file", e.ID)
			}
		})
	}
}

// writesTrace runs e with a trace directory until its first trace file
// appears, then cancels the run: traces of whole experiments run to
// gigabytes.
func writesTrace(t *testing.T, e Experiment) bool {
	dir := t.TempDir()
	written := func() bool {
		files, err := os.ReadDir(dir)
		return err == nil && len(files) > 0
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() {
		defer close(done)
		NewRunner(ctx, Options{TraceDir: dir}).Run(e, Quick) // canceled once a file is written
	}()
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-done:
			return written()
		case <-tick.C:
			if written() {
				cancel()
				<-done
				return true
			}
		}
	}
}
