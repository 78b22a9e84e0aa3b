package experiments

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"multicore/internal/affinity"
	"multicore/internal/machine"
	"multicore/internal/mpi"
	"multicore/internal/report"
	"multicore/internal/sim"
	"multicore/internal/store"
)

func testCellKey(workload string) CellKey {
	return CellKey{Workload: workload, System: "longs", Ranks: 8,
		Scheme: affinity.OneMPILocalAlloc, Scale: Quick}
}

// corruptAllEntries truncates every committed entry file in dir.
func corruptAllEntries(t *testing.T, dir string) {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, ent := range ents {
		if filepath.Ext(ent.Name()) != ".json" {
			continue
		}
		if err := os.WriteFile(filepath.Join(dir, ent.Name()), []byte("{trunc"), 0o644); err != nil {
			t.Fatal(err)
		}
		n++
	}
	if n == 0 {
		t.Fatal("no entries to corrupt")
	}
}

func openStore(t *testing.T) *store.Store {
	t.Helper()
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestRunCellPanicIsolated: a panicking cell becomes that cell's error —
// the sweep continues and the panic message survives — whether the panic
// is raised on the cell's goroutine or inside a goroutine-backed process
// body, which the engine re-raises from RunContext.
func TestRunCellPanicIsolated(t *testing.T) {
	r := NewRunner(nil, Options{})
	_, err := runCell(r, testCellKey("boomy"), func() (float64, error) {
		panic("synthetic cell failure")
	})
	if err == nil || !strings.Contains(err.Error(), "synthetic cell failure") {
		t.Fatalf("panic not captured as error: %v", err)
	}
	_, err = runCell(r, testCellKey("boomy-proc"), func() (float64, error) {
		e := sim.NewEngine()
		e.Spawn("rank0", func(p *sim.Proc) {
			p.Sleep(1)
			panic("synthetic process failure")
		})
		return 0, e.RunContext(context.Background())
	})
	if err == nil || !strings.Contains(err.Error(), "synthetic process failure") {
		t.Fatalf("process body panic not captured as the cell's error: %v", err)
	}
	// A healthy cell on the same runner still works.
	v, err := runCell(r, testCellKey("fine"), func() (float64, error) { return 7, nil })
	if err != nil || v != 7 {
		t.Fatalf("healthy cell after panic = (%v, %v)", v, err)
	}
	if len(r.CellErrors()) != 2 {
		t.Fatalf("CellErrors = %v, want the two panics", r.CellErrors())
	}
}

// TestExperimentWithPanickingCellRendersERR: an injected panicking cell
// must render as ERR while the rest of the table fills in normally.
func TestExperimentWithPanickingCellRendersERR(t *testing.T) {
	r := NewRunner(nil, Options{Parallelism: 4})
	tab := numactlTable(r, "synthetic", []sysRanks{{System: "longs", Ranks: []int{2, 4}}},
		func(system string, ranks int, scheme affinity.Scheme) (float64, error) {
			return runCell(r, CellKey{
				Workload: "synthetic", System: system, Ranks: ranks, Scheme: scheme, Scale: Quick,
			}, func() (float64, error) {
				if ranks == 4 && scheme == affinity.Interleave {
					panic("this cell is broken")
				}
				return float64(ranks), nil
			})
		})
	if tab.NumRows() != 2 {
		t.Fatalf("rows = %d, want 2", tab.NumRows())
	}
	foundErr, foundOK := false, false
	for i := 0; i < tab.NumRows(); i++ {
		for j := 2; j < 8; j++ {
			switch tab.Cell(i, j) {
			case report.Err:
				foundErr = true
			case report.NA:
			default:
				foundOK = true
			}
		}
	}
	if !foundErr {
		t.Fatal("panicking cell did not render as ERR")
	}
	if !foundOK {
		t.Fatal("healthy cells did not render")
	}
}

// TestRunnerRunIsolatesExperimentPanic: a panic outside any cell (in the
// experiment body itself) is captured by Runner.Run as an error.
func TestRunnerRunIsolatesExperimentPanic(t *testing.T) {
	r := NewRunner(nil, Options{})
	e := Experiment{ID: "synthetic-panic", Run: func(r *Runner, s Scale) []*report.Table {
		panic("experiment body exploded")
	}}
	tabs, err := r.Run(e, Quick)
	if tabs != nil {
		t.Fatal("panicking experiment returned tables")
	}
	if err == nil || !strings.Contains(err.Error(), "experiment body exploded") {
		t.Fatalf("panic not captured: %v", err)
	}
}

// TestStoreRoundTripSkipsSimulation: a second runner sharing the store
// must serve every cell from disk — zero simulations — with identical
// values (the -resume byte-identical-tables guarantee at cell level).
func TestStoreRoundTripSkipsSimulation(t *testing.T) {
	st := openStore(t)
	key := testCellKey("rt")

	r1 := NewRunner(nil, Options{Store: st})
	v1, err := runCell(r1, key, func() (float64, error) { return 42.5, nil })
	if err != nil || v1 != 42.5 {
		t.Fatalf("first run = (%v, %v)", v1, err)
	}
	if r1.CellsRun() != 1 || r1.StoreHits() != 0 {
		t.Fatalf("first run: CellsRun=%d StoreHits=%d", r1.CellsRun(), r1.StoreHits())
	}

	r2 := NewRunner(nil, Options{Store: st})
	v2, err := runCell(r2, key, func() (float64, error) {
		t.Error("cell re-simulated despite a stored result")
		return 0, nil
	})
	if err != nil || v2 != 42.5 {
		t.Fatalf("second run = (%v, %v), want stored 42.5", v2, err)
	}
	if r2.CellsRun() != 0 || r2.StoreHits() != 1 {
		t.Fatalf("second run: CellsRun=%d StoreHits=%d, want 0/1", r2.CellsRun(), r2.StoreHits())
	}
}

// TestStoreRoundTripStruct: struct-valued cells (the AMBER/POP metric
// pairs) must round-trip the store unchanged.
func TestStoreRoundTripStruct(t *testing.T) {
	st := openStore(t)
	key := testCellKey("pair")
	r1 := NewRunner(nil, Options{Store: st})
	want := amberTimes{Total: 12.25, FFT: 3.125}
	got, err := runCell(r1, key, func() (amberTimes, error) { return want, nil })
	if err != nil || got != want {
		t.Fatalf("first run = (%+v, %v)", got, err)
	}
	r2 := NewRunner(nil, Options{Store: st})
	got, err = runCell(r2, key, func() (amberTimes, error) {
		return amberTimes{}, fmt.Errorf("should have been served from the store")
	})
	if err != nil || got != want {
		t.Fatalf("stored struct = (%+v, %v), want %+v", got, err, want)
	}
}

// TestStoreInfeasibleRoundTrip: infeasible placements are stored and
// reconstructed as *affinity.ErrInfeasible, so dashes render identically
// from the store.
func TestStoreInfeasibleRoundTrip(t *testing.T) {
	st := openStore(t)
	key := testCellKey("dash")
	r1 := NewRunner(nil, Options{Store: st})
	_, err := runCell(r1, key, func() (float64, error) {
		return 0, &affinity.ErrInfeasible{Scheme: key.Scheme, Ranks: key.Ranks, System: key.System}
	})
	if !isInfeasible(err) {
		t.Fatalf("first run: %v, want infeasible", err)
	}
	r2 := NewRunner(nil, Options{Store: st})
	_, err = runCell(r2, key, func() (float64, error) {
		t.Error("infeasible cell re-simulated")
		return 0, nil
	})
	if !isInfeasible(err) {
		t.Fatalf("stored infeasible came back as %v", err)
	}
	if cellString(cellValue[float64]{err: err}, report.Seconds) != report.NA {
		t.Fatal("stored infeasible does not render as the paper's dash")
	}
}

// TestStoredErrorReportedWithoutResume: a recorded failure is surfaced
// (pointing at -resume), not silently retried.
func TestStoredErrorReportedWithoutResume(t *testing.T) {
	st := openStore(t)
	key := testCellKey("fails")
	r1 := NewRunner(nil, Options{Store: st})
	if _, err := runCell(r1, key, func() (float64, error) {
		return 0, errors.New("deadlock: ranks 0 and 1")
	}); err == nil {
		t.Fatal("failing cell returned nil error")
	}

	r2 := NewRunner(nil, Options{Store: st})
	_, err := runCell(r2, key, func() (float64, error) {
		t.Error("failed cell re-ran without -resume")
		return 0, nil
	})
	if err == nil || !strings.Contains(err.Error(), "-resume") ||
		!strings.Contains(err.Error(), "deadlock: ranks 0 and 1") {
		t.Fatalf("stored failure not reported usefully: %v", err)
	}
}

// TestStoredErrorRetriedWithResume: under Resume the failed cell re-runs,
// and a now-successful result replaces the error entry.
func TestStoredErrorRetriedWithResume(t *testing.T) {
	st := openStore(t)
	key := testCellKey("flaky")
	r1 := NewRunner(nil, Options{Store: st})
	runCell(r1, key, func() (float64, error) { return 0, errors.New("transient") })

	r2 := NewRunner(nil, Options{Store: st, Resume: true})
	v, err := runCell(r2, key, func() (float64, error) { return 9, nil })
	if err != nil || v != 9 {
		t.Fatalf("resume retry = (%v, %v), want 9", v, err)
	}
	// The retry's success must now be the stored state.
	r3 := NewRunner(nil, Options{Store: st})
	v, err = runCell(r3, key, func() (float64, error) {
		t.Error("healed cell re-simulated")
		return 0, nil
	})
	if err != nil || v != 9 {
		t.Fatalf("after retry = (%v, %v), want stored 9", v, err)
	}
}

// TestCorruptStoreEntryReRuns: a truncated entry file reads as a miss and
// the cell re-simulates.
func TestCorruptStoreEntryReRuns(t *testing.T) {
	st := openStore(t)
	key := testCellKey("corrupt")
	r1 := NewRunner(nil, Options{Store: st})
	if _, err := runCell(r1, key, func() (float64, error) { return 5, nil }); err != nil {
		t.Fatal(err)
	}
	corruptAllEntries(t, st.Dir())

	r2 := NewRunner(nil, Options{Store: st})
	v, err := runCell(r2, key, func() (float64, error) { return 6, nil })
	if err != nil || v != 6 {
		t.Fatalf("after corruption = (%v, %v), want re-run 6", v, err)
	}
	if r2.CellsRun() != 1 {
		t.Fatalf("CellsRun = %d, want 1 (re-simulated)", r2.CellsRun())
	}
}

// TestCanceledCellNotPersisted: a cell that died to cancellation must not
// be recorded — it would poison later resumed runs with a wall-clock
// artifact.
func TestCanceledCellNotPersisted(t *testing.T) {
	st := openStore(t)
	key := testCellKey("canceled")
	r1 := NewRunner(nil, Options{Store: st})
	_, err := runCell(r1, key, func() (float64, error) {
		return 0, &sim.CanceledError{Time: 3, Cause: context.Canceled}
	})
	if !IsCanceled(err) {
		t.Fatalf("got %v, want cancellation", err)
	}
	if n, _ := st.Len(); n != 0 {
		t.Fatalf("store has %d entries after cancellation, want 0", n)
	}
	if len(r1.CellErrors()) != 0 {
		t.Fatalf("cancellation recorded as a cell error: %v", r1.CellErrors())
	}

	// A later run re-simulates and persists normally.
	r2 := NewRunner(nil, Options{Store: st})
	v, err := runCell(r2, key, func() (float64, error) { return 4, nil })
	if err != nil || v != 4 {
		t.Fatalf("re-run = (%v, %v)", v, err)
	}
	if n, _ := st.Len(); n != 1 {
		t.Fatalf("store has %d entries, want 1", n)
	}
}

// TestCellTimeoutRendersERR: an engine that runs past CellTimeout fails
// its cell alike in every experiment — a memoized NAS table and an HPCC
// figure both still render, with ERR cells; CellErrors names the
// timeout; and no timed-out cell is persisted (the store keeps only the
// infeasible dashes, which need no engine).
func TestCellTimeoutRendersERR(t *testing.T) {
	st := openStore(t)
	r := NewRunner(nil, Options{CellTimeout: time.Nanosecond, Store: st})
	for _, id := range []string{"table3", "fig8"} {
		e, ok := ByID(id)
		if !ok {
			t.Fatalf("no experiment %s", id)
		}
		tabs, err := r.Run(e, Quick)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		var errCells int
		for _, tab := range tabs {
			for i := 0; i < tab.NumRows(); i++ {
				for j := 0; j < tab.NumCols(); j++ {
					if tab.Cell(i, j) == report.Err {
						errCells++
					}
				}
			}
		}
		if errCells == 0 {
			t.Errorf("%s: no ERR cell under a 1ns timeout", id)
		}
	}
	errs := r.CellErrors()
	if len(errs) == 0 {
		t.Fatal("timeouts not recorded in CellErrors")
	}
	for _, err := range errs {
		if !strings.Contains(err.Error(), "exceeded -timeout 1ns") || !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("cell error %q does not name the timeout", err)
		}
	}
	entries, err := st.List()
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range entries {
		if ent.Status != store.StatusInfeasible {
			t.Errorf("timed-out run persisted %s as %s", ent.Key.Workload, ent.Status)
		}
	}
}

// TestCanceledEngineCellNotPersisted: an engine that cancellation aborts
// inside a label-keyed cell panics out of runFunc; the cell keeps the
// cancellation in its error chain, so it is neither recorded nor stored.
// The same holds for a runner canceled in the middle of a real
// experiment (fig14).
func TestCanceledEngineCellNotPersisted(t *testing.T) {
	st := openStore(t)
	ctx, cancel := context.WithCancel(context.Background())
	r := NewRunner(ctx, Options{Store: st})
	cfg := mpi.Config{Spec: machine.DMZ(), Bindings: []affinity.Binding{{Core: 0}}}
	c := engineCell(r, Quick, "synthetic-abort", func(run mpi.RunFunc) float64 {
		cancel()
		return run(cfg, func(rk *mpi.Rank) {
			for i := 0; i < 10000; i++ { // more events than the engine runs between context checks
				rk.Compute(1e3, 1)
			}
		}).Time
	})
	if !IsCanceled(c.err) {
		t.Fatalf("aborted engine cell: %v, want a cancellation", c.err)
	}
	if n, _ := st.Len(); n != 0 || len(r.CellErrors()) != 0 {
		t.Fatalf("aborted cell stored (%d entries) or recorded (%v)", n, r.CellErrors())
	}

	e, ok := ByID("fig14")
	if !ok {
		t.Fatal("no experiment fig14")
	}
	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	r = NewRunner(ctx, Options{Store: st, Parallelism: 2})
	done := make(chan error)
	go func() {
		_, err := r.Run(e, Quick)
		done <- err
	}()
	for stored := 0; stored == 0; stored, _ = st.Len() {
		time.Sleep(50 * time.Microsecond)
	}
	// The other worker is most likely mid-engine.
	cancel()
	if err := <-done; err != nil && !errors.Is(err, context.Canceled) { // nil: fig14 finished first
		t.Fatalf("canceled fig14: %v, want context.Canceled", err)
	}
	entries, err := st.List()
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range entries {
		if ent.Status != store.StatusOK {
			t.Errorf("canceled fig14 stored %s as %s: %s", ent.Key.Workload, ent.Status, ent.Error)
		}
	}
	if len(r.CellErrors()) != 0 {
		t.Errorf("cancellation recorded as cell errors: %v", r.CellErrors())
	}
}

// TestCanceledRunnerDiscardsPartialTables: Runner.Run on a canceled
// context returns the context error and no tables, so half-computed
// artifacts are never emitted.
func TestCanceledRunnerDiscardsPartialTables(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r := NewRunner(ctx, Options{})
	e, ok := ByID("table2")
	if !ok {
		t.Fatal("no experiment table2")
	}
	tabs, err := r.Run(e, Quick)
	if tabs != nil {
		t.Fatal("canceled run returned tables")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if r.CellsRun() != 0 {
		t.Fatalf("canceled runner simulated %d cells", r.CellsRun())
	}

	// An engine the cancellation aborts panics out of runFunc; that
	// panic is the cancellation too, not a failed experiment.
	ctx, cancel = context.WithCancel(context.Background())
	r = NewRunner(ctx, Options{})
	cfg := mpi.Config{Spec: machine.DMZ(), Bindings: []affinity.Binding{{Core: 0}}}
	tabs, err = r.Run(Experiment{ID: "synthetic-abort", Run: func(r *Runner, s Scale) []*report.Table {
		cancel()
		r.runFunc("synthetic-abort")(cfg, func(rk *mpi.Rank) {
			for i := 0; i < 10000; i++ { // more events than the engine runs between context checks
				rk.Compute(1e3, 1)
			}
		})
		return []*report.Table{report.New("partial", "x")}
	}}, Quick)
	if tabs != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("aborted engine: got (%v, %v), want no tables and context.Canceled", tabs, err)
	}
}
