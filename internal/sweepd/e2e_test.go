package sweepd

import (
	"context"
	"sync"
	"testing"
	"time"

	"multicore/internal/experiments"
	"multicore/internal/fault"
	"multicore/internal/schema"
	"multicore/internal/store"
)

// End-to-end tests: real Workers running real (quick-scale) simulations
// against a live coordinator, checked byte-for-byte against the serial
// golden path.

func e2eGrid() Grid {
	return Grid{Workloads: []string{"stream"}, Systems: []string{"tiger"},
		Ranks: []int{1, 2}, Schemes: []string{"default", "localalloc"}, Scale: "quick"}
}

// serialGolden runs the grid in-process, single-threaded, with no store —
// the reference every distributed run must reproduce exactly.
func serialGolden(t *testing.T, g Grid) (map[string]CellResult, string) {
	t.Helper()
	r := experiments.NewRunner(context.Background(), experiments.Options{Parallelism: 1})
	results := RunLocal(r, g, 1)
	return results, Table(g, results).Text()
}

// startE2EWorker launches a Worker goroutine; the cancel func kills it.
func startE2EWorker(t *testing.T, base, storeDir, name string, hook func(Assignment)) (*Worker, context.CancelFunc) {
	t.Helper()
	w, err := NewWorker(WorkerOptions{
		Coordinator: base, Store: storeDir, Name: name,
		Client:     nil,
		beforeCell: hook,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); w.Run(ctx) }()
	t.Cleanup(func() { cancel(); <-done })
	return w, cancel
}

func collectSweep(t *testing.T, base string, g Grid) (*Summary, map[string]CellResult) {
	t.Helper()
	req := SweepRequest{SchemaVersion: schema.Version, Grid: g}
	results := map[string]CellResult{}
	var mu sync.Mutex
	sum, err := Submit(context.Background(), base, req, func(r CellResult) {
		mu.Lock()
		results[r.Cell.Key()] = r
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	return sum, results
}

func TestDistributedSweepMatchesSerial(t *testing.T) {
	g := e2eGrid()
	golden, goldenTable := serialGolden(t, g)

	_, srv := startCoordinator(t, CoordinatorOptions{})
	storeDir := t.TempDir()
	w1, _ := startE2EWorker(t, srv.URL, storeDir, "a", nil)
	w2, _ := startE2EWorker(t, srv.URL, storeDir, "b", nil)

	sum, results := collectSweep(t, srv.URL, g)
	if sum.Cells != len(g.Cells()) || sum.Errors != 0 || sum.Divergent != 0 {
		t.Fatalf("summary = %+v, want %d clean cells", sum, len(g.Cells()))
	}
	if sum.Simulated != len(g.Cells()) {
		t.Errorf("first run simulated %d of %d cells", sum.Simulated, len(g.Cells()))
	}
	// Byte-identical to the serial golden path: rendered table and
	// per-cell fingerprints.
	if got := Table(g, results).Text(); got != goldenTable {
		t.Errorf("distributed table differs from serial:\n--- distributed\n%s--- serial\n%s", got, goldenTable)
	}
	for k, want := range golden {
		got, ok := results[k]
		if !ok {
			t.Errorf("cell %s missing from distributed results", k)
			continue
		}
		if got.Fingerprint != want.Fingerprint {
			t.Errorf("cell %s fingerprint %s != serial %s", k, got.Fingerprint, want.Fingerprint)
		}
	}
	run1, _ := w1.Stats()
	run2, _ := w2.Stats()
	if run1+run2 != len(g.Cells()) {
		t.Errorf("workers simulated %d cells, want %d", run1+run2, len(g.Cells()))
	}

	// Resubmission: every cell is on disk, so nothing re-simulates and
	// the table is still byte-identical.
	sum2, results2 := collectSweep(t, srv.URL, g)
	if sum2.Simulated != 0 {
		t.Errorf("resubmission simulated %d cells, want 0", sum2.Simulated)
	}
	if sum2.StoreHits != len(g.Cells()) {
		t.Errorf("resubmission store hits = %d, want %d", sum2.StoreHits, len(g.Cells()))
	}
	if got := Table(g, results2).Text(); got != goldenTable {
		t.Errorf("resubmitted table differs from serial:\n%s", got)
	}
	st, err := store.Open(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if n, err := st.Len(); err != nil || n != len(g.Cells()) {
		t.Errorf("store holds %d entries (err %v), want %d", n, err, len(g.Cells()))
	}
}

func TestWorkerKilledMidCellReassigned(t *testing.T) {
	g := e2eGrid()
	golden, goldenTable := serialGolden(t, g)

	_, srv := startCoordinator(t, CoordinatorOptions{Lease: 150 * time.Millisecond})
	storeDir := t.TempDir()

	// Worker "a" dies the instant it receives its first cell — before
	// simulating or reporting anything.
	killed := make(chan Assignment, 1)
	var kill context.CancelFunc
	var once sync.Once
	_, kill = startE2EWorker(t, srv.URL, storeDir, "a", func(asg Assignment) {
		once.Do(func() {
			killed <- asg
			kill()
		})
	})

	sumc, resc, errc := submitAsync(t, srv.URL, SweepRequest{SchemaVersion: schema.Version, Grid: g})

	var dead Assignment
	select {
	case dead = <-killed:
	case <-time.After(5 * time.Second):
		t.Fatal("worker a never received a cell")
	}

	// Only now does the surviving worker appear; the dead worker's lease
	// must expire and its cell re-lease here.
	startE2EWorker(t, srv.URL, storeDir, "b", nil)

	sum := <-sumc
	results := <-resc
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	if sum.Errors != 0 || sum.Divergent != 0 {
		t.Fatalf("summary = %+v, want clean completion after worker death", sum)
	}
	if got := Table(g, results).Text(); got != goldenTable {
		t.Errorf("post-crash table differs from serial:\n--- distributed\n%s--- serial\n%s", got, goldenTable)
	}
	for k, want := range golden {
		if results[k].Fingerprint != want.Fingerprint {
			t.Errorf("cell %s fingerprint %s != serial %s", k, results[k].Fingerprint, want.Fingerprint)
		}
	}
	res := results[dead.Cell.Key()]
	if res.Worker != "w2" || res.Attempt != 2 {
		t.Errorf("killed cell finished as %+v, want worker w2 at attempt 2", res)
	}
}

func TestDuplicateSubmissionsSimulateEachCellOnce(t *testing.T) {
	g := e2eGrid()
	nCells := len(g.Cells())

	_, srv := startCoordinator(t, CoordinatorOptions{})
	storeDir := t.TempDir()
	w1, _ := startE2EWorker(t, srv.URL, storeDir, "a", nil)
	w2, _ := startE2EWorker(t, srv.URL, storeDir, "b", nil)

	req := SweepRequest{SchemaVersion: schema.Version, Grid: g}
	sum1, res1, err1 := submitAsync(t, srv.URL, req)
	sum2, res2, err2 := submitAsync(t, srv.URL, req)

	s1, s2 := <-sum1, <-sum2
	r1, r2 := <-res1, <-res2
	if err := <-err1; err != nil {
		t.Fatal(err)
	}
	if err := <-err2; err != nil {
		t.Fatal(err)
	}
	if s1.Cells != nCells || s2.Cells != nCells || s1.Errors+s2.Errors != 0 {
		t.Fatalf("summaries = %+v / %+v, want %d clean cells each", s1, s2, nCells)
	}
	// Exactly-once: the workers between them simulated each cell once,
	// and the store holds exactly one entry per cell.
	run1, _ := w1.Stats()
	run2, _ := w2.Stats()
	if run1+run2 != nCells {
		t.Errorf("duplicate sweeps simulated %d cells, want %d", run1+run2, nCells)
	}
	st, err := store.Open(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if n, err := st.Len(); err != nil || n != nCells {
		t.Errorf("store holds %d entries (err %v), want %d", n, err, nCells)
	}
	// Both clients observed identical results.
	for k, a := range r1 {
		if b := r2[k]; a.Fingerprint != b.Fingerprint {
			t.Errorf("duplicate sweeps diverge at %s: %s vs %s", k, a.Fingerprint, b.Fingerprint)
		}
	}
}

// TestTransientFailureSimulatesOnce: a cell whose injected transient
// failure outlives the worker's retry budget is final after one lease.
// A cellerr draw depends only on the seed, the cell, the rule and the
// worker-local attempt, so leasing the cell again would only repeat the
// failure: every seed's remote result matches a local run of the same
// cell, at attempt 1, and the worker simulates the cell exactly once.
func TestTransientFailureSimulatesOnce(t *testing.T) {
	const plan = "cellerr:p=0.5"
	g := testGrid()
	_, srv := startCoordinator(t, CoordinatorOptions{Lease: 5 * time.Second})
	w, _ := startE2EWorker(t, srv.URL, "", "a", nil)
	failed := 0
	for seed := int64(1); seed <= 8; seed++ {
		local := RunLocal(experiments.NewRunner(context.Background(), experiments.Options{
			Parallelism: 1, Faults: fault.MustParse(plan, seed), Retries: 1,
		}), g, 1)
		before, _ := w.Stats()
		results := map[string]CellResult{}
		if _, err := Submit(context.Background(), srv.URL, SweepRequest{
			SchemaVersion: schema.Version, Grid: g, Faults: plan, FaultSeed: seed, Retries: 1,
		}, func(r CellResult) { results[r.Cell.Key()] = r }); err != nil {
			t.Fatal(err)
		}
		if after, _ := w.Stats(); after-before != 1 {
			t.Errorf("seed %d: the worker simulated the cell %d times, want once", seed, after-before)
		}
		for k, want := range local {
			got := results[k]
			if got.Fingerprint != want.Fingerprint || got.Attempt != 1 {
				t.Errorf("seed %d: remote result %+v at attempt %d, want the local %+v at attempt 1",
					seed, got, got.Attempt, want)
			}
			if want.Status == StatusError {
				failed++
			}
		}
	}
	if failed == 0 {
		t.Fatal("no seed failed the cell; the plan no longer exercises a lasting transient failure")
	}
}
