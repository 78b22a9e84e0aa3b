package sweepd

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"math"
	"net/http"
	"reflect"
	"runtime"
	"sort"
	"testing"
	"time"

	"multicore/internal/affinity"
	"multicore/internal/analytic"
	"multicore/internal/experiments"
	"multicore/internal/machine"
	"multicore/internal/schema"
	"multicore/internal/store"
	"multicore/internal/workload"
)

func screenGrid() Grid {
	return Grid{
		Workloads: []string{"stream", "cg", "ra"},
		Systems:   []string{"tiger", "longs"},
		Ranks:     []int{1, 2, 4},
		Schemes:   []string{"default", "localalloc", "membind", "interleave"},
		Scale:     "quick",
	}
}

// TestScreenGridPartition: every cell gets exactly one verdict — a
// promotion with a reason, or a settled result with a fingerprint — and
// the decisions come back in grid order.
func TestScreenGridPartition(t *testing.T) {
	g := screenGrid()
	decisions := ScreenGrid(analytic.New(), g, ScreenOptions{})
	cells := g.Cells()
	if len(decisions) != len(cells) {
		t.Fatalf("%d decisions for %d cells", len(decisions), len(cells))
	}
	for i, d := range decisions {
		if d.Cell != cells[i] {
			t.Fatalf("decision %d is %+v, want grid-order cell %+v", i, d.Cell, cells[i])
		}
		if d.Promote {
			if d.Reason == "" {
				t.Errorf("promoted cell %s has no reason", d.Cell.Key())
			}
			if d.Result.Status != "" {
				t.Errorf("promoted cell %s also settled as %q", d.Cell.Key(), d.Result.Status)
			}
			continue
		}
		if d.Result.Status == "" {
			t.Errorf("unpromoted cell %s has no result", d.Cell.Key())
			continue
		}
		if d.Result.Fingerprint == "" {
			t.Errorf("settled cell %s has no fingerprint", d.Cell.Key())
		}
		if res := d.CellResult(); res.Status == StatusEstimated && !(res.Seconds > 0) {
			t.Errorf("estimated cell %s has non-positive seconds %v", d.Cell.Key(), res.Seconds)
		}
	}
}

// TestScreenGridDeterministic: screening is pure math — two estimators
// screening the same grid produce byte-equal decisions, fingerprints
// included.
func TestScreenGridDeterministic(t *testing.T) {
	g := screenGrid()
	a := ScreenGrid(analytic.New(), g, ScreenOptions{})
	b := ScreenGrid(analytic.New(), g, ScreenOptions{})
	for i := range a {
		if a[i].Promote != b[i].Promote || a[i].Reason != b[i].Reason ||
			a[i].Result.Fingerprint != b[i].Result.Fingerprint {
			t.Fatalf("screening diverged at %s: %+v vs %+v", a[i].Cell.Key(), a[i], b[i])
		}
	}
}

// legacyDecision is the decision layout the per-cell algorithm used,
// with the whole wire result inline (zero for a promoted cell). The
// recorded digests of TestScreenGridMatchesPerCell hash this layout.
type legacyDecision struct {
	Cell    CellSpec
	Est     analytic.Estimate
	HasEst  bool
	Promote bool
	Reason  string
	Result  CellResult
}

func legacy(d *ScreenDecision) legacyDecision {
	return legacyDecision{d.Cell, d.Est, d.HasEst, d.Promote, d.Reason, d.CellResult()}
}

// screenGridPerCell is the reference ScreenGrid must match decision for
// decision: the per-cell algorithm it replaced, pricing each cell with
// Estimator.Cell, settling errors and infeasible placements with
// resultFor, ordering each row with sort.Slice, and fingerprinting the
// estimates with Fingerprint.
func screenGridPerCell(e *analytic.Estimator, g Grid, opts ScreenOptions) []legacyDecision {
	opts = opts.withDefaults()
	var decisions []legacyDecision
	for _, w := range g.Workloads {
		spec, specErr := workload.ParseSpec(w)
		spec.Class, spec.Steps, spec.N = g.Class, g.Steps, g.N
		for _, sys := range g.Systems {
			for _, r := range g.Ranks {
				rowStart := len(decisions)
				for _, sch := range g.Schemes {
					c := CellSpec{Workload: w, Class: g.Class, Steps: g.Steps, N: g.N,
						System: sys, Ranks: r, Scheme: sch, Scale: g.Scale}
					d := legacyDecision{Cell: c}
					scheme, schemeErr := affinity.ParseScheme(sch)
					switch {
					case specErr != nil:
						d.Result = resultFor(c, 0, specErr)
					case schemeErr != nil:
						d.Result = resultFor(c, 0, schemeErr)
					default:
						est, err := e.Cell(spec, sys, r, scheme)
						var inf *affinity.ErrInfeasible
						switch {
						case errors.As(err, &inf):
							d.Result = resultFor(c, 0, err)
						case err != nil:
							d.Promote, d.Reason = true, ReasonUnestimable
						default:
							d.Est, d.HasEst = est, true
							if est.Uncertainty > opts.UncertaintyBound {
								d.Promote, d.Reason = true, ReasonUncertainty
							}
						}
					}
					decisions = append(decisions, d)
				}
				row := decisions[rowStart:]
				var idx []int
				for i := range row {
					if row[i].HasEst {
						idx = append(idx, i)
					}
				}
				sort.Slice(idx, func(a, b int) bool {
					ea, eb := row[idx[a]].Est.Seconds, row[idx[b]].Est.Seconds
					if ea != eb {
						return ea < eb
					}
					return idx[a] < idx[b]
				})
				for k := 0; k+1 < len(idx); k++ {
					a, b := &row[idx[k]], &row[idx[k+1]]
					if b.Est.Seconds <= a.Est.Seconds*(1+opts.PromoteMargin) {
						for _, d := range []*legacyDecision{a, b} {
							if !d.Promote {
								d.Promote, d.Reason = true, ReasonCrossover
							}
						}
					}
				}
			}
		}
	}
	for i := range decisions {
		d := &decisions[i]
		if d.Promote || d.Result.Status != "" {
			continue
		}
		d.Result = CellResult{Cell: d.Cell, Status: StatusEstimated, Seconds: d.Est.Seconds, Uncertainty: d.Est.Uncertainty}
		d.Result.Fingerprint = Fingerprint(d.Result)
	}
	return decisions
}

// TestScreenGridMatchesPerCell: row-batched screening reproduces the
// per-cell reference exactly, on a grid with every kind of cell — an
// unparseable workload, an unparseable scheme, an unknown system, a
// family without a profile, a registered custom machine, infeasible and
// feasible rank counts — with and without calibration. The decision
// digests were recorded from the per-cell implementation, so they pin
// the estimates' bits as well.
func TestScreenGridMatchesPerCell(t *testing.T) {
	id, _, err := machine.RegisterSpecFile("../../examples/hybrid8.json")
	if err != nil {
		t.Fatal(err)
	}
	g := Grid{
		Workloads: []string{"stream", "cg", ":bad", "nosuchfamily", "lmbench"},
		Systems:   []string{"tiger", "longs", "cray", id},
		Ranks:     []int{1, 2, 3, 4, 8, 16, 17, 64},
		Schemes:   []string{"default", "localalloc", "membind", "2mpi-localalloc", "interleave", "bogus"},
		Scale:     "quick",
	}
	for _, tc := range []struct {
		factors map[string]float64
		digest  string
	}{
		{nil, "f739031524e4e208503193e33b2a80408c63914fcd4765816c202b0168f5b4fd"},
		{map[string]float64{
			analytic.Class("stream", "tiger"): 1.3,
			analytic.Class("cg", "longs"):     0.7,
			analytic.Class("lmbench", id):     1.1,
		}, "82e9021f5699b62afdd19f7e27ea3608fa9daefd9c58016654c96000acd5d558"},
	} {
		e, ref := analytic.New(), analytic.New()
		e.SetCalibration(tc.factors)
		ref.SetCalibration(tc.factors)
		got, want := ScreenGrid(e, g, ScreenOptions{}), screenGridPerCell(ref, g, ScreenOptions{})
		if len(got) != len(want) {
			t.Fatalf("%d decisions, reference has %d", len(got), len(want))
		}
		h := sha256.New()
		for i := range got {
			d := legacy(&got[i])
			if !reflect.DeepEqual(d, want[i]) {
				t.Fatalf("decision %d differs from the per-cell reference:\n got %+v\nwant %+v", i, d, want[i])
			}
			fmt.Fprintf(h, "%+v\n", d)
		}
		if d := fmt.Sprintf("%x", h.Sum(nil)); d != tc.digest {
			t.Errorf("calibration %v: decision digest %s, recorded %s", tc.factors, d, tc.digest)
		}
	}
}

// TestScreenGridAllocs: on a warm estimator the settled cells'
// fingerprints share one string, and the only allocations per cell are
// the over-subscribed rows' error values: one per scheme of each
// (system, ranks) row above the core count, shared by the grid's three
// workloads, 3,928 of the 3,950 allocations for these 12,000 cells. The
// bound is a deterministic count, so it holds on any host.
func TestScreenGridAllocs(t *testing.T) {
	g := screenGrid()
	g.Ranks = nil
	for r := 1; r <= 500; r++ {
		g.Ranks = append(g.Ranks, r)
	}
	cells := g.Size()
	if cells < 10_000 {
		t.Fatalf("grid has %d cells, want >= 10k", cells)
	}
	e := analytic.New()
	ScreenGrid(e, g, ScreenOptions{})
	allocs := testing.AllocsPerRun(3, func() { ScreenGrid(e, g, ScreenOptions{}) })
	if perCell := allocs / float64(cells); perCell > 0.33 {
		t.Errorf("ScreenGrid made %.3f allocations per cell on a warm estimator, want <= 0.33", perCell)
	}
}

// BenchmarkScreenGrid screens screenGrid's shape (three families on two
// systems under four schemes) over 1000 rank counts on a warm
// estimator, reporting the cost per cell.
func BenchmarkScreenGrid(b *testing.B) {
	g := screenGrid()
	g.Ranks = nil
	for r := 1; r <= 1000; r++ {
		g.Ranks = append(g.Ranks, r)
	}
	e := analytic.New()
	ScreenGrid(e, g, ScreenOptions{})
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ScreenGrid(e, g, ScreenOptions{})
	}
	b.StopTimer()
	runtime.ReadMemStats(&ms1)
	cells := float64(b.N * g.Size())
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/cells, "ns/cell")
	b.ReportMetric(float64(ms1.Mallocs-ms0.Mallocs)/cells, "allocs/cell")
}

// BenchmarkScreenGridCold screens the first of the eight rank slices
// perfbench's screen-grid workload screens (ranks 1-5209 of
// screenGrid's shape, 125,016 cells) from a fresh estimator each
// iteration, as that workload does, so the layout and profile caches'
// first use is in the cost per cell.
func BenchmarkScreenGridCold(b *testing.B) {
	g := screenGrid()
	g.Ranks = nil
	for r := 1; r <= 5209; r++ {
		g.Ranks = append(g.Ranks, r)
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ScreenGrid(analytic.New(), g, ScreenOptions{})
	}
	b.StopTimer()
	runtime.ReadMemStats(&ms1)
	cells := float64(b.N * g.Size())
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/cells, "ns/cell")
	b.ReportMetric(float64(ms1.Mallocs-ms0.Mallocs)/cells, "allocs/cell")
}

// TestScreenPromotionMargin: with an absurdly wide margin every
// estimable row pair promotes; with a zero-ish margin only genuinely
// tied estimates do. The unknown-family path always promotes.
func TestScreenPromotionMargin(t *testing.T) {
	g := screenGrid()
	wide := ScreenGrid(analytic.New(), g, ScreenOptions{PromoteMargin: 1e9})
	var widePromoted, wideEstimable int
	for _, d := range wide {
		if d.HasEst {
			wideEstimable++
			if d.Promote {
				widePromoted++
			}
		}
	}
	if widePromoted != wideEstimable {
		t.Errorf("margin=1e9 promoted %d of %d estimable cells; rows with >=2 schemes must all promote",
			widePromoted, wideEstimable)
	}

	narrow := ScreenGrid(analytic.New(), g, ScreenOptions{PromoteMargin: 1e-12})
	var narrowPromoted int
	for _, d := range narrow {
		if d.HasEst && d.Promote && d.Reason == ReasonCrossover {
			narrowPromoted++
		}
	}
	if narrowPromoted >= widePromoted {
		t.Errorf("margin=1e-12 promoted %d crossover cells, not fewer than the wide margin's %d",
			narrowPromoted, widePromoted)
	}

	// A single-scheme row has no crossover to detect: a known family
	// settles as an estimate, while a family the model has no profile
	// for must promote — only the simulator can price it.
	gk := Grid{Workloads: []string{"stream"}, Systems: []string{"tiger"},
		Ranks: []int{1}, Schemes: []string{"default"}, Scale: "quick"}
	dk := ScreenGrid(analytic.New(), gk, ScreenOptions{})
	if len(dk) != 1 || dk[0].Promote || dk[0].Result.Status != StatusEstimated {
		t.Fatalf("known family screened as %+v; want settled estimate", dk[0])
	}
	gu := gk
	gu.Workloads = []string{"nosuchfamily"}
	du := ScreenGrid(analytic.New(), gu, ScreenOptions{})
	if len(du) != 1 || !du[0].Promote || du[0].Reason != ReasonUnestimable {
		t.Fatalf("unprofiled family screened as %+v; want promotion (%s)", du[0], ReasonUnestimable)
	}
}

// TestRunScreenedByteStable: the two-tier executor's promoted cells run
// through the same path as a direct sweep, so (a) every result is
// identical across worker counts, (b) promoted cells' fingerprints are
// byte-identical to an unscreened run's, and (c) every store entry the
// screened run writes equals the direct run's entry for its key.
func TestRunScreenedByteStable(t *testing.T) {
	g := screenGrid()
	opts := ScreenOptions{}

	newRunner := func(st *store.Store) *experiments.Runner {
		return experiments.NewRunner(context.Background(), experiments.Options{Parallelism: 2, Store: st})
	}
	openStore := func() *store.Store {
		st, err := store.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { st.Close() })
		return st
	}
	screenStore, directStore := openStore(), openStore()
	res1, dec1 := RunScreened(newRunner(screenStore), analytic.New(), g, opts, 1)
	res4, dec4 := RunScreened(newRunner(nil), analytic.New(), g, opts, 4)
	if len(dec1) != len(dec4) || len(res1) != len(res4) {
		t.Fatalf("worker counts changed the result shape: %d/%d vs %d/%d",
			len(dec1), len(res1), len(dec4), len(res4))
	}
	for k, a := range res1 {
		b, ok := res4[k]
		if !ok {
			t.Fatalf("cell %s missing at workers=4", k)
		}
		if a.Fingerprint != b.Fingerprint || a.Status != b.Status {
			t.Errorf("cell %s differs across worker counts: %+v vs %+v", k, a, b)
		}
	}

	// Promoted cells vs the direct (unscreened) golden run.
	golden := RunLocal(newRunner(directStore), g, 1)
	var promoted int
	for _, d := range dec1 {
		if !d.Promote {
			continue
		}
		promoted++
		k := d.Cell.Key()
		got, want := res1[k], golden[k]
		if got.Fingerprint != want.Fingerprint {
			t.Errorf("promoted cell %s fingerprint %s != direct run %s", k, got.Fingerprint, want.Fingerprint)
		}
		if !got.Promoted {
			t.Errorf("promoted cell %s not marked Promoted in results", k)
		}
	}
	if promoted == 0 {
		t.Error("screening promoted nothing; the crossover rule is inert")
	}
	if promoted == len(dec1) {
		t.Error("screening promoted everything; the estimate tier is inert")
	}

	sum := ScreenSummary(dec1, res1)
	if sum.Cells != len(dec1) || sum.Promoted != promoted || sum.Screened != len(dec1)-promoted {
		t.Errorf("summary %+v inconsistent with %d decisions / %d promoted", sum, len(dec1), promoted)
	}

	screened, err := screenStore.List()
	if err != nil {
		t.Fatal(err)
	}
	direct, err := directStore.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(screened) != promoted || len(direct) != len(dec1) {
		t.Fatalf("stores hold %d screened and %d direct entries, want %d and %d",
			len(screened), len(direct), promoted, len(dec1))
	}
	byKey := map[store.Key]store.Entry{}
	for _, e := range direct {
		byKey[e.Key] = e
	}
	for _, got := range screened {
		want, ok := byKey[got.Key]
		if !ok || got.Status != want.Status || !bytes.Equal(got.Value, want.Value) || got.Error != want.Error {
			t.Errorf("screened entry %+v differs from the direct run's %+v", got, want)
		}
	}
}

// TestScreenThroughput is the perf acceptance gate: screening must
// sustain at least 1e5 cells/sec single-threaded on a >=100k-cell grid
// (the scale the two-tier executor exists for). On a 2-core Xeon host
// this grid screens at 1.9-2.7e6 cells/sec (median 2.3e6 over ten runs)
// from a fresh estimator, so the floor holds even on loaded CI machines.
func TestScreenThroughput(t *testing.T) {
	if testing.Short() {
		t.Skip("throughput measurement; skipped with -short")
	}
	ranks := make([]int, 650)
	for i := range ranks {
		ranks[i] = i + 1
	}
	g := Grid{
		Workloads: []string{"stream", "daxpy", "dgemm", "fft", "ra", "ptrans", "hpl", "cg", "ft", "ep", "mg", "lmbench", "pop"},
		Systems:   []string{"tiger", "dmz", "longs"},
		Ranks:     ranks,
		Schemes:   []string{"default", "localalloc", "membind", "interleave"},
		Scale:     "quick",
	}
	cells := len(g.Workloads) * len(g.Systems) * len(g.Ranks) * len(g.Schemes)
	if cells < 100_000 {
		t.Fatalf("grid has %d cells, want >= 100k", cells)
	}
	e := analytic.New()
	start := time.Now()
	decisions := ScreenGrid(e, g, ScreenOptions{})
	elapsed := time.Since(start)
	rate := float64(len(decisions)) / elapsed.Seconds()
	t.Logf("screened %d cells in %v (%.0f cells/sec)", len(decisions), elapsed, rate)
	if rate < 1e5 {
		t.Errorf("screening rate %.0f cells/sec below the 1e5 acceptance floor", rate)
	}
}

// TestCoordinatorScreenedSweep: a screened remote sweep settles most
// cells in-process, leases only the promoted sliver, and the promoted
// results are byte-identical to the serial golden path.
func TestCoordinatorScreenedSweep(t *testing.T) {
	g := screenGrid()
	golden, _ := serialGolden(t, g)

	_, srv := startCoordinator(t, CoordinatorOptions{})
	storeDir := t.TempDir()
	w1, _ := startE2EWorker(t, srv.URL, storeDir, "a", nil)

	req := SweepRequest{SchemaVersion: schema.Version, Grid: g, Screen: true}
	results := map[string]CellResult{}
	sum, err := Submit(context.Background(), srv.URL, req, func(r CellResult) {
		results[r.Cell.Key()] = r
	})
	if err != nil {
		t.Fatal(err)
	}
	if sum == nil {
		t.Fatal("no summary")
	}
	if sum.Cells != len(g.Cells()) {
		t.Fatalf("summary cells = %d, want %d", sum.Cells, len(g.Cells()))
	}
	if sum.Screened == 0 || sum.Promoted == 0 {
		t.Fatalf("summary %+v: want both screened and promoted cells", sum)
	}
	if sum.Screened+sum.Promoted != sum.Cells {
		t.Fatalf("summary %+v: screened+promoted != cells", sum)
	}
	if sum.Simulated != sum.Promoted {
		t.Errorf("worker simulated %d cells, want exactly the %d promoted", sum.Simulated, sum.Promoted)
	}
	run, _ := w1.Stats()
	if run != sum.Promoted {
		t.Errorf("worker ran %d cells, want %d", run, sum.Promoted)
	}
	for k, res := range results {
		switch res.Status {
		case StatusEstimated:
			if res.Promoted {
				t.Errorf("cell %s both estimated and promoted", k)
			}
		case StatusOK, StatusInfeasible, StatusError:
			if res.Status == StatusOK && !res.Promoted {
				t.Errorf("simulated cell %s not marked promoted in a screened sweep", k)
			}
			if res.Status == StatusOK {
				if want := golden[k]; res.Fingerprint != want.Fingerprint {
					t.Errorf("promoted cell %s fingerprint %s != serial %s", k, res.Fingerprint, want.Fingerprint)
				}
			}
		default:
			t.Errorf("cell %s has unexpected status %q", k, res.Status)
		}
	}
}

// TestScreenGridOutsideLock: the coordinator screens a submission before
// it takes its lock, for admission and sweep alike, so /status (which
// takes the lock, as every lease, heartbeat and completion does)
// answers while a grid is being priced. The second case has a quota
// that only the screened footprint can be checked against.
func TestScreenGridOutsideLock(t *testing.T) {
	for _, quota := range []int{0, 1} {
		t.Run(fmt.Sprintf("quota=%d", quota), func(t *testing.T) {
			screening, release := make(chan struct{}, 1), make(chan struct{})
			defer close(release) // before the server's cleanup waits for the handler
			_, srv := startCoordinator(t, CoordinatorOptions{MaxInflightPerClient: quota, beforeScreen: func() {
				screening <- struct{}{}
				<-release
			}})
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			req := SweepRequest{SchemaVersion: schema.Version, Grid: screenGrid(), Screen: true}
			go Submit(ctx, srv.URL, req, func(CellResult) {})
			select {
			case <-screening:
			case <-time.After(10 * time.Second):
				t.Fatal("the submission was never screened")
			}
			sctx, scancel := context.WithTimeout(ctx, 5*time.Second)
			defer scancel()
			hreq, err := http.NewRequestWithContext(sctx, http.MethodGet, srv.URL+PathStatus, nil)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(hreq)
			if err != nil {
				t.Fatalf("/status did not answer while a grid was being screened: %v", err)
			}
			resp.Body.Close()
		})
	}
}

// TestCalibrateFromStore: calibrating from a store that a Runner
// filled, plus an entry under a fault plan and an error entry, fits the
// factors analytic.Calibrate fits over the clean ok cells alone.
func TestCalibrateFromStore(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	g := Grid{Workloads: []string{"stream", "cg"}, Systems: []string{"tiger"}, Ranks: []int{1, 2},
		Schemes: []string{"default", "localalloc", "membind"}, Scale: "quick"}
	r := experiments.NewRunner(context.Background(), experiments.Options{Parallelism: 1, Store: st})
	var obs []analytic.Observation
	for _, res := range RunLocal(r, g, 1) {
		if res.Status != StatusOK {
			continue
		}
		spec, err := workload.ParseSpec(res.Cell.Workload)
		if err != nil {
			t.Fatal(err)
		}
		scheme, err := affinity.ParseScheme(res.Cell.Scheme)
		if err != nil {
			t.Fatal(err)
		}
		obs = append(obs, analytic.Observation{Workload: spec, System: res.Cell.System, Ranks: res.Cell.Ranks, Scheme: scheme, Seconds: res.Seconds})
	}
	entries, err := st.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != len(obs) || len(obs) == 0 {
		t.Fatalf("the runner stored %d entries for %d ok cells", len(entries), len(obs))
	}
	faulted := entries[0].Key
	faulted.Faults, faulted.FaultSeed = "noise:core=0,period=1ms,frac=0.1", 7
	failed := entries[0].Key
	failed.Ranks = 3
	if err := st.Put(faulted, 1e6); err != nil {
		t.Fatal(err)
	}
	if err := st.PutError(failed, "injected"); err != nil {
		t.Fatal(err)
	}

	want, err := analytic.Calibrate(analytic.New(), obs)
	if err != nil {
		t.Fatal(err)
	}
	got, err := CalibrateFromStore(analytic.New(), st)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Factors) != len(want.Factors) || len(got.Classes) != len(want.Classes) || got.Skipped != want.Skipped {
		t.Fatalf("calibrated %+v, want %+v", got, want)
	}
	for i, c := range got.Classes {
		w := want.Classes[i]
		// The geometric mean sums logs in store order, so the last bits may differ.
		if c.Class != w.Class || c.N != w.N || math.Abs(c.Factor/w.Factor-1) > 1e-12 {
			t.Errorf("class %s: %d cells, factor %v; want %s: %d cells, factor %v", c.Class, c.N, c.Factor, w.Class, w.N, w.Factor)
		}
	}
}
