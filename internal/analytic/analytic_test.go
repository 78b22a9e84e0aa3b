package analytic_test

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"

	"multicore/internal/affinity"
	"multicore/internal/analytic"
	"multicore/internal/workload"
)

func mustSpec(t testing.TB, s string) workload.Spec {
	t.Helper()
	spec, err := workload.ParseSpec(s)
	if err != nil {
		t.Fatalf("ParseSpec(%q): %v", s, err)
	}
	return spec
}

// TestCellDeterministic: the estimator is pure float math over cached
// aggregates, so equal cells must price bit-identically — across calls,
// across estimator instances, and under concurrent use (the coordinator
// screens sweeps from many HTTP handlers at once).
func TestCellDeterministic(t *testing.T) {
	workloads := []string{"stream", "cg", "ra", "lmbench", "pop"}
	systems := []string{"tiger", "dmz", "longs"}
	schemes := []affinity.Scheme{affinity.Default, affinity.OneMPILocalAlloc, affinity.OneMPIMembind, affinity.Interleave}

	type cell struct {
		w      string
		sys    string
		ranks  int
		scheme affinity.Scheme
	}
	var cells []cell
	for _, w := range workloads {
		for _, sys := range systems {
			for _, r := range []int{1, 2, 4} {
				for _, sch := range schemes {
					cells = append(cells, cell{w, sys, r, sch})
				}
			}
		}
	}

	// Serial reference on a fresh estimator.
	ref := analytic.New()
	want := make([]analytic.Estimate, len(cells))
	wantErr := make([]error, len(cells))
	for i, c := range cells {
		want[i], wantErr[i] = ref.Cell(mustSpec(t, c.w), c.sys, c.ranks, c.scheme)
	}

	// Concurrent pricing on a second estimator, every cell hammered from
	// several goroutines, in reverse order for cache-population variety.
	e := analytic.New()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := range cells {
				i := k
				if g%2 == 1 {
					i = len(cells) - 1 - k
				}
				c := cells[i]
				est, err := e.Cell(mustSpec(t, c.w), c.sys, c.ranks, c.scheme)
				if (err == nil) != (wantErr[i] == nil) {
					t.Errorf("cell %v: err %v, want %v", c, err, wantErr[i])
					return
				}
				if err != nil {
					continue
				}
				if math.Float64bits(est.Seconds) != math.Float64bits(want[i].Seconds) ||
					math.Float64bits(est.Uncertainty) != math.Float64bits(want[i].Uncertainty) {
					t.Errorf("cell %v: concurrent estimate %v differs from serial %v", c, est, want[i])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// rowSchemes is a table row's scheme axis in the row tests: every
// scheme shape, feasible or not depending on the system and ranks.
var rowSchemes = []affinity.Scheme{affinity.Default, affinity.OneMPILocalAlloc, affinity.OneMPIMembind,
	affinity.TwoMPILocalAlloc, affinity.Interleave}

func sameBits(a, b analytic.Estimate) bool {
	return math.Float64bits(a.Seconds) == math.Float64bits(b.Seconds) &&
		math.Float64bits(a.Compute) == math.Float64bits(b.Compute) &&
		math.Float64bits(a.Memory) == math.Float64bits(b.Memory) &&
		math.Float64bits(a.MPI) == math.Float64bits(b.MPI) &&
		math.Float64bits(a.Uncertainty) == math.Float64bits(b.Uncertainty)
}

// TestEstimatorConcurrentRows: goroutines pricing overlapping rows on
// one shared, calibrated estimator (each walking the rows in its own
// order, so caches fill in different orders) get estimates bit-equal to
// a serial estimator's, and the same errors.
func TestEstimatorConcurrentRows(t *testing.T) {
	type rowCase struct {
		spec  workload.Spec
		sys   string
		ranks int
	}
	var rows []rowCase
	for _, w := range []string{"stream", "cg", "ra", "lmbench", "pop", "nosuchfamily"} {
		for _, sys := range []string{"tiger", "dmz", "longs", "cray"} {
			for _, r := range []int{1, 2, 3, 4, 8, 16, 32} {
				rows = append(rows, rowCase{mustSpec(t, w), sys, r})
			}
		}
	}
	factors := map[string]float64{analytic.Class("stream", "longs"): 1.25, analytic.Class("cg", "dmz"): 0.8}
	ref := analytic.New()
	ref.SetCalibration(factors)
	want := make([][]analytic.Estimate, len(rows))
	wantErr := make([][]error, len(rows))
	for i, rc := range rows {
		want[i] = make([]analytic.Estimate, len(rowSchemes))
		wantErr[i] = make([]error, len(rowSchemes))
		ref.Row(rc.spec, rc.sys, rc.ranks, rowSchemes, want[i], wantErr[i])
	}

	e := analytic.New()
	e.SetCalibration(factors)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			est := make([]analytic.Estimate, len(rowSchemes))
			errs := make([]error, len(rowSchemes))
			for k := range rows {
				i := (k + g*len(rows)/8) % len(rows)
				if g%2 == 1 {
					i = len(rows) - 1 - i
				}
				rc := rows[i]
				e.Row(rc.spec, rc.sys, rc.ranks, rowSchemes, est, errs)
				for j := range rowSchemes {
					if fmt.Sprint(errs[j]) != fmt.Sprint(wantErr[i][j]) || !sameBits(est[j], want[i][j]) {
						t.Errorf("%s on %s r%d %v: concurrent (%v, %v), serial (%v, %v)", rc.spec, rc.sys, rc.ranks,
							rowSchemes[j], est[j], errs[j], want[i][j], wantErr[i][j])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestRowZeroAllocs: on warm caches a row, and Cell, price without heap
// allocation, feasible or not and with calibration installed.
func TestRowZeroAllocs(t *testing.T) {
	e := analytic.New()
	e.SetCalibration(map[string]float64{analytic.Class("cg", "longs"): 1.1})
	spec := mustSpec(t, "cg")
	est := make([]analytic.Estimate, len(rowSchemes))
	errs := make([]error, len(rowSchemes))
	for _, r := range []int{4, 64} {
		e.Row(spec, "longs", r, rowSchemes, est, errs)
		if n := testing.AllocsPerRun(100, func() { e.Row(spec, "longs", r, rowSchemes, est, errs) }); n != 0 {
			t.Errorf("warm Row at %d ranks made %v allocations, want 0", r, n)
		}
		if n := testing.AllocsPerRun(100, func() { e.Cell(spec, "longs", r, affinity.Interleave) }); n != 0 {
			t.Errorf("warm Cell at %d ranks made %v allocations, want 0", r, n)
		}
	}
}

func TestCellInfeasible(t *testing.T) {
	e := analytic.New()
	// 64 ranks over-subscribes every paper system, so the placement is
	// infeasible under any scheme — the estimator must surface the same
	// typed error the simulator's NA cells come from.
	_, err := e.Cell(mustSpec(t, "stream"), "tiger", 64, affinity.OneMPIMembind)
	var inf *affinity.ErrInfeasible
	if err == nil || !errors.As(err, &inf) {
		t.Fatalf("err = %v, want *affinity.ErrInfeasible", err)
	}
}

func TestCellUnknownSystem(t *testing.T) {
	e := analytic.New()
	if _, err := e.Cell(mustSpec(t, "stream"), "cray", 1, affinity.Default); err == nil {
		t.Fatal("unknown system priced without error")
	}
}

func TestCellUnknownFamily(t *testing.T) {
	e := analytic.New()
	if _, err := e.Cell(workload.Spec{Name: "nosuchfamily"}, "tiger", 1, affinity.Default); err == nil {
		t.Fatal("unknown family priced without error")
	}
}

func TestUncertaintyBounds(t *testing.T) {
	e := analytic.New()
	for _, w := range []string{"stream", "ra", "pop", "lmbench"} {
		for _, r := range []int{1, 4} {
			est, err := e.Cell(mustSpec(t, w), "longs", r, affinity.Default)
			if err != nil {
				t.Fatalf("%s r%d: %v", w, r, err)
			}
			if !(est.Seconds > 0) {
				t.Errorf("%s r%d: non-positive estimate %v", w, r, est.Seconds)
			}
			if est.Uncertainty <= 0 || est.Uncertainty >= 1 {
				t.Errorf("%s r%d: uncertainty %v outside (0,1)", w, r, est.Uncertainty)
			}
		}
	}
}

// TestCalibrateSynthetic checks the fit machinery itself: observations
// manufactured at exactly 1.25x the raw estimates must recover factor
// 1.25 with zero residual, and recalibrating the calibrated estimator
// must be idempotent.
func TestCalibrateSynthetic(t *testing.T) {
	e := analytic.New()
	spec := mustSpec(t, "stream")
	var obs []analytic.Observation
	for _, ranks := range []int{1, 2} {
		for _, sch := range []affinity.Scheme{affinity.Default, affinity.Interleave} {
			est, err := e.Cell(spec, "tiger", ranks, sch)
			if err != nil {
				t.Fatal(err)
			}
			obs = append(obs, analytic.Observation{
				Workload: spec, System: "tiger", Ranks: ranks, Scheme: sch,
				Seconds: 1.25 * est.Seconds,
			})
		}
	}
	cal, err := analytic.Calibrate(e, obs)
	if err != nil {
		t.Fatal(err)
	}
	class := analytic.Class("stream", "tiger")
	if f := cal.Factors[class]; math.Abs(f-1.25) > 1e-12 {
		t.Errorf("factor = %v, want 1.25", f)
	}
	if cal.MedianErr > 1e-12 {
		t.Errorf("residual median error = %v, want ~0", cal.MedianErr)
	}

	// Idempotence: calibrate, install, recalibrate — same factors.
	e.SetCalibration(cal.Factors)
	cal2, err := analytic.Calibrate(e, obs)
	if err != nil {
		t.Fatal(err)
	}
	if f := cal2.Factors[class]; math.Abs(f-1.25) > 1e-12 {
		t.Errorf("recalibrated factor = %v, want 1.25 (fit must divide out installed factors)", f)
	}

	// And the calibrated estimate now matches the observations.
	est, err := e.Cell(spec, "tiger", 1, affinity.Default)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(est.Seconds-obs[0].Seconds) > 1e-9*obs[0].Seconds {
		t.Errorf("calibrated estimate %v != observation %v", est.Seconds, obs[0].Seconds)
	}
}

// TestCalibratedAccuracy is the model's acceptance gate: fit per-class
// factors against real quick-scale simulations of the full workload
// suite and require the overall median relative error of the corrected
// estimates to be within 15%.
func TestCalibratedAccuracy(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full quick-scale simulation grid; skipped with -short")
	}
	workloads := []string{"stream", "daxpy", "dgemm", "fft", "ra", "ptrans", "hpl", "cg", "ft", "ep", "mg", "lmbench", "amber:JAC", "lammps:lj", "pop"}
	systems := []string{"tiger", "dmz", "longs"}
	ranksList := []int{1, 2, 4}
	schemes := []affinity.Scheme{affinity.Default, affinity.OneMPILocalAlloc, affinity.OneMPIMembind, affinity.Interleave}
	cells := simulate(t, workloads, systems, ranksList, schemes)

	var obs []analytic.Observation
	for _, c := range cells {
		if c.err != nil {
			continue // infeasible placements and error cells don't calibrate
		}
		obs = append(obs, analytic.Observation{
			Workload: c.spec, System: c.system, Ranks: c.ranks, Scheme: c.scheme, Seconds: c.secs,
		})
	}
	if len(obs) < 100 {
		t.Fatalf("only %d feasible observations; simulation grid broke", len(obs))
	}
	e := analytic.New()
	cal, err := analytic.Calibrate(e, obs)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", cal.String())
	if cal.Skipped > 0 {
		t.Errorf("calibration skipped %d observations; every suite family should be estimable", cal.Skipped)
	}
	if cal.MedianErr > 0.15 {
		t.Errorf("calibrated median relative error %.1f%% exceeds the 15%% acceptance bound", 100*cal.MedianErr)
	}
	// No class may be wildly unmodeled even if the overall median is
	// fine: per-class medians stay under 25%.
	for _, cr := range cal.Classes {
		if cr.MedianErr > 0.25 {
			t.Errorf("class %s median error %.1f%% exceeds 25%%", cr.Class, 100*cr.MedianErr)
		}
	}
}

// BenchmarkCellCached prices one cached cell: the steady-state cost that
// dominates screening a million-cell grid. The package contract is zero
// heap allocations on this path.
func BenchmarkCellCached(b *testing.B) {
	e := analytic.New()
	spec := mustSpec(b, "cg")
	if _, err := e.Cell(spec, "longs", 4, affinity.Interleave); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Cell(spec, "longs", 4, affinity.Interleave); err != nil {
			b.Fatal(err)
		}
	}
}
