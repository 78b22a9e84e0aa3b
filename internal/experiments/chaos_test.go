package experiments

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"multicore/internal/affinity"
	"multicore/internal/fault"
	"multicore/internal/mem"
	"multicore/internal/mpi"
	"multicore/internal/report"
	"multicore/internal/sim"
	"multicore/internal/store"
)

// chaosBody is a small synthetic SPMD program exercising every injection
// point: on-core compute (OS noise, stragglers), streaming memory access
// (memory-controller slowdown), a ring exchange plus a collective (link
// degradation, message delays).
func chaosBody(rk *mpi.Rank) {
	n := rk.Size()
	buf := rk.Alloc("chaos.buf", 1<<20)
	for step := 0; step < 3; step++ {
		rk.Compute(5e6, 0.5)
		rk.Access(mem.Access{Region: buf, Pattern: mem.Stream, Bytes: 1 << 20})
		if n > 1 {
			rk.Sendrecv((rk.ID()+1)%n, 64<<10, (rk.ID()+n-1)%n)
		}
		rk.Allreduce(8)
	}
}

// chaosPlans is the fault-plan sweep the harness runs across the paper
// systems: one plan per perturbation kind plus a composite.
var chaosPlans = []string{
	"noise:core=*,period=10us,frac=0.2",
	"linkdown:s0-s1,factor=0.5,t=0s..inf",
	"mcslow:socket=*,factor=0.5",
	"straggler:rank=1,factor=2",
	"msgdelay:delay=5us",
	"noise:core=0,period=20us,frac=0.1;mcslow:socket=0,factor=0.75,t=0s..2ms;msgdelay:delay=2us,src=0",
}

// resultFingerprint reduces a run to an exact (bit-level) signature.
func resultFingerprint(res *mpi.Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "t=%x m=%d by=%x", math.Float64bits(res.Time), res.Messages, math.Float64bits(res.Bytes))
	for _, v := range res.RankTimes {
		fmt.Fprintf(&b, " rt=%x", math.Float64bits(v))
	}
	for _, v := range res.RankCompute {
		fmt.Fprintf(&b, " rc=%x", math.Float64bits(v))
	}
	return b.String()
}

// chaosRanks is the per-system rank count: as many ranks as the scheme
// can host so every socket (and the links between them) sees traffic.
var chaosRanks = map[string]int{"tiger": 2, "dmz": 2, "longs": 4}

func chaosRun(t *testing.T, system string, plan *fault.Plan) *mpi.Result {
	t.Helper()
	r := NewRunner(nil, Options{Faults: plan, CellTimeout: 2 * time.Minute})
	res, err := r.runMPICH2("chaos", system, chaosRanks[system], affinity.OneMPILocalAlloc, chaosBody)
	if err != nil {
		t.Fatalf("chaos run on %s under %v: %v", system, plan, err)
	}
	return res
}

// TestChaosDeterminismAcrossSystems is the chaos harness's core
// guarantee: for every paper system and every fault plan, two runs with
// the same (plan, seed) are bit-identical; simulated time stays finite,
// positive, and bounded by the makespan; and a different seed actually
// changes something for at least one seeded plan.
func TestChaosDeterminismAcrossSystems(t *testing.T) {
	systems := []string{"tiger", "dmz", "longs"}
	for _, system := range systems {
		clean := chaosRun(t, system, nil)
		if resultFingerprint(clean) != resultFingerprint(chaosRun(t, system, nil)) {
			t.Fatalf("%s: clean run not deterministic", system)
		}
		for _, spec := range chaosPlans {
			a := chaosRun(t, system, fault.MustParse(spec, 42))
			b := chaosRun(t, system, fault.MustParse(spec, 42))
			if fa, fb := resultFingerprint(a), resultFingerprint(b); fa != fb {
				t.Errorf("%s under %q: same (plan, seed) diverged:\n%s\n%s", system, spec, fa, fb)
			}
			if !(a.Time > 0) || math.IsInf(a.Time, 0) || math.IsNaN(a.Time) {
				t.Errorf("%s under %q: makespan %g", system, spec, a.Time)
			}
			for i, rt := range a.RankTimes {
				if rt > a.Time+1e-12 || math.IsNaN(rt) {
					t.Errorf("%s under %q: rank %d finished at %g past makespan %g",
						system, spec, i, rt, a.Time)
				}
			}
		}
		// OS noise only steals cycles, so it must strictly inflate the
		// makespan of a compute-heavy run...
		noisy := chaosRun(t, system, fault.MustParse(chaosPlans[0], 42))
		if noisy.Time <= clean.Time {
			t.Errorf("%s: noisy makespan %g not above clean %g", system, noisy.Time, clean.Time)
		}
		// ... and a different seed shifts the burst phases.
		reseeded := chaosRun(t, system, fault.MustParse(chaosPlans[0], 43))
		if resultFingerprint(reseeded) == resultFingerprint(noisy) {
			t.Errorf("%s: seed change left the noisy run bit-identical", system)
		}
	}
}

// TestChaosDeadlockStillDetected: fault injection must not defeat the
// engine's deadlock detector — a workload blocked forever under a fault
// plan returns *sim.DeadlockError instead of hanging the sweep.
func TestChaosDeadlockStillDetected(t *testing.T) {
	r := NewRunner(nil, Options{Faults: fault.MustParse("noise:core=*,period=10us,frac=0.2;msgdelay:delay=5us", 1)})
	_, err := r.runMPICH2("chaos-deadlock", "longs", 2, affinity.OneMPILocalAlloc, func(rk *mpi.Rank) {
		if rk.ID() == 0 {
			rk.Recv(1) // never sent
		}
	})
	var dl *sim.DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("deadlocked chaos run returned %v, want *sim.DeadlockError", err)
	}
}

// TestRetryHealsTransient: a cell failing with a transient error must be
// retried (with backoff) and succeed within the budget; the attempt count
// is exact. Removing the retry loop fails this.
func TestRetryHealsTransient(t *testing.T) {
	r := NewRunner(nil, Options{Retries: 3, RetryBackoff: time.Microsecond})
	calls := 0
	v, err := runCell(r, testCellKey("flaky-transient"), func() (float64, error) {
		calls++
		if calls <= 2 {
			return 0, &fault.Transient{Err: fmt.Errorf("injected flake %d", calls)}
		}
		return 11, nil
	})
	if err != nil || v != 11 {
		t.Fatalf("healed cell = (%v, %v), want 11", v, err)
	}
	if calls != 3 {
		t.Fatalf("cell attempted %d times, want 3", calls)
	}
	if len(r.CellErrors()) != 0 {
		t.Fatalf("healed cell recorded errors: %v", r.CellErrors())
	}
}

// TestNoRetryForDeterministicFailure: panics and plain errors repeat
// identically, so the runner must not burn retries on them.
func TestNoRetryForDeterministicFailure(t *testing.T) {
	r := NewRunner(nil, Options{Retries: 5})
	calls := 0
	_, err := runCell(r, testCellKey("det-panic"), func() (float64, error) {
		calls++
		panic("deterministic break")
	})
	if err == nil || calls != 1 {
		t.Fatalf("panicking cell: %d attempts (err=%v), want exactly 1", calls, err)
	}
	calls = 0
	_, err = runCell(r, testCellKey("det-error"), func() (float64, error) {
		calls++
		return 0, errors.New("plain failure")
	})
	if err == nil || calls != 1 {
		t.Fatalf("plain-error cell: %d attempts (err=%v), want exactly 1", calls, err)
	}
}

// countStatuses decodes every committed entry in the store directory,
// failing the test on any unparseable entry, and tallies by status.
func countStatuses(t *testing.T, dir string) map[string]int {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, ent := range ents {
		if filepath.Ext(ent.Name()) != ".json" {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		var e store.Entry
		if err := json.Unmarshal(data, &e); err != nil {
			t.Errorf("store entry %s is corrupt after the sweep: %v", ent.Name(), err)
			continue
		}
		counts[e.Status]++
	}
	return counts
}

// TestRetryExhaustionRendersERR: a cell whose injected transient fault
// persists past the retry budget renders ERR, records StatusError exactly
// once, and leaves the rest of the sweep untouched. The plan targets only
// the rank-4 cells of the grid via the workload filter.
func TestRetryExhaustionRendersERR(t *testing.T) {
	st := openStore(t)
	plan := fault.MustParse("cellerr:p=1,workload=/r4/", 7)
	r := NewRunner(nil, Options{
		Store: st, Faults: plan, Retries: 2, RetryBackoff: time.Microsecond, Parallelism: 4,
	})
	var targeted atomic.Int64 // simulations of the rank-4 cells; cells run concurrently
	tab := numactlTable(r, "chaos-err", []sysRanks{{System: "longs", Ranks: []int{2, 4}}},
		func(system string, ranks int, scheme affinity.Scheme) (float64, error) {
			return runCell(r, CellKey{
				Workload: "chaos-err", System: system, Ranks: ranks, Scheme: scheme, Scale: Quick,
			}, func() (float64, error) {
				if ranks == 4 {
					targeted.Add(1)
				}
				return float64(ranks), nil
			})
		})
	if tab.NumRows() != 2 {
		t.Fatalf("rows = %d, want 2", tab.NumRows())
	}
	errCells, okCells := 0, 0
	for i := 0; i < tab.NumRows(); i++ {
		rowRanks := tab.Cell(i, 0)
		for j := 2; j < tab.NumCols(); j++ {
			c := tab.Cell(i, j)
			switch {
			case c == report.Err:
				errCells++
				if rowRanks != "4" {
					t.Errorf("ERR leaked into untargeted row ranks=%s col %d", rowRanks, j)
				}
			case c == report.NA:
			default:
				okCells++
				if rowRanks != "2" {
					t.Errorf("targeted cell ranks=%s col %d rendered %q, want ERR", rowRanks, j, c)
				}
			}
		}
	}
	if errCells == 0 {
		t.Fatal("no cell rendered ERR despite p=1 injection")
	}
	if okCells == 0 {
		t.Fatal("untargeted cells did not render values — the fault poisoned the sweep")
	}
	// Injected failures preempt the simulation entirely; healthy cells run
	// exactly once each.
	if n := targeted.Load(); n != 0 {
		t.Errorf("targeted cells simulated %d times despite p=1 injection", n)
	}
	// Each exhausted cell records its failure exactly once, in memory and
	// in the store.
	if got := len(r.CellErrors()); got != errCells {
		t.Errorf("CellErrors = %d, want one per ERR cell (%d)", got, errCells)
	}
	counts := countStatuses(t, st.Dir())
	if counts[store.StatusError] != errCells {
		t.Errorf("store holds %d error entries, want %d", counts[store.StatusError], errCells)
	}
	if counts[store.StatusOK] != okCells {
		t.Errorf("store holds %d ok entries, want %d", counts[store.StatusOK], okCells)
	}
	// The exhausted error is the injected transient, surfaced as-is.
	for _, e := range r.CellErrors() {
		if !fault.IsTransient(e) {
			t.Errorf("exhausted cell error lost its transient marker: %v", e)
		}
	}
}

// TestChaosStoreIntegrity sweeps fault plans across systems into one
// shared store and then audits it: every entry parses, nothing was
// quarantined, perturbed keys never alias clean ones, and a second pass
// under the identical (plan, seed) serves everything from the store.
func TestChaosStoreIntegrity(t *testing.T) {
	st := openStore(t)
	key := testCellKey("chaos-int")
	cell := func(r *Runner) (float64, error) {
		return runCell(r, key, func() (float64, error) {
			res, err := r.runMPICH2("chaos-int", key.System, key.Ranks, key.Scheme, chaosBody)
			if err != nil {
				return 0, err
			}
			return res.Time, nil
		})
	}

	clean := NewRunner(nil, Options{Store: st})
	cleanTime, err := cell(clean)
	if err != nil {
		t.Fatal(err)
	}
	times := map[string]float64{}
	for _, spec := range chaosPlans {
		r := NewRunner(nil, Options{Store: st, Faults: fault.MustParse(spec, 42), Retries: 1})
		v, err := cell(r)
		if err != nil {
			t.Fatalf("plan %q: %v", spec, err)
		}
		if r.CellsRun() != 1 {
			t.Errorf("plan %q: CellsRun = %d — a perturbed key aliased an earlier entry", spec, r.CellsRun())
		}
		times[spec] = v
	}
	// One entry per distinct (plan, seed) plus the clean one.
	if n, _ := st.Len(); n != len(chaosPlans)+1 {
		t.Errorf("store holds %d entries, want %d", n, len(chaosPlans)+1)
	}
	counts := countStatuses(t, st.Dir())
	if counts[store.StatusOK] != len(chaosPlans)+1 {
		t.Errorf("statuses = %v, want %d ok", counts, len(chaosPlans)+1)
	}
	if st.Quarantined() != 0 {
		t.Errorf("sweep quarantined %d entries", st.Quarantined())
	}

	// Second pass, same (plan, seed): pure store hits with identical values.
	for _, spec := range chaosPlans {
		r := NewRunner(nil, Options{Store: st, Faults: fault.MustParse(spec, 42), Retries: 1})
		v, err := cell(r)
		if err != nil {
			t.Fatalf("replay of %q: %v", spec, err)
		}
		if r.CellsRun() != 0 || r.StoreHits() != 1 {
			t.Errorf("replay of %q: CellsRun=%d StoreHits=%d, want 0/1", spec, r.CellsRun(), r.StoreHits())
		}
		if v != times[spec] {
			t.Errorf("replay of %q: %g != stored %g", spec, v, times[spec])
		}
	}
	// A different seed is a different experiment: it must miss and re-run.
	r := NewRunner(nil, Options{Store: st, Faults: fault.MustParse(chaosPlans[0], 99), Retries: 1})
	if _, err := cell(r); err != nil {
		t.Fatal(err)
	}
	if r.CellsRun() != 1 {
		t.Errorf("reseeded plan served from another seed's entry")
	}
	// And the clean entry is still intact and still served.
	replay := NewRunner(nil, Options{Store: st})
	v, err := cell(replay)
	if err != nil || v != cleanTime || replay.CellsRun() != 0 {
		t.Errorf("clean replay = (%v, %v, ran=%d), want (%g, nil, 0)",
			v, err, replay.CellsRun(), cleanTime)
	}
}
