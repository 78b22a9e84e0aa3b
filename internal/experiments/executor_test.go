package experiments

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"multicore/internal/affinity"
	"multicore/internal/machine"
	"multicore/internal/mpi"
	"multicore/internal/report"
)

// TestParMapPanicShortCircuits checks that once a worker panics, the
// remaining workers stop claiming indices: a panicking grid must not
// simulate the rest of its cells before re-panicking on the caller.
func TestParMapPanicShortCircuits(t *testing.T) {
	r := NewRunner(nil, Options{Parallelism: 8})

	const n = 10000
	gate := make(chan struct{})
	var executed atomic.Int64
	var recovered any
	func() {
		defer func() { recovered = recover() }()
		parMap(r, n, func(i int) int {
			if i == 0 {
				// Release the other workers only after the panic's
				// recovery has raised the stop flag: the released
				// workers must not be able to outrun it.
				time.AfterFunc(10*time.Millisecond, func() { close(gate) })
				panic("cell 0 exploded")
			}
			<-gate
			executed.Add(1)
			return i
		})
	}()
	if recovered != "cell 0 exploded" {
		t.Fatalf("panic not propagated: got %v", recovered)
	}
	// Workers already holding an index finish it, but nobody claims new
	// work once the feed is exhausted; without the short-circuit all
	// n-1 remaining cells would run.
	if got := executed.Load(); got > 100 {
		t.Fatalf("%d cells executed after the panic; short-circuit failed", got)
	}
}

// TestParMapCompletesAllIndices is the non-panicking baseline: every
// index runs exactly once and lands in order.
func TestParMapCompletesAllIndices(t *testing.T) {
	for _, workers := range []int{1, 4} {
		r := NewRunner(nil, Options{Parallelism: workers})
		out := parMap(r, 100, func(i int) int { return i * i })
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

// TestParMapStopsOnCancel checks that canceling the runner's context
// stops workers from claiming new indices.
func TestParMapStopsOnCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	r := NewRunner(ctx, Options{Parallelism: 4})
	var executed atomic.Int64
	parMap(r, 10000, func(i int) int {
		if executed.Add(1) == 8 {
			cancel()
		}
		return i
	})
	if got := executed.Load(); got > 1000 {
		t.Fatalf("%d cells executed after cancellation; claim-stop failed", got)
	}
}

// TestConcurrentExperimentsBoundEngines: experiments sharing a runner
// never have more than Parallelism engines in flight between them,
// however many run at once, each with its own pool of Parallelism
// workers.
func TestConcurrentExperimentsBoundEngines(t *testing.T) {
	const parallelism = 2
	r := NewRunner(nil, Options{Parallelism: parallelism})
	var mu sync.Mutex
	inFlight, peak := 0, 0
	body := func(rk *mpi.Rank) {
		mu.Lock()
		inFlight++
		peak = max(peak, inFlight)
		mu.Unlock()
		time.Sleep(2 * time.Millisecond) // hold the engine long enough to overlap
		mu.Lock()
		inFlight--
		mu.Unlock()
	}
	cfg := mpi.Config{Spec: machine.DMZ(), Bindings: []affinity.Binding{{Core: 0}}}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		id := fmt.Sprintf("synthetic%d", i)
		e := Experiment{ID: id, Run: func(r *Runner, s Scale) []*report.Table {
			parMap(r, 8, func(j int) float64 { return r.runFunc(fmt.Sprintf("%s-%d", id, j))(cfg, body).Time })
			return nil
		}}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := r.Run(e, Quick); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if peak > parallelism {
		t.Fatalf("%d engines in flight at once, want at most Parallelism = %d", peak, parallelism)
	}
}
