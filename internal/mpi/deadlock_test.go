package mpi

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"multicore/internal/machine"
	"multicore/internal/sim"
)

// TestHeadToHeadRendezvousDeadlocks is the classic MPI protocol bug: both
// ranks issue a blocking Send above the eager threshold, so each waits
// for the other's Recv that never comes. RunContext must return a
// *sim.DeadlockError naming both ranks parked on their rendezvous waits
// rather than hanging the process.
func TestHeadToHeadRendezvousDeadlocks(t *testing.T) {
	im := MPICH2()
	res, err := RunContext(context.Background(), jobOn(machine.DMZ(), im, 0, 2), func(r *Rank) {
		r.Send(1-r.ID(), im.EagerThreshold+1)
		r.Recv(1 - r.ID())
	})
	if res != nil {
		t.Fatal("deadlocked run returned a result")
	}
	var dl *sim.DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("got %v, want *sim.DeadlockError", err)
	}
	names := map[string]string{}
	for _, b := range dl.Blocked {
		names[b.Name] = b.Wait
	}
	for _, rank := range []string{"rank0", "rank1"} {
		wait, ok := names[rank]
		if !ok {
			t.Fatalf("%s not in blocked set %v", rank, dl.Blocked)
		}
		if !strings.Contains(wait, "rendezvous to") {
			t.Fatalf("%s wait label %q should name the rendezvous", rank, wait)
		}
	}
}

// TestEagerHeadToHeadCompletes is the contrast case: the same exchange
// below the eager threshold buffers and completes.
func TestEagerHeadToHeadCompletes(t *testing.T) {
	im := MPICH2()
	res, err := RunContext(context.Background(), jobOn(machine.DMZ(), im, 0, 2), func(r *Rank) {
		r.Send(1-r.ID(), im.EagerThreshold-1)
		r.Recv(1 - r.ID())
	})
	if err != nil {
		t.Fatalf("eager exchange should complete: %v", err)
	}
	if res.Messages != 2 {
		t.Fatalf("messages = %d, want 2", res.Messages)
	}
}

// TestRunContextDeadlineAborts checks that an expired deadline aborts a
// run as *sim.CanceledError unwrapping to DeadlineExceeded.
func TestRunContextDeadlineAborts(t *testing.T) {
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	res, err := RunContext(ctx, jobOn(machine.DMZ(), MPICH2(), 0, 2), func(r *Rank) {
		r.Barrier()
	})
	if res != nil {
		t.Fatal("aborted run returned a result")
	}
	var ce *sim.CanceledError
	if !errors.As(err, &ce) {
		t.Fatalf("got %v, want *sim.CanceledError", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("should unwrap to DeadlineExceeded, got %v", err)
	}
}

// TestRankPanicReachesCaller: a rank body that panics after a Recv
// re-panics on the RunContext caller with its own value, after the engine
// has released every rank goroutine, instead of crashing the program from
// a worker goroutine.
func TestRankPanicReachesCaller(t *testing.T) {
	base := runtime.NumGoroutine()
	var got any
	func() {
		defer func() { got = recover() }()
		_, err := RunContext(context.Background(), jobOn(machine.DMZ(), MPICH2(), 0, 1, 2, 3), func(r *Rank) {
			switch r.ID() {
			case 0:
				r.Send(1, 4096)
			case 1:
				r.Recv(0)
				panic("rank 1 failed")
			}
			r.Barrier()
		})
		t.Errorf("RunContext returned %v instead of panicking", err)
	}()
	if got != "rank 1 failed" {
		t.Fatalf("panic value %v, want the rank's own \"rank 1 failed\"", got)
	}
	// Released workers exit shortly after RunContext returns; their exit
	// has no event to wait on, so poll until a deadline.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the run, want %d: rank goroutines leaked", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestDeadlockNamesHelpersAndRanks: a deadlock that strands a rank in
// Wait, its Irecv helper in the receive it serves, and another rank in a
// blocking Recv reports all three with their wait labels, sorted by name,
// and releases every rank goroutine. Rank 1 returns at once, so neither
// receive can ever match.
func TestDeadlockNamesHelpersAndRanks(t *testing.T) {
	base := runtime.NumGoroutine()
	res, err := RunContext(context.Background(), jobOn(machine.DMZ(), MPICH2(), 0, 1, 2), func(r *Rank) {
		switch r.ID() {
		case 0:
			r.Wait(r.Irecv(1))
		case 2:
			r.Recv(0)
		}
	})
	if res != nil {
		t.Fatal("deadlocked run returned a result")
	}
	var dl *sim.DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("got %v, want *sim.DeadlockError", err)
	}
	const want = "3 live processes, blocked: [rank0 (wait request) rank0.irecv (recv from 1) rank2 (recv from 0)]"
	if !strings.HasSuffix(err.Error(), want) {
		t.Fatalf("error %q, want it to end %q", err, want)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the run, want %d: rank goroutines leaked", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}
