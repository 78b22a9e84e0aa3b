package sim

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// waitGoroutines fails the test unless the goroutine count falls back to
// base. Stopped worker coroutines have exited when RunContext returns,
// but a goroutine a test starts to run an engine exits shortly after it
// signals, with no event to wait on, so the count is polled until a
// deadline.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the run, want %d: engine goroutines leaked",
				runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// runRecover runs e and returns RunContext's error and the value it
// panicked with, if any.
func runRecover(e *Engine) (err error, panicked any) {
	defer func() { panicked = recover() }()
	return e.RunContext(context.Background()), nil
}

// TestHandoffCounts pins the switch contract: a process that the event
// loop resumes on its own coroutine costs no handoff, and resuming a
// different goroutine-backed process costs exactly one, the RunContext
// caller's resume of its coroutine.
func TestHandoffCounts(t *testing.T) {
	for _, n := range []int{0, 1000} {
		e := NewEngine()
		e.Spawn("sleeper", func(p *Proc) {
			for i := 0; i < n; i++ {
				p.Sleep(1)
			}
		})
		e.Run()
		// The one handoff is the caller starting the process.
		if e.handoffs != 1 {
			t.Errorf("lone process, %d sleeps: %d handoffs, want 1", n, e.handoffs)
		}
	}

	const n = 1000
	e := NewEngine()
	for _, name := range []string{"a", "b"} {
		e.Spawn(name, func(p *Proc) {
			for i := 0; i < n; i++ {
				p.Sleep(1)
			}
		})
	}
	e.Run()
	// Every event, the two starts included, resumes the process that did
	// not run last.
	if e.statEvents != 2*n+2 || e.handoffs != e.statEvents {
		t.Errorf("alternating pair: %d handoffs for %d resumes, want one each", e.handoffs, e.statEvents)
	}

	e = NewEngine()
	e.Spawn("g", func(p *Proc) {
		for i := 0; i < n; i++ {
			p.Sleep(1)
		}
	})
	e.SpawnCont("c", func(p *Proc) {
		i := 0
		var step func()
		step = func() {
			if i++; i <= n {
				p.SleepThen(1, step)
			}
		}
		step()
	})
	e.Run()
	// The continuation runs inline on g's coroutine between g's resumes.
	if e.handoffs != 1 {
		t.Errorf("process interleaved with a continuation: %d handoffs, want 1", e.handoffs)
	}
}

// TestWorkerReuseAtBodyExit: when a process body returns, its worker
// joins the free list before it runs the event loop. An At callback at
// that instant that spawns a process reuses that worker, and when the
// loop then stops at the new process's start, the finishing coroutine
// runs the new body itself with no switch. If the callback first wakes
// another process, that one runs first, and the new process starts
// later through the caller like any other.
func TestWorkerReuseAtBodyExit(t *testing.T) {
	for _, tc := range []struct {
		name     string
		other    bool
		want     []string
		handoffs uint64
	}{
		// The one handoff starts first.
		{"starts at once", false, []string{"1 first done", "1 at", "1 second start", "2 second done"}, 1},
		// Starting first and other, resuming first at t=1, then other
		// and second.
		{"starts later", true, []string{"1 first done", "1 at", "1 other", "1 second start", "2 second done"}, 5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			e := NewEngine()
			var log []string
			note := func(what string) { log = append(log, fmt.Sprintf("%g %s", e.Now(), what)) }
			var q WaitQueue
			var second *Proc
			first := e.Spawn("first", func(p *Proc) {
				p.Sleep(1)
				note("first done")
				e.At(1, func() {
					note("at")
					q.WakeOne(e)
					second = e.Spawn("second", func(p *Proc) {
						note("second start")
						p.Sleep(1)
						note("second done")
					})
				})
			})
			if tc.other {
				e.Spawn("other", func(p *Proc) {
					q.Wait(p, "other")
					note("other")
				})
			}
			e.Run()
			if fmt.Sprint(log) != fmt.Sprint(tc.want) {
				t.Errorf("fired %q, want %q", log, tc.want)
			}
			if second == nil || second.w != first.w {
				t.Error("the spawn at body exit did not reuse the finished process's worker")
			}
			if e.handoffs != tc.handoffs {
				t.Errorf("%d handoffs, want %d", e.handoffs, tc.handoffs)
			}
			waitGoroutines(t, base)
		})
	}
}

// TestSchedulerPanicReachesCaller: a panic raised by the event loop while
// a process goroutine holds control (an At in the past, MaxTime, a
// continuation's own panic) reaches the RunContext caller with its value,
// after abort has released every process.
func TestSchedulerPanicReachesCaller(t *testing.T) {
	for _, tc := range []struct {
		name, want string
		setup      func(e *Engine)
	}{
		{"past At", "before now", func(e *Engine) {
			e.At(1.5, func() { e.At(0.5, func() {}) })
		}},
		{"MaxTime", "exceeded MaxTime", func(e *Engine) { e.MaxTime = 2.5 }},
		{"continuation", "continuation failed", func(e *Engine) {
			e.SpawnCont("cont", func(p *Proc) {
				p.SleepThen(1.5, func() { panic("continuation failed") })
			})
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			e := NewEngine()
			var q WaitQueue
			// holder has control whenever an event fires after t=1.
			e.Spawn("holder", func(p *Proc) {
				for {
					p.Sleep(1)
				}
			})
			e.Spawn("waiter", func(p *Proc) { q.Wait(p, "never woken") })
			tc.setup(e)
			err, got := runRecover(e)
			if msg, ok := got.(string); !ok || !strings.Contains(msg, tc.want) {
				t.Fatalf("RunContext returned %v and panicked with %v, want a panic containing %q", err, got, tc.want)
			}
			if e.handoffs == 0 {
				t.Fatal("control never left the caller")
			}
			waitGoroutines(t, base)
		})
	}
}

// TestBodyPanicReachesCaller: a goroutine-backed process body that panics
// re-panics on the RunContext caller with the body's own value once abort
// has released every other process: blocked, sleeping and never started.
func TestBodyPanicReachesCaller(t *testing.T) {
	base := runtime.NumGoroutine()
	e := NewEngine()
	var q WaitQueue
	// The At fires first at t=1 and spawns a process whose start event
	// is still queued when "bad" panics.
	e.At(1, func() { e.Spawn("unstarted", func(p *Proc) {}) })
	e.Spawn("bad", func(p *Proc) {
		p.Sleep(1)
		panic("x")
	})
	e.Spawn("waiter", func(p *Proc) { q.Wait(p, "never woken") })
	e.Spawn("sleeper", func(p *Proc) { p.Sleep(5) })
	err, got := runRecover(e)
	if got != "x" {
		t.Fatalf("RunContext returned %v and panicked with %v, want the body's panic value \"x\"", err, got)
	}
	if len(e.live) != 0 {
		t.Fatalf("%d processes still live after abort", len(e.live))
	}
	waitGoroutines(t, base)
}

// mixedEngine builds a simulation that moves control along every path:
// goroutine-backed producers and continuation-backed workers moving bytes
// over shared resources, and a goroutine-backed consumer counting their
// items through a WaitQueue. A greedy consumer waits for one item more
// than is ever produced, which deadlocks the run. It returns the engine and the consumer's finish time.
func mixedEngine(greedy bool) (*Engine, *float64) {
	const producers, items = 6, 120
	e := NewEngine()
	res := []*Resource{NewResource("r0", 1e9), NewResource("r1", 2e9), NewResource("r2", 1.5e9)}
	var q WaitQueue
	pending := 0
	for i := 0; i < producers; i++ {
		path := res[i%2 : i%2+2]
		bytes := 1e4 * float64(1+i)
		produce := func() {
			pending++
			q.WakeOne(e)
		}
		if i%2 == 0 {
			e.Spawn(fmt.Sprintf("g%d", i), func(p *Proc) {
				for k := 0; k < items; k++ {
					p.Transfer("g", bytes, path, 0)
					produce()
					p.Sleep(1e-7)
				}
			})
			continue
		}
		e.SpawnCont(fmt.Sprintf("c%d", i), func(p *Proc) {
			k := 0
			var step func()
			step = func() {
				if k++; k <= items {
					p.TransferThen("c", bytes, path, 0, func() {
						produce()
						p.SleepThen(1e-7, step)
					})
				}
			}
			step()
		})
	}
	want := producers * items
	if greedy {
		want++
	}
	var done float64
	e.Spawn("consumer", func(p *Proc) {
		for got := 0; got < want; {
			if pending == 0 {
				q.Wait(p, "items")
				continue
			}
			pending--
			got++
		}
		done = p.Now()
	})
	return e, &done
}

// TestConcurrentEngines runs several engines at once, as parallel sweep
// cells do. Inside each, control moves among many goroutines, so under
// -race this checks that every handoff orders the engine state it passes
// on. One engine is canceled mid-run and one deadlocks; the others must
// match a serial run exactly, and every goroutine must be released.
func TestConcurrentEngines(t *testing.T) {
	base := runtime.NumGoroutine()
	ref, refDone := mixedEngine(false)
	ref.Run()
	want := ref.Stats()
	if want.Events <= 2*ctxCheckStride {
		t.Fatalf("reference run fires %d events; too few for a mid-run cancel", want.Events)
	}

	const engines = 6
	errs := make([]error, engines)
	stats := make([]Stats, engines)
	dones := make([]float64, engines)
	var wg sync.WaitGroup
	for i := 0; i < engines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			e, done := mixedEngine(i == 1)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			if i == 0 {
				e.At(0, cancel)
			}
			errs[i] = e.RunContext(ctx)
			stats[i], dones[i] = e.Stats(), *done
		}(i)
	}
	wg.Wait()

	var ce *CanceledError
	if !errors.As(errs[0], &ce) || stats[0].Events >= want.Events {
		t.Errorf("canceled engine: err %v after %d of %d events, want a mid-run *CanceledError",
			errs[0], stats[0].Events, want.Events)
	}
	var de *DeadlockError
	if !errors.As(errs[1], &de) || len(de.Blocked) != 1 || de.Blocked[0].Name != "consumer" {
		t.Errorf("greedy engine: err %v, want a *DeadlockError naming only the consumer", errs[1])
	}
	for i := 2; i < engines; i++ {
		if errs[i] != nil {
			t.Errorf("engine %d: %v", i, errs[i])
			continue
		}
		if stats[i].Events != want.Events || stats[i].Flows != want.Flows ||
			stats[i].Settles != want.Settles || dones[i] != *refDone {
			t.Errorf("engine %d: %d events, %d flows, %d settles, consumer done at %v; serial run: %d, %d, %d, %v",
				i, stats[i].Events, stats[i].Flows, stats[i].Settles, dones[i],
				want.Events, want.Flows, want.Settles, *refDone)
		}
	}
	waitGoroutines(t, base)
}
