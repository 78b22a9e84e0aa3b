package sim

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"sort"
	"testing"
)

// TestEventLaneOrder: events must fire in exact (time, seq) order whether
// they wait on the heap or on the same-instant lane. Each trial runs a
// random mix of At callbacks for now or later, SpawnCont and Spawn
// starts, Sleep and SleepThen for zero or more seconds, WaitQueue
// wake-ups and flow completions, recording every event's (time, seq) as
// it is scheduled and again as it fires; the fire log must equal the
// sorted schedule log. The seq of an event the engine schedules
// internally is predicted from Engine.seq: a goroutine-backed Sleep takes
// the next seq, and a flow's lone waiter is resumed right after the
// flow's lone OnDone callback runs.
func TestEventLaneOrder(t *testing.T) {
	type key struct {
		at  float64
		seq uint64
	}
	// mixed counts lane events scheduled while a heap event at the same
	// instant, with a smaller seq, was still pending: the case where the
	// loop must take the heap top before the lane head.
	mixed := 0
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()
		res := []*Resource{NewResource("a", 1), NewResource("b", 2)}
		var q WaitQueue
		var waiting []*key // wake slots of the processes in q, oldest first
		var scheduled, fired []key
		onHeap := map[key]bool{}
		heapAt := map[float64]int{}
		budget := 400

		record := func(at float64, seq uint64) key {
			k := key{at, seq}
			scheduled = append(scheduled, k)
			if at > e.now {
				onHeap[k] = true
				heapAt[at]++
			} else if heapAt[at] > 0 {
				mixed++
			}
			return k
		}
		fire := func(k key) {
			if e.now != k.at {
				t.Fatalf("seed %d: event (%g, %d) fired at t=%g", seed, k.at, k.seq, e.now)
			}
			if onHeap[k] {
				heapAt[k.at]--
			}
			fired = append(fired, k)
		}

		var act func()
		var light func(p *Proc)
		act = func() {
			if budget <= 0 {
				return
			}
			budget--
			switch rng.Intn(6) {
			case 0, 1:
				at := e.now + float64(rng.Intn(3))
				var k key
				e.At(at, func() { fire(k); act(); act() })
				k = record(at, e.seq)
			case 2:
				var k key
				e.SpawnCont("light", func(p *Proc) { fire(k); light(p) })
				k = record(e.now, e.seq)
			case 3:
				if q.WakeOne(e) {
					*waiting[0] = record(e.now, e.seq)
					waiting = waiting[1:]
				}
			default:
				// One more pending event keeps the run going.
				at := e.now + float64(rng.Intn(2))
				var k key
				e.At(at, func() { fire(k); act() })
				k = record(at, e.seq)
			}
		}
		light = func(p *Proc) {
			act()
			if budget <= 0 {
				return
			}
			switch rng.Intn(4) {
			case 0:
				d := float64(rng.Intn(2))
				var k key
				p.SleepThen(d, func() { fire(k); light(p) })
				k = record(e.now+d, e.seq)
			case 1:
				slot := new(key)
				waiting = append(waiting, slot)
				q.WaitThen(p, "queue", func() { fire(*slot); light(p) })
			case 2:
				f := e.net.Start("flow", float64(1+rng.Intn(2)), []*Resource{res[rng.Intn(2)]}, 0)
				var k key
				f.OnDone(e.net, func() { k = record(e.now, e.seq+1) })
				p.WaitFlowThen(f, func() { fire(k); light(p) })
			}
		}
		var start key
		e.Spawn("heavy", func(p *Proc) {
			fire(start)
			for budget > 0 {
				act()
				if rng.Intn(2) == 0 {
					d := float64(rng.Intn(2))
					k := record(e.now+d, e.seq+1)
					p.Sleep(d)
					fire(k)
				} else {
					slot := new(key)
					waiting = append(waiting, slot)
					q.Wait(p, "queue")
					fire(*slot)
				}
			}
		})
		start = record(0, e.seq)
		act()

		// Processes still in q when the budget runs out deadlock the run
		// once every scheduled event has fired.
		var dl *DeadlockError
		if err := e.RunContext(context.Background()); err != nil && !errors.As(err, &dl) {
			t.Fatalf("seed %d: %v", seed, err)
		}
		want := append([]key(nil), scheduled...)
		sort.Slice(want, func(i, j int) bool {
			if want[i].at != want[j].at {
				return want[i].at < want[j].at
			}
			return want[i].seq < want[j].seq
		})
		if len(fired) != len(want) {
			t.Fatalf("seed %d: %d events fired, %d scheduled", seed, len(fired), len(want))
		}
		for i := range want {
			if fired[i] != want[i] {
				t.Fatalf("seed %d: event %d fired as (%g, %d), want (%g, %d)",
					seed, i, fired[i].at, fired[i].seq, want[i].at, want[i].seq)
			}
		}
	}
	if mixed == 0 {
		t.Fatal("no trial scheduled a lane event behind a pending heap event at the same instant")
	}
}

// TestCancelReleasesUnstartedAndParked: a canceled run reaps every live
// process, including a goroutine-backed one whose start event is still
// queued and a lightweight one parked on a queue, and leaks no goroutine.
// The cancel is polled at event ctxCheckStride, which is set up to be
// the unstarted process's start.
func TestCancelReleasesUnstartedAndParked(t *testing.T) {
	base := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	e := NewEngine()
	var q WaitQueue
	ran := false
	// Event 1 starts the light process; it cancels, then its zero sleeps
	// are events 2 .. ctxCheckStride-1. The last of them spawns the
	// goroutine-backed process, whose start would be event ctxCheckStride,
	// and parks.
	sleeps := 0
	e.SpawnCont("parked", func(p *Proc) {
		cancel()
		var step func()
		step = func() {
			if sleeps++; sleeps < ctxCheckStride-1 {
				p.SleepThen(0, step)
				return
			}
			e.Spawn("unstarted", func(*Proc) { ran = true })
			q.WaitThen(p, "never woken", func() { ran = true })
		}
		step()
	})
	err := e.RunContext(ctx)
	var ce *CanceledError
	if !errors.As(err, &ce) {
		t.Fatalf("got %v, want *CanceledError", err)
	}
	if e.statEvents != ctxCheckStride {
		t.Fatalf("run stopped at event %d, want %d", e.statEvents, ctxCheckStride)
	}
	if ran {
		t.Fatal("a process ran after the cancel was seen")
	}
	if len(e.live) != 0 {
		t.Fatalf("%d processes still live after the cancel", len(e.live))
	}
	waitGoroutines(t, base)
}
