//go:build go1.23

// go.mod stays at go 1.22 so modules pinned to 1.22 can require this one;
// the constraint raises only this file to Go 1.23, which has iter.Pull.

package sim

import "iter"

// worker is a pooled coroutine that runs process bodies one after
// another. Spawn hands it a process by setting p and body; resume
// switches into it and returns the process it yields, the one the event
// loop stopped at (nil once the run is over). Only the RunContext caller
// calls resume and stop, so every switch goes caller → coroutine → caller
// and none passes through the Go scheduler. The worker clears p and body
// when it takes them, so an idle worker pins neither.
type worker struct {
	resume func() (*Proc, bool)
	stop   func()
	yield  func(*Proc) bool
	p      *Proc
	body   func(*Proc)
}

func (e *Engine) newWorker() *worker {
	w := &worker{}
	w.resume, w.stop = iter.Pull(func(yield func(*Proc) bool) {
		w.yield = yield
		for {
			p, body := w.p, w.body
			w.p, w.body = nil, nil
			if !e.killing { // a kill before first resume skips the body entirely
				e.runBody(p, body)
			}
			if e.obs != nil {
				e.procStateChange(p, stateBlockedQueue)
			}
			e.retire(p)
			// Recycle before the event loop runs: a Spawn it makes may
			// reuse this worker, and if the loop then stops at that
			// process, this coroutine runs its body without a switch.
			e.idleWorkers = append(e.idleWorkers, w)
			var next *Proc
			if !e.killing && e.failure == nil {
				next = e.next()
			}
			if next != nil && next.w == w {
				continue
			}
			if !yield(next) {
				return // stopped by shutdown while idle
			}
		}
	})
	return w
}
