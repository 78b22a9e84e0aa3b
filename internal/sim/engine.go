// Package sim implements a deterministic, process-oriented discrete-event
// simulation engine with a fluid-flow network for modeling bandwidth
// contention.
//
// Processes are runtime coroutines (iter.Pull), and only one of them or the
// RunContext caller runs at a time, so simulations are fully deterministic
// given the same inputs. There is no scheduler goroutine. Whoever gives up
// control (a blocking process, a coroutine whose process body returned, or
// the RunContext caller at start) runs the event loop itself until an event
// resumes a goroutine-backed process: a process that finds itself returns,
// and otherwise yields that process to the caller, which switches into it.
// Time is a float64 in seconds; simultaneous events fire in the order they
// were scheduled. Events for later instants wait in a binary heap; events
// for the current instant, about half of all events in the MPI workloads,
// skip it through a FIFO lane.
//
// Bandwidth-shared activities (memory streams, message copies) are modeled
// as flows over paths of capacity-limited resources. Rates are assigned by
// max-min fairness (progressive filling) and re-settled whenever the flow
// set changes, which reproduces contention effects such as two cores sharing
// one memory controller.
package sim

import (
	"context"
	"fmt"
	"math"
	"sort"
)

// ModelVersion names the simulation model's semantic generation. It is
// baked into persistent result-store keys (internal/store), so bump it
// whenever an engine or machine-model change alters simulated results —
// the same events that require regenerating engine_golden.json — or
// stored results stop matching their keys. mc-sim/4 retires fig2, fig3
// and numa-stream entries that earlier builds stored under fault-plan
// keys although those cells ran unperturbed.
const ModelVersion = "mc-sim/4"

// BlockedProc describes one process stuck at deadlock detection time: its
// name and the wait label it blocked on (e.g. "recv from 3").
type BlockedProc struct {
	Name string
	Wait string
}

// DeadlockError is returned by RunContext when the event heap drains while
// processes are still blocked: no event can ever wake them, so the
// simulation would otherwise sit in a silent hang. Blocked lists the stuck
// processes sorted by name, each with the label of the wait it is parked
// on, which is usually enough to identify the protocol bug (two ranks in
// head-to-head rendezvous sends, a Recv with no matching Send, ...).
type DeadlockError struct {
	Time    float64
	Live    int
	Blocked []BlockedProc
}

func (e *DeadlockError) Error() string {
	names := make([]string, len(e.Blocked))
	for i, b := range e.Blocked {
		names[i] = fmt.Sprintf("%s (%s)", b.Name, b.Wait)
	}
	return fmt.Sprintf("sim: deadlock at t=%g: %d live processes, blocked: %v",
		e.Time, e.Live, names)
}

// CanceledError is returned by RunContext when the run's context is
// canceled (SIGINT) or its deadline passes (per-cell wall-clock timeout).
// It wraps the context error, so errors.Is(err, context.Canceled) and
// errors.Is(err, context.DeadlineExceeded) distinguish the two.
type CanceledError struct {
	Time  float64 // simulated time reached when the run stopped
	Cause error   // the context's error
}

func (e *CanceledError) Error() string {
	return fmt.Sprintf("sim: run aborted at t=%g: %v", e.Time, e.Cause)
}

func (e *CanceledError) Unwrap() error { return e.Cause }

// ctxCheckStride is how many events RunContext processes between context
// polls: frequent enough that timeouts bite within microseconds of real
// time, rare enough that the poll never shows up in profiles.
const ctxCheckStride = 1024

// Engine is a discrete-event simulator instance. The zero value is not
// usable; create one with NewEngine.
type Engine struct {
	now   float64
	seq   uint64
	queue eventHeap // events after now
	lane  eventLane // events at now, in schedule order

	// ctx is the running RunContext's context, polled by whichever
	// goroutine holds control. stopCause and failure tell the RunContext
	// caller why the run ended early: the context's error, or the value of
	// a panic raised by an event or a process body.
	ctx       context.Context
	stopCause error
	failure   any

	// handoffs counts the coroutine resumes the RunContext caller makes.
	handoffs uint64

	// live lists every spawned process that has not finished, in no
	// particular order (swap-delete through Proc.liveIdx). It changes only
	// at spawn and finish; deadlock reporting and abort walk it.
	live []*Proc

	// killing is set by abort: resumed processes unwind via a procKilled
	// panic instead of resuming their bodies, so cancellation and
	// deadlock detection release every coroutine instead of leaking
	// suspended workers for the life of the process.
	killing bool

	// idleWorkers are suspended coroutines from finished processes, reused
	// by Spawn so steady-state process churn creates no new coroutines.
	idleWorkers []*worker

	// freeLight recycles finished lightweight processes (SpawnCont) so
	// helper churn — one isend/irecv helper per message at 10k+ ranks —
	// allocates no Proc in steady state. Only used while detailed
	// observation is off: the observer retains every spawned Proc.
	freeLight []*Proc

	net *FlowNet

	// Always-on activity counters (see Stats).
	statEvents  uint64
	statFlows   uint64
	statSettles uint64
	statSpawns  uint64

	// obs enables detailed observation when non-nil (EnableObservation).
	obs *observer

	// MaxTime aborts the run if the clock passes it (guards against
	// runaway simulations in tests). Zero means no limit.
	MaxTime float64
}

// NewEngine creates an empty simulation.
func NewEngine() *Engine {
	e := &Engine{}
	e.net = &FlowNet{eng: e}
	return e
}

// Now returns the current simulated time in seconds.
func (e *Engine) Now() float64 { return e.now }

// Net returns the engine's flow network.
func (e *Engine) Net() *FlowNet { return e.net }

// eventKind discriminates the typed events stored by value in the heap.
// The typed kinds cover the two hot schedules — waking a process and
// checking the flow network for completions — so neither allocates; evFunc
// is the generic fallback behind Engine.At.
type eventKind uint8

const (
	evFunc      eventKind = iota // run fire()
	evResume                     // hand control to proc
	evFlowCheck                  // flow completion check, valid iff gen matches
)

type event struct {
	at   float64
	seq  uint64
	kind eventKind
	proc *Proc  // evResume
	gen  uint64 // evFlowCheck
	fire func() // evFunc
}

// eventHeap is a typed binary min-heap ordered by (time, schedule seq).
// It is hand-rolled rather than built on container/heap so pushes and
// pops stay monomorphic, and it stores events by value: the backing array
// is recycled across pushes, so steady-state scheduling never allocates.
type eventHeap []event

func (h eventHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h *eventHeap) push(ev event) {
	q := append(*h, ev)
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
	*h = q
}

func (h *eventHeap) pop() event {
	q := *h
	top := q[0]
	last := len(q) - 1
	q[0] = q[last]
	q[last] = event{} // release the proc/fire references in the vacated slot
	q = q[:last]
	i := 0
	for {
		c := 2*i + 1
		if c >= len(q) {
			break
		}
		if r := c + 1; r < len(q) && q.less(r, c) {
			c = r
		}
		if !q.less(c, i) {
			break
		}
		q[i], q[c] = q[c], q[i]
		i = c
	}
	*h = q
	return top
}

// eventLane is the FIFO of events scheduled for the current instant. It
// needs no ordering work: such an event sorts after every heap event at
// now with a smaller seq and before every later event, so the event loop
// takes the lane head unless the heap top is at now with a smaller seq.
// The lane is empty whenever the clock advances. It is head-indexed over
// one backing slice that resets when it drains, and compacts when a long
// instant leaves the dead prefix dominant.
type eventLane struct {
	evs  []event
	head int
}

func (l *eventLane) empty() bool { return l.head == len(l.evs) }

func (l *eventLane) push(ev event) {
	if l.head > 0 && l.head*2 >= len(l.evs) {
		n := copy(l.evs, l.evs[l.head:])
		clear(l.evs[n:])
		l.evs = l.evs[:n]
		l.head = 0
	}
	l.evs = append(l.evs, ev)
}

func (l *eventLane) pop() event {
	ev := l.evs[l.head]
	l.evs[l.head] = event{} // release the proc/fire references
	l.head++
	if l.head == len(l.evs) {
		l.evs = l.evs[:0]
		l.head = 0
	}
	return ev
}

// schedule stamps ev with (t, next seq) and enqueues it: on the lane when
// t is the current instant, else on the heap. Scheduling in the past or
// at a NaN timestamp panics: the former violates causality, the latter
// corrupts the event heap's ordering (every comparison against NaN is
// false) and would silently break determinism.
func (e *Engine) schedule(t float64, ev event) {
	if !(t >= e.now) {
		panic(fmt.Sprintf("sim: scheduling event at %g before now %g", t, e.now))
	}
	e.seq++
	ev.at, ev.seq = t, e.seq
	if t == e.now {
		e.lane.push(ev)
	} else {
		e.queue.push(ev)
	}
}

// At schedules fn to run at absolute simulated time t.
func (e *Engine) At(t float64, fn func()) {
	e.schedule(t, event{kind: evFunc, fire: fn})
}

// After schedules fn to run d seconds from now.
func (e *Engine) After(d float64, fn func()) { e.At(e.now+d, fn) }

// scheduleResume schedules p to be handed control at time t without
// allocating a closure.
func (e *Engine) scheduleResume(t float64, p *Proc) {
	e.schedule(t, event{kind: evResume, proc: p})
}

// Proc is a simulated process. Its methods must only be called from within
// the process's own body function.
//
// A Proc has one of two backings. Goroutine-backed processes (Spawn) run
// arbitrary re-entrant bodies that block mid-call-stack, each on a pooled
// coroutine (worker); a blocked process runs the event loop on its own
// stack, so resuming itself costs no switch and resuming another
// goroutine-backed process costs two coroutine switches through the
// RunContext caller. Lightweight processes (SpawnCont) have no stack at all:
// their body is a chain of explicit continuations that the event loop
// invokes inline on whichever goroutine holds control, so blocking costs
// storing one func value instead of a stack. Both backings share the same
// wake paths (scheduleResume, WaitQueue, flow waiters), observation
// states, and deadlock reporting.
type Proc struct {
	eng  *Engine
	name string
	w    *worker // nil for lightweight processes
	done bool

	// blocked is set from the moment the process blocks or parks until
	// the event loop resumes it; wait is that block's label, which
	// deadlock reports print. liveIdx is the process's slot in
	// Engine.live.
	blocked bool
	wait    string
	liveIdx int

	// light marks a continuation-backed process; cont is the armed
	// continuation the next resume will invoke (nil while running), and
	// start is the body's entry point, kept as a bare func(*Proc) so
	// spawning never allocates a wrapper closure.
	light bool
	cont  func()
	start func(*Proc)

	// xfer is the flow a lightweight process's TransferThen is waiting
	// on; the resume after that wait releases it to the arena.
	xfer *Flow

	// Observation state (only touched when the engine's observer is
	// active): current state, when it was entered, and accumulated
	// seconds per state.
	state      procState
	stateSince float64
	stateTimes [numProcStates]float64
}

// Name returns the process name given at spawn time.
func (p *Proc) Name() string { return p.name }

// Engine returns the engine this process belongs to.
func (p *Proc) Engine() *Engine { return p.eng }

// Now returns the current simulated time.
func (p *Proc) Now() float64 { return p.eng.now }

// procKilled is the panic value used to unwind a blocked process during
// abort; the worker loop swallows it and recycles the coroutine.
type procKilled struct{}

// runBody executes a process body, absorbing the procKilled unwind that
// abort injects into blocked processes. Any other panic becomes the run's
// failure, which RunContext re-raises on its caller once every coroutine
// is released: a workload bug must surface where the caller can isolate
// it, not unwind whichever coroutine happened to run the body.
func (e *Engine) runBody(p *Proc, body func(*Proc)) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(procKilled); !ok && e.failure == nil {
				e.failure = r
			}
		}
	}()
	body(p)
}

// Spawn creates a process that will begin executing body at the current
// simulated time (or at time 0 if the simulation has not started).
func (e *Engine) Spawn(name string, body func(*Proc)) *Proc {
	var w *worker
	if n := len(e.idleWorkers); n > 0 {
		w = e.idleWorkers[n-1]
		e.idleWorkers[n-1] = nil
		e.idleWorkers = e.idleWorkers[:n-1]
	} else {
		w = e.newWorker()
	}
	p := &Proc{eng: e, name: name, w: w}
	w.p, w.body = p, body
	e.enlist(p)
	if e.obs != nil {
		p.state = stateBlockedQueue // parked until the start event fires
		p.stateSince = e.now
		e.obs.procs = append(e.obs.procs, p)
	}
	e.scheduleResume(e.now, p)
	return p
}

// SpawnCont creates a lightweight, continuation-backed process that will
// begin executing start at the current simulated time. The body must be
// written in continuation-passing style: instead of blocking, it arms the
// next step with SleepThen, WaitThen, WaitFlowThen, or TransferThen and
// returns. When a step returns without arming a continuation the process
// is finished. Scheduling order is identical to Spawn — the start event
// consumes the same sequence number — so converting a process between
// backings never reorders a simulation.
func (e *Engine) SpawnCont(name string, start func(p *Proc)) *Proc {
	var p *Proc
	if n := len(e.freeLight); n > 0 && e.obs == nil {
		p = e.freeLight[n-1]
		e.freeLight[n-1] = nil
		e.freeLight = e.freeLight[:n-1]
		*p = Proc{eng: e, light: true}
	} else {
		p = &Proc{eng: e, light: true}
	}
	p.name = name
	p.start = start
	e.enlist(p)
	if e.obs != nil {
		p.state = stateBlockedQueue // parked until the start event fires
		p.stateSince = e.now
		e.obs.procs = append(e.obs.procs, p)
	}
	e.scheduleResume(e.now, p)
	return p
}

// enlist counts a new process and adds it to the live list.
func (e *Engine) enlist(p *Proc) {
	e.statSpawns++
	p.liveIdx = len(e.live)
	e.live = append(e.live, p)
}

// retire marks p finished and drops it from the live list by swap-delete.
func (e *Engine) retire(p *Proc) {
	p.done = true
	last := len(e.live) - 1
	moved := e.live[last]
	e.live[p.liveIdx] = moved
	moved.liveIdx = p.liveIdx
	e.live[last] = nil
	e.live = e.live[:last]
}

// finishLight retires a completed lightweight process, mirroring the tail
// of the worker loop for goroutine-backed processes.
func (e *Engine) finishLight(p *Proc) {
	if e.obs != nil {
		e.procStateChange(p, stateBlockedQueue)
	}
	e.retire(p)
	if e.obs == nil {
		e.freeLight = append(e.freeLight, p)
	}
}

// resume marks p running. A lightweight process runs its next step
// inline; for a goroutine-backed one resume reports true, and the caller
// must switch to p's coroutine.
func (e *Engine) resume(p *Proc) bool {
	if p.done {
		panic("sim: resuming finished process " + p.name)
	}
	p.blocked = false
	if e.obs != nil {
		e.procStateChange(p, stateRunning)
	}
	if !p.light {
		return true
	}
	if f := p.start; f != nil {
		p.start = nil
		f(p)
	} else {
		k := p.cont
		p.cont = nil
		if f := p.xfer; f != nil {
			p.xfer = nil
			e.net.Release(f)
		}
		k()
	}
	if p.cont == nil {
		e.finishLight(p)
	}
	return false
}

// next runs events on the calling stack, which holds control, until one
// resumes a goroutine-backed process or the run ends. It returns that
// process, already marked running, or nil once the queue has drained, the
// context is canceled (stopCause) or an event panicked (failure).
// Continuations, flow checks and At callbacks run inline; a panic in any
// of them is recovered here, so it ends the run instead of unwinding the
// body of the process whose coroutine happens to hold control.
//
// Between the last event of a timestamp and the first event of the next,
// the loop flushes any pending flow-network changes: admissions
// accumulated at the current time are settled and filled in one batch
// (see FlowNet.flush).
func (e *Engine) next() (p *Proc) {
	defer func() {
		if r := recover(); r != nil {
			e.failure = r
			p = nil
		}
	}()
	for {
		var ev event
		if !e.lane.empty() {
			if q := e.queue; len(q) > 0 && q[0].at == e.now && q[0].seq < e.lane.evs[e.lane.head].seq {
				ev = e.queue.pop()
			} else {
				ev = e.lane.pop()
			}
		} else {
			if e.net.dirty && (len(e.queue) == 0 || e.queue[0].at > e.now) {
				e.net.flush()
				continue // the flush schedules the next completion event
			}
			if len(e.queue) == 0 {
				return nil
			}
			ev = e.queue.pop()
			if ev.at < e.now {
				panic("sim: time went backwards")
			}
			e.now = ev.at
			if e.MaxTime > 0 && e.now > e.MaxTime {
				panic(fmt.Sprintf("sim: exceeded MaxTime %g", e.MaxTime))
			}
		}
		e.statEvents++
		if e.statEvents%ctxCheckStride == 0 {
			if err := e.ctx.Err(); err != nil {
				e.stopCause = err
				return nil
			}
		}
		switch ev.kind {
		case evResume:
			if e.resume(ev.proc) {
				return ev.proc
			}
		case evFlowCheck:
			e.net.completionCheck(ev.gen)
		default:
			ev.fire()
		}
	}
}

// park records a lightweight process as blocked and arms k as the step to
// run when it is next resumed. It is the continuation-backed analogue of
// block.
func (p *Proc) park(kind procState, why string, k func()) {
	if k == nil {
		panic("sim: lightweight process " + p.name + " parked without a continuation")
	}
	e := p.eng
	p.blocked, p.wait = true, why
	if e.obs != nil {
		e.procStateChange(p, kind)
	}
	p.cont = k
}

// block parks the process until it is woken. It runs the event loop
// itself and returns at once if the loop stops at p's own resume;
// otherwise it yields the process the loop stopped at (nil once the run
// is over) to the RunContext caller and returns when the caller resumes
// p. The kind classifies the wait for observation; why labels it in
// deadlock reports.
func (p *Proc) block(kind procState, why string) {
	e := p.eng
	if e.killing {
		// A dying process tried to block again while unwinding (e.g. a
		// deferred cleanup sleeping); re-panic rather than park forever.
		panic(procKilled{})
	}
	p.blocked, p.wait = true, why
	if e.obs != nil {
		e.procStateChange(p, kind)
	}
	if next := e.next(); next != p {
		if !p.w.yield(next) || e.killing {
			panic(procKilled{})
		}
	}
}

// Sleep advances the process by d seconds of simulated time. Negative or
// zero durations still yield to the scheduler at the current time, which
// preserves event ordering for zero-cost operations. A NaN duration
// panics: NaN compares false against everything, so it would slip past
// the causality check in schedule and corrupt event ordering undiagnosed.
func (p *Proc) Sleep(d float64) {
	if math.IsNaN(d) {
		panic(fmt.Sprintf("sim: process %s sleeping NaN seconds at t=%g", p.name, p.eng.now))
	}
	if d < 0 {
		d = 0
	}
	e := p.eng
	e.scheduleResume(e.now+d, p)
	p.block(stateSleeping, "sleep")
}

// SleepThen advances the process by d seconds and then runs k. On a
// lightweight process it arms k as the continuation and returns
// immediately; on a goroutine-backed process it sleeps inline and calls k
// on the same stack. Either way the schedule sequence is identical to
// Sleep, so protocol code written against the *Then primitives simulates
// byte-identically on both backings.
func (p *Proc) SleepThen(d float64, k func()) {
	if !p.light {
		p.Sleep(d)
		k()
		return
	}
	if math.IsNaN(d) {
		panic(fmt.Sprintf("sim: process %s sleeping NaN seconds at t=%g", p.name, p.eng.now))
	}
	if d < 0 {
		d = 0
	}
	e := p.eng
	e.scheduleResume(e.now+d, p)
	p.park(stateSleeping, "sleep", k)
}

// Run executes events until the queue is empty. It panics if processes
// remain blocked when no event can wake them (a deadlock) so that protocol
// bugs in workloads surface immediately. Sweeps that must survive bad
// cells use RunContext instead and receive the deadlock as a structured
// error.
func (e *Engine) Run() {
	if err := e.RunContext(context.Background()); err != nil {
		panic(err)
	}
}

// RunContext executes events until the queue is empty, the context is
// canceled (or its deadline passes), or a deadlock is detected. It returns
// nil on a clean drain, *CanceledError on cancellation, and *DeadlockError
// when the event heap empties while processes are still blocked — the
// watchdog that turns a would-be silent hang into a diagnosis naming the
// blocked processes and their wait labels.
//
// The calling goroutine resumes every process coroutine: it runs the event
// loop until the first resume, then switches into each process that a
// blocking or finishing process yields to it.
//
// A panic raised by an event callback, a continuation, the flow network
// or a goroutine-backed process body ends the run wherever it happens: the
// engine releases its coroutines and RunContext re-raises the panic value
// on its caller, so the caller's isolation layer sees it.
//
// On any return the engine has released every coroutine it created;
// a non-nil error leaves the simulation state unusable (create a fresh
// engine per run, as every caller in this repository already does).
func (e *Engine) RunContext(ctx context.Context) error {
	e.ctx = ctx
	if e.stopCause = ctx.Err(); e.stopCause == nil {
		for p := e.next(); p != nil; {
			e.handoffs++
			p, _ = p.w.resume()
		}
	}
	var err error
	switch {
	case e.failure != nil: // re-raised after the abort below
	case e.stopCause != nil:
		err = &CanceledError{Time: e.now, Cause: e.stopCause}
	case len(e.live) > 0:
		var blocked []BlockedProc
		for _, p := range e.live {
			if p.blocked {
				blocked = append(blocked, BlockedProc{Name: p.name, Wait: p.wait})
			}
		}
		sort.SliceStable(blocked, func(i, j int) bool { return blocked[i].Name < blocked[j].Name })
		err = &DeadlockError{Time: e.now, Live: len(e.live), Blocked: blocked}
	default:
		e.shutdown()
		return nil
	}
	e.abort()
	if e.failure != nil {
		panic(e.failure)
	}
	return err
}

// abort unwinds every live process and releases all worker coroutines. It
// runs on the RunContext caller, which holds control once the run has
// ended. It drops the pending events, then kills each process on the live
// list: goroutine-backed ones are suspended in their coroutines, either
// blocked inside block() or waiting for their start event. Resuming them
// with killing set makes block() unwind via procKilled and makes the
// worker skip never-started bodies; either way the worker retires the
// process and yields straight back, so the list drains to empty without
// running any further simulation.
func (e *Engine) abort() {
	e.killing = true
	e.queue, e.lane = nil, eventLane{}
	for len(e.live) > 0 {
		e.kill(e.live[len(e.live)-1])
	}
	e.shutdown()
}

// kill unwinds one live process. Goroutine-backed processes unwind via
// the procKilled panic; lightweight processes have no stack to unwind, so
// dropping the armed continuation retires them directly.
func (e *Engine) kill(p *Proc) {
	if p.light {
		p.cont = nil
		p.start = nil
		e.finishLight(p)
		return
	}
	p.w.resume()
}

// shutdown stops the idle worker coroutines so engines do not pin
// goroutines after their run completes, and folds the engine's activity
// counters into the process-wide totals.
func (e *Engine) shutdown() {
	for i, w := range e.idleWorkers {
		w.stop()
		e.idleWorkers[i] = nil
	}
	e.idleWorkers = e.idleWorkers[:0]
	e.publishActivity()
}

// WaitQueue is a FIFO of blocked processes, the building block for
// higher-level synchronization (mailboxes, barriers, locks).
//
// It is a head-indexed ring over one backing slice: WakeOne advances head
// instead of re-slicing, and Wait compacts the live tail back to the front
// once the dead prefix dominates, so sustained Wait/WakeOne churn reuses
// constant storage instead of crawling through the backing array. After a
// burst, the backing array is released once the queue drains if it dwarfs
// the high-watermark of the era that follows — a queue that once held 10k
// waiters must not pin 10k slots for the engine's lifetime.
type WaitQueue struct {
	waiters []*Proc
	head    int
	// maxLive is the largest Len() observed since the queue last went
	// empty; it is the shrink heuristic's estimate of steady-state demand.
	maxLive int
}

// shrinkMinCap is the capacity below which a drained queue never releases
// its backing array: reallocating tiny slices would defeat the zero-alloc
// steady state for the common small queues (mailboxes, barriers).
const shrinkMinCap = 64

// maybeShrink releases an oversized backing array once the queue is
// empty. Called only at empty transitions.
func (q *WaitQueue) maybeShrink() {
	if cap(q.waiters) >= shrinkMinCap && q.maxLive < cap(q.waiters)/4 {
		q.waiters = nil
	}
	q.maxLive = 0
}

// enqueue appends p, compacting the dead prefix when it dominates.
func (q *WaitQueue) enqueue(p *Proc) {
	if q.head > 0 && q.head*2 >= len(q.waiters) {
		n := copy(q.waiters, q.waiters[q.head:])
		for i := n; i < len(q.waiters); i++ {
			q.waiters[i] = nil
		}
		q.waiters = q.waiters[:n]
		q.head = 0
	}
	q.waiters = append(q.waiters, p)
	if live := len(q.waiters) - q.head; live > q.maxLive {
		q.maxLive = live
	}
}

// Wait blocks the calling process until another process wakes it.
func (q *WaitQueue) Wait(p *Proc, why string) {
	q.enqueue(p)
	p.block(stateBlockedQueue, why)
}

// WaitThen enqueues the process and runs k once another process wakes it:
// the continuation form of Wait, usable from either backing (see
// Proc.SleepThen for the dispatch contract).
func (q *WaitQueue) WaitThen(p *Proc, why string, k func()) {
	if !p.light {
		q.Wait(p, why)
		k()
		return
	}
	q.enqueue(p)
	p.park(stateBlockedQueue, why, k)
}

// WakeOne wakes the oldest waiter, if any, at the current time.
// It returns true if a process was woken.
func (q *WaitQueue) WakeOne(e *Engine) bool {
	if q.head == len(q.waiters) {
		return false
	}
	p := q.waiters[q.head]
	// Nil the vacated slot: advancing head alone would pin the woken
	// process in the backing array for the queue's lifetime.
	q.waiters[q.head] = nil
	q.head++
	if q.head == len(q.waiters) {
		q.waiters = q.waiters[:0]
		q.head = 0
		q.maybeShrink()
	}
	e.scheduleResume(e.now, p)
	return true
}

// WakeAll wakes every waiter in FIFO order at the current time.
func (q *WaitQueue) WakeAll(e *Engine) {
	for i := q.head; i < len(q.waiters); i++ {
		e.scheduleResume(e.now, q.waiters[i])
		q.waiters[i] = nil
	}
	q.waiters = q.waiters[:0]
	q.head = 0
	q.maybeShrink()
}

// Len reports the number of blocked processes.
func (q *WaitQueue) Len() int { return len(q.waiters) - q.head }

// almostZero is the byte threshold below which a flow counts as complete;
// it absorbs float64 rounding from incremental settling.
const almostZero = 1e-6
