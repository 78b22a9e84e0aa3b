package sim

import "sync/atomic"

// Engine observation: always-on activity counters plus an optional
// detailed observer. The counters are bare integer increments; everything
// heavier (per-process state times, per-resource used-rate timelines) is
// gated behind a single `e.obs != nil` pointer check on the hot paths and
// costs nothing when observation is disabled.

// procState classifies what a process is doing at an instant, keyed off
// the block sites: running between resume and block, and otherwise by the
// kind of wait it entered.
type procState int

const (
	stateRunning procState = iota
	stateSleeping
	stateBlockedFlow
	stateBlockedQueue
	numProcStates
)

// ProcStats is the accumulated state-time breakdown of one process.
type ProcStats struct {
	Name string
	// Seconds spent in each state. Running covers resume-to-block spans
	// (zero for pure coroutine hand-offs, since simulated time only
	// advances while every process is parked).
	Running      float64
	Sleeping     float64
	BlockedFlow  float64
	BlockedQueue float64
}

// Total returns the process's observed lifetime.
func (p ProcStats) Total() float64 {
	return p.Running + p.Sleeping + p.BlockedFlow + p.BlockedQueue
}

// RateSegment is one piece of a piecewise-constant used-rate timeline:
// the resource served Rate bytes/second over [Start, End). Idle periods
// appear as gaps between segments.
type RateSegment struct {
	Start, End float64
	Rate       float64
}

// ResourceStats is the utilization timeline of one resource.
type ResourceStats struct {
	Name     string
	Cap      float64
	Segments []RateSegment
}

// Stats is a snapshot of engine activity. The counters are always
// maintained; Procs and Resources are populated only when observation was
// enabled before the run (EnableObservation).
type Stats struct {
	// Events counts fired scheduler events, Flows started flows, Settles
	// flow-network settling passes that advanced time, and Spawns
	// processes created (MPI ranks plus transient helpers), whichever
	// backing they run on.
	Events  uint64
	Flows   uint64
	Settles uint64
	Spawns  uint64

	Procs     []ProcStats
	Resources []ResourceStats
}

// Process-wide activity counters, accumulated from every Engine.Run in the
// process. Tools that drive many engines (one per experiment cell) read
// deltas of these around a unit of work instead of plumbing an engine
// handle out of each cell.
var globalEvents, globalFlows, globalSettles, globalSpawns atomic.Uint64

// Activity snapshots the process-wide counters: scheduler events fired,
// flows started, settling passes, and processes spawned (ranks plus
// helpers), summed over all completed engine runs since the last
// ResetActivity. The experiments package's work gate pins their deltas
// per experiment.
func Activity() (events, flows, settles, spawns uint64) {
	return globalEvents.Load(), globalFlows.Load(), globalSettles.Load(), globalSpawns.Load()
}

// ResetActivity zeroes the process-wide activity counters.
func ResetActivity() {
	globalEvents.Store(0)
	globalFlows.Store(0)
	globalSettles.Store(0)
	globalSpawns.Store(0)
}

// publishActivity folds one finished engine's counters into the
// process-wide totals; called once at the end of Run.
func (e *Engine) publishActivity() {
	globalEvents.Add(e.statEvents)
	globalFlows.Add(e.statFlows)
	globalSettles.Add(e.statSettles)
	globalSpawns.Add(e.statSpawns)
}

// observer holds the registration order of observed processes and
// resources so snapshots are deterministic.
type observer struct {
	procs     []*Proc
	resources []*Resource
}

// EnableObservation turns on detailed per-process and per-resource
// accounting for the rest of the engine's lifetime. Call it before
// spawning processes; it is idempotent.
func (e *Engine) EnableObservation() {
	if e.obs == nil {
		e.obs = &observer{}
	}
}

// Observing reports whether detailed observation is enabled.
func (e *Engine) Observing() bool { return e.obs != nil }

// procStateChange accumulates the time spent in p's current state and
// enters the next one. Only called when e.obs != nil.
func (e *Engine) procStateChange(p *Proc, next procState) {
	p.stateTimes[p.state] += e.now - p.stateSince
	p.state = next
	p.stateSince = e.now
}

// recordSegment appends one used-rate segment to r's timeline, coalescing
// with the previous segment when the rate continues unchanged. Only
// called when the engine's observer is active.
func (o *observer) recordSegment(r *Resource, start, end, rate float64) {
	if rate <= 0 || end <= start {
		return
	}
	if !r.observed {
		r.observed = true
		o.resources = append(o.resources, r)
	}
	if n := len(r.segments); n > 0 {
		last := &r.segments[n-1]
		if last.End == start && last.Rate == rate {
			last.End = end
			return
		}
	}
	r.segments = append(r.segments, RateSegment{Start: start, End: end, Rate: rate})
}

// Stats snapshots the engine's activity counters and, if observation is
// enabled, the per-process and per-resource detail, consistent up to the
// current simulated time.
func (e *Engine) Stats() Stats {
	s := Stats{Events: e.statEvents, Flows: e.statFlows, Settles: e.statSettles, Spawns: e.statSpawns}
	if e.obs == nil {
		return s
	}
	for _, p := range e.obs.procs {
		ps := ProcStats{Name: p.name}
		times := p.stateTimes
		if !p.done {
			// Live process: fold the open interval in without mutating.
			times[p.state] += e.now - p.stateSince
		}
		ps.Running = times[stateRunning]
		ps.Sleeping = times[stateSleeping]
		ps.BlockedFlow = times[stateBlockedFlow]
		ps.BlockedQueue = times[stateBlockedQueue]
		s.Procs = append(s.Procs, ps)
	}
	for _, r := range e.obs.resources {
		segs := make([]RateSegment, len(r.segments))
		copy(segs, r.segments)
		s.Resources = append(s.Resources, ResourceStats{Name: r.Name, Cap: r.Cap, Segments: segs})
	}
	return s
}
