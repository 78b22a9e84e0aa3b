package sim

import (
	"fmt"
	"math"
)

// Resource is a capacity-limited element of the flow network: a memory
// controller, a HyperTransport link direction, or a per-core issue port.
// Concurrent flows crossing a resource share its capacity max-min fairly.
type Resource struct {
	Name string
	Cap  float64 // bytes per second

	flows []flowRef // active flow crossings, unordered (swap-delete)

	// net is the flow network that first admitted a flow over this
	// resource; the utilization getters flush pending admissions through
	// it so readers always see settled accounting.
	net *FlowNet

	// Utilization accounting.
	busyIntegral float64 // integral of used rate over time (bytes)

	// Incrementally-maintained state, owned by the FlowNet. usedRate is
	// the sum of the rates of the flows currently crossing the resource,
	// refreshed whenever the resource's component is re-filled; it lets
	// settle() accrue busyIntegral without rebuilding a rate map.
	usedRate  float64
	inActive  bool // member of FlowNet.activeRes
	activeIdx int  // position in FlowNet.activeRes while inActive

	// Scratch for component discovery and progressive filling: a resource
	// is "touched" by the current pass iff epoch matches the FlowNet's.
	epoch  uint64
	avail  float64 // remaining headroom at the current filling level
	active int     // unfrozen flows crossing the resource

	// Observation (populated only when the engine's observer is active):
	// the piecewise-constant used-rate timeline, accrued in settle.
	observed bool
	segments []RateSegment
}

// flowRef is one crossing of a flow over a resource. pi is the crossing's
// index in the flow's path (paths may cross the same resource more than
// once), so a swap-delete that moves this entry can repair the flow-side
// slot table in O(1).
type flowRef struct {
	f  *Flow
	pi int32
}

// NewResource creates a resource with the given capacity in bytes/second.
func NewResource(name string, capacity float64) *Resource {
	if capacity <= 0 {
		panic("sim: resource capacity must be positive: " + name)
	}
	return &Resource{Name: name, Cap: capacity}
}

// BytesServed returns the total bytes that have crossed this resource.
func (r *Resource) BytesServed() float64 {
	if r.net != nil && r.net.dirty {
		r.net.flush()
	}
	return r.busyIntegral
}

// ActiveFlows returns the number of flows currently crossing this resource.
func (r *Resource) ActiveFlows() int { return len(r.flows) }

// Utilization returns mean utilization over [0, now].
func (r *Resource) Utilization(now float64) float64 {
	if now <= 0 {
		return 0
	}
	return r.BytesServed() / (r.Cap * now)
}

// Flow is a fluid transfer of a byte volume across a path of resources.
//
// Flows are slab objects: FlowNet.Start services the spawn from a free
// list when the previous owner released its flow back (see release), so
// the transfer churn that dominates spawn/teardown at 10k+ ranks recycles
// a fixed arena instead of allocating per message. The path is copied
// into flow-owned storage at admission, which both decouples the arena
// from caller buffers and lets callers reuse path scratch across Start
// calls.
type Flow struct {
	remaining float64
	ceiling   float64 // per-flow rate cap; 0 means unlimited
	path      []*Resource
	rate      float64
	waiters   []*Proc
	onDone    []func()
	done      bool
	released  bool // returned to the arena; guards double release
	label     string
	seq       uint64
	epoch     uint64 // visit stamp for component discovery
	netIdx    int    // position in FlowNet.flows, for O(1) removal
	net       *FlowNet

	// slots[k] is the index of path crossing k in path[k].flows, kept in
	// sync by the swap-deletes so retirement needs no membership scans.
	// slotsBuf keeps typical paths allocation-free, pathBuf does the same
	// for the flow-owned path copy, and waitersBuf for the common
	// single-waiter (Transfer) case. Long paths spill into pathSpill and
	// slotsSpill, which the arena retains so a recycled flow reuses the
	// allocations.
	slots      []int32
	slotsBuf   [8]int32
	pathBuf    [8]*Resource
	pathSpill  []*Resource
	slotsSpill []int32
	waitersBuf [2]*Proc
}

// removeCrossing drops crossing k of f from the resource's flow list by
// swap-delete, repairing the moved entry's slot index.
func (r *Resource) removeCrossing(f *Flow, k int) {
	s := f.slots[k]
	last := int32(len(r.flows) - 1)
	moved := r.flows[last]
	r.flows[s] = moved
	moved.f.slots[moved.pi] = s
	r.flows[last] = flowRef{}
	r.flows = r.flows[:last]
}

// Rate returns the flow's current allocated rate in bytes/second.
func (f *Flow) Rate() float64 {
	if !f.done && f.net.dirty {
		f.net.flush()
	}
	return f.rate
}

// Done reports whether the flow has completed.
func (f *Flow) Done() bool { return f.done }

// FlowNet manages active flows and assigns rates by progressive filling.
//
// Rate assignment is incremental and batched. Admissions are lazy: Start
// only records the flow and marks the network dirty, and the engine
// flushes once per distinct timestamp — settling progress, re-filling the
// union of the touched components, and scheduling the next completion
// check — so an N-flow collective fan-out costs one fill pass instead of
// N. Retirements settle eagerly inside completeFinished. Max-min rates
// depend only on the active flow set, never on the admission history, so
// the batched fill assigns exactly the rates the per-admission fills
// would have left behind; and since no simulated time passes between an
// admission and its flush, no progress is ever accrued under pre-flush
// rates. Readers that can observe rates or utilization mid-timestamp
// (Flow.Rate, Resource.BytesServed) flush on demand.
type FlowNet struct {
	eng        *Engine
	flows      []*Flow // active flows, unordered (swap-delete)
	lastSettle float64
	gen        uint64 // invalidates scheduled completion events
	seq        uint64 // flow admission order, for deterministic completion
	epoch      uint64 // current discovery/filling pass

	// freeFlows is the arena's free list: flows released by their owners
	// after completion, recycled by Start.
	freeFlows []*Flow

	// dirty marks admissions awaiting a flush; dirtySeeds are the flows
	// whose components must be re-filled.
	dirty      bool
	dirtySeeds []*Flow

	// activeRes lists every resource with at least one active flow;
	// the remaining slices are reusable scratch for component discovery,
	// filling, and retirement. compFlows holds the discovered components
	// back to back.
	activeRes []*Resource
	compFlows []*Flow
	resQueue  []*Resource
	seeds     []*Flow
	finished  []*Flow
	fillRes   []*Resource
	unfrozen  []*Flow
}

// addFlow registers f as active.
func (n *FlowNet) addFlow(f *Flow) {
	f.netIdx = len(n.flows)
	n.flows = append(n.flows, f)
}

// removeFlow drops f from the active set by swap-delete.
func (n *FlowNet) removeFlow(f *Flow) {
	last := len(n.flows) - 1
	moved := n.flows[last]
	n.flows[f.netIdx] = moved
	moved.netIdx = f.netIdx
	n.flows[last] = nil
	n.flows = n.flows[:last]
}

// dropActive removes r from the active-resource list by swap-delete.
func (n *FlowNet) dropActive(r *Resource) {
	last := len(n.activeRes) - 1
	moved := n.activeRes[last]
	n.activeRes[r.activeIdx] = moved
	moved.activeIdx = r.activeIdx
	n.activeRes[last] = nil
	n.activeRes = n.activeRes[:last]
	r.inActive = false
	r.usedRate = 0
}

// settle advances all flow progress to the current time.
func (n *FlowNet) settle() {
	dt := n.eng.now - n.lastSettle
	if dt > 0 {
		n.eng.statSettles++
		for _, f := range n.flows {
			f.remaining -= f.rate * dt
			if f.remaining < 0 {
				f.remaining = 0
			}
		}
		// Accrue resource utilization from the maintained used rates.
		// Flows admitted at the current instant contribute nothing: their
		// resources carry a zero used rate until the fill that follows.
		obs := n.eng.obs
		for _, r := range n.activeRes {
			r.busyIntegral += r.usedRate * dt
			if obs != nil {
				obs.recordSegment(r, n.lastSettle, n.eng.now, r.usedRate)
			}
		}
	}
	n.lastSettle = n.eng.now
}

// components discovers the connected component of every seed flow,
// leaving them back to back in compFlows. Components are disjoint by
// construction (a seed whose component was already discovered is
// skipped), each sorted into admission order, and listed in first-seed
// order. Duplicate seeds are tolerated.
func (n *FlowNet) components(seeds []*Flow) {
	n.epoch++
	ep := n.epoch
	out := n.compFlows[:0]
	queue := n.resQueue[:0]
	for _, s := range seeds {
		if s.epoch == ep {
			continue
		}
		start := len(out)
		s.epoch = ep
		out = append(out, s)
		for _, r := range s.path {
			if r.epoch != ep {
				r.epoch = ep
				queue = append(queue, r)
			}
		}
		for len(queue) > 0 {
			r := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			for _, fr := range r.flows {
				f := fr.f
				if f.epoch == ep {
					continue
				}
				f.epoch = ep
				out = append(out, f)
				for _, r2 := range f.path {
					if r2.epoch != ep {
						r2.epoch = ep
						queue = append(queue, r2)
					}
				}
			}
		}
		// Discovery visits flows in swap-delete (arbitrary) order;
		// admission order keeps every later pass (filling, used-rate
		// refresh) deterministic.
		sortFlowsBySeq(out[start:])
	}
	n.compFlows = out
	n.resQueue = queue[:0]
}

// sortFlowsBySeq orders flows by admission seq with an insertion sort:
// components are typically small, and unlike sort.Slice this allocates
// nothing on the settle path.
func sortFlowsBySeq(fs []*Flow) {
	for i := 1; i < len(fs); i++ {
		f := fs[i]
		j := i - 1
		for j >= 0 && fs[j].seq > f.seq {
			fs[j+1] = fs[j]
			j--
		}
		fs[j+1] = f
	}
}

// fill runs one progressive-filling pass over the components discovered
// by the last components() call: every other flow's rate is unaffected.
// compFlows concatenates the components, each sorted by admission seq,
// which fixes every floating-point accumulation order the pass is
// sensitive to (per-resource sums are component-local, and the shared
// level accumulates order-independent minima) — the arithmetic the golden
// trace hashes pin.
func (n *FlowNet) fill() {
	flows := n.compFlows
	if len(flows) == 0 {
		return
	}
	n.epoch++
	ep := n.epoch
	res := n.fillRes[:0]
	for _, f := range flows {
		f.rate = 0
		for _, r := range f.path {
			if r.epoch != ep {
				r.epoch = ep
				r.avail = r.Cap
				r.active = 0
				r.usedRate = 0
				res = append(res, r)
			}
			r.active++
		}
	}
	unfrozen := append(n.unfrozen[:0], flows...)
	level := 0.0
	for len(unfrozen) > 0 {
		// Smallest additional rate increment any constraint allows.
		inc := math.Inf(1)
		for _, f := range unfrozen {
			if f.ceiling > 0 {
				if d := f.ceiling - level; d < inc {
					inc = d
				}
			}
			for _, r := range f.path {
				if r.active > 0 {
					if d := r.avail / float64(r.active); d < inc {
						inc = d
					}
				}
			}
		}
		if math.IsInf(inc, 1) {
			// No constraint at all (flows with empty paths and no
			// ceiling): they complete instantly; give them a huge rate.
			for _, f := range unfrozen {
				f.rate = math.Inf(1)
			}
			break
		}
		if inc < 0 {
			inc = 0
		}
		level += inc
		// Charge resources and find newly frozen flows.
		for _, r := range res {
			r.avail -= inc * float64(r.active)
			if r.avail < 0 {
				r.avail = 0
			}
		}
		next := unfrozen[:0]
		for _, f := range unfrozen {
			frozen := false
			// Relative epsilon: a ceiling-limited increment can leave level
			// one ulp short of the ceiling, which an absolute 1e-15 misses
			// for large rates; the flow must still freeze or the safety
			// break below abandons the pass with under-allocated rates.
			if f.ceiling > 0 && level >= f.ceiling*(1-1e-12) {
				frozen = true
			}
			if !frozen {
				for _, r := range f.path {
					if r.avail <= 1e-9*r.Cap {
						frozen = true
						break
					}
				}
			}
			f.rate = level
			if frozen {
				for _, r := range f.path {
					r.active--
				}
			} else {
				next = append(next, f)
			}
		}
		if len(next) == len(unfrozen) {
			// Safety: no progress possible (all increments ~0).
			break
		}
		unfrozen = next
	}
	// Refresh the used rate of every touched resource, in admission order
	// so the floating-point sums are reproducible.
	for _, f := range flows {
		if math.IsInf(f.rate, 1) {
			continue // empty path: crosses no resources
		}
		for _, r := range f.path {
			r.usedRate += f.rate
		}
	}
	n.fillRes = res
	n.unfrozen = unfrozen[:0]
}

// markDirty queues f's component for the next flush and invalidates any
// scheduled completion check, exactly as an eager recompute would have.
func (n *FlowNet) markDirty(f *Flow) {
	n.gen++
	n.dirty = true
	n.dirtySeeds = append(n.dirtySeeds, f)
}

// flush batch-settles the pending admissions: one settle, one fill over
// the union of the dirty components, one completion schedule. The engine
// calls it after the last event of each timestamp; mid-timestamp readers
// of rates or utilization call it on demand.
func (n *FlowNet) flush() {
	n.dirty = false
	n.settle()
	n.components(n.dirtySeeds)
	n.fill()
	for i := range n.dirtySeeds {
		n.dirtySeeds[i] = nil
	}
	n.dirtySeeds = n.dirtySeeds[:0]
	n.scheduleNextCompletion()
}

// recomputeTouched re-fills the components containing the seed flows and
// schedules the next completion event.
func (n *FlowNet) recomputeTouched(seeds []*Flow) {
	n.components(seeds)
	n.fill()
	n.scheduleNextCompletion()
}

func (n *FlowNet) scheduleNextCompletion() {
	n.gen++
	next := math.Inf(1)
	for _, f := range n.flows {
		if f.rate <= 0 {
			if f.remaining <= almostZero {
				next = 0
			}
			continue
		}
		if t := f.remaining / f.rate; t < next {
			next = t
		}
	}
	if math.IsInf(next, 1) {
		if len(n.flows) > 0 {
			panic("sim: active flows can make no progress (zero-capacity path?)")
		}
		return
	}
	// Clamp to the clock's float64 resolution: a delay below one ulp of
	// `now` would schedule an event at the same timestamp and live-lock
	// (settle would see dt == 0 and never drain the last bytes).
	if ulp := math.Nextafter(n.eng.now, math.Inf(1)) - n.eng.now; next < ulp {
		next = ulp
	}
	n.eng.schedule(n.eng.now+next, event{kind: evFlowCheck, gen: n.gen})
}

// completionCheck runs the completion pass scheduled under gen, unless a
// later flow change superseded it.
func (n *FlowNet) completionCheck(gen uint64) {
	if gen != n.gen {
		return
	}
	n.completeFinished()
}

// completeFinished settles, retires finished flows, and recomputes.
// Admissions are deferred to the flush, but retirement stays eager: the
// completion event it runs under was scheduled with the rates the seed
// semantics would have used, and the post-retirement refill must precede
// the waiter wakeups it triggers.
func (n *FlowNet) completeFinished() {
	n.settle()
	finished := n.finished[:0]
	for _, f := range n.flows {
		if f.remaining <= almostZero || math.IsInf(f.rate, 1) {
			finished = append(finished, f)
		}
	}
	// Process in admission order so downstream wakeups are deterministic
	// regardless of the active set's swap-delete order.
	sortFlowsBySeq(finished)
	for _, f := range finished {
		n.removeFlow(f)
		for k, r := range f.path {
			r.removeCrossing(f, k)
		}
		f.done = true
		f.rate = 0
	}
	// Drained resources leave the active list immediately, before any new
	// admission can re-append them: their used rate is stale (the refill
	// below only touches surviving components), and a later settle must
	// neither accrue it nor record it as a segment.
	for _, f := range finished {
		for _, r := range f.path {
			if r.inActive && len(r.flows) == 0 {
				n.dropActive(r)
			}
		}
	}
	// Only components the finished flows crossed can change rates: seed
	// the recompute with the surviving flows sharing their resources
	// (collected after removal so retired flows no longer bridge
	// otherwise-disjoint components).
	seeds := n.seeds[:0]
	for _, f := range finished {
		for _, r := range f.path {
			for _, fr := range r.flows {
				seeds = append(seeds, fr.f)
			}
		}
	}
	n.recomputeTouched(seeds)
	for i := range seeds {
		seeds[i] = nil
	}
	n.seeds = seeds[:0]
	e := n.eng
	for _, f := range finished {
		for _, cb := range f.onDone {
			cb()
		}
		for _, p := range f.waiters {
			e.scheduleResume(e.now, p)
		}
		f.onDone, f.waiters = nil, nil
	}
	for i := range finished {
		finished[i] = nil
	}
	n.finished = finished[:0]
}

// Start begins a flow of bytes over path with an optional per-flow rate
// ceiling (0 = none). A zero-byte flow completes at the current time.
// The returned flow can be waited on with Proc.WaitFlow or observed with
// OnDone.
func (n *FlowNet) Start(label string, bytes float64, path []*Resource, ceiling float64) *Flow {
	// NaN compares false against everything, so a NaN volume or ceiling
	// would sail through every threshold below and stall or corrupt the
	// completion schedule undiagnosed; +Inf bytes can never drain.
	if bytes < 0 || math.IsNaN(bytes) || math.IsInf(bytes, 1) {
		panic(fmt.Sprintf("sim: flow %q at t=%g has invalid volume %g", label, n.eng.now, bytes))
	}
	if math.IsNaN(ceiling) || math.IsInf(ceiling, -1) {
		panic(fmt.Sprintf("sim: flow %q at t=%g has invalid rate ceiling %g", label, n.eng.now, ceiling))
	}
	n.eng.statFlows++
	n.seq++
	var f *Flow
	if m := len(n.freeFlows); m > 0 {
		f = n.freeFlows[m-1]
		n.freeFlows[m-1] = nil
		n.freeFlows = n.freeFlows[:m-1]
		pathSpill, slotsSpill := f.pathSpill, f.slotsSpill
		*f = Flow{pathSpill: pathSpill, slotsSpill: slotsSpill}
	} else {
		f = &Flow{}
	}
	f.remaining = bytes
	f.ceiling = ceiling
	f.label = label
	f.seq = n.seq
	f.net = n
	// Copy the path into flow-owned storage so the arena never aliases a
	// caller's buffer (callers are free to reuse path scratch).
	if len(path) <= len(f.pathBuf) {
		f.path = f.pathBuf[:len(path)]
	} else {
		if cap(f.pathSpill) < len(path) {
			f.pathSpill = make([]*Resource, len(path))
		}
		f.path = f.pathSpill[:len(path)]
	}
	copy(f.path, path)
	f.waiters = f.waitersBuf[:0]
	if len(path) <= len(f.slotsBuf) {
		f.slots = f.slotsBuf[:len(path)]
	} else {
		if cap(f.slotsSpill) < len(path) {
			f.slotsSpill = make([]int32, len(path))
		}
		f.slots = f.slotsSpill[:len(path)]
	}
	n.addFlow(f)
	for k, r := range path {
		if r.net == nil {
			r.net = n
		}
		f.slots[k] = int32(len(r.flows))
		r.flows = append(r.flows, flowRef{f: f, pi: int32(k)})
		if !r.inActive {
			r.inActive = true
			r.activeIdx = len(n.activeRes)
			n.activeRes = append(n.activeRes, r)
		}
	}
	n.markDirty(f)
	return f
}

// Release returns a completed flow to the arena for reuse by a later
// Start. Ownership rule: only the call that started the flow and is the
// sole holder of its reference after completion — Transfer, TransferAll,
// the machine-level execute loop — may release it, and only once every
// wait on it has returned. Flows started through raw Start and handed to
// other code are never released; they simply fall to the GC, which is
// always safe. Releasing an unfinished or already-released flow is a
// no-op (the latter guards against recycling a flow that already carries
// a new transfer).
func (n *FlowNet) Release(f *Flow) {
	if f == nil || !f.done || f.released {
		return
	}
	f.released = true
	n.freeFlows = append(n.freeFlows, f)
}

// SetCapacity changes r's capacity at the current simulated time — the
// engine-level rate-perturbation point used by the deterministic fault
// layer (degraded HyperTransport links, slowed memory controllers). Flows
// currently crossing r have their progress settled under the old rates
// and are re-rated under the new capacity at the end of the current
// timestamp, exactly like an admission; any scheduled completion check is
// invalidated. A resource with no active flows just takes the new
// capacity for future admissions.
func (n *FlowNet) SetCapacity(r *Resource, c float64) {
	if c <= 0 || math.IsNaN(c) || math.IsInf(c, 1) {
		panic(fmt.Sprintf("sim: resource %q capacity set to invalid %g at t=%g", r.Name, c, n.eng.now))
	}
	if c == r.Cap {
		return
	}
	r.Cap = c
	if r.net == nil {
		r.net = n
	}
	if len(r.flows) > 0 {
		n.markDirty(r.flows[0].f)
	}
}

// OnDone registers cb to run when the flow completes. If the flow has
// already completed, cb runs immediately.
func (f *Flow) OnDone(n *FlowNet, cb func()) {
	if f.done {
		cb()
		return
	}
	f.onDone = append(f.onDone, cb)
}

// WaitFlow blocks the process until the flow completes.
func (p *Proc) WaitFlow(f *Flow) {
	if f.done {
		// Still yield once so zero-time transfers keep FIFO fairness.
		p.Sleep(0)
		return
	}
	f.waiters = append(f.waiters, p)
	p.block(stateBlockedFlow, f.label)
}

// WaitFlowThen is the continuation form of WaitFlow: it arranges for k
// to run once f completes. For a goroutine-backed process it waits inline
// and then calls k; for a light process it parks the continuation. Both
// forms consume event sequence numbers identically to WaitFlow, so a
// conversion between them cannot change a simulation.
func (p *Proc) WaitFlowThen(f *Flow, k func()) {
	if f.done {
		// Still yield once so zero-time transfers keep FIFO fairness.
		p.SleepThen(0, k)
		return
	}
	if !p.light {
		f.waiters = append(f.waiters, p)
		p.block(stateBlockedFlow, f.label)
		k()
		return
	}
	f.waiters = append(f.waiters, p)
	p.park(stateBlockedFlow, f.label, k)
}

// Transfer starts a flow and blocks until it completes. It is the common
// case for memory streams and message copies. Transfer owns the flow it
// starts, so it recycles it through the arena on completion.
func (p *Proc) Transfer(label string, bytes float64, path []*Resource, ceiling float64) {
	if bytes <= 0 {
		return
	}
	net := p.eng.net
	f := net.Start(label, bytes, path, ceiling)
	p.WaitFlow(f)
	net.Release(f)
}

// TransferThen is the continuation form of Transfer: it starts the flow
// and runs k once it completes; an empty transfer runs k immediately,
// mirroring Transfer's early return. A lightweight process parks on the
// flow with k armed and records the flow as its own, so the resume that
// follows the wait releases it before running k, without a wrapper
// closure.
func (p *Proc) TransferThen(label string, bytes float64, path []*Resource, ceiling float64, k func()) {
	if bytes <= 0 {
		k()
		return
	}
	if !p.light {
		p.Transfer(label, bytes, path, ceiling)
		k()
		return
	}
	f := p.eng.net.Start(label, bytes, path, ceiling)
	p.WaitFlowThen(f, k)
	p.xfer = f
}

// TransferAll starts several flows at once and blocks until every one of
// them has completed (parallel transfers from a single process, e.g. an
// access striped over multiple memory nodes). Like Transfer it owns the
// flows it starts and recycles them once the last wait returns.
func (p *Proc) TransferAll(label string, specs []FlowSpec) {
	var startedBuf [16]*Flow
	started := startedBuf[:0]
	pending := 0
	net := p.eng.net
	for _, s := range specs {
		if s.Bytes <= 0 {
			continue
		}
		f := net.Start(label, s.Bytes, s.Path, s.Ceiling)
		started = append(started, f)
		if !f.done {
			pending++
			f.waiters = append(f.waiters, p)
		}
	}
	for pending > 0 {
		p.block(stateBlockedFlow, label)
		pending--
	}
	for _, f := range started {
		net.Release(f)
	}
}

// FlowSpec describes one flow for TransferAll.
type FlowSpec struct {
	Bytes   float64
	Path    []*Resource
	Ceiling float64
}

func (f *Flow) String() string {
	return fmt.Sprintf("flow(%s rem=%.0f rate=%.0f)", f.label, f.remaining, f.rate)
}
