package machine

import (
	"fmt"
	"math"

	"multicore/internal/mem"
	"multicore/internal/sim"
	"multicore/internal/topology"
)

// CapWindow is one time window during which a resource runs at a reduced
// capacity: in [Start, End) the resource's bandwidth is Base*Factor. An
// infinite End means the degradation lasts for the rest of the run.
type CapWindow struct {
	Start, End float64
	Factor     float64
}

// Perturb is the hook the deterministic fault layer (internal/fault)
// presents to the machine model. A nil Perturb — the default everywhere —
// keeps the machine byte-identical to the unperturbed model: no extra
// events are scheduled and no per-operation calls are made.
type Perturb interface {
	// ComputeTime maps an on-core execution duration that starts at
	// simulated time now on the given core to its perturbed duration
	// (>= d), modeling periodic OS noise stealing cycles from the core.
	ComputeTime(core int, now, d float64) float64
	// MCWindows returns the capacity-degradation windows of the socket's
	// memory controller.
	MCWindows(socket int) []CapWindow
	// LinkWindows returns the capacity-degradation windows of the
	// HyperTransport link between sockets a and b (applied to both
	// directions; a/b order is irrelevant).
	LinkWindows(a, b int) []CapWindow
}

// Machine is an instantiated system: the spec's resources realized in a
// simulation engine.
type Machine struct {
	Spec *Spec
	Eng  *sim.Engine

	mcs    []*sim.Resource    // per-socket memory controllers
	issue  []*sim.Resource    // per-core load/store issue ports
	l2     []*sim.Resource    // per-core cache-hit service
	links  [][2]*sim.Resource // per topology link: [forward A->B, reverse B->A]
	fabs   [][]*sim.Resource  // per-socket, per-die on-package fabric (multi-die only)
	caches []*mem.Cache

	// Scratch for one access batch (see CPU.plan): its plans, their
	// flows, a region's node split, and the path each flow starts with.
	// A batch is planned and its flows started without yielding, and
	// Start copies the path into the flow, so one set per machine serves
	// every CPU on it.
	plans []accessPlan
	flows []accessFlow
	split []float64
	path  []*sim.Resource

	// perturb, when non-nil, injects deterministic faults (OS noise on
	// compute durations; the capacity windows were already scheduled by
	// ApplyFaults). Nil means the idealized fault-free machine.
	perturb Perturb
}

// New realizes spec inside engine eng.
func New(eng *sim.Engine, spec *Spec) *Machine {
	topo := spec.Topo
	m := &Machine{Spec: spec, Eng: eng}
	for s := 0; s < topo.NumSockets; s++ {
		m.mcs = append(m.mcs, sim.NewResource(fmt.Sprintf("%s/mc%d", topo.Name, s), spec.MCBandwidth))
	}
	for c := 0; c < topo.NumCores(); c++ {
		id := topology.CoreID(c)
		m.issue = append(m.issue, sim.NewResource(fmt.Sprintf("%s/issue%d", topo.Name, c), spec.IssueBWOn(id)))
		m.l2 = append(m.l2, sim.NewResource(fmt.Sprintf("%s/l2-%d", topo.Name, c), spec.L2BandwidthOn(id)))
		m.caches = append(m.caches, mem.NewCache(c, spec.CacheBytesOn(id), spec.LineBytes))
	}
	for i, l := range topo.Links {
		fwd := sim.NewResource(fmt.Sprintf("%s/link%d:%d->%d", topo.Name, i, l.A, l.B), spec.LinkBandwidth)
		rev := sim.NewResource(fmt.Sprintf("%s/link%d:%d->%d", topo.Name, i, l.B, l.A), spec.LinkBandwidth)
		m.links = append(m.links, [2]*sim.Resource{fwd, rev})
	}
	if topo.NumDies() > 1 {
		// Chiplet sockets: each die reaches the socket's IO hub (where
		// the memory controller and inter-socket links live) over its own
		// fabric link, shared by the die's cores. Monolithic sockets get
		// none, keeping the paper systems' resource sets untouched.
		for s := 0; s < topo.NumSockets; s++ {
			dies := make([]*sim.Resource, topo.NumDies())
			for d := range dies {
				dies[d] = sim.NewResource(fmt.Sprintf("%s/fab%d.%d", topo.Name, s, d), spec.FabricBandwidth)
			}
			m.fabs = append(m.fabs, dies)
		}
	}
	return m
}

// fabricFor returns the on-package fabric resource of core's die, nil on
// monolithic sockets.
func (m *Machine) fabricFor(core topology.CoreID) *sim.Resource {
	if m.fabs == nil {
		return nil
	}
	return m.fabs[m.Topo().SocketOf(core)][m.Topo().DieOf(core)]
}

// ApplyFaults installs a fault injector on the machine. It must be called
// before the simulation starts: the injector's capacity-degradation
// windows (slowed memory controllers, degraded or flapping links) are
// realized as engine events that re-rate the affected resource's flows at
// each window boundary, and its compute-time perturbation is consulted on
// every subsequent compute phase. A nil injector is a no-op.
func (m *Machine) ApplyFaults(p Perturb) {
	if p == nil {
		return
	}
	m.perturb = p
	for s := range m.mcs {
		m.scheduleCapWindows(m.mcs[s], p.MCWindows(s))
	}
	for i, l := range m.Topo().Links {
		ws := p.LinkWindows(int(l.A), int(l.B))
		m.scheduleCapWindows(m.links[i][0], ws)
		m.scheduleCapWindows(m.links[i][1], ws)
	}
}

// scheduleCapWindows turns degradation windows into capacity-change events.
// Overlapping windows are applied in event order (later boundary wins).
func (m *Machine) scheduleCapWindows(r *sim.Resource, ws []CapWindow) {
	base := r.Cap
	net := m.Eng.Net()
	for _, w := range ws {
		factor := w.Factor
		if factor < 1e-9 {
			// A fully-down link would stall its flows forever; floor the
			// cut so the simulation always terminates.
			factor = 1e-9
		}
		start := w.Start
		if start < m.Eng.Now() {
			start = m.Eng.Now()
		}
		degraded := base * factor
		m.Eng.At(start, func() { net.SetCapacity(r, degraded) })
		if !math.IsInf(w.End, 1) && w.End > start {
			m.Eng.At(w.End, func() { net.SetCapacity(r, base) })
		}
	}
}

// perturbedCompute maps an on-core execution duration through the fault
// injector's OS-noise model; identity when no injector is installed.
func (m *Machine) perturbedCompute(core topology.CoreID, now, d float64) float64 {
	if m.perturb == nil || d <= 0 {
		return d
	}
	return m.perturb.ComputeTime(int(core), now, d)
}

// Topo returns the machine's topology.
func (m *Machine) Topo() *topology.System { return m.Spec.Topo }

// Cache returns the cache model of core c.
func (m *Machine) Cache(c topology.CoreID) *mem.Cache { return m.caches[c] }

// MC returns the memory controller resource of socket s.
func (m *Machine) MC(s topology.SocketID) *sim.Resource { return m.mcs[s] }

// appendRoute appends the link directions data crosses from socket a to
// socket b, in topology.Route order.
func (m *Machine) appendRoute(path []*sim.Resource, a, b topology.SocketID) []*sim.Resource {
	for _, dl := range m.Topo().Route(a, b) {
		dir := 0
		if dl.Reverse {
			dir = 1
		}
		path = append(path, m.links[dl.Index][dir])
	}
	return path
}

// appendCore appends the core's issue port and, on chiplet sockets, its
// die's fabric link: the head of every path a core drives.
func (m *Machine) appendCore(path []*sim.Resource, core topology.CoreID) []*sim.Resource {
	path = append(path, m.issue[core])
	if fab := m.fabricFor(core); fab != nil {
		path = append(path, fab)
	}
	return path
}

// ReadPath appends to path the resources data crosses flowing from memory
// node `node` to a core, and returns the extended slice: the core's issue
// port, its die's fabric link on chiplet sockets, the links from node to
// the core's socket, and the node's memory controller. Like the other
// path builders it allocates only when path lacks capacity, so callers
// pass a reused scratch buffer (FlowNet.Start copies the path).
func (m *Machine) ReadPath(path []*sim.Resource, core topology.CoreID, node topology.SocketID) []*sim.Resource {
	path = m.appendCore(path, core)
	path = m.appendRoute(path, node, m.Topo().SocketOf(core))
	return append(path, m.mcs[node])
}

// WritePath appends to path the resources data crosses flowing from a core
// to memory node `node`, and returns the extended slice.
func (m *Machine) WritePath(path []*sim.Resource, core topology.CoreID, node topology.SocketID) []*sim.Resource {
	path = m.appendCore(path, core)
	path = m.appendRoute(path, m.Topo().SocketOf(core), node)
	return append(path, m.mcs[node])
}

// CopyPath appends to path the resources of a memory-to-memory copy
// performed by a core (an MPI shared-buffer copy): read from src node,
// write to dst node. Both controllers and both link routes are charged;
// the issue port is charged once (it limits the copy loop's combined
// rate).
func (m *Machine) CopyPath(path []*sim.Resource, core topology.CoreID, src, dst topology.SocketID) []*sim.Resource {
	sock := m.Topo().SocketOf(core)
	path = m.appendCore(path, core)
	path = m.appendRoute(path, src, sock)
	path = append(path, m.mcs[src])
	if dst != src {
		path = m.appendRoute(path, sock, dst)
		path = append(path, m.mcs[dst])
	}
	return path
}

// RoundTrip returns the load-to-use latency from a core on socket s to
// memory node n (on chiplet sockets this includes the fabric crossing;
// see Spec.NodeRoundTrip).
func (m *Machine) RoundTrip(s, n topology.SocketID) float64 {
	return m.Spec.NodeRoundTrip(s, n)
}

// CPU is a workload's execution context on one core. All methods must be
// called from within proc's body.
type CPU struct {
	m    *Machine
	core topology.CoreID
	proc *sim.Proc

	// Stats.
	ComputeSeconds float64
	MemBytes       float64

	// flowScratch is execute's reusable list of the flows it started and
	// waits on; unlike the machine's batch scratch it lives across blocks.
	flowScratch []*sim.Flow
}

// CPU binds a process to a core, returning its execution context.
func (m *Machine) CPU(p *sim.Proc, core topology.CoreID) *CPU {
	if int(core) < 0 || int(core) >= m.Topo().NumCores() {
		panic(fmt.Sprintf("machine: core %d out of range on %s", core, m.Topo().Name))
	}
	return &CPU{m: m, core: core, proc: p}
}

// Rebind attaches the execution context to a new process. It exists for
// helper-process recycling (mpi Isend/Irecv clones): the context's core,
// caches, and accumulated stats carry over; only the process executing on
// it changes. The previous process must have finished.
func (c *CPU) Rebind(p *sim.Proc) { c.proc = p }

// Core returns the core this context is bound to.
func (c *CPU) Core() topology.CoreID { return c.core }

// Socket returns the socket of the bound core.
func (c *CPU) Socket() topology.SocketID { return c.m.Topo().SocketOf(c.core) }

// Machine returns the underlying machine.
func (c *CPU) Machine() *Machine { return c.m }

// Proc returns the simulation process.
func (c *CPU) Proc() *sim.Proc { return c.proc }

// Compute advances time by the cost of `flops` floating-point operations
// at the given efficiency (fraction of peak, 0 < eff <= 1).
func (c *CPU) Compute(flops, eff float64) {
	if flops <= 0 {
		return
	}
	if eff <= 0 || eff > 1 {
		panic(fmt.Sprintf("machine: compute efficiency %g out of (0,1]", eff))
	}
	d := c.m.perturbedCompute(c.core, c.proc.Now(), flops/(c.m.Spec.PeakFlopsOn(c.core)*eff))
	c.ComputeSeconds += d
	c.proc.Sleep(d)
}

// accessPlan is the cost breakdown of one access batch: its DRAM flows
// plus the serial cache-hit time and the stream-latency statistics needed
// to size the core's shared prefetch window.
type accessPlan struct {
	flows       []accessFlow
	hitTime     float64
	streamBytes float64 // DRAM bytes moved by prefetchable (streaming) flows
	weightedRT  float64 // sum of bytes*roundTrip over those flows
}

// accessFlow is one DRAM flow of an access batch: its volume and rate
// ceiling, the memory node it reads or writes, and the access's shared
// rate bound, if any. Its path is built right before the flow starts.
type accessFlow struct {
	bytes, ceiling float64
	node           topology.SocketID
	write          bool
	bound          *sim.Resource
}

// flowSpecs converts an access batch into a cost plan after cache
// filtering. The plan's flows are appended to the machine's batch
// scratch, which CPU.plan resets once per batch.
func (c *CPU) flowSpecs(a mem.Access) accessPlan {
	m := c.m
	spec := m.Spec
	tr := m.caches[c.core].Filter(a)
	plan := accessPlan{hitTime: tr.HitBytes / spec.L2BandwidthOn(c.core)}

	if tr.MemBytes <= 0 && tr.LatencyTouches <= 0 {
		return plan
	}
	c.MemBytes += tr.MemBytes

	var bound *sim.Resource
	if a.RateCeiling > 0 {
		bound = ceilingResource(a.RateCeiling)
	}

	sock := c.Socket()
	m.split = a.Region.Split(m.split[:0], tr.MemBytes)
	first := len(m.flows)
	for node, bytes := range m.split {
		if bytes <= 0 {
			continue
		}
		nodeID := topology.SocketID(node)
		ceiling := 0.0
		inflate := 1.0
		if tr.LatencyTouches > 0 {
			// Latency-bound access: rate capped by outstanding-miss
			// round trips. Random lines already pay full DRAM row
			// misses, so the stream-interleaving penalty does not
			// apply.
			mlp := spec.MLPRandom
			if a.Pattern == mem.Chase {
				mlp = 1
			}
			ceiling = mlp * spec.LineBytes / m.RoundTrip(sock, nodeID)
		} else {
			plan.streamBytes += bytes
			plan.weightedRT += bytes * m.RoundTrip(sock, nodeID)
			// DRAM stream-interleaving penalty: concurrent flows at
			// this controller reduce effective bandwidth. The row-
			// buffer thrash saturates after a few streams.
			inflate = 1 + spec.ContentionPenalty*float64(min(m.mcs[node].ActiveFlows(), 3))
		}
		// A streaming write is half write-allocate reads, half
		// writebacks; it takes the write path (the controller dominates).
		m.flows = append(m.flows, accessFlow{bytes: bytes * inflate, ceiling: ceiling,
			node: nodeID, write: a.Pattern == mem.StreamWrite, bound: bound})
	}
	plan.flows = m.flows[first:]
	return plan
}

// ceilingResource materializes a per-access rate bound as an ephemeral
// shared resource so that all of the access's subflows divide it.
func ceilingResource(rate float64) *sim.Resource {
	return sim.NewResource("access-ceiling", rate)
}

// window returns an ephemeral per-call resource modeling the core's
// prefetch/miss window: streaming flows of this call share
// PrefetchDepth*Line/avgRoundTrip of bandwidth, which is what makes remote
// or interleaved streams slower for a single core even when controller
// bandwidth is available. Returns nil if no streaming traffic.
func (c *CPU) window(plans []accessPlan) *sim.Resource {
	spec := c.m.Spec
	if spec.PrefetchDepth <= 0 {
		return nil
	}
	totalBytes, totalWRT := 0.0, 0.0
	for _, p := range plans {
		totalBytes += p.streamBytes
		totalWRT += p.weightedRT
	}
	if totalBytes <= 0 {
		return nil
	}
	avgRT := totalWRT / totalBytes
	return sim.NewResource("prefetch-window", spec.PrefetchDepth*spec.LineBytes/avgRT)
}

// execute launches the plans' flows (with the shared prefetch window on
// every streaming path), optionally overlapping a compute phase, and
// blocks until everything finishes.
func (c *CPU) execute(label string, plans []accessPlan, flops, eff float64) {
	m := c.m
	win := c.window(plans)
	hitTime := 0.0
	net := m.Eng.Net()
	flows := c.flowScratch[:0]
	for _, p := range plans {
		hitTime += p.hitTime
		for _, f := range p.flows {
			if f.bytes <= 0 {
				continue
			}
			path := m.path[:0]
			if f.write {
				path = m.WritePath(path, c.core, f.node)
			} else {
				path = m.ReadPath(path, c.core, f.node)
			}
			if f.bound != nil {
				path = append(path, f.bound)
			}
			if win != nil && f.ceiling == 0 {
				path = append(path, win)
			}
			m.path = path
			flows = append(flows, net.Start(label, f.bytes, path, f.ceiling))
		}
	}
	if flops > 0 {
		if eff <= 0 || eff > 1 {
			panic(fmt.Sprintf("machine: compute efficiency %g out of (0,1]", eff))
		}
		d := c.m.perturbedCompute(c.core, c.proc.Now(), flops/(c.m.Spec.PeakFlopsOn(c.core)*eff)+hitTime)
		c.ComputeSeconds += d
		c.proc.Sleep(d)
	} else if hitTime > 0 {
		c.proc.Sleep(c.m.perturbedCompute(c.core, c.proc.Now(), hitTime))
	}
	for _, f := range flows {
		c.proc.WaitFlow(f)
	}
	// All waits have returned and nothing else holds these flows: this
	// call owns them, so they go back to the arena (see FlowNet.Release).
	for i, f := range flows {
		net.Release(f)
		flows[i] = nil
	}
	c.flowScratch = flows[:0]
}

// Access performs one memory access batch, blocking for its full cost.
func (c *CPU) Access(a mem.Access) {
	c.execute(a.Region.Name, c.plan(a), 0, 1)
}

// Overlap runs a compute phase concurrently with one or more memory access
// batches, modeling out-of-order overlap: total time is the maximum of the
// compute time and the memory time, not their sum.
func (c *CPU) Overlap(flops, eff float64, accesses ...mem.Access) {
	c.execute("overlap", c.plan(accesses...), flops, eff)
}

// plan resets the machine's batch scratch and fills it with the accesses'
// cost plans.
func (c *CPU) plan(accesses ...mem.Access) []accessPlan {
	m := c.m
	m.flows = m.flows[:0]
	plans := m.plans[:0]
	for _, a := range accesses {
		plans = append(plans, c.flowSpecs(a))
	}
	m.plans = plans
	return plans
}

// Copy models a core-driven memory copy of `bytes` from a region on
// srcNode to one on dstNode (the MPI shared-memory transport primitive).
func (c *CPU) Copy(bytes float64, srcNode, dstNode topology.SocketID) {
	if bytes <= 0 {
		return
	}
	inflate := 1 + c.m.Spec.ContentionPenalty*float64(c.m.mcs[srcNode].ActiveFlows())
	c.MemBytes += bytes
	c.m.path = c.m.CopyPath(c.m.path[:0], c.core, srcNode, dstNode)
	c.proc.Transfer("copy", bytes*inflate, c.m.path, 0)
}

// ContentionInflate returns the volume inflation factor for a new stream
// at node's controller given current concurrent flows (DRAM interleaving
// penalty, saturating after a few streams).
func (m *Machine) ContentionInflate(node topology.SocketID) float64 {
	return 1 + m.Spec.ContentionPenalty*float64(min(m.mcs[node].ActiveFlows(), 3))
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// Alloc creates a region with an explicit node distribution. Placement
// policy application (which distribution a rank's policy yields) is the
// caller's concern; see internal/mpi and internal/affinity.
func (c *CPU) Alloc(name string, bytes float64, dist mem.Placement) *mem.Region {
	if len(dist) != c.m.Topo().NumSockets {
		panic(fmt.Sprintf("machine: placement has %d nodes, machine has %d sockets",
			len(dist), c.m.Topo().NumSockets))
	}
	return mem.NewRegion(name, bytes, dist)
}

// ResourceUtil is one row of a utilization report.
type ResourceUtil struct {
	Name        string
	BytesServed float64
	Utilization float64 // mean over [0, now]
}

// Utilizations returns a utilization report for every modeled resource
// (memory controllers, link directions, on-package fabric links, issue
// ports) at simulated time `now`, in a stable order: controllers first,
// then links, then fabric, then issue ports. Monolithic machines have
// no fabric rows, so the paper systems' reports are unchanged.
func (m *Machine) Utilizations(now float64) []ResourceUtil {
	var out []ResourceUtil
	add := func(r *sim.Resource) {
		out = append(out, ResourceUtil{
			Name:        r.Name,
			BytesServed: r.BytesServed(),
			Utilization: r.Utilization(now),
		})
	}
	for _, mc := range m.mcs {
		add(mc)
	}
	for _, pair := range m.links {
		add(pair[0])
		add(pair[1])
	}
	for _, dies := range m.fabs {
		for _, fab := range dies {
			add(fab)
		}
	}
	for _, port := range m.issue {
		add(port)
	}
	return out
}

// HottestResource returns the resource with the highest utilization — the
// run's bottleneck candidate.
func (m *Machine) HottestResource(now float64) ResourceUtil {
	var best ResourceUtil
	for _, u := range m.Utilizations(now) {
		if u.Utilization > best.Utilization {
			best = u
		}
	}
	return best
}
