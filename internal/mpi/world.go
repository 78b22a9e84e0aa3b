package mpi

import (
	"context"
	"fmt"
	"math/rand"

	"multicore/internal/affinity"
	"multicore/internal/machine"
	"multicore/internal/mem"
	"multicore/internal/sim"
	"multicore/internal/topology"
)

// BufferMode decides where the transport's shared-memory segments live.
// The paper observed that page placement policies leak into MPI behaviour
// ("Clearly, the MPI sub-layer is affecting page placement"); this is the
// mechanism.
type BufferMode int

const (
	// BufSpread places each sender's segment on the sender's node (the
	// healthy first-touch outcome).
	BufSpread BufferMode = iota
	// BufHotspot places the whole segment pool on rank 0's node, the
	// pathological localalloc interaction the paper saw degrade PTRANS
	// under "localalloc + sub-layer" combinations.
	BufHotspot
	// BufInterleaved spreads segments round-robin over all nodes.
	BufInterleaved
)

func (b BufferMode) String() string {
	switch b {
	case BufSpread:
		return "spread"
	case BufHotspot:
		return "hotspot"
	case BufInterleaved:
		return "interleaved"
	}
	return fmt.Sprintf("BufferMode(%d)", int(b))
}

// BufferModeFor maps a rank-0 memory policy to the segment placement it
// induces at MPI_Init time for the given implementation.
func BufferModeFor(impl *Impl, p mem.Policy) BufferMode {
	switch p {
	case mem.LocalAlloc, mem.Membind:
		if impl != nil && impl.HotspotUnderLocalAlloc {
			return BufHotspot
		}
		return BufSpread
	case mem.Interleave:
		return BufInterleaved
	default:
		return BufSpread
	}
}

// NetSpec models the inter-node interconnect of a cluster.
type NetSpec struct {
	Name string
	// Latency is the one-way network latency (s).
	Latency float64
	// Bandwidth is the per-NIC bandwidth (B/s).
	Bandwidth float64
	// Overhead is the per-message software cost of the network stack.
	Overhead float64
}

// RapidArray is the Cray XD1 fabric connecting Tiger's nodes.
func RapidArray() *NetSpec {
	return &NetSpec{Name: "RapidArray", Latency: 1.8e-6, Bandwidth: 2.0e9, Overhead: 1.0e-6}
}

// GigE is commodity gigabit Ethernet with a kernel TCP stack.
func GigE() *NetSpec {
	return &NetSpec{Name: "GigE", Latency: 25e-6, Bandwidth: 125e6, Overhead: 20e-6}
}

// Perturb is the fault injector's MPI-facing interface: the machine-level
// hooks plus the message- and rank-level perturbations only this layer can
// apply. internal/fault's Plan implements it; a nil injector keeps every
// run byte-identical to the unperturbed model.
type Perturb interface {
	machine.Perturb
	// SendDelay returns extra latency (seconds) injected into a message
	// from rank src to rank dst issued at simulated time now.
	SendDelay(src, dst int, now float64) float64
	// RankFactor returns the compute slowdown factor (>= 1) of a
	// straggler rank; 1 for unaffected ranks.
	RankFactor(rank int) float64
}

// Config describes one MPI job: the system, implementation profile, and
// per-rank placement.
type Config struct {
	Spec     *machine.Spec
	Impl     *Impl
	Bindings []affinity.Binding
	// Nodes builds a cluster of identical nodes; the Bindings describe
	// one node's layout and ranks are dealt to nodes in blocks
	// (rank i lives on node i / len(Bindings)). Zero or one means a
	// single node.
	Nodes int
	// Net is the inter-node interconnect (default RapidArray). Only
	// used when Nodes > 1.
	Net *NetSpec
	// BufMode overrides the segment placement; if unset (zero value
	// BufSpread) and Derive is true, it is derived from rank 0's policy.
	BufMode BufferMode
	// DeriveBufMode derives BufMode from rank 0's memory policy.
	DeriveBufMode bool
	// OSMigrationPeriod, when positive, models scheduler jitter on an
	// unbound run: every period one rank (round-robin) loses its cached
	// working set, as a migration or preemption would cause. Zero
	// disables it.
	OSMigrationPeriod float64
	Seed              int64
	// Trace, when non-nil, receives one span per accounted rank interval
	// (pid = rank, tid 0 = main process) plus resource-rate counters when
	// Observe is also set. Nil (the default) records nothing and keeps
	// the hot paths at a single pointer check.
	Trace *sim.Trace
	// Observe enables the engine's detailed observer: per-process state
	// times and per-resource used-rate timelines, snapshotted into
	// Result.Stats.
	Observe bool
	// Faults, when non-nil, injects deterministic perturbations (OS
	// noise, degraded links and controllers, straggler ranks, message
	// delays) into the run. Nil — the default — keeps the run
	// byte-identical to the idealized fault-free machine.
	Faults Perturb
}

// Result is what a finished job reports.
type Result struct {
	// Time is the job makespan in simulated seconds.
	Time float64
	// RankTimes holds each rank's finish time.
	RankTimes []float64
	// RankCompute holds each rank's accumulated compute seconds, and
	// RankMemBytes its DRAM traffic — together they break a rank's time
	// into compute, memory, and (by subtraction) communication/wait.
	RankCompute  []float64
	RankMemBytes []float64
	// Breakdown partitions each rank's wall time into compute, memory,
	// MPI wait, and copy; the categories sum to RankTimes[i].
	Breakdown []TimeBreakdown
	// Stats snapshots engine activity: event/flow/settle counters always,
	// plus per-process state times and per-resource used-rate timelines
	// when Config.Observe was set.
	Stats sim.Stats
	// Values holds per-rank reported metrics by key.
	Values map[string][]float64
	// Messages and Bytes count point-to-point traffic.
	Messages int
	Bytes    float64
	// Timeline holds the phase spans recorded via Rank.Phase, in
	// completion order.
	Timeline []PhaseSpan
	// Machine allows post-run inspection of resource utilization.
	Machine *machine.Machine
}

// Max returns the maximum reported value for key (0 if none).
func (r *Result) Max(key string) float64 {
	max := 0.0
	for _, v := range r.Values[key] {
		if v > max {
			max = v
		}
	}
	return max
}

// Mean returns the mean reported value for key (0 if none).
func (r *Result) Mean(key string) float64 {
	vs := r.Values[key]
	if len(vs) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range vs {
		sum += v
	}
	return sum / float64(len(vs))
}

// Sum returns the sum of reported values for key.
func (r *Result) Sum(key string) float64 {
	sum := 0.0
	for _, v := range r.Values[key] {
		sum += v
	}
	return sum
}

// World is the shared state of a running job.
type World struct {
	cfg      Config
	machines []*machine.Machine
	eng      *sim.Engine
	net      *NetSpec
	nics     [][2]*sim.Resource // per node: [egress, ingress]
	fabric   *sim.Resource
	ranks    []*Rank
	bufMode  BufferMode

	messages int
	bytes    float64

	values   map[string][]float64
	timeline []PhaseSpan
	trace    *sim.Trace

	// msgFree pools in-flight message descriptors (see newMessage).
	msgFree []*message

	// path is the scratch the protocols build flow paths in. Nothing
	// yields between building a path and starting its flow, which copies
	// it, so one buffer serves every rank and helper.
	path []*sim.Resource

	// Pre-formatted per-rank strings for the hot paths: wait-reason labels
	// and helper process names, so Recv loops and Isend/Irecv spawns do
	// not re-run fmt.Sprintf per call.
	recvLabels []string // "recv from <src>"
	rdvLabels  []string // "rendezvous to <dst>"
	isendNames []string // "rank<i>.isend"
	irecvNames []string // "rank<i>.irecv"

	finished int
	// endTime records when the last rank finished. With faults active the
	// capacity-window events scheduled by ApplyFaults may outlive the
	// workload, so the makespan is read from here instead of the engine
	// clock at queue drain.
	endTime float64

	// rankFactors caches the per-rank straggler slowdown (nil when no
	// fault plan is set, so the clean path costs one nil check).
	rankFactors []float64

	barrierGen   int
	barrierCount int
	barrierQ     sim.WaitQueue
}

// Run executes body as an SPMD program, one rank per binding, and returns
// the job result. Each run builds a fresh engine and machine, so results
// are reproducible and independent. A deadlocked workload panics; sweeps
// that must survive bad cells use RunContext instead.
func Run(cfg Config, body func(*Rank)) *Result {
	res, err := RunContext(context.Background(), cfg, body)
	if err != nil {
		panic(err)
	}
	return res
}

// RunFunc has Run's signature. Benchmark drivers (internal/kernels/imb,
// internal/hpcc) take one instead of calling Run, so a caller can route
// their engines through its own timeout, fault plan and tracing.
type RunFunc func(cfg Config, body func(*Rank)) *Result

// RunContext is Run with cancellation and structured failure: the run
// stops early when ctx is canceled or its deadline passes (returning
// *sim.CanceledError), and a deadlocked workload returns
// *sim.DeadlockError naming the blocked ranks and their wait labels
// instead of hanging or panicking. On error the returned Result is nil
// and every engine goroutine has been released.
func RunContext(ctx context.Context, cfg Config, body func(*Rank)) (*Result, error) {
	if cfg.Impl == nil {
		cfg.Impl = OpenMPI()
	}
	if len(cfg.Bindings) == 0 {
		panic("mpi: no rank bindings")
	}
	nodes := cfg.Nodes
	if nodes < 1 {
		nodes = 1
	}
	eng := sim.NewEngine()
	if cfg.Observe {
		eng.EnableObservation()
	}
	w := &World{cfg: cfg, eng: eng, values: map[string][]float64{}, trace: cfg.Trace}
	for nd := 0; nd < nodes; nd++ {
		m := machine.New(eng, cfg.Spec)
		m.ApplyFaults(cfg.Faults)
		w.machines = append(w.machines, m)
	}
	if nodes > 1 {
		w.net = cfg.Net
		if w.net == nil {
			w.net = RapidArray()
		}
		for nd := 0; nd < nodes; nd++ {
			w.nics = append(w.nics, [2]*sim.Resource{
				sim.NewResource(fmt.Sprintf("node%d/nic-out", nd), w.net.Bandwidth),
				sim.NewResource(fmt.Sprintf("node%d/nic-in", nd), w.net.Bandwidth),
			})
		}
		// Fabric bisection: half the aggregate NIC bandwidth.
		w.fabric = sim.NewResource("fabric", float64(nodes)*w.net.Bandwidth/2)
	}
	w.bufMode = cfg.BufMode
	if cfg.DeriveBufMode {
		w.bufMode = BufferModeFor(cfg.Impl, cfg.Bindings[0].MemPolicy)
	}
	perNode := len(cfg.Bindings)
	n := perNode * nodes
	res := &Result{
		RankTimes:    make([]float64, n),
		RankCompute:  make([]float64, n),
		RankMemBytes: make([]float64, n),
		Breakdown:    make([]TimeBreakdown, n),
		Machine:      w.machines[0],
	}
	w.recvLabels = make([]string, n)
	w.rdvLabels = make([]string, n)
	w.isendNames = make([]string, n)
	w.irecvNames = make([]string, n)
	for i := 0; i < n; i++ {
		w.recvLabels[i] = fmt.Sprintf("recv from %d", i)
		w.rdvLabels[i] = fmt.Sprintf("rendezvous to %d", i)
		w.isendNames[i] = fmt.Sprintf("rank%d.isend", i)
		w.irecvNames[i] = fmt.Sprintf("rank%d.irecv", i)
	}
	for i := 0; i < n; i++ {
		i := i
		b := cfg.Bindings[i%perNode]
		m := w.machines[i/perNode]
		r := &Rank{
			w:     w,
			id:    i,
			node:  i / perNode,
			mach:  m,
			bind:  b,
			bd:    &res.Breakdown[i],
			boxes: map[int]*mailbox{},
			rng:   rand.New(rand.NewSource(cfg.Seed*1000003 + int64(i))),
		}
		r.dist = b.Placement(cfg.Spec.Topo, cfg.Spec.Topo.NumSockets)
		r.home = homeNode(r.dist, cfg.Spec.Topo.SocketOf(b.Core))
		w.ranks = append(w.ranks, r)
		if w.trace != nil {
			w.trace.ProcessName(i, fmt.Sprintf("rank %d", i))
		}
		eng.Spawn(fmt.Sprintf("rank%d", i), func(p *sim.Proc) {
			r.proc = p
			r.cpu = m.CPU(p, b.Core)
			r.acct = p.Now()
			body(r)
			// Flush any residual interval so the categories sum to the
			// rank's wall time exactly.
			r.account(catCompute, "run-tail")
			res.RankTimes[i] = p.Now()
			res.RankCompute[i] = r.cpu.ComputeSeconds
			res.RankMemBytes[i] = r.cpu.MemBytes
			w.finished++
			if w.finished == n {
				w.endTime = p.Now()
			}
		})
	}
	if cfg.Faults != nil {
		w.rankFactors = make([]float64, n)
		for i := range w.rankFactors {
			w.rankFactors[i] = cfg.Faults.RankFactor(i)
		}
	}
	if cfg.OSMigrationPeriod > 0 {
		// Continuation-backed: the jitter source is a self-rescheduling
		// tick, not a call stack, so it costs no goroutine.
		eng.SpawnCont("os-scheduler", func(p *sim.Proc) {
			victim := 0
			var step func()
			step = func() {
				if w.finished >= n {
					return
				}
				p.SleepThen(cfg.OSMigrationPeriod, func() {
					// The migrated task loses its cache contents.
					v := w.ranks[victim%n]
					v.mach.Cache(v.bind.Core).Flush()
					victim++
					step()
				})
			}
			step()
		})
	}
	if err := eng.RunContext(ctx); err != nil {
		return nil, err
	}
	res.Time = eng.Now()
	if cfg.Faults != nil {
		// Trailing capacity-window events may have advanced the engine
		// clock past the workload; the makespan is the last rank's finish.
		res.Time = w.endTime
	}
	res.Values = w.values
	res.Timeline = w.timeline
	res.Messages = w.messages
	res.Bytes = w.bytes
	res.Stats = eng.Stats()
	if w.trace != nil && cfg.Observe {
		emitResourceCounters(w.trace, n, res.Stats.Resources)
	}
	return res, nil
}

// emitResourceCounters appends the observed per-resource used-rate
// timelines to the trace as counter tracks on a dedicated pid (one past
// the last rank), in GB/s so the viewer's axis stays readable.
func emitResourceCounters(tr *sim.Trace, pid int, resources []sim.ResourceStats) {
	tr.ProcessName(pid, "resources (GB/s)")
	for _, rs := range resources {
		for i, seg := range rs.Segments {
			tr.Counter(pid, rs.Name, seg.Start, seg.Rate/1e9)
			// Close the segment when the rate does not continue.
			if i+1 == len(rs.Segments) || rs.Segments[i+1].Start > seg.End {
				tr.Counter(pid, rs.Name, seg.End, 0)
			}
		}
	}
}

// homeNode is the node a rank's transient buffers live on: the node
// holding the largest share of its pages, with ties broken toward the
// rank's own socket (an interleaved policy spreads data pages but the
// staging buffers are faulted by the core itself).
func homeNode(d mem.Placement, own topology.SocketID) topology.SocketID {
	best, bi := -1.0, 0
	for i, f := range d {
		if f > best {
			best, bi = f, i
		}
	}
	if d[own] >= best-1e-9 {
		return own
	}
	return topology.SocketID(bi)
}

// bufNode returns the memory node of the segment used for src->dst
// messages of the given size.
func (w *World) bufNode(src, dst int, bytes float64) topology.SocketID {
	if w.bufMode == BufHotspot && w.cfg.Impl.PoolBytes > 0 && bytes > w.cfg.Impl.PoolBytes {
		// Oversized transfers stage through per-process buffers and
		// escape the mislocated pool.
		return w.ranks[src].home
	}
	switch w.bufMode {
	case BufHotspot:
		return w.ranks[0].home
	case BufInterleaved:
		n := w.cfg.Spec.Topo.NumSockets
		return topology.SocketID((src*len(w.ranks) + dst) % n)
	default:
		return w.ranks[src].home
	}
}

// Rank is one MPI process. All methods must be called from the rank's own
// body function (or a helper process created by Isend/Irecv).
type Rank struct {
	w    *World
	id   int
	node int
	mach *machine.Machine
	bind affinity.Binding
	proc *sim.Proc
	cpu  *machine.CPU
	dist mem.Placement
	home topology.SocketID
	rng  *rand.Rand

	// Time-attribution state (see breakdown.go): the breakdown being
	// filled, the last accounted timestamp, the CPU compute seconds at
	// that mark, and the trace thread id (0 = main, >= 1 = helpers).
	bd          *TimeBreakdown
	acct        float64
	acctCompute float64
	tid         int
	helpers     int

	// helperFree recycles finished Isend/Irecv helper clones when tracing
	// is off (with tracing on, every helper keeps a distinct thread id).
	helperFree []*helper

	// boxes holds one mailbox per peer that has sent to this rank.
	boxes map[int]*mailbox
}

// ID returns the rank number.
func (r *Rank) ID() int { return r.id }

// Size returns the number of ranks in the job.
func (r *Rank) Size() int { return len(r.w.ranks) }

// Now returns the current simulated time.
func (r *Rank) Now() float64 { return r.proc.Now() }

// CPU returns the rank's machine execution context.
func (r *Rank) CPU() *machine.CPU { return r.cpu }

// RNG returns the rank's deterministic random source.
func (r *Rank) RNG() *rand.Rand { return r.rng }

// Home returns the rank's primary memory node.
func (r *Rank) Home() topology.SocketID { return r.home }

// Machine returns the rank's node machine model.
func (r *Rank) Machine() *machine.Machine { return r.mach }

// Node returns the cluster node index hosting this rank.
func (r *Rank) Node() int { return r.node }

// Alloc creates a region placed according to this rank's binding policy.
func (r *Rank) Alloc(name string, bytes float64) *mem.Region {
	return r.cpu.Alloc(fmt.Sprintf("r%d/%s", r.id, name), bytes, r.dist)
}

// Compute advances the rank by a compute phase. A straggler rank (fault
// injection) computes at reduced effective efficiency, inflating the
// phase by its slowdown factor.
func (r *Rank) Compute(flops, eff float64) {
	if fs := r.w.rankFactors; fs != nil && fs[r.id] > 1 {
		eff /= fs[r.id]
	}
	r.cpu.Compute(flops, eff)
	r.account(catCompute, "compute")
}

// Access performs a memory access batch.
func (r *Rank) Access(a mem.Access) {
	r.cpu.Access(a)
	r.account(catMemory, a.Region.Name)
}

// Overlap runs compute concurrently with memory accesses.
func (r *Rank) Overlap(flops, eff float64, accesses ...mem.Access) {
	r.cpu.Overlap(flops, eff, accesses...)
	r.account(catMemory, "overlap")
}

// Report records a named metric for this rank (phase timings, bandwidth).
func (r *Rank) Report(key string, value float64) {
	r.w.values[key] = append(r.w.values[key], value)
}

// HybridOverlap splits a compute+memory phase across `threads` cores of
// the rank's socket, modeling an OpenMP parallel region inside the MPI
// rank — the hybrid programming model the paper's Section 3.4 proposes
// for multi-core nodes. The rank's own core runs the first share inline;
// sibling cores run theirs concurrently. Threads beyond the socket's core
// count are clamped.
func (r *Rank) HybridOverlap(threads int, flops, eff float64, accesses ...mem.Access) {
	topo := r.w.cfg.Spec.Topo
	cores := topo.CoresOn(topo.SocketOf(r.bind.Core))
	if threads > len(cores) {
		threads = len(cores)
	}
	if threads <= 1 {
		r.cpu.Overlap(flops, eff, accesses...)
		r.account(catMemory, "hybrid-overlap")
		return
	}
	share := func(frac float64) []mem.Access {
		out := make([]mem.Access, len(accesses))
		for i, a := range accesses {
			a.Bytes *= frac
			a.Touches *= frac
			out[i] = a
		}
		return out
	}
	frac := 1.0 / float64(threads)
	var done sim.WaitQueue
	pending := 0
	for t := 1; t < threads; t++ {
		core := cores[t]
		if core == r.bind.Core {
			core = cores[0]
		}
		pending++
		coreT := core
		r.w.eng.Spawn(fmt.Sprintf("rank%d.omp%d", r.id, t), func(p *sim.Proc) {
			cpu := r.mach.CPU(p, coreT)
			cpu.Overlap(flops*frac, eff, share(frac)...)
			pending--
			done.WakeAll(r.w.eng)
		})
	}
	r.cpu.Overlap(flops*frac, eff, share(frac)...)
	for pending > 0 {
		done.Wait(r.proc, "omp join")
	}
	r.account(catMemory, "hybrid-overlap")
}

// PhaseSpan is one recorded interval of a rank's timeline.
type PhaseSpan struct {
	Rank  int
	Name  string
	Start float64
	End   float64
}

// Phase runs fn and records its interval in the job's timeline, available
// afterwards as Result.Timeline. Phases may nest; spans are recorded in
// completion order.
func (r *Rank) Phase(name string, fn func()) {
	start := r.Now()
	fn()
	r.w.timeline = append(r.w.timeline, PhaseSpan{
		Rank: r.id, Name: name, Start: start, End: r.Now(),
	})
	if tr := r.w.trace; tr != nil {
		tr.Span(r.id, r.tid, name, "phase", start, r.Now()-start)
	}
}
