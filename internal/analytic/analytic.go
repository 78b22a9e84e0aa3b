// Package analytic is the screening tier of the two-tier executor: a
// closed-form roofline + MPI cost model that prices a sweep cell in
// microseconds where the fluid simulation costs O(events). It consumes
// the same inputs as the simulator — machine.Spec rates, topology hop
// counts, affinity placements, and the per-workload analytic profiles
// from internal/workload — and returns estimated seconds plus a
// model-derived uncertainty band.
//
// The estimator is deliberately simple where the simulator is exact:
// per-rank compute time comes from an efficiency-weighted flop count
// against PeakFlops; memory time from a roofline over the per-socket
// memory-controller load implied by the placement scheme (with the
// simulator's single-stream prefetch ceiling and contention inflation
// reproduced in closed form); MPI time from per-pattern message counts
// priced with the MPICH2 software overheads and hop-dependent copy
// ceilings. Constant error per (workload family, system) is absorbed by
// calibration factors fitted against simulation results (calibrate.go);
// what the closed forms must get right is the shape across ranks and
// placement schemes.
//
// Everything is pure float math evaluated in a fixed order from layout
// aggregates cached per (system, ranks) row, so estimates are
// deterministic and byte-identical regardless of worker count, and a
// row on warm caches prices with zero heap allocations.
package analytic

import (
	"fmt"
	"math"
	"sync"

	"multicore/internal/affinity"
	"multicore/internal/machine"
	"multicore/internal/mpi"
	"multicore/internal/topology"
	"multicore/internal/workload"
)

// Estimate is the analytic prediction for one cell.
type Estimate struct {
	// Seconds is the estimated makespan (calibration factor applied).
	Seconds float64
	// Compute, Memory, and MPI are the per-rank component times before
	// calibration. Within each kernel phase compute overlaps memory
	// (max semantics, like the simulator's CPU.Overlap); Seconds is
	// factor * (sum over phases of max(compute, memory) + MPI).
	Compute float64
	Memory  float64
	MPI     float64
	// Uncertainty is the relative model uncertainty (0.15 = ±15%): the
	// workload family's base uncertainty widened by how far the cell
	// leans on the least-trusted model terms (remote placement,
	// communication share).
	Uncertainty float64
}

// layoutInfo caches the placement aggregates of one (system, ranks,
// scheme) triple. All fields are derived once from affinity.Layout plus
// the machine spec and shared by every workload priced on that layout.
type layoutInfo struct {
	// maxSockLoad is the hottest memory controller's load in units of
	// one rank's traffic (2.0 = two ranks' worth of bytes hit one MC).
	maxSockLoad float64
	// inflate is the closed-form contention inflation of stream volume
	// at the hottest controller: 1 + penalty (one rank alone) or
	// 1 + 3*penalty (the simulator's per-flow cap once several flows
	// share the controller).
	inflate float64
	// avgRT is the placement-weighted mean DRAM round trip (seconds); it
	// sets the prefetch-window stream ceiling, mirroring the simulator's
	// bytes-weighted batch window.
	avgRT float64
	// randPerTouch is the mean per-rank latency cost of one independent
	// line touch: because the simulator runs one flow per memory node
	// concurrently, a rank touching several nodes pays the slowest
	// per-node share, avg over ranks of max over nodes of frac*RT.
	randPerTouch float64
	// avgMemHops is the placement-weighted mean HT hops between a rank
	// and its memory pages (uncertainty term).
	avgMemHops float64
	// avgPairHops is the mean hop count over ordered rank pairs (used to
	// price tree/pairwise collectives); ringHops over ring neighbours.
	avgPairHops float64
	ringHops    float64

	// Per-core-class roofline inputs: the slowest placed core bounds an
	// SPMD phase, because phases synchronize. On homogeneous systems
	// every accessor returns the flat spec field, so these are the exact
	// values the pre-heterogeneous estimator used.
	minPeak    float64 // peak flop rate of the slowest placed core
	minIssueBW float64 // issue bandwidth of the narrowest placed core
	minCache   float64 // effective cache capacity of the smallest placed core
	minL2BW    float64 // cache-hit service rate of the slowest placed core
}

type profileKey struct {
	name, arg, class string
	steps, n         int
	ranks            int
}

type profileEntry struct {
	prof workload.Profile
	err  error
}

// machineInfo is one system's spec plus its layout rows: the layouts of
// each rank count, indexed by scheme, so a table row finds all of its
// placements with one map lookup.
type machineInfo struct {
	spec *machine.Spec
	rows map[int][]layoutSlot
}

// layoutSlot caches one layout: its aggregates, or the error that makes
// it unplaceable. Both nil means not yet computed.
type layoutSlot struct {
	li  *layoutInfo
	err error
}

// layout returns the cached layout of scheme in row, computing it on
// first use. Schemes outside affinity.Schemes are not cached; Layout
// reports them as errors.
func (m *machineInfo) layout(row []layoutSlot, ranks int, scheme affinity.Scheme) layoutSlot {
	if uint(scheme) >= uint(len(row)) {
		li, err := newLayoutInfo(m, ranks, scheme)
		return layoutSlot{li, err}
	}
	if sl := &row[scheme]; sl.li == nil && sl.err == nil {
		sl.li, sl.err = newLayoutInfo(m, ranks, scheme)
	}
	return row[scheme]
}

// Estimator prices sweep cells analytically. The zero value is not
// usable; construct with New. Safe for concurrent use.
type Estimator struct {
	impl *mpi.Impl

	mu       sync.Mutex
	machines map[string]*machineInfo
	profiles map[profileKey]*profileEntry
	factors  map[string]float64 // calibration class -> correction factor
}

// New returns an estimator pricing MPI traffic with the MPICH2 profile,
// matching the experiment pipeline's transport.
func New() *Estimator {
	return &Estimator{
		impl:     mpi.MPICH2(),
		machines: make(map[string]*machineInfo),
		profiles: make(map[profileKey]*profileEntry),
	}
}

// SetCalibration installs per-class correction factors (see Calibrate).
// A nil map clears calibration.
func (e *Estimator) SetCalibration(factors map[string]float64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.factors = factors
}

// Class returns the calibration class of a cell: workload family and
// system joined with "/". Correction factors are fitted per class.
func Class(family, system string) string { return family + "/" + system }

// Cell prices one sweep cell. It returns *affinity.ErrInfeasible when
// the scheme cannot place the ranks (matching the simulator's NA cells)
// and an error for unknown systems or workload families without an
// analytic profile (callers promote those to full simulation).
func (e *Estimator) Cell(spec workload.Spec, system string, ranks int, scheme affinity.Scheme) (Estimate, error) {
	var est [1]Estimate
	var errs [1]error
	e.Row(spec, system, ranks, []affinity.Scheme{scheme}, est[:], errs[:])
	return est[0], errs[0]
}

// Row prices one table row: spec on system at ranks under each of
// schemes, setting est[i] and errs[i] for schemes[i] exactly as Cell
// would. The row costs one lock and one machine, layout-row and profile
// lookup; on warm caches it does not allocate.
func (e *Estimator) Row(spec workload.Spec, system string, ranks int, schemes []affinity.Scheme, est []Estimate, errs []error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	m, ok := e.machines[system]
	if !ok {
		if s := machine.Lookup(system); s != nil {
			m = &machineInfo{spec: s, rows: make(map[int][]layoutSlot)}
		}
		e.machines[system] = m
	}
	if m == nil {
		err := fmt.Errorf("analytic: unknown system %q", system)
		for i := range schemes {
			est[i], errs[i] = Estimate{}, err
		}
		return
	}
	row, ok := m.rows[ranks]
	if !ok {
		row = make([]layoutSlot, len(affinity.Schemes))
		m.rows[ranks] = row
	}
	var pe *profileEntry // looked up at the row's first feasible layout
	factor := 1.0
	for i, scheme := range schemes {
		est[i], errs[i] = Estimate{}, nil
		sl := m.layout(row, ranks, scheme)
		if sl.err != nil {
			errs[i] = sl.err
			continue
		}
		if pe == nil {
			pk := profileKey{name: spec.Name, arg: spec.Arg, class: spec.Class, steps: spec.Steps, n: spec.N, ranks: ranks}
			if pe = e.profiles[pk]; pe == nil {
				prof, err := workload.ProfileFor(spec, ranks)
				pe = &profileEntry{prof: prof, err: err}
				e.profiles[pk] = pe
			}
			if f, ok := e.factors[Class(pe.prof.Family, system)]; ok && pe.err == nil {
				factor = f
			}
		}
		if pe.err != nil {
			errs[i] = pe.err
			continue
		}
		est[i] = e.price(m, sl.li, &pe.prof, ranks, factor)
	}
}

// newLayoutInfo computes the placement aggregates for one layout.
// Feasible rank counts are bounded by the core count (at most 16 on the
// paper systems), so the O(ranks^2) pair scan is trivial; infeasible
// layouts — the bulk of a million-cell grid — cost one Layout call.
func newLayoutInfo(m *machineInfo, ranks int, scheme affinity.Scheme) (*layoutInfo, error) {
	s := m.spec
	topo := s.Topo
	binds, err := affinity.Layout(scheme, topo, ranks)
	if err != nil {
		return nil, err
	}
	n := topo.NumSockets
	sockLoad := make([]float64, n)
	sockRanks := make([]int, n) // ranks with traffic at each node
	socks := make([]topology.SocketID, len(binds))
	var sumMemHops, sumRT, sumMaxShare float64
	li := &layoutInfo{}
	for i, b := range binds {
		home := topo.SocketOf(b.Core)
		socks[i] = home
		if peak := s.PeakFlopsOn(b.Core); i == 0 || peak < li.minPeak {
			li.minPeak = peak
		}
		if bw := s.IssueBWOn(b.Core); i == 0 || bw < li.minIssueBW {
			li.minIssueBW = bw
		}
		if cb := s.CacheBytesOn(b.Core); i == 0 || cb < li.minCache {
			li.minCache = cb
		}
		if l2 := s.L2BandwidthOn(b.Core); i == 0 || l2 < li.minL2BW {
			li.minL2BW = l2
		}
		dist := b.Placement(topo, n)
		maxShare := 0.0
		for node, frac := range dist {
			if frac == 0 {
				continue
			}
			sockLoad[node] += frac
			sockRanks[node]++
			hops := float64(topo.Hops(home, topology.SocketID(node)))
			rt := s.NodeRoundTrip(home, topology.SocketID(node))
			sumMemHops += frac * hops
			sumRT += frac * rt
			// One flow per memory node runs concurrently; the rank waits
			// for the slowest node's share of its touches.
			maxShare = math.Max(maxShare, frac*rt)
		}
		sumMaxShare += maxShare
	}
	li.avgMemHops = sumMemHops / float64(ranks)
	li.avgRT = sumRT / float64(ranks)
	li.randPerTouch = sumMaxShare / float64(ranks)
	hot := 0
	for node, l := range sockLoad {
		if l > sockLoad[hot] {
			hot = node
		}
		li.maxSockLoad = math.Max(li.maxSockLoad, l)
	}
	// Stream flows inflate their volume by the simulator's per-flow
	// contention term 1 + penalty*min(activeFlows, 3): a lone rank sees
	// only itself; once several ranks' flows meet at the controller the
	// term saturates at the cap.
	li.inflate = 1 + s.ContentionPenalty
	if sockRanks[hot] > 1 {
		li.inflate = 1 + 3*s.ContentionPenalty
	}
	if ranks > 1 {
		var pairSum, ringSum float64
		for i := range socks {
			for j := range socks {
				if i != j {
					pairSum += float64(topo.Hops(socks[i], socks[j]))
				}
			}
			ringSum += float64(topo.Hops(socks[i], socks[(i+1)%ranks]))
		}
		li.avgPairHops = pairSum / float64(ranks*(ranks-1))
		li.ringHops = ringSum / float64(ranks)
	}
	return li, nil
}

// price evaluates the roofline + MPI closed forms. Pure float math in a
// fixed order: no allocation, no map iteration, no time source.
func (e *Estimator) price(m *machineInfo, li *layoutInfo, pr *workload.Profile, ranks int, factor float64) Estimate {
	s := m.spec
	mlp := math.Max(1, s.MLPRandom)

	// The single-stream rate is the lesser of the issue port and the
	// prefetch window implied by the placement's mean round trip.
	singleRate := li.minIssueBW
	if s.PrefetchDepth > 0 && li.avgRT > 0 {
		singleRate = math.Min(singleRate, s.PrefetchDepth*s.LineBytes/li.avgRT)
	}

	// Each phase overlaps compute with its memory flows, like the
	// simulator's CPU.Overlap: DRAM streams and latency-bound misses
	// proceed concurrently with the compute sleep, while L2 hit service
	// is serial with compute. Phases sum.
	var tComp, tMem, tKernel float64
	for i := range pr.Phases {
		ph := &pr.Phases[i]

		// Stream traffic: a cache-resident hot set serves everything
		// past one cold fill from L2.
		dram, hitBytes := ph.StreamBytes, 0.0
		if ph.StreamWS > 0 && ph.StreamWS <= li.minCache {
			dram = math.Min(ph.StreamWS, ph.StreamBytes)
			hitBytes = ph.StreamBytes - dram
		}
		rate := singleRate
		if ph.StreamCeiling > 0 {
			rate = math.Min(rate, ph.StreamCeiling)
		}
		tStream := dram * li.inflate * math.Max(li.maxSockLoad/s.MCBandwidth, 1/rate)

		// Latency-bound touches: the cache-resident fraction of the
		// touched region hits in L2 at 8 bytes a touch; misses pay the
		// concurrent per-node round trip.
		missFrac := 1.0
		if ph.TouchWS > 0 {
			missFrac = 1 - math.Min(1, li.minCache/ph.TouchWS)
		}
		tTouch := (ph.RandomTouches/mlp + ph.ChaseTouches) * missFrac * li.randPerTouch
		hitTime := hitBytes/li.minL2BW +
			(ph.RandomTouches+ph.ChaseTouches)*(1-missFrac)*8/li.minL2BW

		c := ph.EffFlops/li.minPeak + hitTime
		mem := math.Max(tStream, tTouch)
		tComp += c
		tMem += mem
		tKernel += math.Max(c, mem)
	}

	// Latency-probe sweep (lmbench): per size, a warm-up pass misses on
	// every touch and the measured pass misses on the non-resident
	// fraction; hits are pipelined 8-byte L2 reads.
	if len(pr.ChaseSweep) > 0 {
		for _, size := range pr.ChaseSweep {
			missFrac := 1 - math.Min(1, li.minCache/size)
			warm := pr.ChaseSweepTouches * li.randPerTouch
			measured := math.Max(
				pr.ChaseSweepTouches*missFrac*li.randPerTouch,
				pr.ChaseSweepTouches*(1-missFrac)*8/li.minL2BW)
			tMem += warm + measured
			tKernel += warm + measured
		}
	}

	// MPI time from the pattern mix.
	var tMPI float64
	if ranks > 1 {
		for i := range pr.Exchanges {
			tMPI += e.exchangeTime(m, li, &pr.Exchanges[i], ranks)
		}
	}

	t := tKernel + tMPI

	// Uncertainty: family base, widened by remote placement (the least
	// calibrated memory term) and by the communication share.
	unc := pr.Uncertainty + 0.05*li.avgMemHops
	if t > 0 {
		unc += 0.15 * (tMPI / t)
	}
	return Estimate{
		Seconds:     factor * t,
		Compute:     tComp,
		Memory:      tMem,
		MPI:         tMPI,
		Uncertainty: math.Min(unc, 0.95),
	}
}

// msgTime prices one point-to-point message of the transport: software
// overhead, hop latency, segment locking, and the copy through the
// shared buffer (eager double copy below the threshold, rendezvous
// handshake above), with the hop-dependent copy ceiling applied. On
// chiplet sockets the copy crosses the on-package fabric, adding its
// latency and bounding the copy rate; monolithic machines skip both
// terms unchanged.
func (e *Estimator) msgTime(m *machineInfo, li *layoutInfo, bytes, hops float64) float64 {
	s, im := m.spec, e.impl
	t := im.Overhead + im.Sub.LockLatency + im.Sub.WakeLatency + hops*s.HopLatency
	if s.Topo.NumDies() > 1 {
		t += s.FabricLatency
	}
	if bytes <= 0 {
		return t
	}
	if bytes > im.SegmentBytes {
		segs := math.Ceil(bytes / im.SegmentBytes)
		t += (segs - 1) * (im.Sub.LockLatency + im.Sub.WakeLatency) / 2
	}
	copyBW := math.Min(li.minIssueBW, s.MCBandwidth) * im.CopyEfficiency
	if s.Topo.NumDies() > 1 {
		copyBW = math.Min(copyBW, s.FabricBandwidth*im.CopyEfficiency)
	}
	if hops > 0 {
		copyBW = math.Min(copyBW, s.CopyCeiling(int(math.Ceil(hops)))*im.CopyEfficiency)
	}
	if bytes > im.EagerThreshold {
		t += im.RendezvousOverhead + bytes/copyBW
	} else {
		t += 2 * bytes / copyBW
	}
	return t
}

// Collective algorithm switch points, matching internal/mpi/collalg.go.
const (
	bcastLargeThreshold     = 128 * 1024
	allreduceLargeThreshold = 256 * 1024
)

func (e *Estimator) exchangeTime(m *machineInfo, li *layoutInfo, ex *workload.Exchange, ranks int) float64 {
	n := float64(ranks)
	rounds := math.Ceil(math.Log2(n))
	reduceRate := 0.5 * li.minPeak // combine loops run at half peak
	var per float64
	switch ex.Pattern {
	case workload.CommBarrier:
		per = rounds * e.msgTime(m, li, 8, li.avgPairHops)
	case workload.CommP2P:
		per = e.msgTime(m, li, ex.Bytes, li.avgPairHops)
	case workload.CommRing:
		per = e.msgTime(m, li, ex.Bytes, li.ringHops)
	case workload.CommAlltoall:
		per = (n - 1) * e.msgTime(m, li, ex.Bytes, li.avgPairHops)
	case workload.CommAllgather:
		per = (n - 1) * e.msgTime(m, li, ex.Bytes, li.ringHops)
	case workload.CommAllreduce:
		if ex.Bytes > allreduceLargeThreshold {
			piece := ex.Bytes / n
			per = 2*(n-1)*e.msgTime(m, li, piece, li.ringHops) + (n-1)*(piece/8)/reduceRate
		} else {
			per = rounds * (e.msgTime(m, li, ex.Bytes, li.avgPairHops) + (ex.Bytes/8)/reduceRate)
		}
	case workload.CommBcast:
		if ex.Bytes > bcastLargeThreshold {
			per = 2 * (n - 1) * e.msgTime(m, li, ex.Bytes/n, li.ringHops)
		} else {
			per = rounds * e.msgTime(m, li, ex.Bytes, li.avgPairHops)
		}
	}
	return ex.Count * per
}
