// Package imb implements the Intel MPI Benchmarks the paper uses to study
// intra-node communication (Section 3.4, Figures 14-17): PingPong,
// Exchange, and the HPCC-style ring latency/bandwidth probe.
package imb

import (
	"fmt"

	"multicore/internal/mem"
	"multicore/internal/mpi"
)

// Point is one measured benchmark point.
type Point struct {
	Bytes     float64 // message size
	Latency   float64 // one-way (PingPong) or per-operation (others) latency in seconds
	Bandwidth float64 // payload bandwidth in B/s per the IMB convention
}

func (p Point) String() string {
	return fmt.Sprintf("%.0fB lat=%.2fus bw=%.1fMB/s", p.Bytes, p.Latency*1e6, p.Bandwidth/1e6)
}

// PingPong measures the round-trip between ranks 0 and 1 of cfg. Any
// additional ranks are "parked": they exist (and perturb placement) but
// do not communicate, matching the paper's "2 procs, unbound, 2 parked"
// configuration. Reported latency is one-way; bandwidth is
// bytes/one-way-time. Like every benchmark here, it simulates through run
// (mpi.Run, or a caller's wrapper of it).
func PingPong(run mpi.RunFunc, cfg mpi.Config, bytes float64, iters int) Point {
	if len(cfg.Bindings) < 2 {
		panic("imb: PingPong needs at least 2 ranks")
	}
	if iters <= 0 {
		iters = 50
	}
	res := run(cfg, func(r *mpi.Rank) {
		switch r.ID() {
		case 0:
			touchScratch(r, bytes)
			r.Barrier()
			start := r.Now()
			for i := 0; i < iters; i++ {
				r.Send(1, bytes)
				r.Recv(1)
			}
			oneWay := (r.Now() - start) / float64(2*iters)
			r.Report("lat", oneWay)
		case 1:
			touchScratch(r, bytes)
			r.Barrier()
			for i := 0; i < iters; i++ {
				r.Recv(0)
				r.Send(0, bytes)
			}
		default:
			r.Barrier() // parked ranks still take part in startup sync
			park(r, bytes, iters)
		}
	})
	lat := res.Max("lat")
	return Point{Bytes: bytes, Latency: lat, Bandwidth: bytes / lat}
}

// Exchange measures the IMB Exchange pattern: every rank sends to both
// chain neighbours and receives from both each iteration. Reported
// bandwidth follows the IMB convention of 4x message size per iteration.
func Exchange(run mpi.RunFunc, cfg mpi.Config, bytes float64, iters int) Point {
	n := len(cfg.Bindings)
	if n < 2 {
		panic("imb: Exchange needs at least 2 ranks")
	}
	if iters <= 0 {
		iters = 50
	}
	res := run(cfg, func(r *mpi.Rank) {
		touchScratch(r, bytes)
		left := (r.ID() - 1 + n) % n
		right := (r.ID() + 1) % n
		r.Barrier()
		start := r.Now()
		for i := 0; i < iters; i++ {
			sl := r.Isend(left, bytes)
			sr := r.Isend(right, bytes)
			r.Recv(left)
			r.Recv(right)
			r.WaitAll(sl, sr)
		}
		per := (r.Now() - start) / float64(iters)
		r.Report("t", per)
	})
	per := res.Max("t")
	return Point{Bytes: bytes, Latency: per, Bandwidth: 4 * bytes / per}
}

// Ring measures a simultaneous ring shift across all ranks (the HPCC
// ring latency/bandwidth probe). Latency is per shift operation.
func Ring(run mpi.RunFunc, cfg mpi.Config, bytes float64, iters int) Point {
	n := len(cfg.Bindings)
	if n < 2 {
		panic("imb: Ring needs at least 2 ranks")
	}
	if iters <= 0 {
		iters = 50
	}
	res := run(cfg, func(r *mpi.Rank) {
		touchScratch(r, bytes)
		next := (r.ID() + 1) % n
		prev := (r.ID() - 1 + n) % n
		r.Barrier()
		start := r.Now()
		for i := 0; i < iters; i++ {
			r.Sendrecv(next, bytes, prev)
		}
		per := (r.Now() - start) / float64(iters)
		r.Report("t", per)
	})
	per := res.Max("t")
	return Point{Bytes: bytes, Latency: per, Bandwidth: bytes / per}
}

// touchScratch warms a small send/recv buffer so placement policies take
// effect before timing.
func touchScratch(r *mpi.Rank, bytes float64) {
	if bytes <= 0 {
		bytes = 64
	}
	buf := r.Alloc("imb.buf", bytes)
	r.Access(mem.Access{Region: buf, Pattern: mem.Stream, Bytes: bytes})
}

// park keeps a non-communicating rank mildly busy (polling loop touching
// its own memory), long enough to overlap the measured phase.
func park(r *mpi.Rank, bytes float64, iters int) {
	buf := r.Alloc("imb.park", 1<<20)
	for i := 0; i < iters/4+1; i++ {
		r.Access(mem.Access{Region: buf, Pattern: mem.Stream, Bytes: 1 << 20})
	}
}

// Sizes returns the standard IMB message-size sweep: powers of two from
// 1 B to max.
func Sizes(max float64) []float64 {
	var out []float64
	for b := 1.0; b <= max; b *= 2 {
		out = append(out, b)
	}
	return out
}

// CollectiveKind names an IMB collective benchmark.
type CollectiveKind int

// The IMB collective set used here.
const (
	CollAllreduce CollectiveKind = iota
	CollBcast
	CollAlltoall
)

func (k CollectiveKind) String() string {
	switch k {
	case CollAllreduce:
		return "Allreduce"
	case CollBcast:
		return "Bcast"
	case CollAlltoall:
		return "Alltoall"
	}
	return fmt.Sprintf("CollectiveKind(%d)", int(k))
}

// Collective measures one collective operation across all ranks of cfg:
// the reported latency is the mean period per operation at the slowest
// rank, matching the IMB convention.
func Collective(run mpi.RunFunc, cfg mpi.Config, kind CollectiveKind, bytes float64, iters int) Point {
	if len(cfg.Bindings) < 2 {
		panic("imb: collectives need at least 2 ranks")
	}
	if iters <= 0 {
		iters = 20
	}
	res := run(cfg, func(r *mpi.Rank) {
		touchScratch(r, bytes)
		r.Barrier()
		start := r.Now()
		for i := 0; i < iters; i++ {
			switch kind {
			case CollAllreduce:
				r.Allreduce(bytes)
			case CollBcast:
				r.Bcast(0, bytes)
			case CollAlltoall:
				r.Alltoall(bytes / float64(r.Size()))
			}
		}
		r.Report("t", (r.Now()-start)/float64(iters))
	})
	per := res.Max("t")
	return Point{Bytes: bytes, Latency: per, Bandwidth: bytes / per}
}
