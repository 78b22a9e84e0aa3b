package mpi

import (
	"runtime"
	"testing"

	"multicore/internal/affinity"
	"multicore/internal/machine"
)

// mallocsDuring counts heap allocations performed by fn.
func mallocsDuring(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// messageRing returns a ring workload that runs every message path iters
// times: eager and rendezvous Sendrecv, Isend/Irecv/WaitAll, blocking
// eager and rendezvous Send/Recv, and an Allreduce.
func messageRing(iters int) func(*Rank) {
	return func(r *Rank) {
		n := r.Size()
		right, left := (r.ID()+1)%n, (r.ID()+n-1)%n
		for i := 0; i < iters; i++ {
			r.Sendrecv(right, 4096, left)
			r.Sendrecv(right, 512*1024, left)
			req := r.Irecv(left)
			q := r.Isend(right, 64*1024)
			r.WaitAll(req, q)
			for _, bytes := range []float64{4096, 512 * 1024} {
				if r.ID()%2 == 0 {
					r.Send(right, bytes)
					r.Recv(left)
				} else {
					r.Recv(left)
					r.Send(right, bytes)
				}
			}
			r.Allreduce(8192)
		}
	}
}

// TestMessagePathAllocs: once pools and scratch are warm, the message path
// allocates only the *Request each nonblocking operation returns to its
// caller. Running the ring at N and 2N iterations cancels the fixed cost
// of building the world; the extra iterations may allocate at most one
// object per extra Isend/Irecv (each spawns one helper, counted by
// Stats.Spawns) and none per blocking message.
func TestMessagePathAllocs(t *testing.T) {
	const iters, slack = 100, 100
	spec := machine.Longs()
	bindings, err := affinity.Layout(affinity.Default, spec.Topo, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, nodes := range []int{1, 2} {
		cfg := Config{Spec: spec, Impl: MPICH2(), Bindings: bindings, Nodes: nodes}
		if nodes > 1 {
			cfg.Net = RapidArray()
		}
		run := func(iters int) (mallocs, requests uint64) {
			var res *Result
			mallocs = mallocsDuring(func() { res = Run(cfg, messageRing(iters)) })
			return mallocs, res.Stats.Spawns - uint64(len(bindings)*nodes)
		}
		run(iters) // warm package-level state outside the measurement
		a, reqA := run(iters)
		b, reqB := run(2 * iters)
		extra, extraReqs := b-a, reqB-reqA
		if extraReqs == 0 {
			t.Fatalf("%d node(s): the extra iterations made no nonblocking requests", nodes)
		}
		if extra > extraReqs+slack {
			t.Errorf("%d node(s): %d extra iterations allocated %d objects for %d nonblocking requests, want at most one per request",
				nodes, iters, extra, extraReqs)
		}
	}
}
