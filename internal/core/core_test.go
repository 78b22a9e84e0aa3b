package core

import (
	"errors"
	"testing"

	"multicore/internal/affinity"
	"multicore/internal/kernels/stream"
	"multicore/internal/machine"
	"multicore/internal/mpi"
	"multicore/internal/units"
)

func TestRunByName(t *testing.T) {
	for _, sys := range []string{"tiger", "dmz", "longs"} {
		res, err := Run(Job{System: sys, Ranks: 2}, func(r *mpi.Rank) {
			r.Compute(1e6, 1)
		})
		if err != nil {
			t.Fatalf("%s: %v", sys, err)
		}
		if res.Time <= 0 {
			t.Fatalf("%s: no time elapsed", sys)
		}
	}
}

func TestRunUnknownSystem(t *testing.T) {
	if _, err := Run(Job{System: "cray-1", Ranks: 1}, func(*mpi.Rank) {}); err == nil {
		t.Fatal("expected error for unknown system")
	}
}

func TestRunCustomSpec(t *testing.T) {
	spec := machine.DMZ()
	res, err := Run(Job{Spec: spec, Ranks: 4}, func(r *mpi.Rank) {
		r.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.RankTimes) != 4 {
		t.Fatalf("rank times = %v", res.RankTimes)
	}
}

func TestRunInfeasibleScheme(t *testing.T) {
	_, err := Run(Job{System: "longs", Ranks: 16, Scheme: affinity.OneMPILocalAlloc},
		func(*mpi.Rank) {})
	var inf *affinity.ErrInfeasible
	if !errors.As(err, &inf) {
		t.Fatalf("want ErrInfeasible, got %v", err)
	}
}

func TestRunZeroRanks(t *testing.T) {
	if _, err := Run(Job{System: "dmz"}, func(*mpi.Rank) {}); err == nil {
		t.Fatal("expected error for zero ranks")
	}
}

func TestBufModeOverride(t *testing.T) {
	hot := mpi.BufHotspot
	res, err := Run(Job{System: "dmz", Ranks: 2, BufMode: &hot}, func(r *mpi.Rank) {
		if r.ID() == 0 {
			r.Send(1, 4*units.KB)
		} else {
			r.Recv(0)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Messages != 1 {
		t.Fatalf("messages = %d", res.Messages)
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	run := func() float64 {
		res, err := Run(Job{System: "longs", Ranks: 8, Scheme: affinity.Interleave},
			func(r *mpi.Rank) {
				stream.RunTriad(r, stream.Params{VectorBytes: 4 * units.MB, Iters: 1})
				r.Allreduce(1024)
			})
		if err != nil {
			t.Fatal(err)
		}
		return res.Time
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("nondeterministic: %v vs %v", a, b)
	}
}

func TestClusterJobScalesAcrossNodes(t *testing.T) {
	body := func(r *mpi.Rank) {
		r.Compute(1e8/float64(r.Size()), 1)
		r.Allreduce(8)
	}
	res1, err := Run(Job{System: "dmz", Ranks: 4}, body)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := Run(Job{System: "dmz", Ranks: 4, Nodes: 2, Net: mpi.RapidArray()}, body)
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.RankTimes) != 8 {
		t.Fatalf("cluster ranks = %d, want 8", len(res2.RankTimes))
	}
	if res2.Time >= res1.Time {
		t.Fatalf("2 nodes (%v) should beat 1 node (%v) on parallel compute", res2.Time, res1.Time)
	}
}
