package imb

import (
	"testing"

	"multicore/internal/affinity"
	"multicore/internal/machine"
	"multicore/internal/mem"
	"multicore/internal/mpi"
	"multicore/internal/topology"
	"multicore/internal/units"
)

func cfgOn(spec *machine.Spec, impl *mpi.Impl, cores ...int) mpi.Config {
	b := make([]affinity.Binding, len(cores))
	for i, c := range cores {
		b[i] = affinity.Binding{Core: topology.CoreID(c), MemPolicy: mem.LocalAlloc}
	}
	return mpi.Config{Spec: spec, Impl: impl, Bindings: b}
}

func TestPingPongLatencyMonotoneInSize(t *testing.T) {
	cfg := cfgOn(machine.DMZ(), mpi.OpenMPI(), 0, 2)
	prev := 0.0
	for _, size := range []float64{64, 4096, 262144, 4 << 20} {
		pt := PingPong(mpi.Run, cfg, size, 10)
		if pt.Latency <= prev {
			t.Fatalf("latency not monotone at %v bytes: %v <= %v", size, pt.Latency, prev)
		}
		prev = pt.Latency
	}
}

func TestPingPongBandwidthSaturates(t *testing.T) {
	cfg := cfgOn(machine.DMZ(), mpi.MPICH2(), 0, 2)
	small := PingPong(mpi.Run, cfg, 64, 10)
	large := PingPong(mpi.Run, cfg, 4<<20, 5)
	if large.Bandwidth < 20*small.Bandwidth {
		t.Fatalf("large-message bandwidth %s should dwarf small-message %s",
			units.Rate(large.Bandwidth), units.Rate(small.Bandwidth))
	}
	// Shared-memory double copy: bandwidth well below memory bandwidth.
	if large.Bandwidth > 3*units.Giga {
		t.Fatalf("PingPong bandwidth %s implausibly high", units.Rate(large.Bandwidth))
	}
}

func TestBoundBeatsUnboundSplit(t *testing.T) {
	// Paper Fig 16: binding both processes to one dual-core socket gives
	// ~10-13% more bandwidth than placing them on different sockets.
	spec := machine.DMZ()
	same := PingPong(mpi.Run, cfgOn(spec, mpi.OpenMPI(), 0, 1), 1<<20, 10)
	split := PingPong(mpi.Run, cfgOn(spec, mpi.OpenMPI(), 0, 2), 1<<20, 10)
	gain := same.Bandwidth / split.Bandwidth
	if gain < 1.02 || gain > 1.6 {
		t.Fatalf("intra-socket gain = %.2fx (same=%s split=%s), want ~1.1x",
			gain, units.Rate(same.Bandwidth), units.Rate(split.Bandwidth))
	}
}

func TestParkedProcessesDoNotBreakPingPong(t *testing.T) {
	spec := machine.DMZ()
	pt := PingPong(mpi.Run, cfgOn(spec, mpi.OpenMPI(), 0, 2, 1, 3), 64<<10, 8)
	if pt.Latency <= 0 || pt.Bandwidth <= 0 {
		t.Fatalf("parked run produced %v", pt)
	}
}

func TestExchangeSlowerThanPingPong(t *testing.T) {
	spec := machine.DMZ()
	pp := PingPong(mpi.Run, cfgOn(spec, mpi.OpenMPI(), 0, 2), 64<<10, 10)
	ex := Exchange(mpi.Run, cfgOn(spec, mpi.OpenMPI(), 0, 1, 2, 3), 64<<10, 10)
	// Exchange moves 4 messages per rank per iteration; its period must
	// exceed a single one-way time.
	if ex.Latency <= pp.Latency {
		t.Fatalf("exchange period %v should exceed pingpong one-way %v", ex.Latency, pp.Latency)
	}
}

func TestRingLatencyExceedsPingPong(t *testing.T) {
	// Paper Fig 13: ring latencies are higher than PingPong latencies.
	spec := machine.Longs()
	impl := mpi.LAM().WithSublayer(mpi.USysV())
	pp := PingPong(mpi.Run, cfgOn(spec, impl, 0, 2), 1024, 20)
	ring := Ring(mpi.Run, cfgOn(spec, impl, 0, 2, 4, 6, 8, 10, 12, 14), 1024, 20)
	if ring.Latency <= pp.Latency {
		t.Fatalf("ring latency %v should exceed pingpong %v", ring.Latency, pp.Latency)
	}
}

func TestSysVDominatesSmallMessageLatency(t *testing.T) {
	spec := machine.Longs()
	sysv := PingPong(mpi.Run, cfgOn(spec, mpi.LAM().WithSublayer(mpi.SysV()), 0, 2), 8, 20)
	usysv := PingPong(mpi.Run, cfgOn(spec, mpi.LAM().WithSublayer(mpi.USysV()), 0, 2), 8, 20)
	if sysv.Latency < 5*usysv.Latency {
		t.Fatalf("SysV latency %v should dwarf USysV %v", sysv.Latency, usysv.Latency)
	}
}

func TestSizesSweep(t *testing.T) {
	s := Sizes(1 << 20)
	if len(s) != 21 || s[0] != 1 || s[len(s)-1] != 1<<20 {
		t.Fatalf("sizes = %v", s)
	}
}

func TestMPIImplCrossover(t *testing.T) {
	// Paper Fig 14: LAM wins small messages, MPICH2 wins large ones.
	spec := machine.DMZ()
	small := 256.0
	large := float64(4 * units.MB)
	lamS := PingPong(mpi.Run, cfgOn(spec, mpi.LAM(), 0, 2), small, 20)
	mpichS := PingPong(mpi.Run, cfgOn(spec, mpi.MPICH2(), 0, 2), small, 20)
	if lamS.Latency >= mpichS.Latency {
		t.Fatalf("LAM small-message latency %v should beat MPICH2 %v", lamS.Latency, mpichS.Latency)
	}
	lamL := PingPong(mpi.Run, cfgOn(spec, mpi.LAM(), 0, 2), large, 5)
	mpichL := PingPong(mpi.Run, cfgOn(spec, mpi.MPICH2(), 0, 2), large, 5)
	if mpichL.Bandwidth <= lamL.Bandwidth {
		t.Fatalf("MPICH2 large-message bandwidth %s should beat LAM %s",
			units.Rate(mpichL.Bandwidth), units.Rate(lamL.Bandwidth))
	}
}

func TestCollectiveLatencyGrowsWithSize(t *testing.T) {
	cfg := cfgOn(machine.Longs(), mpi.MPICH2(), 0, 2, 4, 6, 8, 10, 12, 14)
	for _, kind := range []CollectiveKind{CollAllreduce, CollBcast, CollAlltoall} {
		small := Collective(mpi.Run, cfg, kind, 64, 5)
		large := Collective(mpi.Run, cfg, kind, 1<<20, 5)
		if large.Latency <= small.Latency {
			t.Fatalf("%v: large payload (%v) not slower than small (%v)",
				kind, large.Latency, small.Latency)
		}
	}
}

func TestCollectiveKindString(t *testing.T) {
	if CollAllreduce.String() != "Allreduce" || CollBcast.String() != "Bcast" || CollAlltoall.String() != "Alltoall" {
		t.Fatal("collective names wrong")
	}
}

func TestAlltoallCostliestAtScale(t *testing.T) {
	// Alltoall moves n-1 messages per rank; for equal total payload it
	// must cost at least as much as a bcast.
	cfg := cfgOn(machine.Longs(), mpi.MPICH2(), 0, 2, 4, 6, 8, 10, 12, 14)
	a2a := Collective(mpi.Run, cfg, CollAlltoall, 1<<20, 5)
	bc := Collective(mpi.Run, cfg, CollBcast, 1<<20, 5)
	if a2a.Latency < bc.Latency/4 {
		t.Fatalf("alltoall (%v) implausibly cheap vs bcast (%v)", a2a.Latency, bc.Latency)
	}
}

func TestCollectiveAcrossClusterNodes(t *testing.T) {
	cfg := cfgOn(machine.DMZ(), mpi.MPICH2(), 0, 2)
	cfg.Nodes = 2
	cfg.Net = mpi.RapidArray()
	pt := Collective(mpi.Run, cfg, CollAllreduce, 4096, 10)
	// Crossing nodes adds network latency on top of the shm path.
	intra := Collective(mpi.Run, cfgOn(machine.DMZ(), mpi.MPICH2(), 0, 2), CollAllreduce, 4096, 10)
	if pt.Latency <= intra.Latency {
		t.Fatalf("cluster allreduce (%v) should exceed intra-node (%v)", pt.Latency, intra.Latency)
	}
}
