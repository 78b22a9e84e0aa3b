package hpcc

import (
	"testing"

	"multicore/internal/machine"
	"multicore/internal/mpi"
)

func findOpt(t *testing.T, name string) RuntimeOption {
	t.Helper()
	for _, o := range LongsOptions() {
		if o.Name == name {
			return o
		}
	}
	t.Fatalf("no option %q", name)
	return RuntimeOption{}
}

func TestOptionsList(t *testing.T) {
	opts := LongsOptions()
	if len(opts) != 6 {
		t.Fatalf("want 6 Longs options, got %d", len(opts))
	}
	names := map[string]bool{}
	for _, o := range opts {
		names[o.Name] = true
	}
	for _, want := range []string{"default", "SysV", "USysV", "localalloc", "interleave", "localalloc+USysV"} {
		if !names[want] {
			t.Fatalf("missing option %q", want)
		}
	}
}

func TestStarDGEMMMatchesSingle(t *testing.T) {
	// Paper Fig 9: Star and Single DGEMM are almost identical — the
	// second core effectively doubles per-socket throughput.
	spec := machine.Longs()
	opt := findOpt(t, "USysV")
	single := DGEMM(mpi.Run, spec, opt, false, 700)
	star := DGEMM(mpi.Run, spec, opt, true, 700)
	ratio := star / single
	if ratio < 0.9 || ratio > 1.05 {
		t.Fatalf("Star/Single DGEMM = %.3f, want ~1", ratio)
	}
}

func TestStarFFTSlightlyBelowSingle(t *testing.T) {
	spec := machine.Longs()
	opt := findOpt(t, "USysV")
	single := FFT(mpi.Run, spec, opt, false, 1<<20)
	star := FFT(mpi.Run, spec, opt, true, 1<<20)
	ratio := star / single
	if ratio < 0.55 || ratio >= 1.0 {
		t.Fatalf("Star/Single FFT = %.3f, want slightly under 1", ratio)
	}
}

func TestStarSTREAMWorseThanHalfSingle(t *testing.T) {
	// Paper Fig 10: Single:Star > 2:1 — engaging the second core loses
	// per-socket STREAM bandwidth.
	spec := machine.Longs()
	opt := findOpt(t, "localalloc")
	single := STREAM(mpi.Run, spec, opt, false)
	star := STREAM(mpi.Run, spec, opt, true)
	if star >= single/2 {
		t.Fatalf("Star per-core STREAM %.3f should be < half of Single %.3f", star, single)
	}
}

func TestStarRABetterThanHalfSingle(t *testing.T) {
	// Paper Fig 11: RandomAccess Single:Star < 2:1 — the second core is
	// a net gain for latency-bound access.
	spec := machine.Longs()
	opt := findOpt(t, "localalloc")
	single := RandomAccess(mpi.Run, spec, opt, RASingle)
	star := RandomAccess(mpi.Run, spec, opt, RAStar)
	if star <= single/2 {
		t.Fatalf("Star per-core RA %.4f should exceed half of Single %.4f", star, single)
	}
}

func TestMPIRandomAccessSysVCollapse(t *testing.T) {
	spec := machine.Longs()
	sysv := RandomAccess(mpi.Run, spec, findOpt(t, "SysV"), RAMPI)
	usysv := RandomAccess(mpi.Run, spec, findOpt(t, "USysV"), RAMPI)
	if sysv >= usysv {
		t.Fatalf("SysV MPI-RA %.4f should be below USysV %.4f", sysv, usysv)
	}
}

func TestHPLSublayerDominatesPlacement(t *testing.T) {
	// Paper Fig 8: the MPI sub-layer matters more than the placement
	// scheme for HPL.
	spec := machine.Longs()
	def := HPL(mpi.Run, spec, findOpt(t, "default"), 1536)
	sysv := HPL(mpi.Run, spec, findOpt(t, "SysV"), 1536)
	usysv := HPL(mpi.Run, spec, findOpt(t, "USysV"), 1536)
	inter := HPL(mpi.Run, spec, findOpt(t, "interleave"), 1536)
	subEffect := usysv - sysv
	placeEffect := def - inter
	if subEffect <= 0 {
		t.Fatalf("USysV HPL %.2f should beat SysV %.2f", usysv, sysv)
	}
	if subEffect < placeEffect {
		t.Fatalf("sub-layer effect (%.2f) should dominate placement effect (%.2f)", subEffect, placeEffect)
	}
}

func TestPTRANSLocalallocDegradesUSysV(t *testing.T) {
	// Paper Fig 12: localalloc+USysV is worse than USysV alone (segment
	// hotspot).
	spec := machine.Longs()
	usysv := PTRANS(mpi.Run, spec, findOpt(t, "USysV"), 1024)
	combo := PTRANS(mpi.Run, spec, findOpt(t, "localalloc+USysV"), 1024)
	if combo >= usysv {
		t.Fatalf("localalloc+USysV PTRANS %.3f should be below USysV %.3f", combo, usysv)
	}
}

func TestRingLatencyAboveQPingPong(t *testing.T) {
	spec := machine.Longs()
	opt := findOpt(t, "USysV")
	pp := PingPong(mpi.Run, spec, opt, 8)
	ring := Ring(mpi.Run, spec, opt, 8)
	if ring.Latency <= pp.Latency {
		t.Fatalf("ring latency %v should exceed pingpong %v", ring.Latency, pp.Latency)
	}
}

func TestDMZOptionRuns(t *testing.T) {
	spec := machine.DMZ()
	if gf := HPL(mpi.Run, spec, DMZOption(), 1024); gf <= 0 {
		t.Fatalf("DMZ HPL = %v", gf)
	}
}

func TestSingleDGEMMNearPeakOnLongs(t *testing.T) {
	spec := machine.Longs() // peak 3.6 GFlop/s per core
	gf := DGEMM(mpi.Run, spec, findOpt(t, "default"), false, 512)
	if gf < 2.8 || gf > 3.6 {
		t.Fatalf("Single DGEMM = %.2f GF, want near 3.17 (88%% of peak)", gf)
	}
}

func TestStreamOptionsOrdering(t *testing.T) {
	// Single-mode STREAM: localalloc beats interleave on Longs.
	spec := machine.Longs()
	local := STREAM(mpi.Run, spec, findOpt(t, "localalloc"), false)
	inter := STREAM(mpi.Run, spec, findOpt(t, "interleave"), false)
	if inter >= local {
		t.Fatalf("interleave Single STREAM %.2f should trail localalloc %.2f", inter, local)
	}
}

func TestRASingleUnaffectedBySublayer(t *testing.T) {
	// Non-MPI RandomAccess ignores the lock sub-layer entirely.
	spec := machine.Longs()
	a := RandomAccess(mpi.Run, spec, findOpt(t, "SysV"), RASingle)
	b := RandomAccess(mpi.Run, spec, findOpt(t, "USysV"), RASingle)
	if a != b {
		t.Fatalf("Single RA differs across sub-layers: %v vs %v", a, b)
	}
}
