// Command mcrun executes a single workload on a simulated system with an
// explicit placement configuration — the equivalent of the paper's
// `numactl ... mpirun -np N <benchmark>` invocations.
//
// Usage:
//
//	mcrun -system longs -ranks 8 -scheme localalloc -impl mpich2 -workload cg
//
// Workloads are resolved through the internal/workload registry: stream,
// daxpy, dgemm, fft, ra, ptrans, hpl, cg, ft, ep, mg, lmbench,
// amber:<bench>, lammps:<lj|chain|eam>, pop.
//
// The run is cancellable (SIGINT/SIGTERM) and optionally bounded by
// -timeout; a deadlocked workload reports the blocked ranks and exits
// instead of hanging. With -faults a deterministic perturbation plan
// (OS noise, degraded links/memory controllers, stragglers, message
// delays — see internal/fault) is injected into the run, seeded by
// -fault-seed; -retries re-attempts runs that fail transiently.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"multicore/internal/affinity"
	"multicore/internal/core"
	"multicore/internal/fault"
	"multicore/internal/mpi"
	"multicore/internal/report"
	"multicore/internal/sim"
	"multicore/internal/units"
	"multicore/internal/workload"
)

func impls(name string) *mpi.Impl {
	switch name {
	case "mpich2":
		return mpi.MPICH2()
	case "lam":
		return mpi.LAM()
	case "lam-sysv":
		return mpi.LAM().WithSublayer(mpi.SysV())
	case "lam-usysv":
		return mpi.LAM().WithSublayer(mpi.USysV())
	case "openmpi":
		return mpi.OpenMPI()
	}
	return nil
}

func main() {
	system := flag.String("system", "dmz", "system: a registered machine (tiger, dmz, longs, hybrid16, epyc2x4, ...) or @FILE for a spec file")
	ranks := flag.Int("ranks", 2, "MPI task count")
	scheme := flag.String("scheme", "default", "placement: default, localalloc, membind, 2mpi-localalloc, 2mpi-membind, interleave")
	impl := flag.String("impl", "mpich2", "MPI profile: mpich2, lam, lam-sysv, lam-usysv, openmpi")
	workloadName := flag.String("workload", "stream", "workload (see doc comment)")
	class := flag.String("class", "", "NPB problem class override (A, B, W)")
	steps := flag.Int("steps", 0, "MD/time-step count override for amber, lammps, pop")
	size := flag.Int("n", 0, "problem-size override for daxpy, dgemm, fft, ptrans, hpl")
	timeout := flag.Duration("timeout", 0, "wall-clock budget for the run (0 = unbounded), e.g. 30s")
	util := flag.Bool("util", false, "print per-resource utilization after the run")
	phases := flag.Bool("phases", false, "print the recorded phase timeline")
	trace := flag.String("trace", "", "write a Chrome trace-event JSON file (view in Perfetto)")
	breakdown := flag.Bool("breakdown", false, "print the per-rank time breakdown table")
	stats := flag.Bool("stats", false, "print engine stats (event/flow counters, per-process state times)")
	nodes := flag.Int("nodes", 1, "number of cluster nodes (ranks are per node)")
	netName := flag.String("net", "rapidarray", "inter-node fabric: rapidarray or gige")
	faults := flag.String("faults", "", `deterministic fault plan, e.g. "noise:core=3,period=1ms,frac=0.1;linkdown:s0-s1,t=2ms..5ms"`)
	faultSeed := flag.Int64("fault-seed", 1, "seed for the fault plan's random draws")
	retries := flag.Int("retries", 0, "re-attempts when the run fails with a transient fault (0 = no retry)")
	flag.Parse()

	sch, err := affinity.ParseScheme(*scheme)
	if err != nil {
		fatalf("%v", err)
	}
	im := impls(*impl)
	if im == nil {
		fatalf("unknown impl %q", *impl)
	}

	spec, err := workload.ParseSpec(*workloadName)
	if err != nil {
		fatalf("%v", err)
	}
	spec.Class = *class
	spec.Steps = *steps
	spec.N = *size
	wl, err := workload.New(spec)
	if err != nil {
		fatalf("%v", err)
	}

	var net *mpi.NetSpec
	switch *netName {
	case "rapidarray":
		net = mpi.RapidArray()
	case "gige":
		net = mpi.GigE()
	default:
		fatalf("unknown net %q", *netName)
	}
	job := core.Job{
		System:  *system,
		Ranks:   *ranks,
		Scheme:  sch,
		Impl:    im,
		Nodes:   *nodes,
		Net:     net,
		Observe: *stats || *trace != "",
	}
	if *trace != "" {
		job.Trace = &sim.Trace{}
	}
	var plan *fault.Plan
	if *faults != "" {
		plan, err = fault.Parse(*faults, *faultSeed)
		if err != nil {
			fatalf("%v", err)
		}
		job.Faults = plan
	}
	if *retries < 0 {
		fatalf("-retries must be non-negative")
	}
	if *nodes < 1 {
		fatalf("-nodes must be at least 1")
	}
	if *timeout < 0 {
		fatalf("-timeout must be non-negative (0 = unbounded)")
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	// Retry loop: only transient failures (injected by the fault plan) are
	// re-attempted; deterministic failures repeat identically and surface
	// immediately. Each attempt sees fresh, seeded fault draws.
	cell := fmt.Sprintf("%s/%s/r%d/%s", spec, *system, *ranks, *scheme)
	var res *mpi.Result
	for attempt := 0; ; attempt++ {
		if *trace != "" {
			job.Trace = &sim.Trace{} // don't accumulate spans across attempts
		}
		if plan != nil {
			err = plan.CellError(cell, attempt)
		}
		if err == nil {
			res, err = core.RunContext(ctx, job, wl.Body)
		}
		if err == nil || !fault.IsTransient(err) || attempt >= *retries || ctx.Err() != nil {
			break
		}
		fmt.Fprintf(os.Stderr, "mcrun: attempt %d/%d failed transiently: %v (retrying)\n",
			attempt+1, *retries+1, err)
	}
	if err != nil {
		var dl *sim.DeadlockError
		if errors.As(err, &dl) {
			fmt.Fprintf(os.Stderr, "mcrun: deadlock at t=%s: %d processes blocked forever:\n",
				units.Duration(dl.Time), dl.Live)
			for _, p := range dl.Blocked {
				fmt.Fprintf(os.Stderr, "  %-16s waiting on %s\n", p.Name, p.Wait)
			}
			os.Exit(1)
		}
		var ce *sim.CanceledError
		if errors.As(err, &ce) {
			fatalf("run aborted at simulated t=%s: %v", units.Duration(ce.Time), ce.Cause)
		}
		if fault.IsTransient(err) {
			fatalf("run failed transiently after %d attempt(s): %v", *retries+1, err)
		}
		fatalf("%v", err)
	}

	if *nodes > 1 {
		fmt.Printf("%s on %d x %s (%s), %d ranks/node, %s, %s\n",
			spec, *nodes, *system, net.Name, *ranks, *scheme, im.Name)
	} else {
		fmt.Printf("%s on %s, %d ranks, %s, %s\n", spec, *system, *ranks, *scheme, im.Name)
	}
	fmt.Printf("  makespan: %s\n", units.Duration(res.Time))
	fmt.Printf("  messages: %d (%s)\n", res.Messages, units.Bytes(res.Bytes))
	for _, m := range wl.Metrics {
		if vs := res.Values[m.Key]; len(vs) > 0 {
			fmt.Printf("  %s: max %s, mean %s\n", m.Label, m.Format(res.Max(m.Key)), m.Format(res.Mean(m.Key)))
		}
	}
	if len(res.RankCompute) > 0 {
		maxC, maxM := 0.0, 0.0
		for i := range res.RankCompute {
			if res.RankCompute[i] > maxC {
				maxC = res.RankCompute[i]
			}
			if res.RankMemBytes[i] > maxM {
				maxM = res.RankMemBytes[i]
			}
		}
		fmt.Printf("  per-rank max: %s compute, %s DRAM traffic\n",
			units.Duration(maxC), units.Bytes(maxM))
	}
	hot := res.Machine.HottestResource(res.Time)
	fmt.Printf("  bottleneck: %s at %.0f%% utilization (%s served)\n",
		hot.Name, 100*hot.Utilization, units.Bytes(hot.BytesServed))
	if *breakdown {
		perRank := make([][]float64, len(res.Breakdown))
		for i, b := range res.Breakdown {
			perRank[i] = b.Slice()
		}
		fmt.Print(report.Breakdown("per-rank time breakdown (seconds)",
			mpi.CategoryNames[:], perRank).Text())
	}
	if *stats {
		s := res.Stats
		fmt.Printf("  engine: %d events, %d flows, %d settles, %d spawns\n", s.Events, s.Flows, s.Settles, s.Spawns)
		for _, p := range s.Procs {
			if p.Total() == 0 {
				continue
			}
			fmt.Printf("    %-16s run %s  sleep %s  flow-wait %s  queue-wait %s\n",
				p.Name, units.Duration(p.Running), units.Duration(p.Sleeping),
				units.Duration(p.BlockedFlow), units.Duration(p.BlockedQueue))
		}
	}
	if *trace != "" {
		if err := job.Trace.WriteFile(*trace); err != nil {
			fatalf("writing trace: %v", err)
		}
		fmt.Printf("  trace: %s (%d events)\n", *trace, job.Trace.Len())
	}
	if *phases && len(res.Timeline) > 0 {
		fmt.Println("  phase timeline (first 40 spans):")
		for i, span := range res.Timeline {
			if i >= 40 {
				fmt.Printf("    ... %d more\n", len(res.Timeline)-40)
				break
			}
			fmt.Printf("    rank %2d %-14s %12s .. %12s\n", span.Rank, span.Name,
				units.Duration(span.Start), units.Duration(span.End))
		}
	}
	if *util {
		fmt.Println("  resource utilization:")
		for _, u := range res.Machine.Utilizations(res.Time) {
			if u.BytesServed == 0 {
				continue
			}
			fmt.Printf("    %-24s %6.1f%%  %s\n", u.Name, 100*u.Utilization, units.Bytes(u.BytesServed))
		}
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "mcrun: "+format+"\n", args...)
	os.Exit(1)
}
