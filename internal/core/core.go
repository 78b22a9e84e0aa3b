// Package core is the public face of the characterization framework: it
// ties together the machine models, the numactl-style affinity schemes,
// and the MPI runtime so that a workload (an SPMD body function) can be
// run on any paper system under any placement configuration with one
// call. This is the methodology of the paper packaged as a library.
package core

import (
	"context"
	"fmt"

	"multicore/internal/affinity"
	"multicore/internal/machine"
	"multicore/internal/mpi"
	"multicore/internal/sim"
)

// Job describes one experiment run: a system, a rank count, a placement
// scheme, and an MPI implementation profile.
type Job struct {
	// System is a registered machine name ("tiger", "dmz", "longs", the
	// modern pack, a loaded custom spec's content-hash id) or "@FILE" to
	// load a spec file; or use Spec to supply a custom machine directly.
	System string
	Spec   *machine.Spec
	// Ranks is the number of MPI tasks.
	Ranks int
	// Scheme is the Table 5 placement scheme (default: affinity.Default).
	Scheme affinity.Scheme
	// Impl is the MPI profile (default: OpenMPI).
	Impl *mpi.Impl
	// BufMode optionally overrides the transport segment placement;
	// when nil it is derived from the scheme's memory policy, which is
	// how the paper's placement/sub-layer interactions arise.
	BufMode *mpi.BufferMode
	// Nodes builds a cluster of identical nodes (the paper's "computing
	// system is a collection of nodes"); Ranks then counts tasks *per
	// node*. Zero or one keeps the single-node setting of the paper's
	// intra-node experiments.
	Nodes int
	// Net is the inter-node interconnect for Nodes > 1 (default
	// RapidArray, the Cray XD1 fabric connecting Tiger's nodes).
	Net *mpi.NetSpec
	// Trace, when non-nil, records per-rank spans for the run (see
	// sim.Trace); nil disables tracing with no overhead.
	Trace *sim.Trace
	// Observe enables detailed engine observation (per-process state
	// times, per-resource rate timelines) snapshotted in Result.Stats.
	Observe bool
	// Faults, when non-nil, injects deterministic perturbations into the
	// run (see internal/fault): OS noise, degraded links and memory
	// controllers, straggler ranks, message delays. Nil keeps the run
	// byte-identical to the idealized fault-free machine.
	Faults mpi.Perturb
}

// Run executes body as an SPMD program under the job's configuration.
// It returns affinity.ErrInfeasible (wrapped) when the scheme cannot host
// the rank count — the dashes in the paper's tables.
func Run(j Job, body func(*mpi.Rank)) (*mpi.Result, error) {
	return RunContext(context.Background(), j, body)
}

// RunContext is Run with cancellation threaded through to the simulation
// engine: the run stops early when ctx is canceled (SIGINT on a sweep) or
// its deadline passes (a per-cell wall-clock timeout), returning
// *sim.CanceledError; a deadlocked workload returns *sim.DeadlockError
// naming the blocked ranks instead of hanging.
func RunContext(ctx context.Context, j Job, body func(*mpi.Rank)) (*mpi.Result, error) {
	cfg, err := j.Config()
	if err != nil {
		return nil, err
	}
	return mpi.RunContext(ctx, cfg, body)
}

// Config resolves the job into the mpi.Config it runs: the machine spec,
// the scheme's rank bindings and the job's transport and observation
// settings. It returns affinity.ErrInfeasible (wrapped) when the scheme
// cannot host the rank count.
func (j Job) Config() (mpi.Config, error) {
	spec := j.Spec
	if spec == nil {
		var err error
		if spec, err = machine.Resolve(j.System); err != nil {
			return mpi.Config{}, fmt.Errorf("core: %w", err)
		}
	}
	if j.Ranks <= 0 {
		return mpi.Config{}, fmt.Errorf("core: rank count must be positive")
	}
	bindings, err := affinity.Layout(j.Scheme, spec.Topo, j.Ranks)
	if err != nil {
		return mpi.Config{}, err
	}
	cfg := mpi.Config{
		Spec:          spec,
		Impl:          j.Impl,
		Bindings:      bindings,
		Nodes:         j.Nodes,
		Net:           j.Net,
		DeriveBufMode: j.BufMode == nil,
		Trace:         j.Trace,
		Observe:       j.Observe,
		Faults:        j.Faults,
	}
	if j.BufMode != nil {
		cfg.BufMode = *j.BufMode
	}
	return cfg, nil
}
