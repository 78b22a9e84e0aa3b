package experiments

import (
	"fmt"
	"strconv"

	"multicore/internal/affinity"
	"multicore/internal/workload"
)

// This file is the bridge between the experiment executor and callers
// that sweep arbitrary (workload, system, ranks, scheme) grids rather
// than the paper's fixed artifacts — chiefly the distributed sweep
// service (internal/sweepd), whose workers need to execute exactly one
// cell at a time through the same memoization, store, fault-injection,
// and retry machinery the registered experiments use.

// ParseScale resolves a scale's CLI name ("quick" or "full").
func ParseScale(s string) (Scale, error) {
	switch s {
	case "quick":
		return Quick, nil
	case "full":
		return Full, nil
	}
	return 0, fmt.Errorf("experiments: unknown scale %q (want quick or full)", s)
}

// WorkloadKey canonically encodes a workload spec as a cell-identity
// string: the CLI spec form plus every non-default parameter. Two specs
// with equal keys run byte-for-byte the same simulation, so the key is
// safe to use in CellKey.Workload and hence in persistent store
// addresses.
func WorkloadKey(spec workload.Spec) string {
	var buf [64]byte
	return string(AppendWorkloadKey(buf[:0], spec))
}

// AppendWorkloadKey appends WorkloadKey(spec) to dst, so callers that
// build longer identities around it (sweep cell keys and fingerprints)
// need no intermediate string.
func AppendWorkloadKey(dst []byte, spec workload.Spec) []byte {
	dst = append(dst, spec.String()...)
	if spec.Class != "" {
		dst = append(append(append(dst, "[class="...), spec.Class...), ']')
	}
	if spec.Steps != 0 {
		dst = append(strconv.AppendInt(append(dst, "[steps="...), int64(spec.Steps), 10), ']')
	}
	if spec.N != 0 {
		dst = append(strconv.AppendInt(append(dst, "[n="...), int64(spec.N), 10), ']')
	}
	return dst
}

// RunWorkloadCell simulates one registry workload on a system under a
// placement scheme and returns the job makespan in simulated seconds.
// The cell goes through the runner's full cell path — in-process
// memoization, the persistent store when configured, fault injection,
// and transient-only retries — so distributed workers and local grid
// sweeps share every correctness property of the paper-artifact
// executor. Infeasible placements return *affinity.ErrInfeasible exactly
// like the table experiments.
func (r *Runner) RunWorkloadCell(spec workload.Spec, system string, ranks int, scheme affinity.Scheme, scale Scale) (float64, error) {
	key := CellKey{Workload: WorkloadKey(spec), System: system, Ranks: ranks, Scheme: scheme, Scale: scale}
	return runCell(r, key, func() (float64, error) {
		wl, err := workload.New(spec)
		if err != nil {
			return 0, err
		}
		res, err := r.runMPICH2(key.Workload, system, ranks, scheme, wl.Body)
		if err != nil {
			return 0, err
		}
		return res.Time, nil
	})
}
