package experiments

import (
	"fmt"

	"multicore/internal/affinity"
	"multicore/internal/core"
	"multicore/internal/mpi"
	"multicore/internal/report"
)

// ext-scale leaves the paper's 16-way nodes far behind: a ring-halo
// exchange (the nearest-neighbour skeleton of the paper's CG/MG stencils)
// across a cluster of Longs nodes, swept to 10k+ total ranks. The cells
// exist to exercise and demonstrate the engine's scale envelope — flat
// per-rank memory and recycled helper processes — so the table reports
// engine activity alongside the makespan.
func init() {
	register(Experiment{
		ID:    "ext-scale",
		Title: "Ring-halo exchange on a Longs cluster at 10k+ ranks",
		Paper: "Beyond the paper's single 16-core node: the same methodology at cluster scale, feasible because the engine's per-rank cost is flat.",
		Run:   runExtScale,
	})
}

// ringHaloBody is the SPMD body: steps iterations of a small compute slab
// followed by a shift around the rank ring (send right, receive left) —
// the halo-exchange pattern of the paper's stencil kernels, reduced to
// its communication skeleton so 10k-rank cells stay quick.
func ringHaloBody(steps int, bytes float64) func(*mpi.Rank) {
	return func(r *mpi.Rank) {
		n := r.Size()
		right := (r.ID() + 1) % n
		left := (r.ID() + n - 1) % n
		for s := 0; s < steps; s++ {
			r.Compute(1e6, 0.9)
			r.Sendrecv(right, bytes, left)
		}
	}
}

// scaleRun is one ext-scale cell: the makespan and the engine activity
// behind it. The fields are exported so the cell round-trips the
// persistent store.
type scaleRun struct {
	Time           float64
	Msgs           int
	Events, Spawns uint64
}

func runExtScale(r *Runner, s Scale) []*report.Table {
	const (
		ranksPerNode = 16 // one rank per Longs core
		steps        = 3
		haloBytes    = 4096
	)
	nodeCounts := []int{4, 64, 640} // 64, 1024, and 10240 total ranks
	if s == Full {
		nodeCounts = append(nodeCounts, 2560) // 40960 ranks
	}
	t := report.New("Ring halo on Longs nodes (16 ranks/node, RapidArray)",
		"Total ranks", "Nodes", "Makespan (s)", "Messages", "Engine events", "Procs spawned")
	cells := parMap(r, len(nodeCounts), func(i int) cellValue[scaleRun] {
		nodes := nodeCounts[i]
		return engineCell(r, s, fmt.Sprintf("ext-scale-n%d", nodes), func(run mpi.RunFunc) scaleRun {
			job := core.Job{System: "longs", Ranks: ranksPerNode, Scheme: affinity.Default,
				Impl: mpi.MPICH2(), Nodes: nodes, Net: mpi.RapidArray()}
			res := run(must(job.Config()), ringHaloBody(steps, haloBytes))
			return scaleRun{res.Time, res.Messages, res.Stats.Events, res.Stats.Spawns}
		})
	})
	for i, nodes := range nodeCounts {
		c := cells[i]
		t.AddRow(fmt.Sprint(ranksPerNode*nodes), fmt.Sprint(nodes),
			cellString(c, func(c scaleRun) string { return report.Seconds(c.Time) }),
			cellString(c, func(c scaleRun) string { return fmt.Sprint(c.Msgs) }),
			cellString(c, func(c scaleRun) string { return fmt.Sprint(c.Events) }),
			cellString(c, func(c scaleRun) string { return fmt.Sprint(c.Spawns) }))
	}
	return []*report.Table{t}
}
