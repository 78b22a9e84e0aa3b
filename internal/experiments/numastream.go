package experiments

import (
	"fmt"

	"multicore/internal/affinity"
	"multicore/internal/kernels/stream"
	"multicore/internal/machine"
	"multicore/internal/mem"
	"multicore/internal/mpi"
	"multicore/internal/report"
	"multicore/internal/topology"
	"multicore/internal/units"
)

// numa-stream: Bergstrom's STREAM-on-NUMA measurements (arXiv:1103.3225)
// replayed on the paper's systems and the modern machine pack. Two views:
// a single thread's triad bandwidth as its pages move to ever more distant
// nodes, and the aggregate bandwidth of a fully loaded machine under each
// placement scheme.
func init() {
	register(Experiment{
		ID:    "numa-stream",
		Title: "STREAM triad under NUMA placement (after Bergstrom, arXiv:1103.3225)",
		Paper: "Local pages beat remote pages at every hop count, and localalloc beats interleave beats wrong-node membind — on the 2006 ladders and on modern multi-die/hybrid parts alike.",
		Run:   runNumaStream,
	})
}

// numaStreamSystems pairs a 2006 paper system with the modern pack, so
// the tables show the NUMA effects surviving the architecture change.
// Labels are the registry names — they join the cell store keys, so they
// are part of the on-disk format.
type numaSystem struct {
	label string
	spec  *machine.Spec
}

func numaStreamSystems() []numaSystem {
	return []numaSystem{
		{"longs", machine.Longs()},
		{"epyc2x4", machine.EPYC2x4()},
		{"hybrid16", machine.Hybrid16()},
	}
}

// probeCores picks one representative core per core class (core 0 for
// homogeneous machines), so hybrid machines get a P row and an E row.
func probeCores(spec *machine.Spec) []topology.CoreID {
	topo := spec.Topo
	if len(topo.Classes) == 0 {
		return []topology.CoreID{topo.CoresOn(0)[0]}
	}
	cores := make([]topology.CoreID, 0, len(topo.Classes))
	for cl := range topo.Classes {
		for c := 0; c < topo.NumCores(); c++ {
			if topo.ClassOf(topology.CoreID(c)) == cl {
				cores = append(cores, topology.CoreID(c))
				break
			}
		}
	}
	return cores
}

// classLabel names a core's class, or "-" on homogeneous machines.
func classLabel(topo *topology.System, c topology.CoreID) string {
	if len(topo.Classes) == 0 {
		return "-"
	}
	return topo.ClassName(topo.ClassOf(c))
}

// numaStreamBW runs a single-rank triad on core with pages bound to node
// and returns bandwidth in GB/s. Memoized through the runner's cell cache
// (core and node join the workload string — CellKey has no fields for
// them).
func numaStreamBW(r *Runner, sys numaSystem, core topology.CoreID, node int, vec float64) (float64, error) {
	spec := sys.spec
	return runCell(r, CellKey{
		Workload: fmt.Sprintf("numa-stream/%g/c%d/n%d", vec, core, node),
		System:   sys.label, Ranks: 1,
	}, func() (float64, error) {
		bindings := []affinity.Binding{{Core: core, MemPolicy: mem.Membind, BindNodes: []int{node}}}
		res, err := r.simulate(fmt.Sprintf("numa-stream-%g-%s-c%d-n%d", vec, sys.label, core, node),
			mpi.Config{Spec: spec, Impl: mpi.LAM(), Bindings: bindings}, func(r *mpi.Rank) {
				stream.RunTriad(r, stream.Params{VectorBytes: vec, Iters: 2})
			})
		if err != nil {
			return 0, err
		}
		return res.Sum(stream.MetricBandwidth) / units.Giga, nil
	})
}

// numaStreamDistanceTable is Bergstrom's Figure 1 analogue: one thread,
// pages bound ever further away. Long format — systems differ in their
// hop-distance range.
func numaStreamDistanceTable(r *Runner, vec float64) *report.Table {
	t := report.New("Single-thread STREAM triad vs memory-node distance (GB/s)",
		"System", "Core class", "Hops to memory", "Triad BW")
	type probe struct {
		sys  numaSystem
		core topology.CoreID
		node int
		hops int
	}
	var grid []probe
	for _, sys := range numaStreamSystems() {
		topo := sys.spec.Topo
		for _, core := range probeCores(sys.spec) {
			home := topo.SocketOf(core)
			seen := map[int]bool{}
			for s := 0; s < topo.NumSockets; s++ {
				h := topo.Hops(home, topology.SocketID(s))
				if seen[h] {
					continue
				}
				seen[h] = true
				grid = append(grid, probe{sys, core, s, h})
			}
		}
	}
	vals := parMap(r, len(grid), func(i int) cellValue {
		p := grid[i]
		v, err := numaStreamBW(r, p.sys, p.core, p.node, vec)
		return cellValue{v, err}
	})
	for i, p := range grid {
		t.AddRow(p.sys.label, classLabel(p.sys.spec.Topo, p.core),
			fmt.Sprint(p.hops), cellString(vals[i], report.F))
	}
	return t
}

// numaStreamSchemes is the placement-policy view: every core streaming,
// under the OS default, localalloc, wrong-node membind, and interleave.
var numaStreamSchemes = []affinity.Scheme{
	affinity.Default,
	affinity.OneMPILocalAlloc,
	affinity.OneMPIMembind,
	affinity.Interleave,
}

// numaStreamAggregate runs the triad on every core under a scheme and
// returns aggregate bandwidth in GB/s.
func numaStreamAggregate(r *Runner, sys numaSystem, scheme affinity.Scheme, vec float64) (float64, error) {
	spec := sys.spec
	ranks := spec.Topo.NumSockets // one streaming rank per socket, Bergstrom's thread-per-node setup
	return runCell(r, CellKey{
		Workload: fmt.Sprintf("numa-stream-agg/%g", vec),
		System:   sys.label, Ranks: ranks, Scheme: scheme,
	}, func() (float64, error) {
		bindings, err := affinity.Layout(scheme, spec.Topo, ranks)
		if err != nil {
			return 0, err
		}
		res, err := r.simulate(cellLabel(fmt.Sprintf("numa-stream-agg-%g", vec), sys.label, ranks, scheme),
			mpi.Config{Spec: spec, Impl: mpi.LAM(), Bindings: bindings}, func(r *mpi.Rank) {
				stream.RunTriad(r, stream.Params{VectorBytes: vec, Iters: 2})
			})
		if err != nil {
			return 0, err
		}
		return res.Sum(stream.MetricBandwidth) / units.Giga, nil
	})
}

func numaStreamSchemeTable(r *Runner, vec float64) *report.Table {
	t := report.New("Aggregate STREAM triad by placement scheme, one rank per socket (GB/s)",
		"System", "Ranks", "Default", "Local Alloc", "Membind", "Interleave")
	systems := numaStreamSystems()
	vals := parMap(r, len(systems)*len(numaStreamSchemes), func(i int) cellValue {
		sys, scheme := systems[i/len(numaStreamSchemes)], numaStreamSchemes[i%len(numaStreamSchemes)]
		v, err := numaStreamAggregate(r, sys, scheme, vec)
		return cellValue{v, err}
	})
	for i, sys := range systems {
		row := []string{sys.label, fmt.Sprint(sys.spec.Topo.NumSockets)}
		for j := range numaStreamSchemes {
			row = append(row, cellString(vals[i*len(numaStreamSchemes)+j], report.F))
		}
		t.AddRow(row...)
	}
	return t
}

func runNumaStream(r *Runner, s Scale) []*report.Table {
	vec := 16.0 * units.MB
	if s == Full {
		vec = 64.0 * units.MB
	}
	return []*report.Table{
		numaStreamDistanceTable(r, vec),
		numaStreamSchemeTable(r, vec),
	}
}
