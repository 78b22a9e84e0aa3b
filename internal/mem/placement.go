// Package mem models the memory system of a NUMA multi-core node: page
// placement policies equivalent to Linux/numactl behaviour (first-touch
// default, localalloc, interleave, membind) and an analytic per-core cache
// model that converts access batches into DRAM traffic.
package mem

import "fmt"

// Policy selects how pages of a region are distributed over memory nodes.
// These correspond to the numactl policies the paper evaluates (Section 2.1
// and Table 5).
type Policy int

const (
	// FirstTouch places pages on the node whose core first touches them
	// (the Linux default). Under process migration the touching node may
	// differ from where the process later runs.
	FirstTouch Policy = iota
	// LocalAlloc forces pages onto the node running the allocating
	// process (numactl --localalloc).
	LocalAlloc
	// Interleave round-robins pages across all nodes
	// (numactl --interleave=all).
	Interleave
	// Membind forces pages onto an explicitly given node set
	// (numactl --membind). The paper's "Membind" scheme bound memory to
	// fixed nodes independent of where tasks ran, which is why it is the
	// worst performer in their tables.
	Membind
)

func (p Policy) String() string {
	switch p {
	case FirstTouch:
		return "first-touch"
	case LocalAlloc:
		return "localalloc"
	case Interleave:
		return "interleave"
	case Membind:
		return "membind"
	}
	return fmt.Sprintf("Policy(%d)", int(p))
}

// Placement is the fraction of a region's pages on each memory node.
// The fractions sum to 1.
type Placement []float64

// Place computes the node distribution for a new region.
//
//	numNodes  – memory nodes in the system (== sockets on Opteron)
//	homeNode  – node of the core running the toucher/allocator
//	bindNodes – target node set for Membind (ignored otherwise)
func Place(policy Policy, numNodes, homeNode int, bindNodes []int) Placement {
	d := make(Placement, numNodes)
	switch policy {
	case FirstTouch, LocalAlloc:
		d[homeNode] = 1
	case Interleave:
		for i := range d {
			d[i] = 1 / float64(numNodes)
		}
	case Membind:
		if len(bindNodes) == 0 {
			panic("mem: Membind requires at least one bind node")
		}
		for _, n := range bindNodes {
			d[n] += 1 / float64(len(bindNodes))
		}
	default:
		panic("mem: unknown policy " + policy.String())
	}
	return d
}

// Region is a named memory allocation with a node distribution. Regions
// are the granularity at which workloads describe their data structures
// (e.g. the three STREAM vectors, a CG matrix, an FFT plane).
type Region struct {
	Name  string
	Bytes float64
	Dist  Placement

	// resident bytes cached per core id; maintained by Cache.
	resident map[int]float64
}

// NewRegion creates a region of the given size with distribution dist.
func NewRegion(name string, bytes float64, dist Placement) *Region {
	if bytes < 0 {
		panic("mem: negative region size")
	}
	return &Region{Name: name, Bytes: bytes, Dist: dist, resident: make(map[int]float64)}
}

// Split appends to dst the per-node byte volumes for a transfer of total
// bytes from this region, honoring its placement distribution, and
// returns the extended slice.
func (r *Region) Split(dst []float64, total float64) []float64 {
	for _, f := range r.Dist {
		dst = append(dst, total*f)
	}
	return dst
}
