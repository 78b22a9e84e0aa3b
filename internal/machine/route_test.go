package machine

import (
	"testing"

	"multicore/internal/sim"
	"multicore/internal/topology"
)

// The legacy* functions build paths the way the path builders did when
// every call returned a fresh slice. The order of a path's resources
// fixes the order of the flow fill's floating-point sums, so the builders
// must reproduce it exactly.

func legacyLinks(m *Machine, route []topology.DirectedLink) []*sim.Resource {
	out := make([]*sim.Resource, 0, len(route))
	for _, dl := range route {
		if dl.Reverse {
			out = append(out, m.links[dl.Index][1])
		} else {
			out = append(out, m.links[dl.Index][0])
		}
	}
	return out
}

func legacyHead(m *Machine, core topology.CoreID) []*sim.Resource {
	path := []*sim.Resource{m.issue[core]}
	if fab := m.fabricFor(core); fab != nil {
		path = append(path, fab)
	}
	return path
}

func legacyRead(m *Machine, core topology.CoreID, node topology.SocketID) []*sim.Resource {
	path := legacyHead(m, core)
	path = append(path, legacyLinks(m, m.Topo().Route(node, m.Topo().SocketOf(core)))...)
	return append(path, m.mcs[node])
}

func legacyWrite(m *Machine, core topology.CoreID, node topology.SocketID) []*sim.Resource {
	path := legacyHead(m, core)
	path = append(path, legacyLinks(m, m.Topo().Route(m.Topo().SocketOf(core), node))...)
	return append(path, m.mcs[node])
}

func legacyCopy(m *Machine, core topology.CoreID, src, dst topology.SocketID) []*sim.Resource {
	sock := m.Topo().SocketOf(core)
	path := legacyHead(m, core)
	path = append(path, legacyLinks(m, m.Topo().Route(src, sock))...)
	path = append(path, m.mcs[src])
	if dst != src {
		path = append(path, legacyLinks(m, m.Topo().Route(sock, dst))...)
		path = append(path, m.mcs[dst])
	}
	return path
}

func samePath(a, b []*sim.Resource) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestPathsMatchLegacyConstruction: on every registered machine and the
// shipped custom spec, ReadPath, WritePath and CopyPath built into one
// reused scratch buffer list the same resources in the same order as the
// legacy construction, for every (core, src, dst). Between builds the
// scratch gets extra resources appended, as the network send appends its
// NICs, and the concatenated form the rendezvous copy builds is checked
// too: neither may leak into a later path.
func TestPathsMatchLegacyConstruction(t *testing.T) {
	specs := map[string]*Spec{}
	for _, name := range Names() {
		specs[name] = Lookup(name)
	}
	_, custom, err := RegisterSpecFile("../../examples/hybrid8.json")
	if err != nil {
		t.Fatal(err)
	}
	specs["examples/hybrid8.json"] = custom
	for _, want := range []string{"tiger", "dmz", "longs", "hybrid16", "epyc2x4"} {
		if specs[want] == nil {
			t.Fatalf("machine %q is not registered", want)
		}
	}
	nics := []*sim.Resource{sim.NewResource("nic-out", 1), sim.NewResource("fabric", 1), sim.NewResource("nic-in", 1)}
	for name, spec := range specs {
		m := New(sim.NewEngine(), spec)
		topo := spec.Topo
		var scratch []*sim.Resource
		check := func(what string, got, want []*sim.Resource) {
			t.Helper()
			if !samePath(got, want) {
				t.Fatalf("%s: %s built %v, want %v", name, what, got, want)
			}
		}
		cores := topo.NumCores()
		for c := 0; c < cores; c++ {
			core := topology.CoreID(c)
			other := topology.CoreID((c + cores/2) % cores)
			for s := 0; s < topo.NumSockets; s++ {
				src := topology.SocketID(s)
				scratch = m.ReadPath(scratch[:0], core, src)
				check("ReadPath", scratch, legacyRead(m, core, src))
				scratch = append(scratch, nics...)
				scratch = m.WritePath(scratch[:0], core, src)
				check("WritePath", scratch, legacyWrite(m, core, src))
				for d := 0; d < topo.NumSockets; d++ {
					dst := topology.SocketID(d)
					scratch = m.CopyPath(scratch[:0], core, src, dst)
					check("CopyPath", scratch, legacyCopy(m, core, src, dst))
					scratch = append(scratch, nics...)
					scratch = m.CopyPath(m.CopyPath(scratch[:0], other, src, dst), core, dst, src)
					check("CopyPath+CopyPath", scratch,
						append(legacyCopy(m, other, src, dst), legacyCopy(m, core, dst, src)...))
				}
			}
		}
	}
}

// TestPathBuildZeroAlloc: building paths into warm scratch, as the MPI
// protocols do before every flow, allocates nothing.
func TestPathBuildZeroAlloc(t *testing.T) {
	m := New(sim.NewEngine(), Longs())
	scratch := make([]*sim.Resource, 0, 32)
	if n := testing.AllocsPerRun(100, func() {
		path := m.CopyPath(scratch[:0], 0, 0, 3)
		path = m.CopyPath(path, 5, 3, 1)
		path = m.ReadPath(path[:0], 6, 2)
		scratch = m.WritePath(path[:0], 7, 0)
	}); n != 0 {
		t.Errorf("building paths into warm scratch allocates %v times per round, want 0", n)
	}
}
