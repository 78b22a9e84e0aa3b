// Package workload is the single registry mapping workload names to
// runnable MPI rank bodies. It replaces the two parallel dispatch paths
// that used to exist — the switch in cmd/mcrun and the per-table run
// bodies in internal/experiments — so a workload is defined once, with
// its default parameters and report metrics, and every consumer (the CLI,
// the experiment sweeps, future tools) resolves it through the same
// table.
//
// A workload is named by a Spec: the family name plus optional variant
// argument ("amber:JAC"), NPB problem class, step count, and problem
// size. Zero-valued Spec fields select the family's documented default,
// which matches what cmd/mcrun has always run.
package workload

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"multicore/internal/mpi"
)

// Spec names a workload plus its run parameters. The zero value of every
// optional field means "the family default".
type Spec struct {
	// Name is the workload family: "stream", "cg", "amber", ...
	Name string
	// Arg selects a variant within the family, e.g. the AMBER benchmark
	// ("JAC") or the LAMMPS potential ("eam"). Families without variants
	// reject a non-empty Arg.
	Arg string
	// Class overrides the NPB problem class ("A", "B", "W"); only the
	// NPB kernels consult it.
	Class string
	// Steps overrides the MD/time-step count for the applications
	// (AMBER, LAMMPS, POP).
	Steps int
	// N overrides the problem size for the kernels that take one
	// (daxpy, dgemm, fft, ptrans, hpl).
	N int
}

// ParseSpec parses the CLI form "name" or "name:arg" (e.g. "amber:JAC").
func ParseSpec(s string) (Spec, error) {
	name, arg, _ := strings.Cut(s, ":")
	if name == "" {
		return Spec{}, fmt.Errorf("workload: empty workload name in %q", s)
	}
	return Spec{Name: name, Arg: arg}, nil
}

// String renders the spec back in CLI form.
func (s Spec) String() string {
	if s.Arg != "" {
		return s.Name + ":" + s.Arg
	}
	return s.Name
}

// Metric describes one value a workload reports per rank.
type Metric struct {
	// Key is the r.Report key the body emits.
	Key string
	// Label is the human-readable name for CLI output.
	Label string
	// Format renders a value of this metric for display.
	Format func(float64) string
}

// Workload is a resolved, runnable workload.
type Workload struct {
	// Body is the SPMD rank body, runnable under mpi or core.
	Body func(*mpi.Rank)
	// Metrics lists the report keys the body emits, in display order.
	Metrics []Metric
}

// Factory builds a Workload from a spec. It validates the spec (unknown
// variant, unsupported class) and applies family defaults.
type Factory func(Spec) (Workload, error)

var registry = struct {
	sync.Mutex
	m map[string]Factory
}{m: map[string]Factory{}}

// Register installs a factory for a family name. Registering a duplicate
// name panics: it is a programming error, caught at init time.
func Register(name string, f Factory) {
	registry.Lock()
	defer registry.Unlock()
	if _, dup := registry.m[name]; dup {
		panic(fmt.Sprintf("workload: duplicate registration of %q", name))
	}
	registry.m[name] = f
}

// New resolves a spec to a runnable workload via the registry. Negative
// Steps or N overrides are errors for every family.
func New(spec Spec) (Workload, error) {
	if spec.Steps < 0 {
		return Workload{}, fmt.Errorf("workload: negative step count %d for %s", spec.Steps, spec.Name)
	}
	if spec.N < 0 {
		return Workload{}, fmt.Errorf("workload: negative problem size %d for %s", spec.N, spec.Name)
	}
	registry.Lock()
	f, ok := registry.m[spec.Name]
	registry.Unlock()
	if !ok {
		return Workload{}, fmt.Errorf("workload: unknown workload %q (known: %s)",
			spec.Name, strings.Join(Names(), ", "))
	}
	return f(spec)
}

// Names lists the registered family names, sorted.
func Names() []string {
	registry.Lock()
	defer registry.Unlock()
	names := make([]string, 0, len(registry.m))
	for n := range registry.m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// noArg rejects a variant argument for families that have none.
func noArg(s Spec) error {
	if s.Arg != "" {
		return fmt.Errorf("workload: %s takes no variant argument (got %q)", s.Name, s.Arg)
	}
	return nil
}
