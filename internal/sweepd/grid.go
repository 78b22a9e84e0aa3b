// Package sweepd turns the single-process sweep pipeline into a
// networked coordinator/worker system: an HTTP coordinator accepts sweep
// submissions (a workload × system × ranks × scheme grid plus an optional
// fault plan and seed), shards the grid's cells across registered worker
// processes, and streams per-cell results back to each client as NDJSON
// so tables fill in live. Workers wrap experiments.Runner with the
// content-addressed store as a global result cache, so any worker — and
// any later sweep — serves a completed cell from disk instead of
// re-simulating it.
//
// Correctness properties are inherited from the single-process pipeline
// and enforced across the network:
//
//   - Determinism: every cell result carries a fingerprint over its
//     deterministic fields. The coordinator compares fingerprints when
//     duplicate completions arrive (a re-assigned lease racing its
//     original worker), and clients recompute fingerprints on receipt,
//     so a worker that diverges from the serial golden path is detected,
//     not silently averaged in.
//   - Exactly-once simulation: the coordinator dedups in-flight identical
//     cells across concurrent clients (two users sweeping overlapping
//     grids share one execution), and the store dedups across sweeps.
//   - Crash tolerance: leases expire when a worker stops heartbeating and
//     the cell is re-queued; transient cell failures (fault.IsTransient)
//     are retried on the worker within the sweep's retry budget, and
//     every reported result is final, so failures render ERR exactly
//     like a local sweep.
package sweepd

import (
	"fmt"
	"strconv"
	"strings"

	"multicore/internal/affinity"
	"multicore/internal/experiments"
	"multicore/internal/machine"
	"multicore/internal/workload"
)

// Grid declares a sweep: the cross product of workloads, systems, rank
// counts, and placement schemes, at one problem scale. The declared
// order is the table order, so two clients submitting the same grid
// render byte-identical tables.
type Grid struct {
	// Workloads are registry specs in CLI form ("cg", "amber:JAC").
	Workloads []string `json:"workloads"`
	// Systems are registered machine names ("tiger", "dmz", "longs", the
	// modern pack) or content-hash ids of loaded custom specs. ParseGrid
	// also accepts "@FILE" entries, which it loads, registers, and
	// replaces with their canonical id, so a grid that leaves the process
	// (sweep submissions, table titles) never references a local path.
	Systems []string `json:"systems"`
	// Ranks are the MPI task counts to sweep.
	Ranks []int `json:"ranks"`
	// Schemes are placement schemes in CLI form (affinity.ParseScheme).
	Schemes []string `json:"schemes"`
	// Scale is the problem scale, "quick" or "full".
	Scale string `json:"scale"`
	// Class, Steps, and N override workload defaults for every cell,
	// exactly like mcrun's -class/-steps/-n flags.
	Class string `json:"class,omitempty"`
	Steps int    `json:"steps,omitempty"`
	N     int    `json:"n,omitempty"`
}

// ParseGrid parses the CLI grid form: semicolon-separated k=v sections
// with comma-separated values, e.g.
//
//	workloads=stream,cg;systems=tiger,dmz;ranks=1,2,4;schemes=default,localalloc
//
// Optional sections: schemes (default "default"), class, steps, n. The
// scale is not part of the string; callers set it from their -scale
// flag. Values are validated (schemes and workload specs must parse,
// ranks must be positive) and deduplicated preserving first occurrence.
func ParseGrid(s string) (Grid, error) {
	g := Grid{}
	for _, section := range strings.Split(s, ";") {
		section = strings.TrimSpace(section)
		if section == "" {
			continue
		}
		k, v, ok := strings.Cut(section, "=")
		if !ok || v == "" {
			return Grid{}, fmt.Errorf("sweepd: grid section %q is not k=v", section)
		}
		switch k {
		case "workloads":
			g.Workloads = splitList(v)
		case "systems":
			g.Systems = splitList(v)
			for i, sys := range g.Systems {
				path, ok := strings.CutPrefix(sys, "@")
				if !ok {
					continue
				}
				id, _, err := machine.RegisterSpecFile(path)
				if err != nil {
					return Grid{}, fmt.Errorf("sweepd: system %q: %w", sys, err)
				}
				g.Systems[i] = id
			}
			// Two @FILEs with the same content collapse to one id:
			// re-dedup so the expanded list keeps the grid contract.
			g.Systems = splitList(strings.Join(g.Systems, ","))
		case "ranks":
			for _, rs := range splitList(v) {
				ns, err := parseRanks(rs)
				if err != nil {
					return Grid{}, err
				}
				g.Ranks = appendRanks(g.Ranks, ns)
			}
		case "schemes":
			g.Schemes = splitList(v)
		case "class":
			g.Class = v
		case "steps":
			n, err := strconv.Atoi(v)
			if err != nil || n < 0 {
				return Grid{}, fmt.Errorf("sweepd: bad steps %q", v)
			}
			g.Steps = n
		case "n":
			n, err := strconv.Atoi(v)
			if err != nil || n < 1 {
				return Grid{}, fmt.Errorf("sweepd: bad problem size %q", v)
			}
			g.N = n
		default:
			return Grid{}, fmt.Errorf("sweepd: unknown grid section %q (want workloads, systems, ranks, schemes, class, steps, n)", k)
		}
	}
	if len(g.Schemes) == 0 {
		g.Schemes = []string{affinity.Default.CLIName()}
	}
	if err := g.Validate(); err != nil {
		return Grid{}, err
	}
	return g, nil
}

// parseRanks parses one ranks list item: a single count ("4") or an
// inclusive range ("1..64"), the syntax that makes million-cell
// screening grids expressible on a command line.
func parseRanks(rs string) ([]int, error) {
	if lo, hi, ok := strings.Cut(rs, ".."); ok {
		a, err1 := strconv.Atoi(lo)
		b, err2 := strconv.Atoi(hi)
		if err1 != nil || err2 != nil || a < 1 || b < a {
			return nil, fmt.Errorf("sweepd: bad rank range %q (want lo..hi with 1 <= lo <= hi)", rs)
		}
		ns := make([]int, 0, b-a+1)
		for n := a; n <= b; n++ {
			ns = append(ns, n)
		}
		return ns, nil
	}
	n, err := strconv.Atoi(rs)
	if err != nil || n < 1 {
		return nil, fmt.Errorf("sweepd: bad rank count %q", rs)
	}
	return []int{n}, nil
}

// appendRanks appends deduplicating, preserving first occurrence —
// the same contract splitList gives the string dimensions.
func appendRanks(dst, ns []int) []int {
	seen := make(map[int]bool, len(dst))
	for _, n := range dst {
		seen[n] = true
	}
	for _, n := range ns {
		if !seen[n] {
			seen[n] = true
			dst = append(dst, n)
		}
	}
	return dst
}

func splitList(v string) []string {
	var out []string
	seen := map[string]bool{}
	for _, s := range strings.Split(v, ",") {
		s = strings.TrimSpace(s)
		if s == "" || seen[s] {
			continue
		}
		seen[s] = true
		out = append(out, s)
	}
	return out
}

// Validate checks every dimension of the grid parses; Scale may still be
// empty (callers fill it in from their -scale flag before Cells).
func (g Grid) Validate() error {
	if len(g.Workloads) == 0 {
		return fmt.Errorf("sweepd: grid has no workloads")
	}
	if len(g.Systems) == 0 {
		return fmt.Errorf("sweepd: grid has no systems")
	}
	if len(g.Ranks) == 0 {
		return fmt.Errorf("sweepd: grid has no rank counts")
	}
	for _, r := range g.Ranks {
		if r < 1 {
			return fmt.Errorf("sweepd: bad rank count %d", r)
		}
	}
	for _, sys := range g.Systems {
		if machine.Lookup(sys) == nil {
			return fmt.Errorf("sweepd: unknown system %q (registered: %s)",
				sys, strings.Join(machine.Names(), ", "))
		}
	}
	for _, w := range g.Workloads {
		spec, err := workload.ParseSpec(w)
		if err != nil {
			return err
		}
		// Resolve against the registry with the grid-wide overrides
		// applied, so an unknown workload or an invalid class/steps/n
		// fails the whole sweep at submission instead of rendering a
		// table of ERR cells.
		spec.Class, spec.Steps, spec.N = g.Class, g.Steps, g.N
		if _, err := workload.New(spec); err != nil {
			return err
		}
	}
	for _, sch := range g.Schemes {
		if _, err := affinity.ParseScheme(sch); err != nil {
			return err
		}
	}
	if g.Scale != "" {
		if _, err := experiments.ParseScale(g.Scale); err != nil {
			return err
		}
	}
	return nil
}

// String renders the canonical grid form; it round-trips through
// ParseGrid (modulo Scale, which ParseGrid leaves to the caller) and
// titles the results table, so it is part of the byte-identical output
// contract.
func (g Grid) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "workloads=%s;systems=%s;ranks=%s;schemes=%s",
		strings.Join(g.Workloads, ","), strings.Join(g.Systems, ","),
		joinInts(g.Ranks), strings.Join(g.Schemes, ","))
	if g.Class != "" {
		fmt.Fprintf(&b, ";class=%s", g.Class)
	}
	if g.Steps != 0 {
		fmt.Fprintf(&b, ";steps=%d", g.Steps)
	}
	if g.N != 0 {
		fmt.Fprintf(&b, ";n=%d", g.N)
	}
	if g.Scale != "" {
		fmt.Fprintf(&b, ";scale=%s", g.Scale)
	}
	return b.String()
}

// joinInts renders a ranks list, compressing runs of consecutive
// counts of length >= 3 to the lo..hi range form so a screening grid's
// canonical string (and table title) stays readable at a million cells.
// It round-trips through parseRanks.
func joinInts(ns []int) string {
	var ss []string
	for i := 0; i < len(ns); {
		j := i
		for j+1 < len(ns) && ns[j+1] == ns[j]+1 {
			j++
		}
		if j-i >= 2 {
			ss = append(ss, fmt.Sprintf("%d..%d", ns[i], ns[j]))
		} else {
			for ; i <= j; i++ {
				ss = append(ss, strconv.Itoa(ns[i]))
			}
		}
		i = j + 1
	}
	return strings.Join(ss, ",")
}

// CellSpec identifies one cell of a sweep on the wire. Workload carries
// the spec in CLI form; Class/Steps/N the grid-wide overrides; Scheme
// the CLI scheme name. Two equal CellSpecs must be byte-for-byte the
// same simulation.
type CellSpec struct {
	Workload string `json:"workload"`
	Class    string `json:"class,omitempty"`
	Steps    int    `json:"steps,omitempty"`
	N        int    `json:"n,omitempty"`
	System   string `json:"system"`
	Ranks    int    `json:"ranks"`
	Scheme   string `json:"scheme"`
	Scale    string `json:"scale"`
}

// Key is the canonical cell identity string; the coordinator dedups
// in-flight cells by it (joined with the sweep's fault plan and seed —
// see dedupKey) and tables index results by it.
func (c CellSpec) Key() string {
	var buf [128]byte
	return string(appendKeyTail(appendWorkloadKey(buf[:0], &c), &c))
}

// appendWorkloadKey appends the workload part of c's Key: its spec, with
// the grid-wide overrides applied, in experiments.WorkloadKey form.
func appendWorkloadKey(dst []byte, c *CellSpec) []byte {
	spec, _ := workload.ParseSpec(c.Workload)
	spec.Class, spec.Steps, spec.N = c.Class, c.Steps, c.N
	return experiments.AppendWorkloadKey(dst, spec)
}

// appendKeyTail appends the rest of c's Key after its workload part.
func appendKeyTail(dst []byte, c *CellSpec) []byte {
	return appendSchemeKey(appendRowKey(dst, c.System, c.Ranks), c.Scheme, c.Scale)
}

// appendRowKey appends the part of a Key between the workload and the
// scheme, which every cell of a table row shares.
func appendRowKey(dst []byte, system string, ranks int) []byte {
	dst = append(append(dst, '/'), system...)
	return strconv.AppendInt(append(dst, "/r"...), int64(ranks), 10)
}

// appendSchemeKey appends the last part of a Key, after the row part.
func appendSchemeKey(dst []byte, scheme, scale string) []byte {
	dst = append(append(dst, '/'), scheme...)
	return append(append(dst, '/'), scale...)
}

// Size is the number of cells in the grid, len(g.Cells()), without
// expanding them.
func (g Grid) Size() int {
	return len(g.Workloads) * len(g.Systems) * len(g.Ranks) * len(g.Schemes)
}

// Cells expands the grid in declared order: workload, then system, then
// ranks, then scheme — the row-major order of the results table.
func (g Grid) Cells() []CellSpec {
	var cells []CellSpec
	for _, w := range g.Workloads {
		for _, sys := range g.Systems {
			for _, r := range g.Ranks {
				for _, sch := range g.Schemes {
					cells = append(cells, CellSpec{
						Workload: w, Class: g.Class, Steps: g.Steps, N: g.N,
						System: sys, Ranks: r, Scheme: sch, Scale: g.Scale,
					})
				}
			}
		}
	}
	return cells
}
