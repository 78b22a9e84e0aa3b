package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"multicore/internal/affinity"
	"multicore/internal/sim"
)

// Per-engine trace capture for mcbench -trace: when a runner has a trace
// directory, every engine an experiment starts (all of them run through
// Runner.simulate) records a sim.Trace and writes it to
// <dir>/<label>.trace.json. A label names its cell: cellLabel where the
// cell is a workload on a system, ranks and scheme, else the experiment
// id and the engine's parameters. Each engine is private to its cell and
// a runner simulates each cell once, so artifacts sharing a cell produce
// one file, and trace content depends only on the cell's configuration;
// files are byte-identical however many pool workers run (the
// determinism regression covers this). Tracing is disabled by default.

// cellLabel names one simulated cell for trace files.
func cellLabel(workload, system string, ranks int, scheme affinity.Scheme) string {
	return fmt.Sprintf("%s-%s-r%d-%s", workload, system, ranks, scheme)
}

// traceCell returns a trace sink for the labelled cell and a callback
// that writes its file; both are nil when tracing is disabled.
func (r *Runner) traceCell(label string) (*sim.Trace, func()) {
	if r.opts.TraceDir == "" {
		return nil, nil
	}
	path := filepath.Join(r.opts.TraceDir, sanitizeLabel(label)+".trace.json")
	tr := &sim.Trace{}
	return tr, func() {
		if err := tr.WriteFile(path); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: writing trace: %v\n", err)
		}
	}
}

// sanitizeLabel maps a cell label to a safe file name.
func sanitizeLabel(label string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '-', r == '.', r == '_', r == '+':
			return r
		default:
			return '_'
		}
	}, label)
}
