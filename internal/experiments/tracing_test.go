package experiments

import (
	"os"
	"path/filepath"
	"slices"
	"testing"

	"multicore/internal/affinity"
	"multicore/internal/machine"
	"multicore/internal/mpi"
)

// captureTraces renders the experiment on a fresh runner with per-cell
// tracing into dir and returns the trace files' contents by name.
func captureTraces(t *testing.T, e Experiment, dir string, workers int) map[string][]byte {
	t.Helper()
	r := NewRunner(nil, Options{Parallelism: workers, TraceDir: dir})
	renderAll(t, r, e)
	files := map[string][]byte{}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range entries {
		data, err := os.ReadFile(filepath.Join(dir, ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[ent.Name()] = data
	}
	return files
}

// TestTraceFilesSerialParallelIdentical is the tracing arm of the
// determinism regression: per-cell trace files must be byte-identical
// whether the cells run serially or on a many-worker pool. Each cell owns
// a private engine, so its trace depends only on the cell configuration,
// never on pool scheduling.
func TestTraceFilesSerialParallelIdentical(t *testing.T) {
	e, ok := ByID("fig2")
	if !ok {
		t.Fatal("no experiment fig2")
	}

	serial := captureTraces(t, e, t.TempDir(), 1)
	parallel := captureTraces(t, e, t.TempDir(), 8)

	if len(serial) == 0 {
		t.Fatal("no trace files were written")
	}
	if len(serial) != len(parallel) {
		t.Fatalf("serial wrote %d trace files, parallel %d", len(serial), len(parallel))
	}
	for name, want := range serial {
		got, ok := parallel[name]
		if !ok {
			t.Errorf("parallel run missing trace %s", name)
			continue
		}
		if string(got) != string(want) {
			t.Errorf("trace %s differs between serial (%d bytes) and parallel (%d bytes) runs",
				name, len(want), len(got))
		}
	}
}

// TestTraceCellDedup checks that a cell is traced once per runner:
// artifacts sharing a cell run it once, so they produce a single file.
// A runner without a trace directory captures nothing.
func TestTraceCellDedup(t *testing.T) {
	dir := t.TempDir()
	r := NewRunner(nil, Options{TraceDir: dir})
	cfg := mpi.Config{Spec: machine.DMZ(), Bindings: []affinity.Binding{{Core: 0}}}
	for _, label := range []string{"cell-a", "cell-a", "cell b/with:odd chars"} {
		c := engineCell(r, Quick, label, func(run mpi.RunFunc) float64 {
			return run(cfg, func(rk *mpi.Rank) { rk.Compute(1e6, 1) }).Time
		})
		if c.err != nil {
			t.Fatal(c.err)
		}
	}
	if r.CellsRun() != 2 {
		t.Fatalf("CellsRun = %d, want 2 (the repeated label is one cell)", r.CellsRun())
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, ent := range entries {
		names = append(names, ent.Name())
	}
	if want := []string{"cell-a.trace.json", "cell_b_with_odd_chars.trace.json"}; !slices.Equal(names, want) {
		t.Fatalf("trace files %v, want %v", names, want)
	}
	if tr, _ := NewRunner(nil, Options{}).traceCell("cell-c"); tr != nil {
		t.Fatal("tracing disabled but capture granted")
	}
}
