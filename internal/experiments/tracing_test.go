package experiments

import (
	"os"
	"path/filepath"
	"testing"
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

// TestTraceCellDedup checks that a label is captured once per runner:
// artifacts sharing a cell produce a single file, mirroring the result
// cache. A runner without a trace directory captures nothing.
func TestTraceCellDedup(t *testing.T) {
	dir := t.TempDir()
	r := NewRunner(nil, Options{TraceDir: dir})
	tr, flush := r.traceCell("cell-a")
	if tr == nil || flush == nil {
		t.Fatal("first capture refused")
	}
	if tr2, _ := r.traceCell("cell-a"); tr2 != nil {
		t.Fatal("duplicate label captured twice")
	}
	if tr3, _ := r.traceCell("cell b/with:odd chars"); tr3 == nil {
		t.Fatal("distinct label refused")
	}
	flush()
	if _, err := os.Stat(filepath.Join(dir, "cell-a.trace.json")); err != nil {
		t.Fatalf("trace file not written: %v", err)
	}
	if tr4, _ := NewRunner(nil, Options{}).traceCell("cell-c"); tr4 != nil {
		t.Fatal("tracing disabled but capture granted")
	}
}
