package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"

	"multicore/internal/sim"
)

// renderAll renders an experiment's tables through the given runner to
// one canonical string. A failed cell fails the test: it would render
// ERR rather than fail the experiment.
func renderAll(t *testing.T, r *Runner, e Experiment) string {
	t.Helper()
	tabs, err := r.Run(e, Quick)
	if err != nil {
		t.Fatalf("%s: %v", e.ID, err)
	}
	if errs := r.CellErrors(); len(errs) > 0 {
		t.Fatalf("%s: failed cells: %v", e.ID, errs)
	}
	var b strings.Builder
	for _, tab := range tabs {
		b.WriteString(tab.Text())
		b.WriteString("\n")
	}
	return b.String()
}

// work is the cost of simulating one experiment on a fresh runner: the
// engine activity (sim.Activity) and the heap objects allocated.
type work struct {
	Events  uint64 `json:"events"`
	Flows   uint64 `json:"flows"`
	Settles uint64 `json:"settles"`
	Spawns  uint64 `json:"spawns"`
	Mallocs uint64 `json:"mallocs"`
}

// workPath pins every experiment's work. The activity counts follow from
// the model alone, so they must match exactly on any host, GOMAXPROCS or
// worker count; mallocs may fall but not rise past mallocSlack.
const workPath = "testdata/work.json"

const repinWork = "go test ./internal/experiments -run TestSerialParallelIdentical -update-engine-golden"

// mallocSlack is the allocation growth the gate forgives. Repeated runs
// of one tree differ by under 0.1%.
const mallocSlack = 0.02

// raceEnabled is set under -race, whose instrumentation allocates, so
// mallocs are not compared there.
var raceEnabled bool

// measureWork runs fn and returns the work it caused. Nothing else may
// simulate or allocate meanwhile, so experiments are measured one at a
// time.
func measureWork(fn func()) work {
	var m runtime.MemStats
	ev, fl, st, sp := sim.Activity()
	runtime.ReadMemStats(&m)
	mallocs := m.Mallocs
	fn()
	runtime.ReadMemStats(&m)
	ev1, fl1, st1, sp1 := sim.Activity()
	return work{Events: ev1 - ev, Flows: fl1 - fl, Settles: st1 - st, Spawns: sp1 - sp, Mallocs: m.Mallocs - mallocs}
}

// checkWork reports every counter of got that breaks its pin in want.
func checkWork(t *testing.T, id, pass string, want, got work, mallocs bool) {
	t.Helper()
	for _, c := range []struct {
		name      string
		want, got uint64
	}{
		{"events", want.Events, got.Events},
		{"flows", want.Flows, got.Flows},
		{"settles", want.Settles, got.Settles},
		{"spawns", want.Spawns, got.Spawns},
	} {
		if c.got != c.want {
			t.Errorf("%s, %s pass: %s %d, pinned %d (re-pin if intended: %s)", id, pass, c.name, c.got, c.want, repinWork)
		}
	}
	if ceiling := uint64(float64(want.Mallocs) * (1 + mallocSlack)); mallocs && got.Mallocs > ceiling {
		t.Errorf("%s, %s pass: mallocs %d, over the ceiling %d (pinned %d + %.0f%%; re-pin if intended: %s)",
			id, pass, got.Mallocs, ceiling, want.Mallocs, 100*mallocSlack, repinWork)
	}
}

// readWork loads the pinned work and checks that it covers exactly the
// registered experiments.
func readWork(t *testing.T) map[string]work {
	t.Helper()
	data, err := os.ReadFile(workPath)
	if err != nil {
		t.Fatalf("reading %s (re-pin: %s): %v", workPath, repinWork, err)
	}
	var pinned map[string]work
	if err := json.Unmarshal(data, &pinned); err != nil {
		t.Fatalf("decoding %s: %v", workPath, err)
	}
	ids := IDs()
	for _, id := range ids {
		if _, ok := pinned[id]; !ok {
			t.Errorf("%s: no pinned work in %s (re-pin: %s)", id, workPath, repinWork)
		}
	}
	for id := range pinned {
		if _, ok := ByID(id); !ok {
			t.Errorf("%s: pinned in %s but not a registered experiment (re-pin: %s)", id, workPath, repinWork)
		}
	}
	return pinned
}

// TestSerialParallelIdentical is the determinism regression for the
// parallel executor: every experiment must render byte-identical tables
// whether its cells run serially or on a many-worker pool. Each pass
// gets a fresh runner so both actually simulate. It is also the work
// gate: both passes must do exactly the pinned engine work (cells are
// single-flight, so the pool repeats no cell), and the serial pass must
// stay under the pinned malloc ceiling.
func TestSerialParallelIdentical(t *testing.T) {
	var pinned map[string]work
	if !*updateEngineGolden {
		pinned = readWork(t)
	}
	measured := map[string]work{}
	exps := All()
	if testing.Short() {
		// One light representative of each table family keeps -short
		// (and CI's -race run of it) fast: table3 stands for NPB with
		// numactl options and table11 for applications with them; fig8,
		// fig14 and ablate-sublayer simulate through HPCC, IMB and
		// explicit configs.
		short := []string{"fig2", "fig8", "fig14", "table3", "table8", "table11", "ablate-sublayer"}
		exps = exps[:0]
		for _, id := range short {
			e, ok := ByID(id)
			if !ok {
				t.Fatalf("no experiment %q", id)
			}
			exps = append(exps, e)
		}
	}
	for _, e := range exps {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			var serial, parallel string
			sw := measureWork(func() { serial = renderAll(t, NewRunner(nil, Options{Parallelism: 1}), e) })
			pw := measureWork(func() { parallel = renderAll(t, NewRunner(nil, Options{Parallelism: 8}), e) })
			if serial != parallel {
				t.Errorf("%s: serial and parallel runs render different tables\nserial:\n%s\nparallel:\n%s",
					e.ID, serial, parallel)
			}
			measured[e.ID] = sw
			if want, ok := pinned[e.ID]; ok {
				checkWork(t, e.ID, "serial", want, sw, !raceEnabled)
				checkWork(t, e.ID, "8-worker", want, pw, false)
			}
		})
	}
	if *updateEngineGolden && !t.Failed() {
		writeWork(t, measured)
	}
}

// writeWork re-pins testdata/work.json. Only a full, uninstrumented run
// measures what the gate compares against.
func writeWork(t *testing.T, measured map[string]work) {
	t.Helper()
	if raceEnabled || len(measured) != len(IDs()) {
		t.Fatalf("re-pinning %s needs every experiment and no -race (measured %d of %d)", workPath, len(measured), len(IDs()))
	}
	data, err := json.MarshalIndent(measured, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(workPath, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s", workPath)
}

// updateEngineGolden rewrites testdata/engine_golden.json and
// testdata/work.json from the current engine. Run it once per
// intentional semantic change:
//
//	go test ./internal/experiments -run 'TestEngineGolden|TestSerialParallelIdentical' -update-engine-golden
var updateEngineGolden = flag.Bool("update-engine-golden", false,
	"rewrite testdata/engine_golden.json and testdata/work.json from the current engine")

// engineGolden pins the engine's observable semantics: SHA-256 of the
// rendered tables and of the combined per-cell Chrome traces for one
// microbenchmark, one NPB, and one application artifact. The committed
// file was generated from the seed (pre-optimization) event engine, so
// any engine rework that changes a simulated time, a trace span, or a
// resource-rate segment anywhere in these sweeps fails this test.
type engineGolden struct {
	Tables map[string]string `json:"tables"`
	Traces map[string]string `json:"traces"`
}

const engineGoldenPath = "testdata/engine_golden.json"

// engineGoldenSample spans the three workload families: STREAM triad
// (micro), NAS EP/MG (NPB), and AMBER JAC (application).
var engineGoldenSample = []string{"fig2", "ext-npb", "table9"}

func sha256hex(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// hashTraceDir hashes every trace file in dir as (name, content) pairs in
// sorted order, so the digest covers the full byte content of every cell's
// trace and the set of cells traced.
func hashTraceDir(t *testing.T, dir string) string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, 0, len(entries))
	for _, ent := range entries {
		names = append(names, ent.Name())
	}
	sort.Strings(names)
	if len(names) == 0 {
		t.Fatal("no trace files written")
	}
	h := sha256.New()
	for _, name := range names {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		h.Write([]byte(name))
		h.Write([]byte{0})
		h.Write(data)
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestEngineGoldenArtifacts re-simulates the sample artifacts with tracing
// enabled and asserts the tables and traces are byte-identical to the
// committed goldens. Each sample gets a fresh runner so every cell is
// simulated and traced.
func TestEngineGoldenArtifacts(t *testing.T) {
	got := engineGolden{Tables: map[string]string{}, Traces: map[string]string{}}
	for _, id := range engineGoldenSample {
		e, ok := ByID(id)
		if !ok {
			t.Fatalf("no experiment %q", id)
		}
		dir := t.TempDir()
		r := NewRunner(nil, Options{TraceDir: dir})
		text := renderAll(t, r, e)
		got.Tables[id] = sha256hex([]byte(text))
		got.Traces[id] = hashTraceDir(t, dir)
	}

	if *updateEngineGolden {
		if err := os.MkdirAll(filepath.Dir(engineGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(engineGoldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", engineGoldenPath)
		return
	}

	data, err := os.ReadFile(engineGoldenPath)
	if err != nil {
		t.Fatalf("reading golden (regenerate with -update-engine-golden): %v", err)
	}
	var want engineGolden
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	for _, id := range engineGoldenSample {
		if got.Tables[id] != want.Tables[id] {
			t.Errorf("%s: table hash %s != golden %s — engine change altered simulated results",
				id, got.Tables[id], want.Tables[id])
		}
		if got.Traces[id] != want.Traces[id] {
			t.Errorf("%s: trace hash %s != golden %s — engine change altered trace content",
				id, got.Traces[id], want.Traces[id])
		}
	}
}
