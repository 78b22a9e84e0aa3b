package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"time"

	"multicore/internal/experiments"
	"multicore/internal/paperdata"
	"multicore/internal/report"
)

// paperRow binds a transcribed paper table to the experiment table that
// regenerates it, as cmd/mccompare does.
type paperRow struct {
	paperID string
	expID   string
	index   int
}

// experimentRun is the paper-tables and scale-10k workload: registered
// experiments run through experiments.Runner.Run on a fresh runner each
// pass, so every cell simulates.
type experimentRun struct {
	exps  []experiments.Experiment
	pins  map[string]string
	paper []paperRow // rows scored for fidelity_spearman; none for scale-10k
}

func newExperimentRun(cfg config, ids []string, paper []paperRow) (*experimentRun, error) {
	w := &experimentRun{paper: paper, pins: loadPins().Tables}
	for _, id := range ids {
		e, ok := experiments.ByID(id)
		if !ok {
			return nil, fmt.Errorf("no experiment %q", id)
		}
		w.exps = append(w.exps, e)
	}
	rand.New(rand.NewSource(cfg.Seed)).Shuffle(len(w.exps), func(i, j int) {
		w.exps[i], w.exps[j] = w.exps[j], w.exps[i]
	})
	return w, nil
}

// paperTables is table2 (NAS CG/FT on Longs) and table14 (POP
// barotropic): the engine-bound experiments that dominate `mcbench all`.
func paperTables(cfg config) (*experimentRun, error) {
	if cfg.Tiny {
		return newExperimentRun(cfg, []string{"table3"}, []paperRow{
			{"table3-cg", "table3", 0}, {"table3-ft", "table3", 1},
		})
	}
	return newExperimentRun(cfg, []string{"table2", "table14"}, []paperRow{
		{"table2-cg", "table2", 0}, {"table2-ft", "table2", 1}, {"table14", "table14", 0},
	})
}

// scale10k is ext-scale: ring-halo at 64, 1024 and 10240 ranks.
func scale10k(cfg config) (*experimentRun, error) {
	return newExperimentRun(cfg, []string{"ext-scale"}, nil)
}

func (w *experimentRun) pass(traced bool, out *passOut) error {
	r := experiments.NewRunner(context.Background(), experiments.Options{Parallelism: slots()})
	tables := map[string][]*report.Table{}
	t0 := time.Now()
	for _, e := range w.exps {
		ts, err := r.Run(e, experiments.Quick)
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		tables[e.ID] = ts
	}
	out.wall = time.Since(t0)

	for _, e := range w.exps {
		out.attempted++
		if !w.check(e.ID, tables[e.ID]) {
			out.failed++
		}
	}
	for _, err := range r.CellErrors() {
		fmt.Fprintf(errLog, "perfbench: cell error: %v\n", err)
	}
	if len(w.paper) > 0 {
		s, err := fidelity(w.paper, tables)
		if err != nil {
			return err
		}
		out.values["fidelity_spearman"] = s
	}
	if ts, ok := tables["ext-scale"]; ok {
		msgs, err := columnSum(ts[0], "Messages")
		if err != nil {
			return err
		}
		out.values["mpi.messages"] = msgs
	}
	return nil
}

// check compares an experiment's rendered tables with the hash pinned
// from a known-good tree.
func (w *experimentRun) check(id string, ts []*report.Table) bool {
	want, ok := w.pins[id]
	got := sha256Hex(renderTables(ts))
	if !ok || got != want {
		fmt.Fprintf(errLog, "perfbench: %s tables hash %s, pinned %q\n", id, got, want)
		return false
	}
	return true
}

func (w *experimentRun) prepare() error { return nil }

func (w *experimentRun) layers([]*passOut, map[string]float64) error { return nil }
func (w *experimentRun) close()                                      {}

func renderTables(ts []*report.Table) string {
	var b strings.Builder
	for _, t := range ts {
		b.WriteString(t.Text())
	}
	return b.String()
}

func sha256Hex(s string) string {
	h := sha256.Sum256([]byte(s))
	return hex.EncodeToString(h[:])
}

// fidelity is the mean Spearman correlation between the paper's rows and
// the measured ones, over every bound row, computed as cmd/mccompare
// computes its OVERALL line.
func fidelity(rows []paperRow, tables map[string][]*report.Table) (float64, error) {
	paper := paperdata.Tables()
	var ags []paperdata.Agreement
	for _, b := range rows {
		ts := tables[b.expID]
		if b.index >= len(ts) {
			return 0, fmt.Errorf("%s: experiment %s returned %d tables", b.paperID, b.expID, len(ts))
		}
		for _, row := range paper[b.paperID].Rows {
			cells, ok := measuredRow(ts[b.index], row.Tasks, row.System)
			if !ok {
				continue
			}
			ags = append(ags, paperdata.Compare(row.Cells, cells))
		}
	}
	s, _ := paperdata.Summary(ags)
	if math.IsNaN(s) {
		return 0, fmt.Errorf("no paper rows matched the measured tables")
	}
	return s, nil
}

// measuredRow finds the table row whose first two cells are (tasks,
// system) and parses the remaining cells, a dash becoming NaN — the
// same row matching cmd/mccompare does.
func measuredRow(t *report.Table, tasks int, system string) ([]float64, bool) {
	want := strconv.Itoa(tasks)
	for i := 0; i < t.NumRows(); i++ {
		if t.Cell(i, 0) != want || t.Cell(i, 1) != system {
			continue
		}
		var out []float64
		for c := 2; c < t.NumCols(); c++ {
			v, err := strconv.ParseFloat(t.Cell(i, c), 64)
			if err != nil {
				v = math.NaN()
			}
			out = append(out, v)
		}
		return out, true
	}
	return nil, false
}

// columnSum adds up a numeric column of a rendered table.
func columnSum(t *report.Table, column string) (float64, error) {
	col := -1
	for i, c := range t.Columns {
		if c == column {
			col = i
		}
	}
	if col < 0 {
		return 0, fmt.Errorf("table %q has no column %q", t.Title, column)
	}
	sum := 0.0
	for i := 0; i < t.NumRows(); i++ {
		v, err := strconv.ParseFloat(t.Cell(i, col), 64)
		if err != nil {
			return 0, fmt.Errorf("table %q column %q: %v", t.Title, column, err)
		}
		sum += v
	}
	return sum, nil
}
