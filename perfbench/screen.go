package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"strconv"
	"time"

	"multicore/internal/affinity"
	"multicore/internal/analytic"
	"multicore/internal/experiments"
	"multicore/internal/sweepd"
	catalog "multicore/internal/workload"
)

// screenGrid prices a stress-shaped grid of about a million cells with
// sweepd.ScreenGrid on one goroutine, from a fresh estimator each pass:
// analytic pricing, which no other workload reaches.
type screenGrid struct {
	cfg config
	lo  int // first rank of the window
	// want is the pinned decision digest for this window; empty in tiny
	// runs, which check only that no cell failed.
	want string
}

// The stress-grid shape: three kernel families on two paper systems
// under four schemes, stretched along the rank axis. Rows are screened
// in screenSlices consecutive rank slices, because one decision slice
// for the whole grid holds about 800 MB; promotion is decided per row
// (workload, system, ranks), so the decisions are those of one call.
var (
	screenWorkloads = []string{"stream", "cg", "ra"}
	screenSystems   = []string{"tiger", "longs"}
	screenSchemes   = []string{"default", "localalloc", "membind", "interleave"}
)

const (
	screenRanks   = 41667 // x 24 cells per rank = 1,000,008 cells
	screenSlices  = 8
	screenWindows = 16 // seeds choose the window's first rank among 1..16
)

func newScreenGrid(cfg config) (*screenGrid, error) {
	w := &screenGrid{cfg: cfg, lo: 1 + int(uint64(cfg.Seed)%screenWindows)}
	if !cfg.Tiny {
		key := strconv.Itoa(w.lo)
		var ok bool
		if w.want, ok = loadPins().Screen[key]; !ok {
			return nil, fmt.Errorf("no pinned screen digest for window %s", key)
		}
	}
	// Resolve the grid's names once, as a submission would.
	if err := w.slice(w.lo, w.lo).Validate(); err != nil {
		return nil, err
	}
	return w, nil
}

func (w *screenGrid) ranks() int {
	if w.cfg.Tiny {
		return 400
	}
	return screenRanks
}

// slice is the grid restricted to ranks lo..hi.
func (w *screenGrid) slice(lo, hi int) sweepd.Grid {
	g := sweepd.Grid{Workloads: screenWorkloads, Systems: screenSystems, Schemes: screenSchemes,
		Scale: experiments.Quick.String()}
	for r := lo; r <= hi; r++ {
		g.Ranks = append(g.Ranks, r)
	}
	return g
}

// screenOutcome summarizes one screening of the whole window.
type screenOutcome struct {
	cells, promoted, errors int
	mallocs                 float64 // inside ScreenGrid
	digest                  string
}

// screen prices the window slice by slice. timed accumulates the time
// spent inside ScreenGrid only.
func (w *screenGrid) screen(timed *time.Duration) screenOutcome {
	e := analytic.New()
	h := sha256.New()
	var buf []byte
	var o screenOutcome
	n := w.ranks()
	per := (n + screenSlices - 1) / screenSlices
	for lo := w.lo; lo < w.lo+n; lo += per {
		hi := min(lo+per, w.lo+n) - 1
		g := w.slice(lo, hi)
		rt0 := readRuntime()
		t0 := time.Now()
		ds := sweepd.ScreenGrid(e, g, sweepd.ScreenOptions{})
		*timed += time.Since(t0)
		o.mallocs += runtimeSince(rt0).mallocs
		for i := range ds {
			buf = digestDecision(h, buf, &ds[i])
			if ds[i].Promote {
				o.promoted++
			} else if ds[i].Result.Status == sweepd.StatusError {
				o.errors++
			}
		}
		o.cells += len(ds)
	}
	o.digest = hex.EncodeToString(h.Sum(nil))
	return o
}

// digestDecision folds one decision into the digest: the cell, the
// verdict and its reason, the settled result's fingerprint, and the
// estimate's exact bits. buf is scratch space, returned for reuse.
func digestDecision(h hash.Hash, buf []byte, d *sweepd.ScreenDecision) []byte {
	c := &d.Cell
	buf = append(buf[:0], c.Workload...)
	buf = append(append(buf, '|'), c.System...)
	buf = strconv.AppendInt(append(buf, '|'), int64(c.Ranks), 10)
	buf = append(append(buf, '|'), c.Scheme...)
	buf = strconv.AppendBool(append(buf, '|'), d.Promote)
	buf = append(append(buf, '|'), d.Reason...)
	buf = append(append(buf, '|'), d.Result.Fingerprint...)
	buf = strconv.AppendBool(append(buf, '|'), d.HasEst)
	buf = strconv.AppendFloat(append(buf, '|'), d.Est.Seconds, 'x', -1, 64)
	buf = strconv.AppendFloat(append(buf, '|'), d.Est.Uncertainty, 'x', -1, 64)
	h.Write(append(buf, '\n'))
	return buf
}

func (w *screenGrid) pass(traced bool, out *passOut) error {
	o := w.screen(&out.wall)
	out.attempted += o.cells + 1
	out.failed += o.errors
	if w.want != "" && o.digest != w.want {
		fmt.Fprintf(errLog, "perfbench: screen digest %s, pinned %s\n", o.digest, w.want)
		out.failed++
	}
	out.values["screen_cells_per_s"] = float64(o.cells) / out.wall.Seconds()
	out.values["analytic.cell_ns"] = float64(out.wall.Nanoseconds()) / float64(o.cells)
	out.values["analytic.promoted_frac"] = float64(o.promoted) / float64(o.cells)
	out.values["analytic.mallocs_per_cell"] = o.mallocs / float64(o.cells)
	return nil
}

func (w *screenGrid) prepare() error { return nil }

// layers times analytic.Estimator.Cell alone over the window's first
// slice, from a fresh estimator: the pricing share of a screened cell,
// without the decisions and result fingerprints ScreenGrid adds.
func (w *screenGrid) layers(_ []*passOut, m map[string]float64) error {
	n := min(w.ranks(), (w.ranks()+screenSlices-1)/screenSlices)
	g := w.slice(w.lo, w.lo+n-1)
	specs := map[string]catalog.Spec{}
	for _, name := range g.Workloads {
		spec, err := catalog.ParseSpec(name)
		if err != nil {
			return err
		}
		specs[name] = spec
	}
	schemes := map[string]affinity.Scheme{}
	for _, name := range g.Schemes {
		s, err := affinity.ParseScheme(name)
		if err != nil {
			return err
		}
		schemes[name] = s
	}
	cells := g.Cells()
	e := analytic.New()
	t0 := time.Now()
	for _, c := range cells {
		e.Cell(specs[c.Workload], c.System, c.Ranks, schemes[c.Scheme])
	}
	m["analytic.estimate_ns"] = float64(time.Since(t0).Nanoseconds()) / float64(len(cells))
	return nil
}

func (w *screenGrid) close() {}
