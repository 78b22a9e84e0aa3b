package sweepd

import (
	"errors"
	"fmt"

	"multicore/internal/affinity"
	"multicore/internal/analytic"
	"multicore/internal/experiments"
	"multicore/internal/workload"
)

// This file is the two-tier executor: tier A prices every cell of a grid
// through the analytic roofline model (internal/analytic) in
// microseconds, tier B promotes to full simulation only the cells where
// the model cannot settle the paper's question — which placement scheme
// wins — on its own. The promotion rule is per table row (workload,
// system, ranks): two schemes whose estimates are within PromoteMargin
// of each other could flip rank order inside the model's error band, so
// both simulate; a cell whose model uncertainty exceeds
// UncertaintyBound simulates; a cell the model cannot price at all
// (no analytic profile for the family) simulates. Everything else is
// reported as an estimate, so a million-cell grid costs seconds of
// screening plus simulation of the contested sliver.

// Default promotion thresholds. The margin matches the calibrated
// model's typical per-class residual (see analytic.Calibrate): scheme
// gaps wider than ~10% are outside the model's observed error, gaps
// inside it are genuinely ambiguous.
const (
	DefaultPromoteMargin    = 0.10
	DefaultUncertaintyBound = 0.50
)

// ScreenOptions tunes the promotion rule; zero fields take the
// defaults.
type ScreenOptions struct {
	PromoteMargin    float64
	UncertaintyBound float64
}

func (o ScreenOptions) withDefaults() ScreenOptions {
	if o.PromoteMargin <= 0 {
		o.PromoteMargin = DefaultPromoteMargin
	}
	if o.UncertaintyBound <= 0 {
		o.UncertaintyBound = DefaultUncertaintyBound
	}
	return o
}

// Promotion reasons recorded on ScreenDecision.Reason.
const (
	ReasonCrossover   = "crossover"   // within margin of another scheme: possible ranking flip
	ReasonUncertainty = "uncertainty" // model uncertainty above the bound
	ReasonUnestimable = "unestimable" // no analytic profile; only the simulator can price it
)

// ScreenDecision is the screening tier's verdict on one cell, in grid
// order. Exactly one of two shapes: Promote is set (the cell needs full
// simulation; Reason says why, Est is the estimate when one exists), or
// Result holds the settled outcome (an estimated, infeasible, or
// deterministic-error cell), whose wire form CellResult builds.
type ScreenDecision struct {
	Cell    CellSpec
	Est     analytic.Estimate
	HasEst  bool
	Promote bool
	Reason  string
	Result  ScreenResult
}

// ScreenResult is what a settled cell's wire result holds beyond its
// decision's Cell and Est: the result's Seconds and Uncertainty are the
// estimate's, zero for an infeasible or error cell.
type ScreenResult struct {
	Status      string
	Error       string
	Fingerprint string
}

// CellResult is the decision's wire result: the settled outcome, or the
// zero CellResult for a promoted cell, which only simulation settles.
func (d *ScreenDecision) CellResult() CellResult {
	if d.Promote {
		return CellResult{}
	}
	return CellResult{
		Cell: d.Cell, Status: d.Result.Status, Seconds: d.Est.Seconds, Error: d.Result.Error,
		Fingerprint: d.Result.Fingerprint, Uncertainty: d.Est.Uncertainty,
	}
}

// ScreenGrid prices every cell of the grid analytically and applies the
// promotion rule. Pure in-process float math on cached layout and
// profile aggregates: no simulation, no I/O, and deterministic — equal
// grids yield byte-equal decisions regardless of who screens them.
func ScreenGrid(e *analytic.Estimator, g Grid, opts ScreenOptions) []ScreenDecision {
	opts = opts.withDefaults()

	// Resolve the grid dimensions once; a table row then costs one
	// Estimator.Row call plus a hash for each settled cell.
	schemes := make([]affinity.Scheme, len(g.Schemes))
	schemeErr := make([]error, len(g.Schemes))
	for i, s := range g.Schemes {
		schemes[i], schemeErr[i] = affinity.ParseScheme(s)
	}
	specs := make([]workload.Spec, len(g.Workloads))
	specErr := make([]error, len(g.Workloads))
	wkeys := make([]string, len(g.Workloads)) // each workload's Key prefix
	for i, w := range g.Workloads {
		specs[i], specErr[i] = workload.ParseSpec(w)
		specs[i].Class, specs[i].Steps, specs[i].N = g.Class, g.Steps, g.N
		wkeys[i] = string(experiments.AppendWorkloadKey(nil, specs[i]))
	}
	est := make([]analytic.Estimate, len(schemes))
	errs := make([]error, len(schemes))
	decisions := make([]ScreenDecision, g.Size())
	// Decision i's fingerprint is fps[16*i:][:16], written in place
	// (unused when the cell promotes), so all of them share one string.
	fps := make([]byte, 16*len(decisions))
	var kbuf [256]byte
	// Each (system, ranks) row is priced for every workload in turn: the
	// estimator keeps the placement errors of only the last rank count
	// above a machine's core count, so the workloads share them. The
	// decisions still come back in grid order.
	for si, sys := range g.Systems {
		for ri, r := range g.Ranks {
			for wi, w := range g.Workloads {
				n := ((wi*len(g.Systems)+si)*len(g.Ranks) + ri) * len(schemes)
				row := decisions[n : n+len(schemes)]
				if specErr[wi] == nil {
					e.Row(specs[wi], sys, r, schemes, est, errs)
				}
				for k := range row {
					d := &row[k]
					d.Cell = CellSpec{
						Workload: w, Class: g.Class, Steps: g.Steps, N: g.N,
						System: sys, Ranks: r, Scheme: g.Schemes[k], Scale: g.Scale,
					}
					// Deterministic spec errors and infeasible placements
					// settle exactly like the simulator path (same status and
					// error text, so the same fingerprint); model errors
					// promote.
					switch {
					case specErr[wi] != nil:
						d.Result = ScreenResult{Status: StatusError, Error: specErr[wi].Error()}
					case schemeErr[k] != nil:
						d.Result = ScreenResult{Status: StatusError, Error: schemeErr[k].Error()}
					case isInfeasible(errs[k]):
						d.Result.Status = StatusInfeasible
					case errs[k] != nil:
						d.Promote, d.Reason = true, ReasonUnestimable
					default:
						d.Est, d.HasEst = est[k], true
						if est[k].Uncertainty > opts.UncertaintyBound {
							d.Promote, d.Reason = true, ReasonUncertainty
						}
					}
				}
				promoteCrossovers(row, opts.PromoteMargin)
				rowKey := appendRowKey(append(kbuf[:0], wkeys[wi]...), sys, r)
				for k := range row {
					d := &row[k]
					if d.Promote {
						continue
					}
					if d.Result.Status == "" {
						d.Result.Status = StatusEstimated
					}
					at := 16 * (n + k)
					key := appendSchemeKey(rowKey, g.Schemes[k], g.Scale)
					appendFingerprint(fps[at:at:at+16], key, d.Result.Status, d.Est.Seconds, d.Result.Error)
				}
			}
		}
	}
	all := string(fps)
	for i := range decisions {
		if d := &decisions[i]; !d.Promote {
			d.Result.Fingerprint = all[16*i:][:16]
		}
	}
	return decisions
}

// isInfeasible reports whether err is (or wraps) *affinity.ErrInfeasible.
// The direct assertion settles the common case before errors.As, whose
// target would otherwise be heap-allocated on every call.
func isInfeasible(err error) bool {
	if _, ok := err.(*affinity.ErrInfeasible); ok || err == nil {
		return ok
	}
	var inf *affinity.ErrInfeasible
	return errors.As(err, &inf)
}

// promoteCrossovers applies the ranking-flip rule to one table row:
// sort the estimable cells by estimate; any adjacent pair within the
// margin could swap order inside the model's error band, so both
// promote. Chains promote whole groups (a,b within margin and b,c
// within margin promotes all three) — exactly the set whose relative
// order the estimates cannot settle.
func promoteCrossovers(row []ScreenDecision, margin float64) {
	var buf [8]int
	idx := buf[:0]
	for i := range row {
		if row[i].HasEst {
			idx = append(idx, i)
		}
	}
	// A row holds a handful of schemes: insertion sort, which is stable
	// (byte-equal estimates keep row order) and allocates nothing.
	for k := 1; k < len(idx); k++ {
		for j := k; j > 0 && row[idx[j]].Est.Seconds < row[idx[j-1]].Est.Seconds; j-- {
			idx[j], idx[j-1] = idx[j-1], idx[j]
		}
	}
	for k := 0; k+1 < len(idx); k++ {
		a, b := &row[idx[k]], &row[idx[k+1]]
		if b.Est.Seconds <= a.Est.Seconds*(1+margin) {
			for _, d := range []*ScreenDecision{a, b} {
				if !d.Promote {
					d.Promote = true
					d.Reason = ReasonCrossover
				}
			}
		}
	}
}

// RunScreened executes a grid through the two-tier executor on one
// in-process runner: screen everything, simulate only the promoted
// cells (on up to workers goroutines), and merge. Promoted cells run
// through the exact same executor path as an unscreened sweep, so their
// results — store entries, seconds, fingerprints — are byte-identical
// to a direct run's.
func RunScreened(r *experiments.Runner, e *analytic.Estimator, g Grid, opts ScreenOptions, workers int) (map[string]CellResult, []ScreenDecision) {
	decisions := ScreenGrid(e, g, opts)
	results := make(map[string]CellResult, len(decisions))
	var promoted []CellSpec
	for i := range decisions {
		if d := &decisions[i]; d.Promote {
			promoted = append(promoted, d.Cell)
		} else {
			results[d.Cell.Key()] = d.CellResult()
		}
	}
	for k, res := range runCells(r, promoted, workers) {
		res.Promoted = true
		results[k] = res
	}
	return results, decisions
}

// ScreenSummary folds a screened sweep's decisions into the summary
// counters shared with the wire protocol.
func ScreenSummary(decisions []ScreenDecision, results map[string]CellResult) Summary {
	var sum Summary
	sum.Cells = len(decisions)
	for _, d := range decisions {
		if d.Promote {
			sum.Promoted++
			res, ok := results[d.Cell.Key()]
			if !ok {
				continue
			}
			switch res.Status {
			case StatusInfeasible:
				sum.Infeasible++
			case StatusError:
				sum.Errors++
			}
			continue
		}
		sum.Screened++
		switch d.Result.Status {
		case StatusInfeasible:
			sum.Infeasible++
		case StatusError:
			sum.Errors++
		}
	}
	return sum
}

// StoreObservation is the store-agnostic calibration input form;
// cmd/mcbench adapts persisted store.Entry records into it so this
// package does not depend on the store's schema plumbing.
type StoreObservation struct {
	Workload string
	System   string
	Ranks    int
	Scheme   string
	Faults   string
	Status   string
	Seconds  float64
}

// CalibrateFromStore fits the estimator's per-class correction factors
// from the simulation results already persisted in a cell store (see
// analytic.Calibrate). Only clean entries participate: ok-status cells
// with no fault plan. Entries whose workload or scheme does not parse
// back into a cell (parameter-override keys, foreign families) are
// skipped, not errors.
func CalibrateFromStore(e *analytic.Estimator, entries []StoreObservation) (analytic.Calibration, error) {
	var obs []analytic.Observation
	for _, ent := range entries {
		if ent.Status != StatusOK || ent.Faults != "" {
			continue
		}
		spec, err := workload.ParseSpec(ent.Workload)
		if err != nil {
			continue
		}
		scheme, ok := parseSchemeAny(ent.Scheme)
		if !ok {
			continue
		}
		obs = append(obs, analytic.Observation{
			Workload: spec,
			System:   ent.System,
			Ranks:    ent.Ranks,
			Scheme:   scheme,
			Seconds:  ent.Seconds,
		})
	}
	if len(obs) == 0 {
		return analytic.Calibration{}, fmt.Errorf("sweepd: no usable ok-status entries to calibrate from")
	}
	return analytic.Calibrate(e, obs)
}

// parseSchemeAny accepts a scheme in either serialized form: the CLI
// name sweep grids use ("localalloc") or the display name persisted in
// store keys ("One MPI + Local Alloc").
func parseSchemeAny(name string) (affinity.Scheme, bool) {
	if s, err := affinity.ParseScheme(name); err == nil {
		return s, true
	}
	for _, s := range affinity.Schemes {
		if s.String() == name {
			return s, true
		}
	}
	return 0, false
}
