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
// deterministic-error cell).
type ScreenDecision struct {
	Cell    CellSpec
	Est     analytic.Estimate
	HasEst  bool
	Promote bool
	Reason  string
	Result  CellResult
}

// ScreenGrid prices every cell of the grid analytically and applies the
// promotion rule. Pure in-process float math on cached layout and
// profile aggregates: no simulation, no I/O, and deterministic — equal
// grids yield byte-equal decisions regardless of who screens them.
func ScreenGrid(e *analytic.Estimator, g Grid, opts ScreenOptions) []ScreenDecision {
	opts = opts.withDefaults()

	// Resolve the grid dimensions once; a table row then costs one
	// Estimator.Row call plus a fingerprint for each settled cell.
	schemes := make([]affinity.Scheme, len(g.Schemes))
	schemeErr := make([]error, len(g.Schemes))
	for i, s := range g.Schemes {
		schemes[i], schemeErr[i] = affinity.ParseScheme(s)
	}
	est := make([]analytic.Estimate, len(schemes))
	errs := make([]error, len(schemes))
	decisions := make([]ScreenDecision, g.Size())
	n := 0
	for _, w := range g.Workloads {
		spec, specErr := workload.ParseSpec(w)
		spec.Class, spec.Steps, spec.N = g.Class, g.Steps, g.N
		wkey := experiments.AppendWorkloadKey(nil, spec)
		for _, sys := range g.Systems {
			for _, r := range g.Ranks {
				row := decisions[n : n+len(schemes)]
				n += len(schemes)
				if specErr == nil {
					e.Row(spec, sys, r, schemes, est, errs)
				}
				for si := range row {
					d := &row[si]
					d.Cell = CellSpec{
						Workload: w, Class: g.Class, Steps: g.Steps, N: g.N,
						System: sys, Ranks: r, Scheme: g.Schemes[si], Scale: g.Scale,
					}
					// Deterministic spec errors and infeasible placements
					// settle exactly like the simulator path (same status and
					// error text, so the same fingerprint); model errors
					// promote.
					switch {
					case specErr != nil:
						d.Result = resultFor(d.Cell, 0, specErr)
					case schemeErr[si] != nil:
						d.Result = resultFor(d.Cell, 0, schemeErr[si])
					case isInfeasible(errs[si]):
						settle(d, wkey, StatusInfeasible)
					case errs[si] != nil:
						d.Promote, d.Reason = true, ReasonUnestimable
					default:
						d.Est, d.HasEst = est[si], true
						if est[si].Uncertainty > opts.UncertaintyBound {
							d.Promote, d.Reason = true, ReasonUncertainty
						}
					}
				}
				promoteCrossovers(row, opts.PromoteMargin)
				for si := range row {
					if d := &row[si]; !d.Promote && d.Result.Status == "" {
						settle(d, wkey, StatusEstimated)
					}
				}
			}
		}
	}
	return decisions
}

// settle records a screened cell's result under status, carrying its
// estimate (zero for an infeasible cell). wkey is the cell's workload
// key, computed once per grid workload.
func settle(d *ScreenDecision, wkey []byte, status string) {
	d.Result = CellResult{Cell: d.Cell, Status: status, Seconds: d.Est.Seconds, Uncertainty: d.Est.Uncertainty}
	var buf [256]byte
	d.Result.Fingerprint = fingerprint(appendKeyTail(append(buf[:0], wkey...), &d.Cell), &d.Result)
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
	for _, d := range decisions {
		if d.Promote {
			promoted = append(promoted, d.Cell)
		} else {
			results[d.Cell.Key()] = d.Result
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
