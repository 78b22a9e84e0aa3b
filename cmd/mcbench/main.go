// Command mcbench regenerates the paper's tables and figures on the
// simulated systems.
//
// Usage:
//
//	mcbench [-scale quick|full] [-format text|md|csv] [-out DIR] [-j N]
//	        [-store DIR] [-resume] [-timeout D] [-json FILE] [-delta FILE]
//	        [-delta-tol F] [-faults PLAN] [-fault-seed N]
//	        [-retries N] <id>...|all|list
//	mcbench -sweep GRID [-remote URL] [-priority N] [-client ID]
//	        [-screen] [-promote-margin F]
//	        [-uncertainty-bound F] [-calibrate] [flags]
//	mcbench -calibrate -store DIR
//
// Experiment ids are the paper artifact names: fig2..fig17, table2..table14.
//
// With -sweep, mcbench runs an arbitrary workload × system × ranks ×
// scheme grid (e.g. "workloads=stream,cg;systems=tiger,dmz;ranks=1,2;
// schemes=default,localalloc"; ranks accepts lo..hi ranges) instead of
// a paper artifact and renders one makespan table. Adding -remote URL
// submits the same grid to an mcsweepd coordinator and streams per-cell
// results as workers complete them; the remote table is byte-identical
// to the local serial one. Remote streams survive coordinator restarts:
// the client reconnects with its resume token and replays only the
// results it missed. -priority (0 bulk .. 9 interactive) weights the
// coordinator's dequeue; -client names this submission for the
// coordinator's per-client admission quota (429 + Retry-After past it).
//
// Adding -screen engages the two-tier executor: every cell is priced by
// the analytic roofline model (internal/analytic) and only cells the
// model cannot settle — schemes within -promote-margin of a ranking
// flip, estimates above -uncertainty-bound, families without a profile
// — are simulated. Estimated cells render as ~seconds, promoted cells
// as seconds*. With -calibrate the estimator first fits per-class
// correction factors from the -store's simulated results and prints the
// residual-error report; standalone `mcbench -calibrate -store DIR`
// prints just the report.
//
// Sweeps are resilient: SIGINT/SIGTERM cancels the running simulations
// cleanly, a per-cell -timeout bounds any one cell's wall-clock cost, a
// panicking cell renders as ERR instead of killing the run, and with
// -store every completed cell is persisted so the next invocation (add
// -resume to also retry failed cells) re-runs only what is missing and
// reproduces byte-identical tables. Concurrent -store runs over the same
// directory are serialized by an advisory lock. With -faults, the
// deterministic perturbations of a fault plan (see internal/fault) are
// injected into every cell; -retries re-attempts cells that fail
// transiently.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"

	"multicore/internal/affinity"
	"multicore/internal/analytic"
	"multicore/internal/experiments"
	"multicore/internal/fault"
	"multicore/internal/report"
	"multicore/internal/schema"
	"multicore/internal/sim"
	"multicore/internal/store"
	"multicore/internal/sweepd"
	"multicore/internal/workload"
)

func main() {
	scale := flag.String("scale", "quick", "problem scale: quick or full (paper sizes)")
	format := flag.String("format", "text", "output format: text, md, csv, or plot")
	outDir := flag.String("out", "", "directory to write per-experiment files (default: stdout)")
	jobs := flag.Int("j", runtime.GOMAXPROCS(0), "max simulations in flight (1 = fully serial)")
	traceDir := flag.String("trace", "", "directory for per-cell Chrome trace-event JSON files")
	storeDir := flag.String("store", "", "directory of the persistent cell-result store (created if missing)")
	resume := flag.Bool("resume", false, "with -store: re-run cells whose stored status is error instead of reporting the recorded failure")
	timeout := flag.Duration("timeout", 0, "wall-clock budget per simulated cell (0 = unbounded), e.g. 30s")
	jsonOut := flag.String("json", "", "write per-experiment benchmark records (wall time, events, settles, allocs, ranks, peak heap) to FILE; runs experiments serially")
	deltaFile := flag.String("delta", "", "with -json: compare the new records against the committed snapshot FILE and fail on a >10% wall-time or allocation regression")
	note := flag.String("note", "", "free-form note recorded in the -json output")
	faults := flag.String("faults", "", `deterministic fault plan injected into every cell, e.g. "noise:core=3,period=1ms,frac=0.1;linkdown:s0-s1,t=2ms..5ms"`)
	faultSeed := flag.Int64("fault-seed", 1, "seed for the fault plan's random draws (phases, cell failures)")
	retries := flag.Int("retries", 0, "re-attempts per cell that fails with a transient fault (0 = no retry)")
	sweep := flag.String("sweep", "", `grid sweep instead of paper artifacts, e.g. "workloads=stream,cg;systems=tiger;ranks=1,2;schemes=default,localalloc" (systems take registered names or @FILE spec files)`)
	remote := flag.String("remote", "", "with -sweep: submit the grid to this mcsweepd coordinator URL and stream results")
	priority := flag.Int("priority", 0, "with -remote: sweep priority 0 (bulk) to 9 (interactive); the coordinator weights its dequeue (priority+1):1")
	client := flag.String("client", "", "with -remote: client id for the coordinator's per-client admission quota (default: hostname)")
	screen := flag.Bool("screen", false, "with -sweep: two-tier execution — price every cell analytically, simulate only promoted cells (scheme crossovers and high-uncertainty estimates)")
	promoteMargin := flag.Float64("promote-margin", sweepd.DefaultPromoteMargin, "with -screen: fractional closeness of two schemes' estimates that promotes both to simulation")
	uncBound := flag.Float64("uncertainty-bound", sweepd.DefaultUncertaintyBound, "with -screen: model uncertainty above which a cell promotes to simulation")
	calibrate := flag.Bool("calibrate", false, "with -store: fit per-workload-class correction factors from stored simulation results and report residual error (applied to -screen estimates)")
	screenBench := flag.Int("screen-bench", 0, "with -json: benchmark analytic screening over a synthetic grid of at least N cells and record the throughput")
	deltaTol := flag.Float64("delta-tol", 0.10, "with -delta: fractional wall-time/allocation regression tolerated before failing")
	flag.Usage = usage
	flag.Parse()

	if flag.NArg() == 0 && *sweep == "" && !*calibrate && *screenBench == 0 {
		usage()
		os.Exit(2)
	}

	sc, err := experiments.ParseScale(*scale)
	if err != nil {
		fatalf("%v", err)
	}
	if *jobs < 1 {
		fatalf("-j must be at least 1")
	}
	if *resume && *storeDir == "" {
		fatalf("-resume needs -store DIR (there is nothing to resume from)")
	}
	if *retries < 0 {
		fatalf("-retries must be non-negative")
	}
	if *deltaFile != "" && *jsonOut == "" {
		fatalf("-delta needs -json FILE (there are no records to compare)")
	}
	if *deltaTol <= 0 {
		fatalf("-delta-tol must be positive")
	}
	if *screen && *sweep == "" {
		fatalf("-screen needs -sweep GRID (paper artifacts always simulate)")
	}
	if *calibrate && *storeDir == "" {
		fatalf("-calibrate needs -store DIR (calibration fits against stored simulation results)")
	}
	if *screenBench != 0 && *jsonOut == "" {
		fatalf("-screen-bench needs -json FILE (it records a benchmark)")
	}
	if *priority < 0 || *priority > sweepd.MaxPriority {
		fatalf("-priority must be between 0 and %d", sweepd.MaxPriority)
	}
	if (*priority != 0 || *client != "") && *remote == "" {
		fatalf("-priority and -client apply to remote sweeps (-remote URL)")
	}
	if *client == "" {
		host, _ := os.Hostname()
		*client = host
	}
	if *screenBench < 0 {
		fatalf("-screen-bench must be non-negative")
	}
	opts := experiments.Options{
		Parallelism:  *jobs,
		Resume:       *resume,
		CellTimeout:  *timeout,
		TraceDir:     *traceDir,
		Retries:      *retries,
		RetryBackoff: 100 * time.Millisecond,
	}
	if *faults != "" {
		plan, err := fault.Parse(*faults, *faultSeed)
		if err != nil {
			fatalf("%v", err)
		}
		opts.Faults = plan
	}
	if *traceDir != "" {
		if err := os.MkdirAll(*traceDir, 0o755); err != nil {
			fatalf("creating %s: %v", *traceDir, err)
		}
	}
	if *storeDir != "" {
		st, err := store.Open(*storeDir)
		if err != nil {
			fatalf("%v", err)
		}
		// Serialize whole sweeps: a second mcbench on the same store would
		// resimulate every cell this one has in flight.
		if ok, err := st.TryLock(); err != nil {
			fatalf("%v", err)
		} else if !ok {
			fmt.Fprintf(os.Stderr, "mcbench: store %s is locked by another run; waiting...\n", *storeDir)
			if err := st.Lock(); err != nil {
				fatalf("%v", err)
			}
		}
		defer st.Unlock()
		opts.Store = st
	}

	// SIGINT/SIGTERM cancels the sweep: in-flight engines abort, no new
	// cells start, and (with -store) completed cells stay on disk for a
	// later -resume-style run.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	render := renderer(*format)

	if *sweep != "" {
		if flag.NArg() != 0 {
			fatalf("-sweep and experiment ids are mutually exclusive")
		}
		if *jsonOut != "" {
			fatalf("-json applies to paper artifacts, not -sweep grids")
		}
		cfg := screenCfg{enabled: *screen, margin: *promoteMargin, bound: *uncBound, calibrate: *calibrate}
		runSweep(ctx, *sweep, *remote, *scale, opts, render, *faults, *faultSeed, *retries, *jobs, *storeDir, cfg, *client, *priority)
		return
	}
	if *remote != "" {
		fatalf("-remote needs -sweep GRID (paper artifacts always run locally)")
	}
	if *calibrate && flag.NArg() == 0 {
		// Standalone calibration report: fit against the store and print.
		if _, err := calibrateEstimator(analytic.New(), opts.Store); err != nil {
			fatalf("%v", err)
		}
		return
	}

	var ids []string
	for _, arg := range flag.Args() {
		switch arg {
		case "list":
			for _, e := range experiments.All() {
				fmt.Printf("%-8s %s\n", e.ID, e.Title)
			}
			return
		case "all":
			for _, e := range experiments.All() {
				ids = append(ids, e.ID)
			}
		default:
			ids = append(ids, arg)
		}
	}

	exps := make([]experiments.Experiment, len(ids))
	for i, id := range ids {
		e, ok := experiments.ByID(id)
		if !ok {
			fatalf("unknown experiment %q (try `mcbench list`)", id)
		}
		exps[i] = e
	}

	runner := experiments.NewRunner(ctx, opts)

	// Render every requested experiment. With -j 1 the experiments run
	// strictly in request order; otherwise they run concurrently (each
	// one's cells already share the worker pool) and outputs are still
	// emitted in request order. A failing experiment (panic, stored
	// failure) reports its error and the rest of the sweep continues.
	outputs := make([]string, len(exps))
	errs := make([]error, len(exps))
	runOne := func(r *experiments.Runner, i int) {
		e := exps[i]
		fmt.Fprintf(os.Stderr, "running %s: %s\n", e.ID, e.Title)
		tables, err := r.Run(e, sc)
		if err != nil {
			errs[i] = err
			return
		}
		var b strings.Builder
		fmt.Fprintf(&b, "# %s — %s\n\nPaper: %s\n\n", e.ID, e.Title, e.Paper)
		for _, t := range tables {
			b.WriteString(render(t))
			b.WriteString("\n")
		}
		outputs[i] = b.String()
	}
	switch {
	case *jsonOut != "":
		// Benchmark mode: experiments run one at a time (cells still use
		// the worker pool) so the activity/allocation deltas measured
		// around each one are attributable to it. Each experiment gets a
		// fresh runner so shared cells are re-simulated and the timings
		// reflect actual simulation work. The persistent store is
		// deliberately not consulted here for the same reason.
		benchOpts := opts
		benchOpts.Store = nil
		// Peak heap is only attributable to an experiment when its cells
		// run serially: with -j > 1 the sampled peak spans however many
		// cells were in flight, so the column is omitted rather than
		// recording a misleading per-experiment number.
		sampleHeap := *jobs <= 1
		if !sampleHeap {
			fmt.Fprintf(os.Stderr, "mcbench: -j %d > 1: peak_heap_bytes omitted from %s (peaks are only per-experiment when cells run serially)\n",
				*jobs, *jsonOut)
		}
		records := make([]benchRecord, len(exps))
		for i := range exps {
			r := experiments.NewRunner(ctx, benchOpts)
			records[i] = measure(exps[i].ID, sampleHeap, func() { runOne(r, i) })
		}
		var sInfo *screenInfo
		if *screenBench > 0 {
			var rec benchRecord
			rec, sInfo = measureScreen(*screenBench)
			records = append(records, rec)
			fmt.Fprintf(os.Stderr, "mcbench: screened %d cells in %.3fs (%.0f cells/sec, single-threaded)\n",
				sInfo.Cells, sInfo.Seconds, sInfo.CellsPerSec)
		}
		writeBenchJSON(*jsonOut, *note, *scale, records, sInfo)
		if *deltaFile != "" {
			if err := checkBenchDelta(*deltaFile, records, *deltaTol); err != nil {
				fmt.Fprintf(os.Stderr, "mcbench: %v\n", err)
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr, "mcbench: no regression against %s (tolerance %.0f%%)\n", *deltaFile, 100**deltaTol)
		}
	case *jobs <= 1 || len(exps) == 1:
		for i := range exps {
			runOne(runner, i)
		}
	default:
		// Experiment-level fan-out uses plain goroutines gated by their
		// own semaphore so they never hold cell-pool slots while waiting.
		sem := make(chan struct{}, *jobs)
		var wg sync.WaitGroup
		for i := range exps {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				sem <- struct{}{}
				defer func() { <-sem }()
				runOne(runner, i)
			}(i)
		}
		wg.Wait()
	}

	interrupted := ctx.Err() != nil
	failed := 0
	for i, e := range exps {
		if errs[i] != nil {
			if !isCancellation(errs[i]) {
				fmt.Fprintf(os.Stderr, "mcbench: %s failed: %v\n", e.ID, errs[i])
				failed++
			}
			continue
		}
		if *outDir == "" {
			fmt.Print(outputs[i])
			continue
		}
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fatalf("creating %s: %v", *outDir, err)
		}
		path := filepath.Join(*outDir, e.ID+ext(*format))
		if err := os.WriteFile(path, []byte(outputs[i]), 0o644); err != nil {
			fatalf("writing %s: %v", path, err)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", path)
	}

	for _, err := range runner.CellErrors() {
		fmt.Fprintf(os.Stderr, "mcbench: cell error: %v\n", err)
	}
	if *storeDir != "" {
		fmt.Fprintf(os.Stderr, "cells: %d simulated, %d store hits (store: %s)\n",
			runner.CellsRun(), runner.StoreHits(), *storeDir)
	}
	if interrupted {
		fmt.Fprintf(os.Stderr, "mcbench: interrupted\n")
		if *storeDir != "" {
			fmt.Fprintf(os.Stderr, "mcbench: completed cells are saved; re-run the same command to continue\n")
		}
		os.Exit(130)
	}
	if failed > 0 {
		os.Exit(1)
	}
}

// screenCfg carries the two-tier executor settings into runSweep.
type screenCfg struct {
	enabled       bool
	margin, bound float64
	calibrate     bool
}

// runSweep executes a -sweep grid: locally on one runner (the serial
// golden path when -j 1), or against an mcsweepd coordinator with
// -remote. Both paths assemble the table through sweepd.Table, so a
// distributed sweep's output is byte-identical to the serial run's.
// With -screen, tier A prices every cell analytically and only promoted
// cells reach the simulator — locally through sweepd.RunScreened, or on
// the coordinator, which screens the grid in-process and leases only
// the promoted sliver to workers.
func runSweep(ctx context.Context, gridStr, remote, scale string, opts experiments.Options,
	render func(*report.Table) string, faults string, faultSeed int64, retries, jobs int, storeDir string, cfg screenCfg,
	client string, priority int) {
	g, err := sweepd.ParseGrid(gridStr)
	if err != nil {
		fatalf("%v", err)
	}
	g.Scale = scale
	if cfg.enabled && faults != "" {
		fatalf("-screen cannot price fault plans (drop -faults or -screen)")
	}
	var results map[string]sweepd.CellResult
	var sum sweepd.Summary
	if remote != "" {
		if storeDir != "" {
			fatalf("-store belongs to the workers in remote mode (they share the cell cache)")
		}
		req := sweepd.SweepRequest{
			SchemaVersion: schema.Version,
			Grid:          g,
			Faults:        faults,
			FaultSeed:     faultSeed,
			Retries:       retries,
			Client:        client,
			Priority:      priority,
		}
		if cfg.enabled {
			req.Screen = true
			req.PromoteMargin = cfg.margin
			req.UncertaintyBound = cfg.bound
		}
		results = make(map[string]sweepd.CellResult)
		total := g.Size()
		s, err := sweepd.Submit(ctx, remote, req, func(res sweepd.CellResult) {
			results[res.Cell.Key()] = res
			fmt.Fprintf(os.Stderr, "cell %d/%d %s: %s\n", len(results), total, res.Cell.Key(), res.Status)
		})
		if err != nil {
			var qe *sweepd.QuotaError
			if errors.As(err, &qe) {
				fatalf("%v (retry in %s, or resubmit with a higher quota on the coordinator)", qe, qe.RetryAfter)
			}
			fatalf("%v", err)
		}
		if s != nil {
			sum = *s
		}
		if sum.Errors > 0 {
			fmt.Fprintf(os.Stderr, "mcbench: %d cells failed (rendered ERR)\n", sum.Errors)
		}
		if sum.Divergent > 0 {
			fmt.Fprintf(os.Stderr, "mcbench: WARNING: coordinator observed %d divergent cell fingerprints\n", sum.Divergent)
		}
	} else {
		runner := experiments.NewRunner(ctx, opts)
		if cfg.enabled {
			e := analytic.New()
			if cfg.calibrate {
				if _, err := calibrateEstimator(e, opts.Store); err != nil {
					fatalf("%v", err)
				}
			}
			sopts := sweepd.ScreenOptions{PromoteMargin: cfg.margin, UncertaintyBound: cfg.bound}
			var decisions []sweepd.ScreenDecision
			results, decisions = sweepd.RunScreened(runner, e, g, sopts, jobs)
			sum = sweepd.ScreenSummary(decisions, results)
		} else {
			results = sweepd.RunLocal(runner, g, jobs)
		}
		if ctx.Err() != nil {
			fmt.Fprintf(os.Stderr, "mcbench: interrupted\n")
			os.Exit(130)
		}
		for _, e := range runner.CellErrors() {
			fmt.Fprintf(os.Stderr, "mcbench: cell error: %v\n", e)
		}
		sum.Simulated, sum.StoreHits = runner.CellsRun(), runner.StoreHits()
	}
	fmt.Print(render(sweepd.Table(g, results)))
	if cfg.enabled {
		fmt.Fprintf(os.Stderr, "cells: %d screened analytically, %d promoted to simulation\n",
			sum.Screened, sum.Promoted)
	}
	if remote != "" || storeDir != "" {
		fmt.Fprintf(os.Stderr, "cells: %d simulated, %d store hits\n", sum.Simulated, sum.StoreHits)
	}
}

// calibrateEstimator fits the estimator's per-class correction factors
// from the persistent store's ok-status entries, installs them, and
// prints the residual-error report.
func calibrateEstimator(e *analytic.Estimator, st *store.Store) (analytic.Calibration, error) {
	if st == nil {
		return analytic.Calibration{}, fmt.Errorf("-calibrate needs -store DIR")
	}
	entries, err := st.List()
	if err != nil {
		return analytic.Calibration{}, err
	}
	obs := make([]sweepd.StoreObservation, 0, len(entries))
	for _, ent := range entries {
		var secs float64
		if ent.Status == store.StatusOK {
			if err := json.Unmarshal(ent.Value, &secs); err != nil {
				continue // not a makespan cell (table artifact, etc.)
			}
		}
		obs = append(obs, sweepd.StoreObservation{
			Workload: ent.Key.Workload,
			System:   ent.Key.System,
			Ranks:    ent.Key.Ranks,
			Scheme:   ent.Key.Scheme,
			Faults:   ent.Key.Faults,
			Status:   ent.Status,
			Seconds:  secs,
		})
	}
	cal, err := sweepd.CalibrateFromStore(e, obs)
	if err != nil {
		return cal, err
	}
	e.SetCalibration(cal.Factors)
	fmt.Fprint(os.Stderr, cal.String())
	return cal, nil
}

// screenInfo is the throughput record of a -screen-bench run.
type screenInfo struct {
	Cells       int     `json:"cells"`
	Seconds     float64 `json:"seconds"`
	CellsPerSec float64 `json:"cells_per_sec"`
}

// measureScreen benchmarks the analytic screening tier single-threaded
// over a synthetic grid of at least minCells cells: every registry
// workload × every system × every placement scheme, with the rank
// dimension grown until the grid is big enough. The wall time and
// allocation count land in the benchmark records (id "screen") so the
// delta gate tracks screening regressions like any experiment.
func measureScreen(minCells int) (benchRecord, *screenInfo) {
	systems := []string{"tiger", "dmz", "longs"}
	schemes := make([]string, len(affinity.Schemes))
	for i, s := range affinity.Schemes {
		schemes[i] = s.CLIName()
	}
	workloads := workload.Names()
	per := len(workloads) * len(systems) * len(schemes)
	maxRanks := (minCells + per - 1) / per
	ranks := make([]int, maxRanks)
	for i := range ranks {
		ranks[i] = i + 1
	}
	g := sweepd.Grid{Workloads: workloads, Systems: systems, Ranks: ranks, Schemes: schemes, Scale: "quick"}
	e := analytic.New()
	var n int
	rec := measure("screen", false, func() {
		n = len(sweepd.ScreenGrid(e, g, sweepd.ScreenOptions{}))
	})
	return rec, &screenInfo{Cells: n, Seconds: rec.Seconds, CellsPerSec: float64(n) / rec.Seconds}
}

// isCancellation reports whether err only says "the sweep was stopped".
func isCancellation(err error) bool {
	var ce *sim.CanceledError
	return errors.As(err, &ce) ||
		errors.Is(err, context.Canceled) ||
		errors.Is(err, context.DeadlineExceeded)
}

// benchRecord is one experiment's measured cost: wall time plus the
// simulation activity (engine events, flow-network settling passes, flows,
// processes spawned) and heap behavior it exhibited. Ranks counts every
// simulated process — MPI ranks plus transient helpers — so
// peak_heap_bytes/ranks is the memory-per-rank figure scale regressions
// show up in.
type benchRecord struct {
	ID      string  `json:"id"`
	Seconds float64 `json:"seconds"`
	Events  uint64  `json:"events"`
	Flows   uint64  `json:"flows"`
	Settles uint64  `json:"settles"`
	Mallocs uint64  `json:"mallocs"`
	Ranks   uint64  `json:"ranks"`
	// PeakHeapBytes is omitted (zero) when the worker pool is active
	// (-j > 1): a sampled peak spanning concurrent cells is not a
	// per-experiment number.
	PeakHeapBytes uint64 `json:"peak_heap_bytes,omitempty"`
}

// measure runs fn and attributes the process-wide activity and allocation
// deltas to it; only valid when experiments run one at a time. Peak heap
// is sampled by a 10ms ticker (plus a final read), so it is a lower bound
// that is within one GC cycle of the true peak — stable enough for the
// order-of-magnitude bytes-per-rank tracking the snapshots do. With
// sampleHeap false (cells run on a parallel pool) the peak is not
// sampled and the record's PeakHeapBytes stays zero.
func measure(id string, sampleHeap bool, fn func()) benchRecord {
	var m0, m1 runtime.MemStats
	ev0, fl0, st0, sp0 := sim.Activity()
	runtime.ReadMemStats(&m0)
	peak := m0.HeapAlloc
	stop := make(chan struct{})
	done := make(chan struct{})
	if sampleHeap {
		go func() {
			defer close(done)
			t := time.NewTicker(10 * time.Millisecond)
			defer t.Stop()
			var m runtime.MemStats
			for {
				select {
				case <-stop:
					return
				case <-t.C:
					runtime.ReadMemStats(&m)
					if m.HeapAlloc > peak {
						peak = m.HeapAlloc
					}
				}
			}
		}()
	} else {
		close(done)
	}
	start := time.Now()
	fn()
	secs := time.Since(start).Seconds()
	close(stop)
	<-done
	runtime.ReadMemStats(&m1)
	if m1.HeapAlloc > peak {
		peak = m1.HeapAlloc
	}
	ev1, fl1, st1, sp1 := sim.Activity()
	rec := benchRecord{
		ID:      id,
		Seconds: secs,
		Events:  ev1 - ev0,
		Flows:   fl1 - fl0,
		Settles: st1 - st0,
		Mallocs: m1.Mallocs - m0.Mallocs,
		Ranks:   sp1 - sp0,
	}
	if sampleHeap {
		rec.PeakHeapBytes = peak
	}
	return rec
}

// checkBenchDelta compares fresh records against a committed snapshot and
// reports an error when any experiment regressed by more than the -delta-tol
// fraction in wall time or allocations. Experiments absent from the snapshot are skipped
// (new artifacts are not regressions) but logged, so lost coverage is
// visible — and if *nothing* overlaps (say, a baseline captured at a
// different -scale), the gate errors out instead of passing vacuously.
// Wall time is only compared when the baseline ran long enough (≥50ms)
// for the ratio to mean anything.
func checkBenchDelta(path string, records []benchRecord, tol float64) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("reading -delta baseline: %v", err)
	}
	var base struct {
		Experiments []benchRecord `json:"experiments"`
	}
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("decoding -delta baseline %s: %v", path, err)
	}
	byID := make(map[string]benchRecord, len(base.Experiments))
	for _, r := range base.Experiments {
		byID[r.ID] = r
	}
	tolerance := 1 + tol
	var regressions, skipped []string
	compared := 0
	for _, r := range records {
		b, ok := byID[r.ID]
		if !ok {
			skipped = append(skipped, r.ID)
			continue
		}
		compared++
		if b.Seconds >= 0.05 && r.Seconds > b.Seconds*tolerance {
			regressions = append(regressions,
				fmt.Sprintf("%s: wall time %.3fs vs baseline %.3fs (+%.0f%%)",
					r.ID, r.Seconds, b.Seconds, 100*(r.Seconds/b.Seconds-1)))
		}
		if b.Mallocs > 0 && float64(r.Mallocs) > float64(b.Mallocs)*tolerance {
			regressions = append(regressions,
				fmt.Sprintf("%s: %d mallocs vs baseline %d (+%.0f%%)",
					r.ID, r.Mallocs, b.Mallocs, 100*(float64(r.Mallocs)/float64(b.Mallocs)-1)))
		}
	}
	if len(skipped) > 0 {
		fmt.Fprintf(os.Stderr, "mcbench: -delta: no baseline in %s for %s (skipped — regression coverage lost)\n",
			path, strings.Join(skipped, ", "))
	}
	if compared == 0 {
		return fmt.Errorf("-delta: none of the %d fresh records match an experiment in %s — nothing was compared (baseline from a different id set or -scale?)",
			len(records), path)
	}
	if len(regressions) > 0 {
		return fmt.Errorf("benchmark regression vs %s:\n  %s", path, strings.Join(regressions, "\n  "))
	}
	return nil
}

// writeBenchJSON writes the schema-versioned benchmark envelope to path.
// A non-nil screen record adds the analytic-screening throughput section.
func writeBenchJSON(path, note, scale string, records []benchRecord, sInfo *screenInfo) {
	env := struct {
		SchemaVersion int           `json:"schema_version"`
		Note          string        `json:"note,omitempty"`
		Scale         string        `json:"scale"`
		Go            string        `json:"go"`
		MaxProcs      int           `json:"maxprocs"`
		Screen        *screenInfo   `json:"screen,omitempty"`
		Experiments   []benchRecord `json:"experiments"`
	}{SchemaVersion: schema.Version, Note: note, Scale: scale, Go: runtime.Version(), MaxProcs: runtime.GOMAXPROCS(0), Screen: sInfo, Experiments: records}
	data, err := json.MarshalIndent(env, "", "  ")
	if err != nil {
		fatalf("encoding %s: %v", path, err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		fatalf("writing %s: %v", path, err)
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", path)
}

func renderer(format string) func(*report.Table) string {
	switch format {
	case "text":
		return (*report.Table).Text
	case "md":
		return (*report.Table).Markdown
	case "csv":
		return (*report.Table).CSV
	case "plot":
		return func(t *report.Table) string { return t.Chart(16) }
	}
	fatalf("unknown format %q (want text, md, csv, or plot)", format)
	return nil
}

func ext(format string) string {
	switch format {
	case "md":
		return ".md"
	case "csv":
		return ".csv"
	}
	return ".txt"
}

func usage() {
	fmt.Fprintf(os.Stderr, `mcbench regenerates the paper's tables and figures.

usage: mcbench [flags] <id>...|all|list

flags:
`)
	flag.PrintDefaults()
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "mcbench: "+format+"\n", args...)
	os.Exit(1)
}
