// Command mcbench regenerates the paper's tables and figures on the
// simulated systems.
//
// Usage:
//
//	mcbench [-scale quick|full] [-format text|md|csv] [-out DIR] [-j N]
//	        [-store DIR] [-resume] [-timeout D] [-faults PLAN]
//	        [-fault-seed N] [-retries N] <id>...|all|list
//	mcbench -sweep GRID [-remote URL] [-priority N] [-client ID]
//	        [-screen [-promote-margin F] [-uncertainty-bound F]
//	        [-calibrate -store DIR]] [flags]
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
// Every simulation of every experiment runs as one cell through one
// runner path, so -j (engines in flight), -timeout (wall-clock budget
// per engine), -faults, -retries, -trace and -store reach all of them.
// Sweeps are resilient: SIGINT/SIGTERM cancels the running simulations
// cleanly (exit 130), a failed or timed-out cell renders as ERR instead
// of killing the run (exit 1), and with -store every completed cell is
// persisted so the next invocation (add -resume to also retry failed
// cells) re-runs only what is missing and reproduces byte-identical
// tables. Concurrent -store runs may share a directory; a cell both of
// them miss is simulated twice, to the same result. With -faults, the
// deterministic perturbations of a fault plan (see internal/fault) are
// injected into every simulation; -retries re-attempts cells that fail
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

	"multicore/internal/analytic"
	"multicore/internal/experiments"
	"multicore/internal/fault"
	"multicore/internal/report"
	"multicore/internal/schema"
	"multicore/internal/store"
	"multicore/internal/sweepd"
)

func main() {
	scale := flag.String("scale", "quick", "problem scale: quick or full (paper sizes)")
	format := flag.String("format", "text", "output format: text, md, csv, or plot")
	outDir := flag.String("out", "", "directory to write per-experiment files (default: stdout)")
	jobs := flag.Int("j", runtime.GOMAXPROCS(0), "max simulations in flight (1 = fully serial)")
	traceDir := flag.String("trace", "", "directory for one Chrome trace-event JSON file per simulation")
	storeDir := flag.String("store", "", "directory of the persistent cell-result store (created if missing)")
	resume := flag.Bool("resume", false, "with -store: re-run cells whose stored status is error instead of reporting the recorded failure")
	timeout := flag.Duration("timeout", 0, "wall-clock budget per simulation (0 = unbounded), e.g. 30s")
	faults := flag.String("faults", "", `deterministic fault plan injected into every simulation, e.g. "noise:core=3,period=1ms,frac=0.1;linkdown:s0-s1,t=2ms..5ms"`)
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
	flag.Usage = usage
	flag.Parse()

	if flag.NArg() == 0 && *sweep == "" && !*calibrate {
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
	if *timeout < 0 {
		fatalf("-timeout must be non-negative (0 = unbounded)")
	}
	if *resume && *storeDir == "" {
		fatalf("-resume needs -store DIR (there is nothing to resume from)")
	}
	if *retries < 0 {
		fatalf("-retries must be non-negative")
	}
	if *screen && *sweep == "" {
		fatalf("-screen needs -sweep GRID (paper artifacts always simulate)")
	}
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if *promoteMargin <= 0 {
		fatalf("-promote-margin must be positive")
	}
	if *uncBound <= 0 {
		fatalf("-uncertainty-bound must be positive")
	}
	if (set["promote-margin"] || set["uncertainty-bound"]) && !*screen {
		fatalf("-promote-margin and -uncertainty-bound need -screen (they tune screening)")
	}
	if *calibrate && *storeDir == "" {
		fatalf("-calibrate needs -store DIR (calibration fits against stored simulation results)")
	}
	if *calibrate && flag.NArg() != 0 {
		fatalf("-calibrate applies to screened sweeps or runs alone (paper artifacts always simulate)")
	}
	if *calibrate && *sweep != "" && !*screen {
		fatalf("-calibrate with -sweep needs -screen (calibration corrects screening estimates)")
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
		if cellStore, err = store.Open(*storeDir); err != nil {
			fatalf("%v", err)
		}
		defer cellStore.Close()
		opts.Store = cellStore
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
	// strictly in request order; otherwise they all start at once and
	// the runner's -j slots bound the engines simulating across them.
	// Outputs are still emitted in request order. A failed cell renders
	// ERR and an experiment that panics outside its cells reports its
	// error; either way the rest of the sweep continues and mcbench
	// exits 1.
	outputs := make([]string, len(exps))
	errs := make([]error, len(exps))
	runOne := func(i int) {
		e := exps[i]
		fmt.Fprintf(os.Stderr, "running %s: %s\n", e.ID, e.Title)
		tables, err := runner.Run(e, sc)
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
	if *jobs <= 1 || len(exps) == 1 {
		for i := range exps {
			runOne(i)
		}
	} else {
		var wg sync.WaitGroup
		for i := range exps {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				runOne(i)
			}(i)
		}
		wg.Wait()
	}

	interrupted := ctx.Err() != nil
	failed := 0
	for i, e := range exps {
		if errs[i] != nil {
			if !experiments.IsCanceled(errs[i]) {
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
		exit(130)
	}
	if failed > 0 || len(runner.CellErrors()) > 0 {
		exit(1)
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
	failed := false // an ERR cell was rendered
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
			failed = true
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
			exit(130)
		}
		for _, e := range runner.CellErrors() {
			fmt.Fprintf(os.Stderr, "mcbench: cell error: %v\n", e)
			failed = true
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
	if failed {
		exit(1)
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
	exit(1)
}

// cellStore is the -store handle. exit closes it, sealing the segment
// this run wrote, which os.Exit would skip.
var cellStore *store.Store

func exit(code int) {
	if cellStore != nil {
		cellStore.Close()
	}
	os.Exit(code)
}
