// Command mcsweepd is the distributed sweep service: one binary serving
// either role of the coordinator/worker system in internal/sweepd.
//
// Coordinator mode shards submitted sweeps across registered workers and
// streams per-cell results back to clients as NDJSON:
//
//	mcsweepd -serve 127.0.0.1:9141 [-state DIR] [-lease 15s] [-quota N]
//
// With -state DIR the coordinator is durable: submissions, cell
// finalizations, and lease attempts journal to DIR, so a coordinator
// that is SIGKILL'd mid-sweep restarts to the exact queue state —
// re-leasing only unfinished cells — and clients resume their result
// streams by token without re-simulating anything. -quota caps one
// client's in-flight cells (admission control, 429 past it); sweep
// priorities weight the dequeue so interactive sweeps are not starved
// by bulk submissions.
//
// Worker mode pulls cell leases, simulates them through the experiment
// executor with the (shared) result store as a global cache, and reports
// results; run any number against one coordinator:
//
//	mcsweepd -worker http://127.0.0.1:9141 -store /shared/cellstore [-j N] [-domain rack1]
//
// -domain labels the worker's failure domain (host, rack, zone);
// repeated lease expiries quarantine the whole domain with exponential
// backoff instead of re-leasing cells into known-bad hardware.
//
// Clients submit sweeps with `mcbench -sweep GRID -remote URL`. Workers
// heartbeat their leases; kill -9 a worker mid-cell and the coordinator
// re-queues its cells after the lease expires, with results guaranteed
// byte-identical to a serial run by the per-cell determinism
// fingerprints.
//
// Screened sweeps (`mcbench -sweep GRID -remote URL -screen`) never
// reach the workers in full: the coordinator prices the whole grid
// through the analytic screening tier in-process — about a microsecond
// per cell — and leases only the promoted cells (scheme crossovers
// within the client's promote margin, high-uncertainty estimates, and
// families without an analytic profile). A million-cell grid submission
// streams back mostly "estimated" cells immediately and occupies the
// worker fleet only with the contested sliver.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"multicore/internal/sweepd"
)

func main() {
	serve := flag.String("serve", "", "coordinator mode: listen address, e.g. 127.0.0.1:9141")
	worker := flag.String("worker", "", "worker mode: coordinator base URL, e.g. http://127.0.0.1:9141")
	storeDir := flag.String("store", "", "worker mode: shared result-store directory (global cell cache)")
	name := flag.String("name", "", "worker mode: label reported to the coordinator (default: hostname)")
	domain := flag.String("domain", "", "worker mode: failure-domain label (default: hostname)")
	jobs := flag.Int("j", runtime.GOMAXPROCS(0), "worker mode: cells simulated concurrently")
	stateDir := flag.String("state", "", "coordinator mode: durable state directory (journal + snapshot); empty = in-memory only")
	lease := flag.Duration("lease", 15*time.Second, "coordinator mode: lease duration workers must heartbeat within")
	maxAttempts := flag.Int("max-attempts", 5, "coordinator mode: lease assignments per cell before it fails")
	quota := flag.Int("quota", 0, "coordinator mode: max in-flight cells per client (0 = unlimited)")
	retention := flag.Duration("retention", 15*time.Minute, "coordinator mode: how long sweeps outlive their last client (resume window)")
	quiet := flag.Bool("quiet", false, "suppress per-event logging")
	flag.Parse()

	if (*serve == "") == (*worker == "") {
		fmt.Fprintln(os.Stderr, "mcsweepd: exactly one of -serve ADDR or -worker URL is required")
		flag.Usage()
		os.Exit(2)
	}

	switch {
	case *jobs < 1:
		fatalf("-j must be at least 1")
	case *lease <= 0:
		fatalf("-lease must be positive")
	case *maxAttempts < 1:
		fatalf("-max-attempts must be at least 1")
	case *quota < 0:
		fatalf("-quota must be non-negative (0 = unlimited)")
	case *retention <= 0:
		fatalf("-retention must be positive")
	}

	log.SetFlags(log.Ltime | log.Lmicroseconds)
	logf := log.Printf
	if *quiet {
		logf = func(string, ...any) {}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *serve != "" {
		coord, err := sweepd.NewCoordinator(sweepd.CoordinatorOptions{
			Lease:                *lease,
			MaxAttempts:          *maxAttempts,
			StateDir:             *stateDir,
			MaxInflightPerClient: *quota,
			SweepRetention:       *retention,
			Logf:                 logf,
		})
		if err != nil {
			fatalf("%v", err)
		}
		defer coord.Close()
		srv := &http.Server{Addr: *serve, Handler: coord.Handler()}
		errc := make(chan error, 1)
		go func() { errc <- srv.ListenAndServe() }()
		durable := "in-memory"
		if *stateDir != "" {
			durable = "state " + *stateDir
		}
		log.Printf("mcsweepd: coordinating on %s (lease %s, %s)", *serve, *lease, durable)
		select {
		case err := <-errc:
			fatalf("%v", err)
		case <-ctx.Done():
		}
		shCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(shCtx); err != nil {
			fatalf("shutdown: %v", err)
		}
		return
	}

	if *name == "" {
		host, _ := os.Hostname()
		*name = host
	}
	if *domain == "" {
		host, _ := os.Hostname()
		*domain = host
	}
	w, err := sweepd.NewWorker(sweepd.WorkerOptions{
		Coordinator: *worker,
		Store:       *storeDir,
		Name:        *name,
		Domain:      *domain,
		Parallelism: *jobs,
		Logf:        logf,
	})
	if err != nil {
		fatalf("%v", err)
	}
	log.Printf("mcsweepd: worker %q serving %s (store %q, domain %q, %d slots)", *name, *worker, *storeDir, *domain, *jobs)
	if err := w.Run(ctx); err != nil && !errors.Is(err, context.Canceled) {
		fatalf("%v", err)
	}
	cellsRun, hits := w.Stats()
	log.Printf("mcsweepd: worker done: %d cells simulated, %d store hits", cellsRun, hits)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "mcsweepd: "+format+"\n", args...)
	os.Exit(1)
}
