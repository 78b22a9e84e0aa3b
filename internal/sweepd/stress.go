package sweepd

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"sync"
	"time"

	"multicore/internal/analytic"
	"multicore/internal/experiments"
	"multicore/internal/schema"
)

// StressOptions configures the durable-coordination stress harness: a
// large screened grid swept through a real coordinator + worker fleet
// while chaos kills workers and SIGKILLs (simulated) and restarts the
// coordinator, with the final table checked byte-for-byte against a
// serial screened run.
type StressOptions struct {
	// Cells is the approximate grid size; the rank axis is stretched
	// until the grid reaches it. 1_000_000 is the million-cell
	// configuration; the default exercises the same machinery in less
	// wall time.
	Cells int
	// Seed drives the deterministic chaos schedule (which worker dies
	// when, where the coordinator restart lands).
	Seed int64
	// Workers is the worker-process count (default 2); Slots the
	// concurrent cells per worker (default 2).
	Workers int
	Slots   int
	// StoreDir/StateDir default to temporary directories.
	StoreDir string
	StateDir string
	// Logf receives progress; nil discards.
	Logf func(format string, args ...any)
}

// StressReport summarizes a passed stress run.
type StressReport struct {
	Cells       int
	Screened    int
	Promoted    int
	Simulated   int
	StoreHits   int
	WorkerKills int
	CoordKills  int
	Elapsed     time.Duration
}

func (r StressReport) String() string {
	return fmt.Sprintf("%d cells (%d screened, %d promoted, %d simulated, %d store hits), %d worker kills, %d coordinator kills, %s",
		r.Cells, r.Screened, r.Promoted, r.Simulated, r.StoreHits, r.WorkerKills, r.CoordKills, r.Elapsed.Round(time.Millisecond))
}

// stressGrid stretches the rank axis until the grid holds at least n
// cells. Oversubscribed rank counts are fine — they screen as ordinary
// (often infeasible or high-uncertainty) cells.
func stressGrid(n int) Grid {
	g := Grid{
		Workloads: []string{"stream", "cg", "ra"},
		Systems:   []string{"tiger", "longs"},
		Schemes:   []string{"default", "localalloc", "membind", "interleave"},
		Scale:     "quick",
	}
	perRank := len(g.Workloads) * len(g.Systems) * len(g.Schemes)
	ranks := (n + perRank - 1) / perRank
	if ranks < 1 {
		ranks = 1
	}
	for r := 1; r <= ranks; r++ {
		g.Ranks = append(g.Ranks, r)
	}
	return g
}

// splitmix64 is the chaos schedule's deterministic RNG.
type splitmix64 uint64

func (s *splitmix64) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// stressCoordinator is one coordinator incarnation bound to a real TCP
// listener (so a restarted incarnation can rebind the same address —
// what clients reconnect to).
type stressCoordinator struct {
	coord *Coordinator
	srv   *http.Server
}

func startStressCoordinator(addr string, opts CoordinatorOptions) (*stressCoordinator, string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, "", fmt.Errorf("sweepd: stress listener: %v", err)
	}
	coord, err := NewCoordinator(opts)
	if err != nil {
		ln.Close()
		return nil, "", err
	}
	sc := &stressCoordinator{coord: coord, srv: &http.Server{Handler: coord.Handler()}}
	go sc.srv.Serve(ln)
	return sc, ln.Addr().String(), nil
}

// kill simulates SIGKILL: connections are severed and the journal is
// abandoned unflushed — nothing is shut down gracefully.
func (sc *stressCoordinator) kill() {
	sc.coord.crash()
	sc.srv.Close()
}

func (sc *stressCoordinator) close() {
	sc.coord.Close()
	sc.srv.Close()
}

// Stress runs the harness; see StressOptions. The sweep must complete
// despite the chaos and produce a table byte-identical to the serial
// screened run, simulating each promoted cell at most once overall
// (kills can force re-runs of in-flight cells, but completed cells are
// always served from the store).
func Stress(ctx context.Context, opts StressOptions) (StressReport, error) {
	var rep StressReport
	if opts.Cells <= 0 {
		opts.Cells = 100000
	}
	if opts.Workers <= 0 {
		opts.Workers = 2
	}
	if opts.Slots <= 0 {
		opts.Slots = 2
	}
	logf := opts.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	if opts.StoreDir == "" {
		dir, err := os.MkdirTemp("", "mcstress-store-*")
		if err != nil {
			return rep, err
		}
		defer os.RemoveAll(dir)
		opts.StoreDir = dir
	}
	if opts.StateDir == "" {
		dir, err := os.MkdirTemp("", "mcstress-state-*")
		if err != nil {
			return rep, err
		}
		defer os.RemoveAll(dir)
		opts.StateDir = dir
	}
	g := stressGrid(opts.Cells)
	rep.Cells = g.Size()
	start := time.Now()

	// Serial screened golden: the byte-exact reference the chaotic
	// distributed run must reproduce.
	logf("stress: serial screened golden over %d cells", rep.Cells)
	runner := experiments.NewRunner(ctx, experiments.Options{Parallelism: 1})
	golden, _ := RunScreened(runner, analytic.New(), g, ScreenOptions{}, 1)
	goldenTable := Table(g, golden).Text()

	coordOpts := CoordinatorOptions{
		Lease:    2 * time.Second,
		StateDir: opts.StateDir,
		// Sync aggressively: the harness kills the coordinator without
		// flushing, and the run must still recover losslessly enough to
		// finish (idempotent replay absorbs whatever the tail lost).
		SyncEvery: 16,
		PingEvery: time.Second,
		Logf:      func(string, ...any) {}, // coordinator chatter drowns progress
	}
	sc, addr, err := startStressCoordinator("127.0.0.1:0", coordOpts)
	if err != nil {
		return rep, err
	}
	defer func() { sc.close() }()
	base := "http://" + addr
	logf("stress: coordinator on %s (state %s)", base, opts.StateDir)

	// Worker fleet. Workers are restartable: the chaos loop kills one and
	// starts a replacement.
	workerCtx, stopWorkers := context.WithCancel(ctx)
	defer stopWorkers()
	var wg sync.WaitGroup
	var mu sync.Mutex
	var cancels []context.CancelFunc
	startWorker := func(name string) {
		w, err := NewWorker(WorkerOptions{
			Coordinator: base, Store: opts.StoreDir, Name: name,
			Domain: "stress-" + name, Parallelism: opts.Slots,
		})
		if err != nil {
			logf("stress: worker %s failed to start: %v", name, err)
			return
		}
		wctx, cancel := context.WithCancel(workerCtx)
		mu.Lock()
		cancels = append(cancels, cancel)
		mu.Unlock()
		wg.Add(1)
		go func() { defer wg.Done(); w.Run(wctx) }()
	}
	for i := 0; i < opts.Workers; i++ {
		startWorker(fmt.Sprintf("sw%d", i))
	}

	// The client sweep: Submit's resume machinery spans the coordinator
	// kill transparently.
	results := map[string]CellResult{}
	var resMu sync.Mutex
	sumc := make(chan *Summary, 1)
	errc := make(chan error, 1)
	go func() {
		sum, err := Submit(ctx, base, SweepRequest{
			SchemaVersion: schema.Version, Grid: g, Screen: true, Client: "stress",
		}, func(r CellResult) {
			resMu.Lock()
			results[r.Cell.Key()] = r
			resMu.Unlock()
		})
		sumc <- sum
		errc <- err
	}()

	// Chaos: kill a worker (and start a replacement) on a seed-derived
	// cadence, and SIGKILL+restart the coordinator once, mid-sweep. The
	// timing jitters with the seed; the result bytes may not depend on
	// any of it.
	rng := splitmix64(opts.Seed)
	chaosDone := make(chan struct{})
	go func() {
		defer close(chaosDone)
		killed := 0
		coordKilled := false
		for i := 0; ; i++ {
			delay := 150*time.Millisecond + time.Duration(rng.next()%350)*time.Millisecond
			select {
			case <-workerCtx.Done():
				return
			case <-time.After(delay):
			}
			if !coordKilled && i >= 1 {
				coordKilled = true
				logf("stress: SIGKILL coordinator")
				sc.kill()
				rep.CoordKills++
				select {
				case <-workerCtx.Done():
					return
				case <-time.After(time.Duration(200+rng.next()%400) * time.Millisecond):
				}
				nsc, _, err := startStressCoordinator(addr, coordOpts)
				if err != nil {
					logf("stress: coordinator restart failed: %v", err)
					return
				}
				mu.Lock()
				sc = nsc
				mu.Unlock()
				logf("stress: coordinator restarted on %s", base)
				continue
			}
			if killed < opts.Workers {
				mu.Lock()
				cancel := cancels[killed]
				mu.Unlock()
				cancel()
				killed++
				rep.WorkerKills++
				logf("stress: killed worker %d, starting replacement", killed)
				startWorker(fmt.Sprintf("sw%d-r", killed))
			}
		}
	}()

	sum := <-sumc
	err = <-errc
	stopWorkers()
	<-chaosDone
	wg.Wait()
	if err != nil {
		return rep, fmt.Errorf("sweepd: stress sweep failed: %v", err)
	}
	rep.Screened = sum.Screened
	rep.Promoted = sum.Promoted
	rep.Simulated = sum.Simulated
	rep.StoreHits = sum.StoreHits
	rep.Elapsed = time.Since(start)

	resMu.Lock()
	got := Table(g, results).Text()
	resMu.Unlock()
	if got != goldenTable {
		return rep, fmt.Errorf("sweepd: stress table diverges from serial golden (%d cells)", rep.Cells)
	}
	if sum.Divergent != 0 {
		return rep, fmt.Errorf("sweepd: stress run observed %d divergent completions", sum.Divergent)
	}
	logf("stress: table byte-identical to serial golden")
	return rep, nil
}
