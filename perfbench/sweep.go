package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"multicore/internal/affinity"
	"multicore/internal/experiments"
	"multicore/internal/schema"
	"multicore/internal/store"
	"multicore/internal/sweepd"
	"multicore/internal/sweepd/journal"
	catalog "multicore/internal/workload"
)

// sweepService runs a grid of cheap cells through a durable coordinator
// on loopback and two worker slots sharing a fresh store, all in this
// process. The cold pass simulates every cell and writes store and
// journal; the warm pass starts a new coordinator over the filled store,
// so every cell is leased, served by store.Get and completed without
// simulating. That isolates the control plane from the engine.
type sweepService struct {
	cfg   config
	grid  sweepd.Grid
	cells int
	// want is the grid's table from a serial sweepd.RunLocal: both passes
	// must render byte-identical tables.
	want string
	// ready is the service started at set-up, which the first pass uses.
	ready *service

	// Traced passes pool their request timings and first-cell latencies
	// here, and keep their last directory for the store and journal
	// probes.
	rtts      map[string]durations
	requests  []float64
	firstCell []float64
	lastDir   string
}

// The grid: six cheap kernels on the three paper systems under all six
// placement schemes, over a 16-wide rank window.
var (
	sweepWorkloads = []string{"stream", "daxpy", "dgemm", "fft", "ptrans", "ep"}
	sweepSystems   = []string{"tiger", "dmz", "longs"}
	sweepSchemes   = []string{"default", "localalloc", "membind", "2mpi-localalloc", "2mpi-membind", "interleave"}
)

const sweepRanks = 16

// sweepGrid derives the grid from the seed: the rank window starts at 1
// to 4, which keeps the feasible cells, and so the cost, nearly the
// same, and every dimension is shuffled, which changes the submission
// and lease order.
func sweepGrid(seed int64, tiny bool) sweepd.Grid {
	rng := rand.New(rand.NewSource(seed))
	g := sweepd.Grid{
		Workloads: append([]string(nil), sweepWorkloads...),
		Systems:   append([]string(nil), sweepSystems...),
		Schemes:   append([]string(nil), sweepSchemes...),
		Scale:     experiments.Quick.String(),
	}
	n := sweepRanks
	if tiny {
		g.Workloads, g.Systems, g.Schemes, n = g.Workloads[:2], g.Systems[:2], g.Schemes[:2], 2
	}
	lo := 1 + int(rng.Int63n(4))
	for r := lo; r < lo+n; r++ {
		g.Ranks = append(g.Ranks, r)
	}
	shuffle(rng, g.Workloads)
	shuffle(rng, g.Systems)
	shuffle(rng, g.Schemes)
	rng.Shuffle(len(g.Ranks), func(i, j int) { g.Ranks[i], g.Ranks[j] = g.Ranks[j], g.Ranks[i] })
	return g
}

func shuffle(rng *rand.Rand, s []string) {
	rng.Shuffle(len(s), func(i, j int) { s[i], s[j] = s[j], s[i] })
}

func newSweepService(cfg config) (*sweepService, error) {
	w := &sweepService{cfg: cfg, grid: sweepGrid(cfg.Seed, cfg.Tiny), rtts: map[string]durations{}}
	if err := w.grid.Validate(); err != nil {
		return nil, err
	}
	w.cells = len(w.grid.Cells())
	dir, err := os.MkdirTemp(cfg.Work, "sweep-")
	if err != nil {
		return nil, err
	}
	w.ready, err = startService(filepath.Join(dir, "store"), filepath.Join(dir, "state"), false)
	if err != nil {
		return nil, err
	}
	return w, nil
}

// prepare renders the serial golden table.
func (w *sweepService) prepare() error {
	r := experiments.NewRunner(context.Background(), experiments.Options{Parallelism: 1})
	w.want = sweepd.Table(w.grid, sweepd.RunLocal(r, w.grid, 1)).Text()
	return nil
}

func (w *sweepService) pass(traced bool, out *passOut) error {
	// The first pass, untraced, uses the service started at set-up.
	svc := w.ready
	w.ready = nil
	if svc == nil || traced {
		if svc != nil {
			svc.stop()
		}
		dir, err := os.MkdirTemp(w.cfg.Work, "sweep-")
		if err != nil {
			return err
		}
		if svc, err = startService(filepath.Join(dir, "store"), filepath.Join(dir, "state"), traced); err != nil {
			return err
		}
	}
	dir := filepath.Dir(svc.storeDir)
	cold, err := w.sweep(svc, out)
	if err != nil {
		return err
	}
	warmSvc, err := startService(svc.storeDir, filepath.Join(dir, "state-warm"), traced)
	if err != nil {
		return err
	}
	warm, err := w.sweep(warmSvc, out)
	if err != nil {
		return err
	}
	out.wall = cold.wall + warm.wall
	out.values["cold_cells_per_s"] = float64(w.cells) / cold.wall.Seconds()
	out.values["warm_cells_per_s"] = float64(w.cells) / warm.wall.Seconds()

	// The warm pass's premise: every cell came from the store.
	out.attempted++
	if warm.sum.Simulated != 0 || warm.storeHits != w.cells {
		fmt.Fprintf(errLog, "perfbench: warm pass simulated %d cells, %d store hits of %d\n",
			warm.sum.Simulated, warm.storeHits, w.cells)
		out.failed++
	}
	if !traced {
		return os.RemoveAll(dir)
	}

	out.values["store.hit_ratio"] = float64(warm.storeHits) / float64(w.cells)
	w.firstCell = append(w.firstCell, cold.firstCell.Seconds())
	n := 0
	for _, s := range []*service{svc, warmSvc} {
		byPath, failed := s.timing.take()
		for path, ds := range byPath {
			w.rtts[path] = append(w.rtts[path], ds...)
			n += len(ds)
		}
		n += failed
	}
	w.requests = append(w.requests, float64(n))
	if w.lastDir != "" {
		if err := os.RemoveAll(w.lastDir); err != nil {
			return err
		}
	}
	w.lastDir = dir
	return nil
}

type sweepOutcome struct {
	wall, firstCell time.Duration
	sum             *sweepd.Summary
	storeHits       int
}

// sweep submits the grid to a running service, stops the service, and
// checks the streamed table against the serial one.
func (w *sweepService) sweep(svc *service, out *passOut) (sweepOutcome, error) {
	var (
		mu      sync.Mutex
		results = map[string]sweepd.CellResult{}
		o       sweepOutcome
	)
	t0 := time.Now()
	sum, err := sweepd.Submit(context.Background(), svc.url, sweepd.SweepRequest{
		SchemaVersion: schema.Version, Grid: w.grid, Client: "perfbench",
	}, func(res sweepd.CellResult) {
		mu.Lock()
		if len(results) == 0 {
			o.firstCell = time.Since(t0)
		}
		results[res.Cell.Key()] = res
		mu.Unlock()
	})
	o.wall = time.Since(t0)
	if serr := svc.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return o, err
	}
	o.sum = sum
	for _, wk := range svc.workers {
		_, hits := wk.Stats()
		o.storeHits += hits
	}

	out.attempted += w.cells + 1
	for _, res := range results {
		if res.Status == sweepd.StatusError {
			out.failed++
		}
	}
	out.failed += sum.Divergent
	if got := sweepd.Table(w.grid, results).Text(); got != w.want {
		fmt.Fprintf(errLog, "perfbench: distributed sweep table differs from the serial one\n")
		out.failed++
	}
	return o, nil
}

// layers measures the store, the journal and the per-cell executor from
// outside, on the last traced pass's directories.
func (w *sweepService) layers(traced []*passOut, m map[string]float64) error {
	rtt := func(path string) durations { return w.rtts[path] }
	m["sweepd.poll_rtt_s.p50"] = percentile(rtt(sweepd.PathPoll), 50)
	m["sweepd.poll_rtt_s.p99"] = percentile(rtt(sweepd.PathPoll), 99)
	m["sweepd.complete_rtt_s.p50"] = percentile(rtt(sweepd.PathComplete), 50)
	m["sweepd.complete_rtt_s.p99"] = percentile(rtt(sweepd.PathComplete), 99)
	m["sweepd.requests"] = median(w.requests)
	m["sweepd.first_cell_s"] = median(w.firstCell)

	if err := w.journalLayer(m); err != nil {
		return err
	}
	if err := w.storeLayer(m); err != nil {
		return err
	}
	cells, err := w.cellTimes()
	if err != nil {
		return err
	}
	m["experiments.cell_s.p50"] = percentile(cells, 50)
	m["experiments.cell_s.p99"] = percentile(cells, 99)
	return nil
}

// journalLayer decodes the cold pass's journal, then replays its frames
// into a fresh journal with Append, calling Sync every 64 records as the
// coordinator does by default.
func (w *sweepService) journalLayer(m map[string]float64) error {
	data, err := os.ReadFile(filepath.Join(w.lastDir, "state", "journal.wal"))
	if err != nil {
		return err
	}
	frames, valid := journal.DecodeFrames(data)
	if valid != len(data) {
		return fmt.Errorf("journal has %d undecodable trailing bytes", len(data)-valid)
	}
	m["journal.records"] = float64(len(frames))
	m["journal.bytes"] = float64(len(data))

	j, _, _, err := journal.Open(filepath.Join(w.lastDir, "replay"))
	if err != nil {
		return err
	}
	var appends, syncs durations
	for i, f := range frames {
		appends.timeIt(func() { err = j.Append(f) })
		if err == nil && (i+1)%64 == 0 {
			syncs.timeIt(func() { err = j.Sync() })
		}
		if err != nil {
			j.Close()
			return err
		}
	}
	if err := j.Close(); err != nil {
		return err
	}
	m["journal.append_s.p50"] = percentile(appends, 50)
	m["journal.sync_s.p50"] = percentile(syncs, 50)
	m["journal.sync_s.p99"] = percentile(syncs, 99)
	return nil
}

// storeLayer lists the filled store, re-reads every key with Get, and
// re-Puts every entry into a fresh store.
func (w *sweepService) storeLayer(m map[string]float64) error {
	dir := filepath.Join(w.lastDir, "store")
	st, err := store.Open(dir)
	if err != nil {
		return err
	}
	n, err := st.Len()
	if err != nil {
		return err
	}
	entries, err := st.List()
	if err != nil {
		return err
	}
	files, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	bytes := 0.0
	for _, f := range files {
		if filepath.Ext(f.Name()) != ".json" {
			continue
		}
		info, err := f.Info()
		if err != nil {
			return err
		}
		bytes += float64(info.Size())
	}
	m["store.entries"] = float64(n)
	m["store.bytes"] = bytes

	fresh, err := store.Open(filepath.Join(w.lastDir, "store-replay"))
	if err != nil {
		return err
	}
	var gets, puts durations
	for _, e := range entries {
		gets.timeIt(func() { _, err = st.Get(e.Key) })
		if err != nil {
			return err
		}
		puts.timeIt(func() {
			switch e.Status {
			case store.StatusOK:
				err = fresh.Put(e.Key, e.Value)
			case store.StatusInfeasible:
				err = fresh.PutInfeasible(e.Key)
			default:
				err = fresh.PutError(e.Key, e.Error)
			}
		})
		if err != nil {
			return err
		}
	}
	m["store.get_s.p50"] = percentile(gets, 50)
	m["store.get_s.p99"] = percentile(gets, 99)
	m["store.put_s.p50"] = percentile(puts, 50)
	m["store.put_s.p99"] = percentile(puts, 99)
	return nil
}

// cellTimes runs every cell of the grid serially through
// Runner.RunWorkloadCell on a fresh runner, timing each call.
func (w *sweepService) cellTimes() (durations, error) {
	r := experiments.NewRunner(context.Background(), experiments.Options{Parallelism: 1})
	var ds durations
	for _, c := range w.grid.Cells() {
		spec, err := catalog.ParseSpec(c.Workload)
		if err != nil {
			return nil, err
		}
		scheme, err := affinity.ParseScheme(c.Scheme)
		if err != nil {
			return nil, err
		}
		var inf *affinity.ErrInfeasible
		ds.timeIt(func() { _, err = r.RunWorkloadCell(spec, c.System, c.Ranks, scheme, experiments.Quick) })
		if err != nil && !errors.As(err, &inf) {
			return nil, fmt.Errorf("cell %s: %w", c.Key(), err)
		}
	}
	return ds, nil
}

func (w *sweepService) close() {
	if w.ready != nil {
		w.ready.stop()
	}
}

// service is a durable coordinator serving on loopback plus its worker
// slots, each slot a worker of parallelism one sharing the store.
type service struct {
	url      string
	storeDir string
	coord    *sweepd.Coordinator
	srv      *http.Server
	workers  []*sweepd.Worker
	cancel   context.CancelFunc
	wg       sync.WaitGroup
	tr       *http.Transport
	timing   *timingTransport // nil when untraced
}

// startService opens the coordinator's journal in stateDir, serves it on
// a loopback port, and returns once every worker has registered. When
// traced, the workers' requests go through a timing transport.
func startService(storeDir, stateDir string, traced bool) (*service, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	coord, err := sweepd.NewCoordinator(sweepd.CoordinatorOptions{StateDir: stateDir})
	if err != nil {
		ln.Close()
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &service{
		url:      "http://" + ln.Addr().String(),
		storeDir: storeDir,
		coord:    coord,
		srv:      &http.Server{Handler: coord.Handler()},
		cancel:   cancel,
		tr:       http.DefaultTransport.(*http.Transport).Clone(),
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		s.srv.Serve(ln)
	}()
	var rt http.RoundTripper = s.tr
	if traced {
		s.timing = newTimingTransport(s.tr)
		rt = s.timing
	}
	client := &http.Client{Timeout: time.Minute, Transport: rt}
	n := min(2, slots())
	for i := 0; i < n; i++ {
		wk, err := sweepd.NewWorker(sweepd.WorkerOptions{
			Coordinator: s.url, Store: storeDir, Name: fmt.Sprintf("slot%d", i),
			Parallelism: 1, Client: client,
		})
		if err != nil {
			s.stop()
			return nil, err
		}
		s.workers = append(s.workers, wk)
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			wk.Run(ctx)
		}()
	}
	if err := s.awaitWorkers(n); err != nil {
		s.stop()
		return nil, err
	}
	return s, nil
}

// awaitWorkers polls the coordinator's status until n workers have
// registered.
func (s *service) awaitWorkers(n int) error {
	client := &http.Client{Transport: s.tr}
	deadline := time.Now().Add(30 * time.Second)
	for {
		var st sweepd.Status
		resp, err := client.Get(s.url + sweepd.PathStatus)
		if err == nil {
			err = json.NewDecoder(resp.Body).Decode(&st)
			resp.Body.Close()
		}
		if err == nil && st.Workers >= n {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%d of %d workers registered: %v", st.Workers, n, err)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// stop cancels the workers, closes the server and the coordinator (which
// syncs the journal), and waits for every goroutine it started.
func (s *service) stop() error {
	s.cancel()
	err := s.srv.Close()
	s.wg.Wait()
	s.coord.Close()
	s.tr.CloseIdleConnections()
	return err
}
