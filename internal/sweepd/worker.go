package sweepd

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"multicore/internal/experiments"
	"multicore/internal/fault"
	"multicore/internal/machine"
	"multicore/internal/schema"
	"multicore/internal/store"
)

// WorkerOptions configures one worker process.
type WorkerOptions struct {
	// Coordinator is the coordinator's base URL, e.g. "http://host:9141".
	Coordinator string
	// Store, when non-empty, is the shared result-store directory: cells
	// already on disk are served without simulating, and every completed
	// cell is persisted for other workers and later sweeps. Each process
	// appends to its own segment of the store, so workers share the
	// directory without locks. The worker holds its store handle until
	// Run returns; closing it then seals the worker's segment.
	Store string
	// Name labels the worker in coordinator logs.
	Name string
	// Domain is the failure domain this worker shares fate with (host,
	// rack, zone). The coordinator quarantines a domain whose workers
	// repeatedly let leases expire. Empty joins the "default" domain.
	Domain string
	// Parallelism is how many cells this worker runs concurrently;
	// < 1 means 1.
	Parallelism int
	// Client is the HTTP client; nil uses a default with a timeout above
	// the coordinator's poll window that keeps an idle connection for
	// every slot and the heartbeat.
	Client *http.Client
	// Logf receives worker events; nil discards them.
	Logf func(format string, args ...any)

	// beforeCell, when non-nil, runs before each assignment executes;
	// tests use it to stall or stop a worker mid-cell or mid-batch.
	beforeCell func(Assignment)
}

// Worker pulls cell leases from a coordinator, executes them through
// experiments.Runner (store cache, fault injection, transient retries
// included), and reports results. Run it once.
type Worker struct {
	opts   WorkerOptions
	client *http.Client
	logf   func(string, ...any)

	st *store.Store

	// mu guards the registration, which a slot renews when a restarted
	// coordinator has forgotten this worker, and the in-flight set.
	mu          sync.Mutex
	id          string
	leaseMillis int64
	inflight    map[string]context.CancelCauseFunc // leased, unreported cell id -> abort
	// regMu serializes those renewals, so the worker registers once per
	// restart however many of its slots find the registration gone.
	regMu sync.Mutex

	cellsRun  atomic.Int64
	storeHits atomic.Int64
}

// NewWorker builds a worker; Run does the network work.
func NewWorker(opts WorkerOptions) (*Worker, error) {
	if opts.Coordinator == "" {
		return nil, fmt.Errorf("sweepd: worker needs a coordinator URL")
	}
	if opts.Parallelism < 1 {
		opts.Parallelism = 1
	}
	w := &Worker{
		opts:     opts,
		client:   opts.Client,
		logf:     opts.Logf,
		inflight: map[string]context.CancelCauseFunc{},
	}
	if w.client == nil {
		// Each slot and the heartbeat have at most one request in flight,
		// so a worker needs one connection apiece. The default transport
		// keeps only two idle per host, and dials a new one when a slot's
		// next request races the return of its last connection to the
		// idle pool; capping connections makes that request wait for the
		// returning one instead.
		tr := http.DefaultTransport.(*http.Transport).Clone()
		tr.MaxIdleConnsPerHost = opts.Parallelism + 1
		tr.MaxConnsPerHost = opts.Parallelism + 1
		w.client = &http.Client{Timeout: 60 * time.Second, Transport: tr}
	}
	if w.logf == nil {
		w.logf = func(string, ...any) {}
	}
	if opts.Store != "" {
		st, err := store.Open(opts.Store)
		if err != nil {
			return nil, err
		}
		w.st = st
	}
	return w, nil
}

// Stats reports how many cells this worker simulated and how many it
// served from the shared store.
func (w *Worker) Stats() (cellsRun, storeHits int) {
	return int(w.cellsRun.Load()), int(w.storeHits.Load())
}

func (w *Worker) post(ctx context.Context, path string, req, resp any) error {
	body, err := json.Marshal(req)
	if err != nil {
		return fmt.Errorf("sweepd: encoding %s request: %v", path, err)
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, w.opts.Coordinator+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	hreq.Header.Set("Content-Type", "application/json")
	hresp, err := w.client.Do(hreq)
	if err != nil {
		return err
	}
	// A reply read to its end lets the transport reuse the connection;
	// one closed early costs the next request a new connection.
	defer func() {
		io.Copy(io.Discard, hresp.Body)
		hresp.Body.Close()
	}()
	if hresp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(hresp.Body, 1024))
		return &httpError{code: hresp.StatusCode, msg: fmt.Sprintf("sweepd: %s: %s", path, bytes.TrimSpace(msg))}
	}
	return json.NewDecoder(hresp.Body).Decode(resp)
}

type httpError struct {
	code int
	msg  string
}

func (e *httpError) Error() string { return e.msg }

// register announces the worker, retrying until the coordinator is
// reachable or ctx ends — worker processes may start before the
// coordinator.
func (w *Worker) register(ctx context.Context) error {
	backoff := 200 * time.Millisecond
	for {
		var resp RegisterResponse
		err := w.post(ctx, PathRegister, RegisterRequest{
			SchemaVersion: schema.Version, Name: w.opts.Name, Domain: w.opts.Domain, Parallelism: w.opts.Parallelism,
		}, &resp)
		if err == nil {
			w.mu.Lock()
			w.id, w.leaseMillis = resp.Worker, resp.LeaseMillis
			w.mu.Unlock()
			w.logf("registered as %s (lease %dms)", resp.Worker, resp.LeaseMillis)
			return nil
		}
		if httpCode(err) == http.StatusBadRequest {
			return err // schema mismatch: retrying cannot help
		}
		w.logf("register failed (%v); retrying", err)
		t := time.NewTimer(backoff)
		select {
		case <-ctx.Done():
			t.Stop()
			return ctx.Err()
		case <-t.C:
		}
		if backoff < 2*time.Second {
			backoff *= 2
		}
	}
}

// workerID is the ID of the worker's latest registration.
func (w *Worker) workerID() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.id
}

// reregister renews the registration after the coordinator answered a
// request made as stale with 404, unless another slot has renewed it
// since: the coordinator counts the worker's slots once per
// registration.
func (w *Worker) reregister(ctx context.Context, stale string) error {
	w.regMu.Lock()
	defer w.regMu.Unlock()
	if w.workerID() != stale {
		return nil
	}
	return w.register(ctx)
}

// httpCode extracts the status code of a coordinator error response;
// 0 means a transport-level failure.
func httpCode(err error) int {
	if e, ok := err.(*httpError); ok {
		return e.code
	}
	return 0
}

// Run registers and serves cell leases until ctx is canceled. Cells run
// on Parallelism concurrent slots; a heartbeat goroutine renews every
// in-flight lease and aborts runs whose lease the coordinator took away.
// Once ctx is canceled each slot reports the cells it has finished before
// Run returns. Run releases the worker's store handle when it returns.
func (w *Worker) Run(ctx context.Context) error {
	defer w.client.CloseIdleConnections()
	if w.st != nil {
		defer w.st.Close()
	}
	if err := w.register(ctx); err != nil {
		return err
	}
	hbCtx, stopHB := context.WithCancel(ctx)
	defer stopHB()
	go w.heartbeatLoop(hbCtx)

	var wg sync.WaitGroup
	for i := 0; i < w.opts.Parallelism; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.slotLoop(ctx)
		}()
	}
	wg.Wait()
	return ctx.Err()
}

// pollWaitMillis is how long a worker asks the coordinator to hold a
// poll, or a completion that also leases, open while no cell is queued.
const pollWaitMillis = 5000

// maxBatch caps the cells a slot asks for in one lease, which bounds a
// request's size and how long the coordinator holds its lock to lease or
// finalize a batch. Caps of 8, 16 and 32 gave lower sweep throughput
// than 64, and at 64 about half of a sweep's requests already come from
// factoring's shrinking tail, which the cap does not touch (CHANGES.md).
const maxBatch = 64

// errLeaseLost is the cause a heartbeat cancels a cell with when the
// coordinator no longer leases it to this worker.
var errLeaseLost = errors.New("sweepd: lease lost")

// slotLoop is one slot's poll→run→complete loop. A completion also asks
// for the slot's next batch, so a busy slot costs one request per
// batch; the slot polls only when a reply carries no assignment.
func (w *Worker) slotLoop(ctx context.Context) {
	var next PollResponse
	var perCell time.Duration // mean cell time of the slot's last batch
	for ctx.Err() == nil {
		if batch := next.batch(); len(batch) > 0 {
			next, perCell = w.runBatch(ctx, batch, perCell)
			continue
		}
		if next.RetryAfterMillis > 0 {
			// Our failure domain is quarantined: back off instead of
			// hammering the coordinator with polls it will refuse.
			w.logf("domain quarantined; backing off %dms", next.RetryAfterMillis)
			t := time.NewTimer(time.Duration(next.RetryAfterMillis) * time.Millisecond)
			select {
			case <-ctx.Done():
				t.Stop()
				return
			case <-t.C:
			}
		}
		next = PollResponse{}
		self := w.workerID()
		err := w.post(ctx, PathPoll, PollRequest{
			Worker: self, WaitMillis: pollWaitMillis, Batch: w.batchSize(perCell),
		}, &next)
		if err == nil {
			continue
		}
		next = PollResponse{}
		if ctx.Err() != nil {
			return
		}
		if httpCode(err) == http.StatusNotFound {
			// Coordinator restarted and forgot us; re-register.
			if rerr := w.reregister(ctx, self); rerr != nil {
				return
			}
			continue
		}
		w.logf("poll failed: %v", err)
		select {
		case <-ctx.Done():
			return
		case <-time.After(500 * time.Millisecond):
		}
	}
}

// batchSize is how many cells a slot asks for: as many as it expects to
// finish within a third of the lease, judged by the mean cell time of
// its last batch, between 1 and maxBatch. A slot that has run nothing
// yet asks for one.
func (w *Worker) batchSize(perCell time.Duration) int {
	if perCell <= 0 {
		return 1
	}
	w.mu.Lock()
	third := time.Duration(w.leaseMillis) * time.Millisecond / 3
	w.mu.Unlock()
	return int(max(1, min(maxBatch, third/perCell)))
}

// runBatch executes a leased batch in lease order and reports the cells
// it finished in one request, which also asks for the slot's next batch;
// it returns the coordinator's reply and the batch's mean cell time
// (perCell when no cell ran). Every cell stays in the heartbeat set
// until that request is sent. A cell whose lease is lost is skipped
// before it starts, aborted while it runs, and never reported; so is a
// run aborted by shutdown, which is cancellation of this worker, not a
// result of the cell: the coordinator re-leases such cells elsewhere. On
// shutdown the cells finished so far are still reported, without asking
// for more.
func (w *Worker) runBatch(ctx context.Context, batch []Assignment, perCell time.Duration) (PollResponse, time.Duration) {
	cellCtx := make([]context.Context, len(batch))
	cancel := make([]context.CancelCauseFunc, len(batch))
	w.mu.Lock()
	for i, asg := range batch {
		cellCtx[i], cancel[i] = context.WithCancelCause(ctx)
		w.inflight[asg.ID] = cancel[i]
	}
	w.mu.Unlock()

	results := make([]*CellResult, len(batch))
	ran, t0 := 0, time.Now()
	for i, asg := range batch {
		if ctx.Err() != nil {
			break
		}
		if cellCtx[i].Err() != nil {
			w.logf("cell %s attempt %d skipped (%v)", asg.ID, asg.Attempt, context.Cause(cellCtx[i]))
			continue
		}
		if w.opts.beforeCell != nil {
			w.opts.beforeCell(asg)
		}
		res, canceled := w.executeCell(cellCtx[i], asg)
		ran++
		if canceled {
			w.logf("cell %s attempt %d aborted (%v)", asg.ID, asg.Attempt, context.Cause(cellCtx[i]))
			continue
		}
		results[i] = &res
	}
	if ran > 0 {
		perCell = time.Since(t0) / time.Duration(ran)
	}

	// Leaving the heartbeat set under w.mu settles each finished cell's
	// fate: a lease lost before then drops the result, and none is lost
	// after, since the heartbeat only cancels cells in the set.
	var reports []Report
	w.mu.Lock()
	self, lease := w.id, time.Duration(w.leaseMillis)*time.Millisecond
	for i, asg := range batch {
		delete(w.inflight, asg.ID)
		if results[i] != nil && context.Cause(cellCtx[i]) != errLeaseLost {
			results[i].Worker = self
			reports = append(reports, Report{ID: asg.ID, Attempt: asg.Attempt, Result: *results[i]})
		}
	}
	w.mu.Unlock()
	for _, c := range cancel {
		c(nil)
	}
	if len(reports) == 0 {
		return PollResponse{}, perCell
	}
	req := CompleteRequest{Worker: self, ID: reports[0].ID, Attempt: reports[0].Attempt, Result: reports[0].Result, More: reports[1:]}
	postCtx := ctx
	if ctx.Err() == nil {
		req.WaitMillis, req.Batch = pollWaitMillis, w.batchSize(perCell)
	} else {
		// Shutting down: past a lease the coordinator re-leases the cells
		// anyway, so that bounds the wait for the report.
		var stop context.CancelFunc
		postCtx, stop = context.WithTimeout(context.WithoutCancel(ctx), lease)
		defer stop()
	}
	var next PollResponse
	if err := w.post(postCtx, PathComplete, req, &next); err != nil {
		if ctx.Err() == nil {
			w.logf("reporting %d cells failed: %v", len(reports), err)
		}
		return PollResponse{}, perCell
	}
	return next, perCell
}

// executeCell wraps experiments.Runner around one cell. Each assignment
// gets a fresh runner — cross-attempt and cross-worker dedup belongs to
// the shared store, and a re-leased cell must actually re-run rather
// than hit a memoized in-process failure. Resume is set so stored error
// entries re-run when the coordinator explicitly re-leases a cell.
func (w *Worker) executeCell(ctx context.Context, asg Assignment) (CellResult, bool) {
	if len(asg.Spec) > 0 {
		// A custom machine travels with the lease; registering it makes
		// the cell's System id resolvable. The id must match the shipped
		// content — a mismatch means the assignment is corrupt, and
		// simulating under the wrong machine would poison the store.
		id, _, err := machine.RegisterSpecJSON(asg.Spec)
		if err != nil {
			return resultFor(asg.Cell, 0, fmt.Errorf("sweepd: leased spec for %s: %w", asg.Cell.System, err)), false
		}
		if id != asg.Cell.System {
			return resultFor(asg.Cell, 0, fmt.Errorf(
				"sweepd: leased spec hashes to %s, cell wants system %s", id, asg.Cell.System)), false
		}
	}
	spec, scheme, scale, err := resolveCell(asg.Cell)
	if err != nil {
		return resultFor(asg.Cell, 0, err), false
	}
	opts := experiments.Options{
		Parallelism:  1,
		Resume:       true,
		Retries:      asg.Retries,
		RetryBackoff: 50 * time.Millisecond,
		Store:        nil,
	}
	if w.st != nil {
		opts.Store = w.st
	}
	if asg.Faults != "" {
		plan, perr := fault.Parse(asg.Faults, asg.FaultSeed)
		if perr != nil {
			return resultFor(asg.Cell, 0, perr), false
		}
		opts.Faults = plan
	}
	r := experiments.NewRunner(ctx, opts)
	secs, err := r.RunWorkloadCell(spec, asg.Cell.System, asg.Cell.Ranks, scheme, scale)
	if err != nil && experiments.IsCanceled(err) {
		return CellResult{}, true
	}
	w.cellsRun.Add(int64(r.CellsRun()))
	w.storeHits.Add(int64(r.StoreHits()))
	res := resultFor(asg.Cell, secs, err)
	res.Simulated = r.CellsRun() > 0
	return res, false
}

// heartbeatLoop renews every in-flight lease at a third of the lease
// interval and aborts cells the coordinator re-assigned away.
func (w *Worker) heartbeatLoop(ctx context.Context) {
	w.mu.Lock()
	interval := time.Duration(w.leaseMillis) * time.Millisecond / 3
	w.mu.Unlock()
	if interval < 10*time.Millisecond {
		interval = 10 * time.Millisecond
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
		w.mu.Lock()
		self := w.id
		ids := make([]string, 0, len(w.inflight))
		for id := range w.inflight {
			ids = append(ids, id)
		}
		w.mu.Unlock()
		if len(ids) == 0 {
			continue
		}
		var resp HeartbeatResponse
		if err := w.post(ctx, PathHeartbeat, HeartbeatRequest{Worker: self, IDs: ids}, &resp); err != nil {
			if ctx.Err() == nil {
				w.logf("heartbeat failed: %v", err)
			}
			continue
		}
		if len(resp.Lost) == 0 {
			continue
		}
		w.mu.Lock()
		for _, id := range resp.Lost {
			if cancel, ok := w.inflight[id]; ok {
				w.logf("lease lost for cell %s; aborting", id)
				cancel(errLeaseLost)
			}
		}
		w.mu.Unlock()
	}
}
