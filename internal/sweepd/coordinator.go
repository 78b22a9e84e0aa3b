package sweepd

import (
	"container/list"
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"sync"
	"time"

	"multicore/internal/analytic"
	"multicore/internal/machine"
	"multicore/internal/schema"
	"multicore/internal/sweepd/journal"
)

// CoordinatorOptions tunes the control plane. The zero value gives
// production defaults; tests shrink the lease to exercise expiry fast.
type CoordinatorOptions struct {
	// Lease is how long a worker may hold a cell without heartbeating
	// before the coordinator re-queues it. Default 15s.
	Lease time.Duration
	// MaxAttempts bounds lease assignments per cell (leases that expire
	// on crashed or stalled workers); past it the cell finalizes as an
	// error. Default 5.
	MaxAttempts int
	// PollWait caps a worker long-poll. Default 5s.
	PollWait time.Duration
	// Logf receives coordinator events; nil discards them.
	Logf func(format string, args ...any)

	// StateDir, when non-empty, makes the coordinator durable: sweep
	// submissions, cell finalizations, and lease attempts journal to
	// StateDir, and NewCoordinator replays them so a SIGKILL'd
	// coordinator restarts to the exact queue state — re-leasing only
	// unfinished cells and resuming client streams by token.
	StateDir string
	// SyncEvery batches journal fsyncs: one per this many records
	// (the janitor also syncs every tick). Default 64.
	SyncEvery int

	// MaxInflightPerClient caps one client's outstanding (not yet
	// finalized) simulated cells across its live sweeps; a submission
	// that would exceed it is rejected with 429 and a Retry-After of
	// RetryAfter. 0 means no quota.
	MaxInflightPerClient int
	// RetryAfter is the backoff hinted to quota-rejected clients.
	// Default 5s.
	RetryAfter time.Duration

	// SweepRetention is how long a sweep outlives its last connected
	// client before the janitor drops it (its resume window). Default
	// 15m.
	SweepRetention time.Duration
	// PingEvery is the stream keepalive interval. Default 5s.
	PingEvery time.Duration

	// QuarantineAfter is how many consecutive lease expiries a failure
	// domain absorbs before it is quarantined. Default 3.
	QuarantineAfter int
	// QuarantineBackoff is the first quarantine duration; it doubles per
	// consecutive quarantine, capped at 16x. Default 30s.
	QuarantineBackoff time.Duration

	// beforeScreen, when non-nil, runs before each grid is screened;
	// tests use it to stall screening and probe the coordinator's lock.
	beforeScreen func()
}

func (o CoordinatorOptions) withDefaults() CoordinatorOptions {
	if o.Lease <= 0 {
		o.Lease = 15 * time.Second
	}
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = 5
	}
	if o.PollWait <= 0 {
		o.PollWait = 5 * time.Second
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	if o.SyncEvery <= 0 {
		o.SyncEvery = 64
	}
	if o.RetryAfter <= 0 {
		o.RetryAfter = 5 * time.Second
	}
	if o.SweepRetention <= 0 {
		o.SweepRetention = 15 * time.Minute
	}
	if o.PingEvery <= 0 {
		o.PingEvery = 5 * time.Second
	}
	if o.QuarantineAfter <= 0 {
		o.QuarantineAfter = 3
	}
	if o.QuarantineBackoff <= 0 {
		o.QuarantineBackoff = 30 * time.Second
	}
	return o
}

// cell lifecycle states.
const (
	cellQueued = iota
	cellLeased
	cellDone
)

// cellState is one deduplicated cell execution: however many concurrent
// sweeps reference it (refs), it is queued, leased, and completed once.
type cellState struct {
	asg    Assignment // Attempt tracks the current lease generation
	state  int
	refs   int
	prio   int // max priority across referencing sweeps
	worker string
	expiry time.Time
	lease  *list.Element // entry in Coordinator.leases while cellLeased
	result *CellResult
	sweeps []*sweepState // live sweeps awaiting this cell
}

// workerState is one registered worker.
type workerState struct {
	domain   string
	slots    int
	lastSeen time.Time // its last request; see expireWorkersLocked
}

// domainState tracks one failure domain's health. Consecutive lease
// expiries anywhere in the domain quarantine it — polls are turned away
// with a retry hint — for an exponentially growing backoff; any
// successful completion from the domain resets both counter and
// backoff.
type domainState struct {
	workers     int
	expiries    int // consecutive, since the last success
	until       time.Time
	backoff     time.Duration
	quarantines int
}

// sweepState is one submitted sweep, living server-side so its NDJSON
// stream survives client disconnects: a reconnecting client resumes by
// token and is sent the log again. The janitor drops sweeps idle past
// SweepRetention.
type sweepState struct {
	token string
	req   SweepRequest
	prio  int
	ids   []string // unique dedup keys of the simulated (promoted) cells
	// log is every result the sweep's streams send, in order: the
	// screening tier's settled results, then each cell as it finalized.
	// It only grows, so a stream reads the prefix it took under c.mu
	// without holding the lock.
	log     []CellResult
	pending int           // ids not yet in the log; the sweep is complete at 0
	wake    chan struct{} // closed when the log grows; nil until a stream waits
	sum     Summary
	streams int       // attached client streams
	idle    time.Time // when the retention clock started: the last detach, or restore
}

// journalRecord is one durable state transition. Types: "sweep" (a
// submission: token + full request), "final" (a cell finalized),
// "lease" (a cell leased at an attempt number, so restart preserves the
// attempt budget), "drop" (a sweep retired). Replay over a snapshot is
// idempotent, and skips types it does not know: older coordinators also
// journaled a "done" record per completed sweep, which restore
// recomputes from the finals it replays.
type journalRecord struct {
	T       string        `json:"t"`
	Token   string        `json:"token,omitempty"`
	Req     *SweepRequest `json:"req,omitempty"`
	ID      string        `json:"id,omitempty"`
	Attempt int           `json:"attempt,omitempty"`
	Res     *CellResult   `json:"res,omitempty"`
}

// persistedState is the snapshot payload: everything needed to rebuild
// the coordinator minus what is recomputed (screened results re-screen
// deterministically; queue membership falls out of sweeps minus
// finalized results).
type persistedState struct {
	Sweeps    []persistedSweep      `json:"sweeps"`
	Results   map[string]CellResult `json:"results,omitempty"`
	Attempts  map[string]int        `json:"attempts,omitempty"`
	Finals    map[string]string     `json:"finals,omitempty"`
	Divergent int                   `json:"divergent,omitempty"`
	DoneCells int                   `json:"done_cells,omitempty"`
}

type persistedSweep struct {
	Token string       `json:"token"`
	Req   SweepRequest `json:"req"`
}

// Coordinator shards sweep cells across registered workers. It is pure
// control plane: results live in the workers' shared store (and
// in-memory only while a sweep still needs them). With StateDir set it
// is also durable — queue state survives SIGKILL via journal replay.
type Coordinator struct {
	opts CoordinatorOptions
	jn   *journal.Journal // nil when not durable
	// instance suffixes worker IDs in durable mode so IDs from before a
	// restart can never alias freshly issued ones.
	instance string

	mu         sync.Mutex
	cells      map[string]*cellState
	queue      *fairQueue
	leases     *list.List // leased cells in expiry order (see popLocked)
	sweeps     map[string]*sweepState
	sweepOrder []string
	workers    map[string]*workerState
	domains    map[string]*domainState
	nextWorker int
	slots      int // cell slots of the live registrations
	divergent  int
	doneCells  int
	finals     map[string]string // finalized cell id → fingerprint; see rememberFinalLocked
	wake       chan struct{}
	unsynced   int

	stop     chan struct{}
	stopOnce sync.Once
}

// NewCoordinator builds a coordinator and starts its lease janitor
// (stopped by Close). With opts.StateDir set it first replays the
// journal there, restoring live sweeps and re-queueing every cell that
// was not finalized before the previous process died.
func NewCoordinator(opts CoordinatorOptions) (*Coordinator, error) {
	c := &Coordinator{
		opts:    opts.withDefaults(),
		cells:   map[string]*cellState{},
		queue:   newFairQueue(),
		leases:  list.New(),
		sweeps:  map[string]*sweepState{},
		workers: map[string]*workerState{},
		domains: map[string]*domainState{},
		finals:  map[string]string{},
		wake:    make(chan struct{}),
		stop:    make(chan struct{}),
	}
	if opts.StateDir != "" {
		c.instance = randomHex(2)
		jn, snapshot, records, err := journal.Open(opts.StateDir)
		if err != nil {
			return nil, err
		}
		if err := c.restore(jn, snapshot, records); err != nil {
			jn.Close()
			return nil, err
		}
	}
	go c.janitor()
	return c, nil
}

func randomHex(n int) string {
	b := make([]byte, n)
	rand.Read(b)
	return hex.EncodeToString(b)
}

// Close stops the lease janitor and syncs the journal. In-flight HTTP
// requests are the server's to drain.
func (c *Coordinator) Close() {
	c.stopOnce.Do(func() {
		close(c.stop)
		if c.jn != nil {
			c.mu.Lock()
			c.jn.Close()
			c.jn = nil
			c.mu.Unlock()
		}
	})
}

// restore rebuilds state from a snapshot plus journal records, then
// attaches jn. Replay is idempotent: records already reflected in the
// snapshot re-apply harmlessly (the snapshot/truncate crash window
// leaves such records). A sweep is complete once every one of its cells
// has a replayed final, so completion is not stored; the "done" field
// of snapshots written by older coordinators is ignored.
func (c *Coordinator) restore(jn *journal.Journal, snapshot []byte, records [][]byte) error {
	ps := persistedState{Results: map[string]CellResult{}, Finals: map[string]string{}, Attempts: map[string]int{}}
	if len(snapshot) > 0 {
		if err := json.Unmarshal(snapshot, &ps); err != nil {
			return fmt.Errorf("sweepd: decoding snapshot: %v", err)
		}
		if ps.Results == nil {
			ps.Results = map[string]CellResult{}
		}
		if ps.Finals == nil {
			ps.Finals = map[string]string{}
		}
		if ps.Attempts == nil {
			ps.Attempts = map[string]int{}
		}
	}
	byToken := map[string]int{}
	for i, sw := range ps.Sweeps {
		byToken[sw.Token] = i
	}
	for _, raw := range records {
		var rec journalRecord
		if err := json.Unmarshal(raw, &rec); err != nil {
			continue // CRC passed but content unreadable: skip, don't abort recovery
		}
		switch rec.T {
		case "sweep":
			if _, ok := byToken[rec.Token]; !ok && rec.Req != nil {
				byToken[rec.Token] = len(ps.Sweeps)
				ps.Sweeps = append(ps.Sweeps, persistedSweep{Token: rec.Token, Req: *rec.Req})
			}
		case "final":
			if rec.Res == nil {
				continue
			}
			if _, ok := ps.Results[rec.ID]; !ok {
				ps.DoneCells++
			}
			ps.Results[rec.ID] = *rec.Res
			ps.Finals[rec.ID] = rec.Res.Fingerprint
			delete(ps.Attempts, rec.ID)
		case "lease":
			if rec.Attempt > ps.Attempts[rec.ID] {
				ps.Attempts[rec.ID] = rec.Attempt
			}
		case "drop":
			if i, ok := byToken[rec.Token]; ok {
				ps.Sweeps[i].Token = "" // tombstone; skipped below
				delete(byToken, rec.Token)
			}
		}
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	c.finals = ps.Finals
	c.divergent = ps.Divergent
	c.doneCells = ps.DoneCells
	restored := 0
	for _, p := range ps.Sweeps {
		if p.Token == "" {
			continue
		}
		if err := validateSweep(p.Req); err != nil {
			c.opts.Logf("restore: dropping sweep %s: %v", p.Token, err)
			continue
		}
		sw := c.buildSweepLocked(p.Token, p.Req, ps.Results, c.screen(p.Req))
		sw.idle = time.Now() // retention clock runs until a client resumes
		restored++
	}
	// Preserved attempt counts keep the lease budget honest across the
	// restart: a cell that burned attempts before the crash does not get
	// a fresh budget.
	for id, at := range ps.Attempts {
		if st, ok := c.cells[id]; ok && st.state == cellQueued && at > st.asg.Attempt {
			st.asg.Attempt = at
		}
	}
	if restored > 0 {
		c.opts.Logf("restored %d sweeps from %s: %d cells done, %d queued",
			restored, c.opts.StateDir, len(ps.Results), c.queue.len())
	}
	// The journal is attached only now, so replay wrote no records. The
	// rebuilt state is the new snapshot; the journal restarts empty.
	c.jn = jn
	return c.snapshotLocked()
}

// snapshotEvery is the fewest journal records that trigger compaction
// into a snapshot.
const snapshotEvery = 4096

// journalLocked appends one record, batching fsyncs and compacting into
// a snapshot past the thresholds. Callers hold c.mu. No-op when not
// durable, which includes restore.
func (c *Coordinator) journalLocked(rec journalRecord) {
	if c.jn == nil {
		return
	}
	b, err := json.Marshal(rec)
	if err != nil {
		c.opts.Logf("journal encode failed: %v", err)
		return
	}
	if err := c.jn.Append(b); err != nil {
		c.opts.Logf("journal append failed: %v", err)
		return
	}
	c.unsynced++
	if c.unsynced >= c.opts.SyncEvery {
		if err := c.jn.Sync(); err != nil {
			c.opts.Logf("journal sync failed: %v", err)
		}
		c.unsynced = 0
	}
	// A snapshot encodes a result or an attempt count per cell held and a
	// fingerprint per final, so waiting for as many records as that keeps
	// the bytes snapshots write linear in the records journaled.
	if n := c.jn.Records(); n >= snapshotEvery && n >= len(c.cells)+len(c.finals) {
		if err := c.snapshotLocked(); err != nil {
			c.opts.Logf("snapshot failed: %v", err)
		}
	}
}

// snapshotLocked compacts current state into the snapshot file and
// truncates the journal. Callers hold c.mu.
func (c *Coordinator) snapshotLocked() error {
	if c.jn == nil {
		return nil
	}
	ps := persistedState{
		Finals:    c.finals,
		Divergent: c.divergent,
		DoneCells: c.doneCells,
		Results:   map[string]CellResult{},
		Attempts:  map[string]int{},
	}
	for _, token := range c.sweepOrder {
		sw, ok := c.sweeps[token]
		if !ok {
			continue
		}
		ps.Sweeps = append(ps.Sweeps, persistedSweep{Token: token, Req: sw.req})
	}
	for id, st := range c.cells {
		if st.state == cellDone && st.result != nil {
			ps.Results[id] = *st.result
		} else if st.asg.Attempt > 0 {
			ps.Attempts[id] = st.asg.Attempt
		}
	}
	b, err := json.Marshal(ps)
	if err != nil {
		return fmt.Errorf("sweepd: encoding snapshot: %v", err)
	}
	if err := c.jn.Snapshot(b); err != nil {
		return err
	}
	c.unsynced = 0
	return nil
}

// janitor re-queues expired leases even when no worker is polling (so a
// sweep whose only worker died still completes once a worker returns),
// expires silent registrations, drops sweeps idle past retention, and
// syncs the journal.
func (c *Coordinator) janitor() {
	interval := c.opts.Lease / 4
	if interval < 10*time.Millisecond {
		interval = 10 * time.Millisecond
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-t.C:
			c.mu.Lock()
			c.reapExpiredLocked()
			c.expireWorkersLocked()
			c.gcSweepsLocked()
			if c.jn != nil && c.unsynced > 0 {
				c.jn.Sync()
				c.unsynced = 0
			}
			c.mu.Unlock()
		}
	}
}

// signalLocked wakes every long-poller; callers hold c.mu.
func (c *Coordinator) signalLocked() {
	close(c.wake)
	c.wake = make(chan struct{})
}

// reapExpiredLocked re-queues (or, past the attempt budget, fails) every
// leased cell whose worker stopped heartbeating, charging one expiry to
// the failure domain of each worker whose leases lapsed: a worker that
// dies holding a batch is one incident, however many cells it held. The
// lease list is in expiry order, so reaping stops at the first live
// lease. Callers hold c.mu.
func (c *Coordinator) reapExpiredLocked() {
	now := time.Now()
	woke := false
	var charged []string // workers charged in this reap
	for e := c.leases.Front(); e != nil; e = c.leases.Front() {
		st := e.Value.(*cellState)
		if now.Before(st.expiry) {
			break
		}
		id := st.asg.ID
		c.opts.Logf("lease expired: cell %s attempt %d on worker %s", id, st.asg.Attempt, st.worker)
		if !slices.Contains(charged, st.worker) {
			charged = append(charged, st.worker)
			c.chargeDomainLocked(st.worker, now)
		}
		if st.asg.Attempt >= c.opts.MaxAttempts {
			res := resultFor(st.asg.Cell, 0, fmt.Errorf(
				"sweepd: cell lease expired %d times (last worker %s); giving up", st.asg.Attempt, st.worker))
			res.Attempt = st.asg.Attempt
			c.finalizeLocked(id, st, res)
			continue
		}
		c.requeueLocked(st)
		woke = true
	}
	if woke {
		c.signalLocked()
	}
}

// requeueLocked returns a leased cell to the fair queue. Callers hold
// c.mu and wake the long-pollers.
func (c *Coordinator) requeueLocked(st *cellState) {
	c.unleaseLocked(st)
	st.state = cellQueued
	st.worker = ""
	c.queue.push(st.asg.ID, st.prio)
}

// unleaseLocked takes a cell that is leaving cellLeased off the lease
// list. Callers hold c.mu.
func (c *Coordinator) unleaseLocked(st *cellState) {
	c.leases.Remove(st.lease)
	st.lease = nil
}

// expireWorkersLocked drops every registration unheard-from for longer
// than Lease + PollWait, so slots and the domains' worker counts are
// those of live workers: a live worker polls at least once per PollWait
// and heartbeats every Lease/3 while it holds cells. Domain records stay,
// since they carry quarantine history. An expired worker's next request
// gets 404, and it registers again. The janitor reaps expired leases
// first, so a dead worker's lapsed leases are charged to its domain
// before its registration goes. Callers hold c.mu.
func (c *Coordinator) expireWorkersLocked() {
	now, ttl := time.Now(), c.opts.Lease+c.opts.PollWait
	for id, ws := range c.workers {
		if now.Sub(ws.lastSeen) <= ttl {
			continue
		}
		delete(c.workers, id)
		c.slots -= ws.slots
		c.domains[ws.domain].workers--
		c.opts.Logf("worker %s expired: silent for more than %s", id, ttl)
	}
}

// maxQuarantineDoublings caps the exponential quarantine growth at 16x
// the base.
const maxQuarantineDoublings = 4

// chargeDomainLocked attributes one lease expiry to the worker's
// failure domain, quarantining it once expiries hit the threshold.
// Callers hold c.mu.
func (c *Coordinator) chargeDomainLocked(worker string, now time.Time) {
	ws, ok := c.workers[worker]
	if !ok {
		return
	}
	ds := c.domains[ws.domain]
	if ds == nil {
		return
	}
	ds.expiries++
	if ds.expiries < c.opts.QuarantineAfter {
		return
	}
	ds.expiries = 0
	if ds.backoff <= 0 {
		ds.backoff = c.opts.QuarantineBackoff
	} else if ds.backoff < c.opts.QuarantineBackoff<<maxQuarantineDoublings {
		ds.backoff *= 2
	}
	ds.until = now.Add(ds.backoff)
	ds.quarantines++
	c.opts.Logf("QUARANTINE domain %s for %s (%d consecutive lease expiries, quarantine #%d)",
		ws.domain, ds.backoff, c.opts.QuarantineAfter, ds.quarantines)
}

// gcSweepsLocked retires sweeps whose last client detached more than
// SweepRetention ago, releasing their cell references. Callers hold
// c.mu.
func (c *Coordinator) gcSweepsLocked() {
	now := time.Now()
	for token, sw := range c.sweeps {
		if sw.streams > 0 || sw.idle.IsZero() || now.Sub(sw.idle) < c.opts.SweepRetention {
			continue
		}
		c.dropSweepLocked(token, sw)
	}
}

// dropSweepLocked removes a sweep and its cell references: unreferenced
// queued cells are dequeued (nobody wants them) in one pass over the
// queue, unreferenced done cells evicted (the store has them), leased
// cells left to complete (the worker will persist to the store either
// way). Callers hold c.mu.
func (c *Coordinator) dropSweepLocked(token string, sw *sweepState) {
	c.opts.Logf("dropping sweep %s (idle past retention, %d/%d cells done)",
		token, len(sw.ids)-sw.pending, len(sw.ids))
	c.journalLocked(journalRecord{T: "drop", Token: token})
	delete(c.sweeps, token)
	for i, t := range c.sweepOrder {
		if t == token {
			c.sweepOrder = append(c.sweepOrder[:i], c.sweepOrder[i+1:]...)
			break
		}
	}
	dequeue := map[string]bool{}
	for _, id := range sw.ids {
		st, ok := c.cells[id]
		if !ok {
			continue
		}
		st.refs--
		for i, s := range st.sweeps {
			if s == sw {
				st.sweeps = append(st.sweeps[:i], st.sweeps[i+1:]...)
				break
			}
		}
		if st.refs <= 0 {
			switch st.state {
			case cellQueued:
				dequeue[id] = true
				delete(c.cells, id)
			case cellDone:
				delete(c.cells, id)
			}
		}
	}
	c.queue.remove(dequeue)
}

// finalizeLocked completes a cell: records the result, journals it,
// notifies every referencing sweep, and evicts the state once no sweep
// references it. Callers hold c.mu.
func (c *Coordinator) finalizeLocked(id string, st *cellState, res CellResult) {
	switch st.state {
	case cellLeased:
		c.unleaseLocked(st)
	case cellQueued:
		// A completion that outlived its lease: the first result wins, so
		// the queued re-run is withdrawn.
		c.queue.remove(map[string]bool{id: true})
	}
	st.state = cellDone
	st.result = &res
	c.doneCells++
	c.rememberFinalLocked(id, res.Fingerprint)
	c.journalLocked(journalRecord{T: "final", ID: id, Res: &res})
	for _, sw := range st.sweeps {
		c.adoptLocked(sw, res)
	}
	st.sweeps = nil
	if st.refs <= 0 {
		delete(c.cells, id)
	}
}

// adoptLocked delivers a finalized result into one sweep, once per cell:
// appends it to the log, updates the sweep summary, and wakes the
// sweep's streams. The sweep is complete when nothing is pending.
// Callers hold c.mu.
func (c *Coordinator) adoptLocked(sw *sweepState, res CellResult) {
	// Every leased cell of a screened sweep is there because the
	// screening tier promoted it.
	res.Promoted = sw.req.Screen
	sw.log = append(sw.log, res)
	sw.pending--
	switch res.Status {
	case StatusInfeasible:
		sw.sum.Infeasible++
	case StatusError:
		sw.sum.Errors++
	}
	if res.Simulated {
		sw.sum.Simulated++
	} else if res.Status != StatusError {
		sw.sum.StoreHits++
	}
	if sw.wake != nil {
		close(sw.wake)
		sw.wake = nil
	}
	if sw.pending == 0 {
		c.opts.Logf("sweep %s complete: %d cells, %d simulated, %d store hits, %d errors",
			sw.token, sw.sum.Cells, sw.sum.Simulated, sw.sum.StoreHits, sw.sum.Errors)
	}
}

// maxFinals bounds the finalized-fingerprint memory used for the
// determinism cross-check on late duplicate completions. Past the bound
// the map resets: losing old fingerprints only disables the cross-check
// for leases stale by thousands of cells, never correctness.
const maxFinals = 65536

// rememberFinalLocked records a finalized cell's fingerprint so a stale
// worker completing the same cell after eviction is still cross-checked
// for divergence. finals is the only record of a cell whose sweep was
// dropped and its state evicted; sweep logs and cell states go with
// them. Callers hold c.mu.
func (c *Coordinator) rememberFinalLocked(id, fingerprint string) {
	if len(c.finals) >= maxFinals {
		c.finals = map[string]string{}
	}
	c.finals[id] = fingerprint
}

// Handler returns the coordinator's HTTP API.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST "+PathSweep, c.handleSweep)
	mux.HandleFunc("POST "+PathRegister, c.handleRegister)
	mux.HandleFunc("POST "+PathPoll, c.handlePoll)
	mux.HandleFunc("POST "+PathComplete, c.handleComplete)
	mux.HandleFunc("POST "+PathHeartbeat, c.handleHeartbeat)
	mux.HandleFunc("GET "+PathStatus, c.handleStatus)
	mux.HandleFunc("GET "+PathHealthz, func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	return mux
}

func decode[T any](w http.ResponseWriter, r *http.Request, v *T) bool {
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		http.Error(w, fmt.Sprintf("sweepd: decoding request: %v", err), http.StatusBadRequest)
		return false
	}
	return true
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

// validateSweep checks a request's screening options, registers its
// shipped custom machines and validates its grid against them. Screening
// options mcbench would reject, or an id that does not match its
// content, are a client bug (or tampering) and reject the whole sweep
// before any spec is registered: the registry is process-global and
// never shrinks.
func validateSweep(req SweepRequest) error {
	if req.PromoteMargin < 0 || req.UncertaintyBound < 0 {
		return fmt.Errorf("sweepd: promote_margin and uncertainty_bound must not be negative (0 takes the default)")
	}
	if !req.Screen && (req.PromoteMargin != 0 || req.UncertaintyBound != 0) {
		return fmt.Errorf("sweepd: promote_margin and uncertainty_bound need screen (they tune screening)")
	}
	for id, raw := range req.Specs {
		got, err := machine.SpecJSONID(raw)
		if err != nil {
			return fmt.Errorf("sweepd: custom spec %s: %v", id, err)
		}
		if got != id {
			return fmt.Errorf("sweepd: custom spec id %s does not match its content (canonical id %s)", id, got)
		}
	}
	for _, raw := range req.Specs {
		machine.RegisterSpecJSON(raw) // decoded above, so it cannot fail
	}
	return req.Grid.Validate()
}

// buildSweepLocked registers a validated request under token and
// attaches its cells: existing executions gain a reference,
// already-finalized ones adopt immediately, new ones queue at the
// sweep's priority. finals, when non-nil (restore), supplies pre-crash
// results for cells this sweep should see as done. decisions is the
// request's screening (c.screen). Callers hold c.mu.
func (c *Coordinator) buildSweepLocked(token string, req SweepRequest, finals map[string]CellResult, decisions []ScreenDecision) *sweepState {
	sw := &sweepState{token: token, req: req, prio: clampPriority(req.Priority)}
	sw.sum.Cells = req.Grid.Size()

	// Screening tier: lease only the promoted cells. ScreenGrid is
	// deterministic, so a restore replays it instead of journaling a
	// million settled results.
	var cells []CellSpec
	if !req.Screen {
		cells = req.Grid.Cells()
	} else {
		for i := range decisions {
			d := &decisions[i]
			if d.Promote {
				cells = append(cells, d.Cell)
				continue
			}
			sw.log = append(sw.log, d.CellResult())
			switch d.Result.Status {
			case StatusInfeasible:
				sw.sum.Infeasible++
			case StatusError:
				sw.sum.Errors++
			}
		}
		sw.sum.Screened = len(sw.log)
		sw.sum.Promoted = len(cells)
	}

	// Fix the full id set before adopting any result: adoption counts
	// pending down to completion, so ids must be complete first.
	seen := map[string]bool{}
	uniq := cells[:0]
	for _, cell := range cells {
		id := dedupKey(cell, req.Faults, req.FaultSeed, req.Retries)
		if seen[id] {
			continue
		}
		seen[id] = true
		sw.ids = append(sw.ids, id)
		uniq = append(uniq, cell)
	}
	sw.pending = len(sw.ids)
	queued := false
	var promote map[string]bool // queued cells this sweep raises to its priority
	for i, cell := range uniq {
		id := sw.ids[i]
		st, ok := c.cells[id]
		if !ok {
			st = &cellState{asg: Assignment{
				ID: id, Cell: cell,
				Faults: req.Faults, FaultSeed: req.FaultSeed, Retries: req.Retries,
			}, prio: sw.prio}
			// Custom machines travel inside the lease so a worker that has
			// never seen this spec can still run the cell.
			if raw, isCustom := machine.CustomSpecJSON(cell.System); isCustom {
				st.asg.Spec = raw
			}
			c.cells[id] = st
			if res, done := finals[id]; done {
				st.state = cellDone
				st.result = &res
			} else {
				c.queue.push(id, sw.prio)
				queued = true
			}
		}
		st.refs++
		if st.state == cellDone {
			res := *st.result
			if finals == nil {
				// This sweep did not cause the simulation; for its summary the
				// cell is a cache hit, exactly as if a worker had served it
				// from the shared store.
				res.Simulated = false
			}
			c.adoptLocked(sw, res)
		} else {
			st.sweeps = append(st.sweeps, sw)
			if sw.prio > st.prio {
				if st.state == cellQueued {
					if promote == nil {
						promote = map[string]bool{}
					}
					promote[id] = true
				}
				st.prio = sw.prio
			}
		}
	}
	if promote != nil {
		c.queue.promote(promote, sw.prio)
	}
	c.sweeps[token] = sw
	c.sweepOrder = append(c.sweepOrder, token)
	if queued {
		c.signalLocked()
	}
	return sw
}

// screen prices a screened request's grid on an estimator of its own,
// so no submission leaves cached profiles behind; an unscreened request
// has no decisions. Pricing is the slowest step of a large submission,
// so handleSweep screens before taking c.mu: leases, heartbeats and
// completions never wait on it.
func (c *Coordinator) screen(req SweepRequest) []ScreenDecision {
	if !req.Screen {
		return nil
	}
	if c.opts.beforeScreen != nil {
		c.opts.beforeScreen()
	}
	return ScreenGrid(analytic.New(), req.Grid, ScreenOptions{
		PromoteMargin:    req.PromoteMargin,
		UncertaintyBound: req.UncertaintyBound,
	})
}

// inflightLocked sums a client's outstanding (unfinalized) cells across
// its live sweeps. Callers hold c.mu.
func (c *Coordinator) inflightLocked(client string) int {
	n := 0
	for _, sw := range c.sweeps {
		if sw.req.Client == client {
			n += sw.pending
		}
	}
	return n
}

// detach ends one of the sweep's streams; the last one out starts the
// retention clock.
func (c *Coordinator) detach(sw *sweepState) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if sw.streams--; sw.streams == 0 {
		sw.idle = time.Now()
	}
}

// handleSweep validates a submission (or a resume), attaches a stream,
// and sends NDJSON events until the sweep is complete: "start" with the
// resume token, the sweep's log from its start, its growth with "ping"
// keepalives, then "done".
func (c *Coordinator) handleSweep(w http.ResponseWriter, r *http.Request) {
	var req SweepRequest
	if !decode(w, r, &req) {
		return
	}
	if req.Resume != "" {
		c.mu.Lock()
		sw, ok := c.sweeps[req.Resume]
		if !ok {
			c.mu.Unlock()
			http.Error(w, fmt.Sprintf("sweepd: unknown resume token %q", req.Resume), http.StatusNotFound)
			return
		}
		sw.streams++
		logged, pending := len(sw.log), sw.pending
		c.mu.Unlock()
		c.opts.Logf("sweep %s resumed: replaying %d results, %d outstanding", sw.token, logged, pending)
		c.streamSweep(w, r, sw)
		return
	}
	if err := schema.Check("sweep request", req.SchemaVersion); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if req.Grid.Scale == "" {
		http.Error(w, "sweepd: sweep grid has no scale", http.StatusBadRequest)
		return
	}
	if req.Screen && req.Faults != "" {
		http.Error(w, "sweepd: screening estimates cannot price fault plans (drop -faults or screening)", http.StatusBadRequest)
		return
	}
	if err := validateSweep(req); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}

	decisions := c.screen(req)
	c.mu.Lock()
	// Admission control: reject before building any state, counting the
	// cells this sweep would add. Screened grids admit by their
	// post-screen footprint, so a million-cell screened sweep with a
	// small promoted set passes a small quota.
	if max := c.opts.MaxInflightPerClient; max > 0 {
		have := c.inflightLocked(req.Client)
		add := req.Grid.Size()
		if req.Screen {
			add = 0
			for i := range decisions {
				if decisions[i].Promote {
					add++
				}
			}
		}
		if have+add > max {
			c.mu.Unlock()
			secs := int(c.opts.RetryAfter.Seconds())
			if secs < 1 {
				secs = 1
			}
			w.Header().Set("Retry-After", strconv.Itoa(secs))
			http.Error(w, fmt.Sprintf(
				"sweepd: client %q over in-flight cell quota (%d in flight + %d requested > %d)",
				req.Client, have, add, max), http.StatusTooManyRequests)
			return
		}
	}
	token := "s" + randomHex(6)
	c.journalLocked(journalRecord{T: "sweep", Token: token, Req: &req})
	sw := c.buildSweepLocked(token, req, nil, decisions)
	sw.streams++
	c.mu.Unlock()

	if req.Screen {
		c.opts.Logf("sweep %s screened: %d cells settled analytically, %d promoted to simulation (%s)",
			token, sw.sum.Screened, sw.sum.Promoted, req.Grid)
	} else {
		c.opts.Logf("sweep %s submitted: %d cells (%s)", token, sw.sum.Cells, req.Grid)
	}
	c.streamSweep(w, r, sw)
}

// streamSweep owns one client connection of an attached stream: the
// start event, then the sweep's log from its start, following it with
// pings until the sweep is complete or the client leaves. Whatever the
// log gained since the stream last looked, such as the rest of a batch
// completion, goes out with one flush, and the done event with its own.
func (c *Coordinator) streamSweep(w http.ResponseWriter, r *http.Request, sw *sweepState) {
	defer c.detach(sw)
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	var err error // the first write error: the client is gone
	write := func(ev StreamEvent) {
		if err == nil {
			err = enc.Encode(ev)
		}
	}
	flush := func() bool {
		if err == nil && flusher != nil {
			flusher.Flush()
		}
		return err == nil
	}
	write(StreamEvent{Type: "start", Token: sw.token, PingMillis: c.opts.PingEvery.Milliseconds()})
	ping := time.NewTicker(c.opts.PingEvery)
	defer ping.Stop()
	for sent := 0; ; {
		c.mu.Lock()
		log, complete := sw.log, sw.pending == 0
		if sw.wake == nil {
			sw.wake = make(chan struct{})
		}
		wake := sw.wake
		c.mu.Unlock()
		for ; sent < len(log); sent++ {
			write(StreamEvent{Type: "cell", Cell: &log[sent]})
		}
		if !flush() {
			return // client gone; the sweep stays resumable
		}
		if complete {
			break
		}
		select {
		case <-wake:
		case <-ping.C:
			write(StreamEvent{Type: "ping"})
		case <-r.Context().Done():
			return
		}
	}
	c.mu.Lock()
	sum := sw.sum
	sum.Divergent = c.divergent
	c.mu.Unlock()
	write(StreamEvent{Type: "done", Summary: &sum})
	flush()
}

func (c *Coordinator) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req RegisterRequest
	if !decode(w, r, &req) {
		return
	}
	if err := schema.Check("worker registration", req.SchemaVersion); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	domain := req.Domain
	if domain == "" {
		domain = "default"
	}
	c.mu.Lock()
	c.nextWorker++
	id := fmt.Sprintf("w%d", c.nextWorker)
	if c.instance != "" {
		// Durable coordinators suffix worker IDs with the process
		// incarnation so a zombie worker from before a restart can never
		// be mistaken for a freshly registered one.
		id += "-" + c.instance
	}
	// The cap keeps the sum of untrusted slot counts from overflowing.
	ws := &workerState{domain: domain, slots: min(max(req.Parallelism, 1), math.MaxInt32), lastSeen: time.Now()}
	c.workers[id] = ws
	c.slots += ws.slots
	ds := c.domains[domain]
	if ds == nil {
		ds = &domainState{}
		c.domains[domain] = ds
	}
	ds.workers++
	c.mu.Unlock()
	c.opts.Logf("worker registered: %s (%s, domain %s)", id, req.Name, domain)
	writeJSON(w, RegisterResponse{Worker: id, LeaseMillis: c.opts.Lease.Milliseconds()})
}

// knownWorker checks registration; unknown IDs (a coordinator restart)
// get 404 so the worker re-registers.
func (c *Coordinator) knownWorker(w http.ResponseWriter, id string) bool {
	c.mu.Lock()
	ws, ok := c.workers[id]
	if ok {
		ws.lastSeen = time.Now()
	}
	c.mu.Unlock()
	if !ok {
		http.Error(w, fmt.Sprintf("sweepd: unknown worker %q (re-register)", id), http.StatusNotFound)
	}
	return ok
}

// quarantinedLocked reports how long the worker's domain remains
// quarantined (0 = not quarantined). Callers hold c.mu.
func (c *Coordinator) quarantinedLocked(worker string, now time.Time) time.Duration {
	ws, ok := c.workers[worker]
	if !ok {
		return 0
	}
	ds := c.domains[ws.domain]
	if ds == nil || now.After(ds.until) {
		return 0
	}
	return ds.until.Sub(now)
}

// popLocked leases the weighted-fair queue's next cell to a worker,
// journaling the attempt so a restart preserves the lease budget.
// Callers hold c.mu.
func (c *Coordinator) popLocked(worker string) *Assignment {
	for {
		id, ok := c.queue.pop()
		if !ok {
			return nil
		}
		st, ok := c.cells[id]
		if !ok || st.state != cellQueued {
			continue // evicted or already handled
		}
		st.state = cellLeased
		st.worker = worker
		// Every lease and renewal sets expiry to now+Lease under c.mu
		// and moves the cell to the back of c.leases, which therefore
		// stays in expiry order.
		st.expiry = time.Now().Add(c.opts.Lease)
		st.lease = c.leases.PushBack(st)
		st.asg.Attempt++
		c.journalLocked(journalRecord{T: "lease", ID: id, Attempt: st.asg.Attempt})
		asg := st.asg
		return &asg
	}
}

func (c *Coordinator) handlePoll(w http.ResponseWriter, r *http.Request) {
	var req PollRequest
	if !decode(w, r, &req) {
		return
	}
	if !c.knownWorker(w, req.Worker) {
		return
	}
	writeJSON(w, c.leaseNext(r.Context(), req.Worker, req.WaitMillis, req.Batch))
}

// grantLocked sizes a lease by factoring: at most the cells the worker
// asked for and at most ⌈queued / (2 × live slots)⌉, so batches
// shrink to single cells as the queue drains, but at least one. Callers
// hold c.mu.
func (c *Coordinator) grantLocked(asked int) int {
	queued, slots := c.queue.len(), max(c.slots, 1)
	return max(1, min(asked, (queued-1)/slots/2+1))
}

// leaseNext long-polls for the worker's next batch of up to batch cells
// for up to waitMillis (capped at PollWait): as soon as a cell is queued
// it leases as many of the queued cells as grantLocked allows, without
// waiting for more. It returns a retry hint while the worker's failure
// domain is quarantined, and an empty response once the wait passes or
// ctx ends.
func (c *Coordinator) leaseNext(ctx context.Context, worker string, waitMillis int64, batch int) PollResponse {
	wait := time.Duration(waitMillis) * time.Millisecond
	if wait <= 0 || wait > c.opts.PollWait {
		wait = c.opts.PollWait
	}
	deadline := time.Now().Add(wait)
	for {
		c.mu.Lock()
		c.reapExpiredLocked()
		if q := c.quarantinedLocked(worker, time.Now()); q > 0 {
			c.mu.Unlock()
			return PollResponse{RetryAfterMillis: q.Milliseconds() + 1}
		}
		var asgs []Assignment
		for n := c.grantLocked(batch); len(asgs) < n; {
			asg := c.popLocked(worker)
			if asg == nil {
				break
			}
			asgs = append(asgs, *asg)
		}
		wake := c.wake
		c.mu.Unlock()
		if len(asgs) > 0 {
			for _, asg := range asgs {
				c.opts.Logf("leased cell %s attempt %d to %s", asg.ID, asg.Attempt, worker)
			}
			return PollResponse{Assignment: &asgs[0], More: asgs[1:]}
		}
		remain := time.Until(deadline)
		if remain <= 0 {
			return PollResponse{}
		}
		t := time.NewTimer(remain)
		select {
		case <-wake:
			t.Stop()
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return PollResponse{}
		}
	}
}

// handleComplete finalizes the reported cells and, when the request sets
// WaitMillis, leases the worker's next batch in the same reply.
func (c *Coordinator) handleComplete(w http.ResponseWriter, r *http.Request) {
	var req CompleteRequest
	if !decode(w, r, &req) {
		return
	}
	if !c.knownWorker(w, req.Worker) {
		return
	}
	c.mu.Lock()
	for _, rep := range req.reports() {
		c.completeLocked(req.Worker, rep)
	}
	c.mu.Unlock()
	if req.WaitMillis > 0 {
		writeJSON(w, c.leaseNext(r.Context(), req.Worker, req.WaitMillis, req.Batch))
		return
	}
	writeJSON(w, struct{}{})
}

// completeLocked applies one worker's result for a cell. Callers hold
// c.mu.
func (c *Coordinator) completeLocked(worker string, rep Report) {
	// Any completed cell is evidence the domain works; reset its expiry
	// streak and backoff.
	if ws, ok := c.workers[worker]; ok {
		if ds := c.domains[ws.domain]; ds != nil {
			ds.expiries = 0
			ds.backoff = 0
		}
	}
	st, ok := c.cells[rep.ID]
	if !ok {
		// State evicted (sweep finished or abandoned); the worker already
		// persisted the result to the shared store, so nothing is lost —
		// but a finalized fingerprint still gets the determinism check.
		if fp, done := c.finals[rep.ID]; done && fp != rep.Result.Fingerprint {
			c.divergent++
			c.opts.Logf("DIVERGENT cell %s: finalized %s vs %s from %s",
				rep.ID, fp, rep.Result.Fingerprint, worker)
		}
		return
	}
	if st.state == cellDone {
		// A re-assigned lease raced its original worker: first result
		// won. Cross-check determinism — equal cells must produce equal
		// fingerprints on any worker.
		if st.result != nil && st.result.Fingerprint != rep.Result.Fingerprint {
			c.divergent++
			c.opts.Logf("DIVERGENT cell %s: %s from %s vs %s from %s",
				rep.ID, st.result.Fingerprint, st.result.Worker, rep.Result.Fingerprint, worker)
		}
		return
	}
	// Every reported result is final, failures included: a worker has
	// already spent the sweep's retry budget on transient ones, and the
	// seeded fault draws repeat the same outcome on any worker.
	res := rep.Result
	res.Worker = worker
	res.Attempt = rep.Attempt
	c.finalizeLocked(rep.ID, st, res)
}

func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req HeartbeatRequest
	if !decode(w, r, &req) {
		return
	}
	if !c.knownWorker(w, req.Worker) {
		return
	}
	var resp HeartbeatResponse
	c.mu.Lock()
	for _, id := range req.IDs {
		st, ok := c.cells[id]
		if ok && st.state == cellLeased && st.worker == req.Worker {
			st.expiry = time.Now().Add(c.opts.Lease)
			c.leases.MoveToBack(st.lease)
		} else {
			resp.Lost = append(resp.Lost, id)
		}
	}
	c.mu.Unlock()
	writeJSON(w, resp)
}

func (c *Coordinator) handleStatus(w http.ResponseWriter, r *http.Request) {
	now := time.Now()
	c.mu.Lock()
	st := Status{
		Workers: len(c.workers), Queued: c.queue.len(), Leased: c.leases.Len(),
		Divergent: c.divergent, Done: c.doneCells, Sweeps: len(c.sweeps),
	}
	names := make([]string, 0, len(c.domains))
	for name := range c.domains {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		ds := c.domains[name]
		d := DomainStatus{Domain: name, Workers: ds.workers, Quarantines: ds.quarantines}
		if now.Before(ds.until) {
			d.Quarantined = true
			d.RetryAfterMillis = ds.until.Sub(now).Milliseconds()
		}
		st.Domains = append(st.Domains, d)
	}
	c.mu.Unlock()
	writeJSON(w, st)
}
