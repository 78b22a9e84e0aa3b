package sweepd

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"multicore/internal/schema"
)

// Lease bookkeeping and the one-request protocol: a completion that
// sets wait_millis carries the worker's next lease, leases stay in
// expiry order, and a busy worker slot costs one request per batch over
// a kept-alive connection.

// queueSweep registers a sweep over g in-package, as a submission does,
// without attaching a client stream.
func queueSweep(t testing.TB, c *Coordinator, token string, g Grid) {
	t.Helper()
	req := SweepRequest{SchemaVersion: schema.Version, Grid: g}
	if err := validateSweep(req); err != nil {
		t.Fatal(err)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.buildSweepLocked(token, req, nil, nil)
}

// checkCellStates verifies the coordinator's cell bookkeeping: each cell
// is queued once in the fair queue, leased with exactly one lease-list
// entry, or done; nothing else is queued or leased; and the lease list
// is in expiry order.
func checkCellStates(t testing.TB, c *Coordinator) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	queued := map[string]int{}
	total := 0
	for _, cl := range c.queue.classes {
		for _, id := range cl.ids {
			queued[id]++
			total++
		}
	}
	if total != c.queue.len() {
		t.Errorf("fair queue holds %d ids but counts %d", total, c.queue.len())
	}
	leased := map[*cellState]int{}
	var prev time.Time
	for e := c.leases.Front(); e != nil; e = e.Next() {
		st := e.Value.(*cellState)
		leased[st]++
		if st.lease != e {
			t.Errorf("cell %s: lease-list entry is not the cell's own", st.asg.ID)
		}
		if st.expiry.Before(prev) {
			t.Errorf("lease list out of expiry order at cell %s", st.asg.ID)
		}
		prev = st.expiry
	}
	for id, st := range c.cells {
		q, l := queued[id], leased[st]
		ok := false
		switch st.state {
		case cellQueued:
			ok = q == 1 && l == 0
		case cellLeased:
			ok = q == 0 && l == 1
		case cellDone:
			ok = q == 0 && l == 0
		}
		if !ok {
			t.Errorf("cell %s in state %d has %d queue and %d lease-list entries", id, st.state, q, l)
		}
		delete(queued, id)
		delete(leased, st)
	}
	for id := range queued {
		t.Errorf("fair queue holds %s, which is not a cell", id)
	}
	for st := range leased {
		t.Errorf("lease list holds %s, which is not a cell", st.asg.ID)
	}
}

func cellStates(c *Coordinator, asgs []*Assignment) []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	states := make([]int, len(asgs))
	for i, a := range asgs {
		states[i] = c.cells[a.ID].state
	}
	return states
}

// TestLeaseListRenewalOrder: heartbeats renew a subset of leases out of
// lease order, and reaping once the first leases lapse re-queues
// exactly the cells that were not renewed. A cell that completes with a
// transient error is final and leaves the lease list, and a re-queued
// cell leased again has one lease-list entry.
func TestLeaseListRenewalOrder(t *testing.T) {
	const lease = time.Second
	c, srv := startCoordinator(t, CoordinatorOptions{Lease: lease, MaxAttempts: 10, QuarantineAfter: 100})
	w := registerWorker(t, srv.URL)
	queueSweep(t, c, "slist", rankedGrid("stream", 1, 2, 3, 4, 5, 6, 7, 8))
	var asgs []*Assignment
	for i := 0; i < 8; i++ {
		asg := pollUntil(t, srv.URL, w, 2*time.Second)
		if asg == nil {
			t.Fatalf("no assignment for cell %d", i)
		}
		asgs = append(asgs, asg)
	}
	leasedBy := time.Now() // every first lease expires by leasedBy+lease
	checkCellStates(t, c)

	res := CellResult{Cell: asgs[1].Cell, Status: StatusError, Error: "injected transient"}
	res.Fingerprint = Fingerprint(res)
	postAs[struct{}](t, srv.URL+PathComplete, CompleteRequest{Worker: w, ID: asgs[1].ID, Attempt: 1, Result: res})
	checkCellStates(t, c)

	time.Sleep(lease / 3)
	renewedAt := time.Now() // renewals expire after renewedAt+lease
	hb := postAs[HeartbeatResponse](t, srv.URL+PathHeartbeat, HeartbeatRequest{
		Worker: w, IDs: []string{asgs[6].ID, asgs[4].ID, asgs[2].ID, asgs[0].ID},
	})
	if len(hb.Lost) != 0 {
		t.Fatalf("heartbeat lost %v", hb.Lost)
	}
	checkCellStates(t, c)

	time.Sleep(time.Until(leasedBy.Add(lease + 20*time.Millisecond)))
	c.mu.Lock()
	c.reapExpiredLocked()
	c.mu.Unlock()
	if late := time.Since(renewedAt.Add(lease)); late >= 0 {
		t.Fatalf("reaped %s after the renewed leases expired; the test's timing needs a less loaded host", late)
	}
	want := []int{cellLeased, cellDone, cellLeased, cellQueued, cellLeased, cellQueued, cellLeased, cellQueued}
	if got := cellStates(c, asgs); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("cell states after reaping = %v, want %v (%d queued, %d leased, %d done)",
			got, want, cellQueued, cellLeased, cellDone)
	}
	checkCellStates(t, c)

	again := pollUntil(t, srv.URL, w, 2*time.Second)
	if again == nil || again.ID != asgs[3].ID || again.Attempt != 2 {
		t.Fatalf("re-lease = %+v, want cell %s at attempt 2", again, asgs[3].ID)
	}
	checkCellStates(t, c)
}

// TestCompleteLeasesNextCell: a completion that sets wait_millis is
// applied as before, and its reply is a PollResponse: the worker's next
// lease (also after a duplicate or evicted-cell completion), an empty
// response once the wait passes with nothing queued, or the quarantine
// hint with no assignment. A completion without the field gets {}.
func TestCompleteLeasesNextCell(t *testing.T) {
	c, srv := startCoordinator(t, CoordinatorOptions{})
	w := registerWorker(t, srv.URL)
	queueSweep(t, c, "sfirst", rankedGrid("stream", 1, 2, 3, 4))
	complete := func(id string, cell CellSpec, wait int64) PollResponse {
		t.Helper()
		res := CellResult{Cell: cell, Status: StatusOK, Seconds: 1, Simulated: true}
		res.Fingerprint = Fingerprint(res)
		return postAs[PollResponse](t, srv.URL+PathComplete, CompleteRequest{
			Worker: w, ID: id, Attempt: 1, Result: res, WaitMillis: wait,
		})
	}
	leased := map[string]bool{}
	expectLease := func(what string, resp PollResponse) *Assignment {
		t.Helper()
		a := resp.Assignment
		if a == nil || resp.RetryAfterMillis != 0 {
			t.Fatalf("%s: reply %+v, want an assignment", what, resp)
		}
		if leased[a.ID] {
			t.Fatalf("%s: cell %s leased twice", what, a.ID)
		}
		leased[a.ID] = true
		return a
	}

	a1 := expectLease("poll", postAs[PollResponse](t, srv.URL+PathPoll, PollRequest{Worker: w, WaitMillis: 1000}))
	a2 := expectLease("completion", complete(a1.ID, a1.Cell, 1000))
	a3 := expectLease("duplicate completion", complete(a1.ID, a1.Cell, 1000))
	a4 := expectLease("evicted-cell completion", complete("no-such-cell", a1.Cell, 1000))
	checkCellStates(t, c)

	t0 := time.Now()
	if resp := complete(a2.ID, a2.Cell, 50); resp.Assignment != nil || resp.More != nil || resp.RetryAfterMillis != 0 {
		t.Errorf("completion with nothing queued: reply %+v, want empty", resp)
	}
	if waited := time.Since(t0); waited < 50*time.Millisecond {
		t.Errorf("completion with nothing queued replied after %s, want the 50ms wait", waited)
	}

	res := CellResult{Cell: a3.Cell, Status: StatusOK, Seconds: 1, Simulated: true}
	res.Fingerprint = Fingerprint(res)
	raw := postAs[json.RawMessage](t, srv.URL+PathComplete, CompleteRequest{Worker: w, ID: a3.ID, Attempt: 1, Result: res})
	if string(bytes.TrimSpace(raw)) != "{}" {
		t.Errorf("completion without wait_millis: reply %s, want {}", raw)
	}

	queueSweep(t, c, "ssecond", rankedGrid("stream", 5))
	c.mu.Lock()
	c.domains["default"].until = time.Now().Add(time.Minute)
	c.mu.Unlock()
	if resp := complete(a4.ID, a4.Cell, 1000); resp.Assignment != nil || resp.RetryAfterMillis <= 0 {
		t.Errorf("completion from a quarantined domain: reply %+v, want retry_after_millis and no assignment", resp)
	}
	if st := getStatus(t, srv.URL); st.Done != 4 || st.Queued != 1 || st.Leased != 0 {
		t.Errorf("status = %+v, want 4 done, 1 queued, 0 leased", st)
	}
	checkCellStates(t, c)
}

// TestWorkerHonorsRetryAfterInCompletion: a quarantine hint in a
// completion reply keeps the worker away from the coordinator for that
// long, as one in a poll reply does.
func TestWorkerHonorsRetryAfterInCompletion(t *testing.T) {
	const retry = 300 * time.Millisecond
	var mu sync.Mutex
	var paths []string
	var completedAt time.Time
	nextAt := make(chan time.Time, 1)
	stub := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		now := time.Now()
		mu.Lock()
		paths = append(paths, r.URL.Path)
		n := len(paths)
		if r.URL.Path == PathComplete {
			completedAt = now
		}
		mu.Unlock()
		switch {
		case r.URL.Path == PathRegister:
			writeJSON(rw, RegisterResponse{Worker: "w1", LeaseMillis: time.Minute.Milliseconds()})
		case r.URL.Path == PathComplete:
			writeJSON(rw, PollResponse{RetryAfterMillis: retry.Milliseconds()})
		case n == 2:
			// The first poll leases a cell that fails at once: its
			// scheme does not parse.
			writeJSON(rw, PollResponse{Assignment: &Assignment{ID: "c1", Attempt: 1, Cell: CellSpec{
				Workload: "stream", System: "tiger", Ranks: 1, Scheme: "bogus", Scale: "quick"}}})
		default:
			select {
			case nextAt <- now:
			default:
			}
			<-r.Context().Done()
		}
	}))
	defer stub.Close()

	wk, err := NewWorker(WorkerOptions{Coordinator: stub.URL})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); wk.Run(ctx) }()
	defer func() { cancel(); <-done }()

	var next time.Time
	select {
	case next = <-nextAt:
	case <-time.After(10 * time.Second):
		t.Fatal("worker never polled after the completion")
	}
	mu.Lock()
	got, gap := fmt.Sprint(paths), next.Sub(completedAt)
	mu.Unlock()
	if want := fmt.Sprint([]string{PathRegister, PathPoll, PathComplete, PathPoll}); got != want {
		t.Errorf("requests = %v, want %v", got, want)
	}
	if gap < retry {
		t.Errorf("worker polled %s after a completion reply that said retry after %s", gap, retry)
	}
}

// countingTransport counts requests per URL path and records how many
// cells each completion reports.
type countingTransport struct {
	base    http.RoundTripper
	mu      sync.Mutex
	byPath  map[string]int
	reports []int
}

func (c *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	n := 0
	if req.URL.Path == PathComplete {
		body, err := io.ReadAll(req.Body)
		if err != nil {
			return nil, err
		}
		req.Body.Close()
		req.Body = io.NopCloser(bytes.NewReader(body))
		var cr CompleteRequest
		if err := json.Unmarshal(body, &cr); err != nil {
			return nil, err
		}
		n = len(cr.reports())
	}
	c.mu.Lock()
	c.byPath[req.URL.Path]++
	if n > 0 {
		c.reports = append(c.reports, n)
	}
	c.mu.Unlock()
	return c.base.RoundTrip(req)
}

// batches returns the number of cells each completion reported.
func (c *countingTransport) batches() []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]int(nil), c.reports...)
}

func (c *countingTransport) count(path string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.byPath[path]
}

// TestSweepTraffic: a real worker runs a 48-cell sweep with one request
// per batch — every completion reports a batch and carries the slot's
// next lease, so a slot polls only when it idles — and over kept-alive
// connections: one per slot, the heartbeat's and the client stream's at
// most. Cells are fast against the default lease, so each slot asks for
// maxBatch cells after its first lone cell, and the completions number
// at most the slots plus the grants factoring makes from 48 queued
// cells. The first case passes the counting transport as the worker's
// Client; the second counts through the transport NewWorker builds,
// whose idle pool must hold a connection for every slot.
func TestSweepTraffic(t *testing.T) {
	g := Grid{Workloads: []string{"stream", "daxpy"}, Systems: []string{"tiger"}, Ranks: []int{1, 2, 3, 4},
		Schemes: []string{"default", "localalloc", "membind", "interleave", "2mpi-localalloc", "2mpi-membind"},
		Scale:   "quick"}
	n := len(g.Cells())
	_, goldenTable := serialGolden(t, g)
	for _, tc := range []struct {
		name      string
		slots     int
		ownClient bool
	}{
		{"client", 1, true},
		{"default-client", 4, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, err := NewCoordinator(CoordinatorOptions{})
			if err != nil {
				t.Fatal(err)
			}
			srv := httptest.NewUnstartedServer(c.Handler())
			var conns atomic.Int64
			srv.Config.ConnState = func(_ net.Conn, s http.ConnState) {
				if s == http.StateNew {
					conns.Add(1)
				}
			}
			srv.Start()
			t.Cleanup(func() { srv.Close(); c.Close() })

			ct := &countingTransport{base: http.DefaultTransport.(*http.Transport).Clone(), byPath: map[string]int{}}
			opts := WorkerOptions{Coordinator: srv.URL, Store: t.TempDir(), Name: tc.name, Parallelism: tc.slots}
			if tc.ownClient {
				opts.Client = &http.Client{Transport: ct}
			}
			wk, err := NewWorker(opts)
			if err != nil {
				t.Fatal(err)
			}
			if !tc.ownClient {
				ct.base = wk.client.Transport
				wk.client.Transport = ct
			}
			ctx, cancel := context.WithCancel(context.Background())
			done := make(chan struct{})
			go func() { defer close(done); wk.Run(ctx) }()

			sum, results := collectSweep(t, srv.URL, g)
			cancel()
			<-done
			if sum.Errors != 0 || sum.Simulated != n {
				t.Errorf("summary = %+v, want %d cells simulated cleanly", sum, n)
			}
			if got := Table(g, results).Text(); got != goldenTable {
				t.Errorf("table differs from serial:\n--- distributed\n%s--- serial\n%s", got, goldenTable)
			}
			grants := 0
			for q := n; q > 0; q -= factoringGrant(maxBatch, q, tc.slots) {
				grants++
			}
			if got := ct.count(PathComplete); got > tc.slots+grants {
				t.Errorf("%d completions for %d cells on %d slots, want at most %d", got, n, tc.slots, tc.slots+grants)
			}
			if got := ct.count(PathPoll); got > 2*tc.slots {
				t.Errorf("%d polls from %d slots, want at most %d", got, tc.slots, 2*tc.slots)
			}
			if got := conns.Load(); got > int64(tc.slots+2) {
				t.Errorf("%d new connections for %d slots, want at most %d", got, tc.slots, tc.slots+2)
			}
		})
	}
}

// TestShortLeaseIdleWorkerLosesNoLease: with a 60ms lease the worker
// heartbeats every 20ms, also while its slot idles in the wait of a
// completion that asks for the next batch. The reported cells left the
// heartbeat set when that completion was sent, so no heartbeat names
// them and no lease is reported lost.
func TestShortLeaseIdleWorkerLosesNoLease(t *testing.T) {
	g := e2eGrid()
	_, goldenTable := serialGolden(t, g)
	_, srv := startCoordinator(t, CoordinatorOptions{Lease: 60 * time.Millisecond})
	var mu sync.Mutex
	var logs []string
	wk, err := NewWorker(WorkerOptions{Coordinator: srv.URL, Store: t.TempDir(), Name: "a",
		Logf: func(format string, args ...any) {
			mu.Lock()
			logs = append(logs, fmt.Sprintf(format, args...))
			mu.Unlock()
		}})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); wk.Run(ctx) }()

	sum, results := collectSweep(t, srv.URL, g)
	// The slot now waits in its last completion for a lease that never
	// comes; let the heartbeat tick there ten times.
	time.Sleep(200 * time.Millisecond)
	cancel()
	<-done
	if sum.Errors != 0 || sum.Divergent != 0 {
		t.Errorf("summary = %+v, want a clean sweep", sum)
	}
	if got := Table(g, results).Text(); got != goldenTable {
		t.Errorf("table differs from serial:\n--- distributed\n%s--- serial\n%s", got, goldenTable)
	}
	mu.Lock()
	defer mu.Unlock()
	for _, line := range logs {
		if strings.Contains(line, "lease lost") {
			t.Errorf("worker log: %s", line)
		}
	}
}

// FuzzWorkerRequests drives the worker endpoints in-process with
// arbitrary bodies: two registered one-slot workers, a twelve-cell sweep
// with one cell leased to each (both leases already lapsed when expire
// is set), and a few-millisecond poll window. Whatever the body, the
// reply is 200, 400 or 404; every cell stays in exactly one state and is
// finalized at most once; and a reply leases distinct cells to the
// asking worker, no more than it asked for (at least one) and than
// factoring allows over the cells not yet done.
func FuzzWorkerRequests(f *testing.F) {
	paths := []string{PathPoll, PathComplete, PathHeartbeat, PathRegister}
	g := manyCells(12)
	cells := g.Cells()
	leasedID, otherID, queuedID := cells[0].Key(), cells[1].Key(), cells[2].Key()
	ok := CellResult{Cell: cells[0], Status: StatusOK, Seconds: 1.5, Simulated: true}
	ok.Fingerprint = Fingerprint(ok)
	okOther := CellResult{Cell: cells[1], Status: StatusOK, Seconds: 2.5, Simulated: true}
	okOther.Fingerprint = Fingerprint(okOther)
	failed := CellResult{Cell: cells[2], Status: StatusError, Error: "injected"}
	failed.Fingerprint = Fingerprint(failed)
	v := schema.Version
	seeds := []struct {
		endpoint uint8
		req      any
	}{
		{0, PollRequest{Worker: "w1", WaitMillis: 1}},
		{0, PollRequest{Worker: "w9"}},
		{0, PollRequest{Worker: "w1", WaitMillis: 1, Batch: 4}},
		{0, PollRequest{Worker: "w1", WaitMillis: 1, Batch: 0}},
		{0, PollRequest{Worker: "w1", WaitMillis: 1, Batch: -3}},
		{0, PollRequest{Worker: "w1", WaitMillis: 1, Batch: 1 << 40}},
		{1, CompleteRequest{Worker: "w1", ID: leasedID, Attempt: 1, Result: ok, WaitMillis: 1}},
		{1, CompleteRequest{Worker: "w1", ID: leasedID, Attempt: 1, Result: ok}},
		{1, CompleteRequest{Worker: "w1", ID: leasedID, Attempt: 1, Result: failed, WaitMillis: 1}},
		{1, CompleteRequest{Worker: "w1", ID: queuedID, Result: failed, WaitMillis: 1}},
		{1, CompleteRequest{Worker: "w1", ID: queuedID, Result: ok, WaitMillis: 1}},
		{1, CompleteRequest{Worker: "w1", ID: queuedID, Result: ok}},
		// Batch completions: a cell named twice, with a different result
		// the second time; a cell leased to the other worker; a queued
		// cell; and batch sizes of 0, below 0 and far above the queue.
		{1, CompleteRequest{Worker: "w1", ID: leasedID, Attempt: 1, Result: ok, WaitMillis: 1, Batch: 8,
			More: []Report{{ID: leasedID, Attempt: 1, Result: ok}, {ID: leasedID, Attempt: 1, Result: failed}}}},
		{1, CompleteRequest{Worker: "w1", ID: leasedID, Attempt: 1, Result: ok, WaitMillis: 1, Batch: 8,
			More: []Report{{ID: otherID, Attempt: 1, Result: okOther}}}},
		{1, CompleteRequest{Worker: "w1", ID: leasedID, Attempt: 1, Result: ok, WaitMillis: 1, Batch: 8,
			More: []Report{{ID: queuedID, Result: failed}, {ID: "nope", Result: ok}}}},
		{1, CompleteRequest{Worker: "w1", ID: leasedID, Attempt: 1, Result: ok, WaitMillis: 1, Batch: 0}},
		{1, CompleteRequest{Worker: "w1", ID: leasedID, Attempt: 1, Result: ok, WaitMillis: 1, Batch: -1}},
		{1, CompleteRequest{Worker: "w1", ID: leasedID, Attempt: 1, Result: ok, WaitMillis: 1, Batch: 1 << 62}},
		{2, HeartbeatRequest{Worker: "w1", IDs: []string{leasedID, queuedID, "nope", leasedID, otherID}}},
		{3, RegisterRequest{SchemaVersion: v, Parallelism: -2}},
		{3, RegisterRequest{SchemaVersion: v, Parallelism: 1 << 62}},
	}
	for _, s := range seeds {
		body, err := json.Marshal(s.req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(s.endpoint, false, body)
		f.Add(s.endpoint, true, body)
	}
	f.Add(uint8(1), false, []byte("{"))

	f.Fuzz(func(t *testing.T, endpoint uint8, expire bool, body []byte) {
		lease := time.Minute
		if expire {
			lease = time.Nanosecond
		}
		c, err := NewCoordinator(CoordinatorOptions{Lease: lease, PollWait: 2 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		// Stopping the lease janitor at once leaves the request under
		// test as the only thing that changes the state, so each input
		// covers the same code on every run.
		c.Close()
		h := c.Handler()
		for _, w := range []string{"w1", "w2"} {
			if id := registerAs(t, h, 1); id != w {
				t.Fatalf("registered %s, want %s", id, w)
			}
		}
		queueSweep(t, c, "sfuzz", g)
		c.mu.Lock()
		a1, a2 := c.popLocked("w1"), c.popLocked("w2")
		slots, notDone := c.slots, len(cells)
		c.mu.Unlock()
		if a1 == nil || a1.ID != leasedID || a2 == nil || a2.ID != otherID {
			t.Fatalf("pre-leases = %+v and %+v, want cells %s and %s", a1, a2, leasedID, otherID)
		}

		rec := httptest.NewRecorder()
		path := paths[int(endpoint)%len(paths)]
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		switch rec.Code {
		case http.StatusOK, http.StatusBadRequest, http.StatusNotFound:
		default:
			t.Errorf("POST %s: status %d", path, rec.Code)
		}
		checkCellStates(t, c)

		c.mu.Lock()
		defer c.mu.Unlock()
		done := 0
		for _, st := range c.cells {
			if st.state == cellDone {
				done++
			}
		}
		if c.doneCells != done {
			t.Errorf("%d finalizations for %d done cells", c.doneCells, done)
		}
		if rec.Code != http.StatusOK || (path != PathPoll && path != PathComplete) {
			return
		}
		var probe struct {
			Worker string `json:"worker"`
			Batch  int    `json:"batch"`
		}
		json.NewDecoder(bytes.NewReader(body)).Decode(&probe)
		var resp PollResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("reply %s: %v", rec.Body, err)
		}
		batch := resp.batch()
		if limit := factoringGrant(max(probe.Batch, 1), notDone, slots); len(batch) > limit {
			t.Errorf("leased %d cells, want at most %d (asked %d, %d not done, %d slots)",
				len(batch), limit, probe.Batch, notDone, slots)
		}
		seen := map[string]bool{}
		for _, a := range batch {
			st := c.cells[a.ID]
			if seen[a.ID] || st == nil || st.state != cellLeased || st.worker != probe.Worker || st.asg.Attempt != a.Attempt {
				t.Errorf("reply leases cell %s at attempt %d, which is not leased to %s at that attempt (or is leased twice)",
					a.ID, a.Attempt, probe.Worker)
			}
			seen[a.ID] = true
		}
	})
}

// TestRegistrationExpires: a worker unheard-from for longer than Lease +
// PollWait loses its registration while a worker that keeps polling
// keeps its own. The silent worker's four slots leave the grant
// denominator, /status and its domain's worker count, and its next poll
// gets 404, the answer that makes a worker register again.
func TestRegistrationExpires(t *testing.T) {
	c, srv := startCoordinator(t, CoordinatorOptions{Lease: 100 * time.Millisecond, PollWait: 50 * time.Millisecond})
	register := func(slots int) string {
		return postAs[RegisterResponse](t, srv.URL+PathRegister,
			RegisterRequest{SchemaVersion: schema.Version, Name: "expiry", Parallelism: slots}).Worker
	}
	silent, live := register(4), register(1)
	if st := getStatus(t, srv.URL); st.Workers != 2 {
		t.Fatalf("status %+v, want 2 workers", st)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		postAs[PollResponse](t, srv.URL+PathPoll, PollRequest{Worker: live, WaitMillis: 10})
		if getStatus(t, srv.URL).Workers == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the silent worker's registration never expired")
		}
	}
	st := getStatus(t, srv.URL)
	if len(st.Domains) != 1 || st.Domains[0].Workers != 1 {
		t.Errorf("status domains %+v, want one domain with 1 worker", st.Domains)
	}
	c.mu.Lock()
	slots := c.slots
	c.mu.Unlock()
	if slots != 1 {
		t.Errorf("the grant denominator counts %d slots, want 1", slots)
	}
	queueSweep(t, c, "sexpiry", manyCells(16))
	resp := postAs[PollResponse](t, srv.URL+PathPoll, PollRequest{Worker: live, WaitMillis: 10, Batch: 16})
	if got, want := len(resp.batch()), factoringGrant(16, 16, 1); got != want {
		t.Errorf("with 16 queued the live worker was granted %d cells, want %d (one live slot)", got, want)
	}
	body, _ := json.Marshal(PollRequest{Worker: silent, WaitMillis: 10})
	hresp, err := http.Post(srv.URL+PathPoll, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusNotFound {
		t.Errorf("the expired worker's poll got %d, want 404", hresp.StatusCode)
	}
	checkCellStates(t, c)
}
