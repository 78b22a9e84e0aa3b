package sweepd

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"multicore/internal/schema"
)

// Batch leases: a request leases up to the cells it asks for, sized by
// factoring against the registered slots; every cell of a batch is
// leased, heartbeated and finalized on its own; and a batch's results
// reach the client in one flush.

// factoringGrant is the most cells one lease may hold with queued cells
// and slots registered slots: ⌈queued / (2 × slots)⌉, never more than
// asked and never less than one.
func factoringGrant(asked, queued, slots int) int {
	return max(1, min(asked, (queued+2*slots-1)/(2*slots)))
}

// registerAs registers a worker through the handler with the given slot
// count and returns its id.
func registerAs(t *testing.T, h http.Handler, parallelism int) string {
	t.Helper()
	body, _ := json.Marshal(RegisterRequest{SchemaVersion: schema.Version, Name: "batch", Parallelism: parallelism})
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, PathRegister, bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("register: %d %s", rec.Code, rec.Body)
	}
	var resp RegisterResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	return resp.Worker
}

// serve sends one request body to the handler and returns the reply.
func serve(t *testing.T, h http.Handler, path string, req any) *httptest.ResponseRecorder {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("POST %s: %d %s", path, rec.Code, rec.Body)
	}
	return rec
}

func manyCells(n int) Grid {
	ranks := make([]int, n)
	for i := range ranks {
		ranks[i] = i + 1
	}
	return rankedGrid("stream", ranks...)
}

// TestBatchFactoring: with S registered slots (a missing or negative
// slot count registers one) and Q queued cells, a poll asking for a
// batch is granted exactly min(asked, ⌈Q/(2S)⌉) cells, at least one, in
// the fair queue's order; the grants shrink as the queue drains and at
// least the last 2S-1 of them are single cells.
func TestBatchFactoring(t *testing.T) {
	for _, tc := range []struct {
		slots []int // Parallelism of each registration
		cells int
		asked int
	}{
		{[]int{1}, 100, 16},
		{[]int{1, 1}, 1728, 16},
		{[]int{4, 0, -3}, 300, 64},
		{[]int{2}, 40, 3},
		{[]int{1}, 9, 0},
		{[]int{1}, 9, -7},
	} {
		t.Run(fmt.Sprintf("slots=%v/cells=%d/asked=%d", tc.slots, tc.cells, tc.asked), func(t *testing.T) {
			c, err := NewCoordinator(CoordinatorOptions{})
			if err != nil {
				t.Fatal(err)
			}
			c.Close()
			h := c.Handler()
			slots := 0
			var worker string
			for _, p := range tc.slots {
				worker = registerAs(t, h, p)
				slots += max(p, 1)
			}
			g := manyCells(tc.cells)
			queueSweep(t, c, "sfactor", g)
			var want, got []string
			for _, cell := range g.Cells() {
				want = append(want, cell.Key())
			}
			var grants []int
			for queued := tc.cells; queued > 0; {
				var resp PollResponse
				rec := serve(t, h, PathPoll, PollRequest{Worker: worker, WaitMillis: 1, Batch: tc.asked})
				if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
					t.Fatal(err)
				}
				batch := resp.batch()
				if g := factoringGrant(tc.asked, queued, slots); len(batch) != g {
					t.Fatalf("%d queued, %d slots, %d asked: granted %d cells, want %d", queued, slots, tc.asked, len(batch), g)
				}
				for _, a := range batch {
					got = append(got, a.ID)
				}
				grants = append(grants, len(batch))
				queued -= len(batch)
			}
			if !slices.Equal(got, want) {
				t.Errorf("batches leased cells out of fair-queue order")
			}
			tail := min(tc.cells, 2*slots-1)
			if slices.Max(grants[len(grants)-tail:]) != 1 {
				t.Errorf("the last %d grants are not single cells: %v", tail, grants)
			}
			checkCellStates(t, c)
		})
	}
}

// TestBatchAbsentLeasesOneCell: a poll or a completion that asks for no
// batch is granted one cell in today's reply shape, an "assignment" and
// no "more", even with enough queued for a batch; one that asks for a
// batch gets its first cell in "assignment" and the rest in "more".
func TestBatchAbsentLeasesOneCell(t *testing.T) {
	c, err := NewCoordinator(CoordinatorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	h := c.Handler()
	w := registerAs(t, h, 0)
	queueSweep(t, c, "sshape", manyCells(16))
	keys := func(what string, rec *httptest.ResponseRecorder) map[string]json.RawMessage {
		t.Helper()
		var m map[string]json.RawMessage
		if err := json.Unmarshal(rec.Body.Bytes(), &m); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		return m
	}

	m := keys("poll", serve(t, h, PathPoll, PollRequest{Worker: w, WaitMillis: 1}))
	if _, ok := m["assignment"]; !ok || len(m) != 1 {
		t.Fatalf("poll without batch: reply keys %v, want only assignment", m)
	}
	var asg Assignment
	if err := json.Unmarshal(m["assignment"], &asg); err != nil {
		t.Fatal(err)
	}
	res := CellResult{Cell: asg.Cell, Status: StatusOK, Seconds: 1, Simulated: true}
	res.Fingerprint = Fingerprint(res)
	m = keys("completion", serve(t, h, PathComplete, CompleteRequest{
		Worker: w, ID: asg.ID, Attempt: asg.Attempt, Result: res, WaitMillis: 1,
	}))
	if _, ok := m["assignment"]; !ok || len(m) != 1 {
		t.Fatalf("completion without batch: reply keys %v, want only assignment", m)
	}

	var resp PollResponse
	if err := json.Unmarshal(serve(t, h, PathPoll, PollRequest{Worker: w, WaitMillis: 1, Batch: 4}).Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Assignment == nil || len(resp.More) != 3 {
		t.Fatalf("poll for 4 with 14 queued: reply %+v, want an assignment and 3 more", resp)
	}
	checkCellStates(t, c)
}

// TestBatchLostCellSkipped: a heartbeat that reports a cell of the
// batch lost before it started makes the worker skip it: the cell never
// runs and the completion reports only the other two. The first
// heartbeat names every cell of the batch, the unstarted ones too.
func TestBatchLostCellSkipped(t *testing.T) {
	// Every cell fails at once: its scheme does not parse.
	cell := func(id string) Assignment {
		return Assignment{ID: id, Attempt: 1, Cell: CellSpec{Workload: "stream", System: "tiger", Ranks: 1, Scheme: "bogus-" + id, Scale: "quick"}}
	}
	// The heartbeat loop handles one reply before it sends the next
	// heartbeat, so the second heartbeat means the first reply's lost cell
	// has been canceled.
	lost, completed := make(chan struct{}), make(chan struct{})
	var mu sync.Mutex
	var reported, beats []string
	stub := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		switch r.URL.Path {
		case PathRegister:
			writeJSON(rw, RegisterResponse{Worker: "w1", LeaseMillis: 60})
		case PathHeartbeat:
			var hb HeartbeatRequest
			json.Unmarshal(body, &hb)
			sort.Strings(hb.IDs)
			mu.Lock()
			if beats = append(beats, strings.Join(hb.IDs, ",")); len(beats) == 2 {
				close(lost)
			}
			mu.Unlock()
			writeJSON(rw, HeartbeatResponse{Lost: []string{"c2"}})
		case PathComplete:
			var req CompleteRequest
			json.Unmarshal(body, &req)
			mu.Lock()
			for _, rep := range req.reports() {
				reported = append(reported, rep.ID)
			}
			mu.Unlock()
			writeJSON(rw, PollResponse{})
			close(completed)
		default:
			var req PollRequest
			json.Unmarshal(body, &req)
			mu.Lock()
			first := reported == nil
			mu.Unlock()
			if first && req.Batch == 1 {
				c1 := cell("c1")
				writeJSON(rw, PollResponse{Assignment: &c1, More: []Assignment{cell("c2"), cell("c3")}})
				return
			}
			<-r.Context().Done()
		}
	}))
	defer stub.Close()

	var ran []string
	wk, err := NewWorker(WorkerOptions{Coordinator: stub.URL, beforeCell: func(a Assignment) {
		ran = append(ran, a.ID)
		if a.ID == "c1" {
			<-lost
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); wk.Run(ctx) }()
	defer func() { cancel(); <-done }()

	select {
	case <-completed:
	case <-time.After(10 * time.Second):
		t.Fatal("the worker never reported the batch")
	}
	cancel()
	<-done
	mu.Lock()
	defer mu.Unlock()
	if got := fmt.Sprint(reported); got != "[c1 c3]" {
		t.Errorf("reported %s, want [c1 c3]", got)
	}
	if got := fmt.Sprint(ran); got != "[c1 c3]" {
		t.Errorf("ran %s, want [c1 c3]", got)
	}
	if len(beats) == 0 || beats[0] != "c1,c2,c3" {
		t.Errorf("heartbeats named %q, the first want every cell of the batch", beats)
	}
}

// TestBatchOutlivesLease: with a 300 ms lease, every cell after the first
// stalls 75 ms, so a batch of six or more cells is reported at least
// 375 ms after its first cell finished. Finished cells stay in the
// heartbeat set until the batch is reported, so no lease expires, none
// is reported lost, every cell finalizes at attempt 1, and the table is
// byte-identical to the serial one.
func TestBatchOutlivesLease(t *testing.T) {
	g := Grid{Workloads: []string{"stream"}, Systems: []string{"tiger"}, Ranks: []int{1, 2, 3, 4},
		Schemes: []string{"default", "localalloc", "membind", "interleave"}, Scale: "quick"}
	_, goldenTable := serialGolden(t, g)
	var mu sync.Mutex
	var logs []string
	logf := func(format string, args ...any) {
		mu.Lock()
		logs = append(logs, fmt.Sprintf(format, args...))
		mu.Unlock()
	}
	_, srv := startCoordinator(t, CoordinatorOptions{Lease: 300 * time.Millisecond, Logf: logf})
	ct := &countingTransport{base: http.DefaultTransport.(*http.Transport).Clone(), byPath: map[string]int{}}
	cells := 0
	wk, err := NewWorker(WorkerOptions{Coordinator: srv.URL, Store: t.TempDir(), Name: "a", Logf: logf,
		Client: &http.Client{Transport: ct},
		beforeCell: func(Assignment) {
			if cells++; cells > 1 {
				time.Sleep(75 * time.Millisecond)
			}
		}})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); wk.Run(ctx) }()

	sum, results := collectSweep(t, srv.URL, g)
	cancel()
	<-done
	t.Logf("batches %v", ct.batches())
	if got := slices.Max(ct.batches()); got < 6 {
		t.Fatalf("the largest batch reported %d cells, want at least 6 to outlive a lease", got)
	}
	if sum.Errors != 0 || sum.Divergent != 0 {
		t.Errorf("summary = %+v, want a clean sweep", sum)
	}
	if got := Table(g, results).Text(); got != goldenTable {
		t.Errorf("table differs from serial:\n--- distributed\n%s--- serial\n%s", got, goldenTable)
	}
	for k, r := range results {
		if r.Attempt != 1 {
			t.Errorf("cell %s finalized at attempt %d, want 1", k, r.Attempt)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	for _, line := range logs {
		if strings.Contains(line, "lease lost") || strings.Contains(line, "lease expired") {
			t.Errorf("log: %s", line)
		}
	}
}

// flushWriter is an http.ResponseWriter that records the stream. At
// every Flush it hands the test how many cell events were written since
// the previous one, then waits until the test lets it go on.
type flushWriter struct {
	header  http.Header
	mu      sync.Mutex
	buf     bytes.Buffer
	pending int
	flushes chan int
	resume  chan struct{}
}

func (f *flushWriter) Header() http.Header { return f.header }
func (f *flushWriter) WriteHeader(int)     {}

func (f *flushWriter) Write(p []byte) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.pending += bytes.Count(p, []byte(`"type":"cell"`))
	return f.buf.Write(p)
}

func (f *flushWriter) Flush() {
	f.mu.Lock()
	n := f.pending
	f.pending = 0
	f.mu.Unlock()
	f.flushes <- n
	<-f.resume
}

// TestStreamBatchOneFlush: the results of a batch completion reach the
// client in one flush of the sweep stream, after the start event's own
// flush and before the done event's, and the streamed table is
// byte-identical to the serial one. The stream waits in each flush
// until the next completion has queued all of its results, so a stream
// that flushed each result alone would split every batch.
func TestStreamBatchOneFlush(t *testing.T) {
	g := manyCells(8)
	golden, goldenTable := serialGolden(t, g)
	c, err := NewCoordinator(CoordinatorOptions{PingEvery: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	h := c.Handler()
	w := registerAs(t, h, 1)

	fw := &flushWriter{header: http.Header{}, flushes: make(chan int), resume: make(chan struct{})}
	nextFlush := func() int {
		t.Helper()
		select {
		case n := <-fw.flushes:
			return n
		case <-time.After(10 * time.Second):
			t.Fatal("the stream stopped flushing")
			return 0
		}
	}
	resume := func() {
		t.Helper()
		select {
		case fw.resume <- struct{}{}:
		case <-time.After(10 * time.Second):
			t.Fatal("the stream is not waiting in a flush")
		}
	}
	body, _ := json.Marshal(SweepRequest{SchemaVersion: schema.Version, Grid: g})
	streamed := make(chan struct{})
	go func() {
		defer close(streamed)
		h.ServeHTTP(fw, httptest.NewRequest(http.MethodPost, PathSweep, bytes.NewReader(body)))
	}()

	// The poll waits for the sweep's cells.
	var resp PollResponse
	json.Unmarshal(serve(t, h, PathPoll, PollRequest{Worker: w, WaitMillis: 5000, Batch: 16}).Body.Bytes(), &resp)
	if n := nextFlush(); n != 0 {
		t.Fatalf("the start event's flush carried %d cells", n)
	}
	var sizes []int
	for batch := resp.batch(); len(batch) > 0; batch = resp.batch() {
		var reps []Report
		for _, a := range batch {
			reps = append(reps, Report{ID: a.ID, Attempt: a.Attempt, Result: golden[a.Cell.Key()]})
		}
		resp = PollResponse{}
		json.Unmarshal(serve(t, h, PathComplete, CompleteRequest{
			Worker: w, ID: reps[0].ID, Attempt: reps[0].Attempt, Result: reps[0].Result, More: reps[1:],
			WaitMillis: 1, Batch: 16,
		}).Body.Bytes(), &resp)
		resume()
		if n := nextFlush(); n != len(batch) {
			t.Errorf("a completion of %d cells reached the stream in a flush of %d", len(batch), n)
		}
		sizes = append(sizes, len(batch))
	}
	resume()
	if n := nextFlush(); n != 0 {
		t.Errorf("the done event's flush carried %d cells", n)
	}
	resume()
	select {
	case <-streamed:
	case <-time.After(10 * time.Second):
		t.Fatal("the stream did not end after the done event")
	}
	if fmt.Sprint(sizes) != "[4 2 1 1]" {
		t.Errorf("batches of %v, want [4 2 1 1] for 8 cells on one slot", sizes)
	}

	results := map[string]CellResult{}
	for _, line := range bytes.Split(bytes.TrimSpace(fw.buf.Bytes()), []byte("\n")) {
		var ev StreamEvent
		if err := json.Unmarshal(line, &ev); err != nil {
			t.Fatal(err)
		}
		if ev.Type == "cell" {
			results[ev.Cell.Cell.Key()] = *ev.Cell
		}
	}
	if got := Table(g, results).Text(); got != goldenTable {
		t.Errorf("streamed table differs from serial:\n--- streamed\n%s--- serial\n%s", got, goldenTable)
	}
}
