package sweepd

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"multicore/internal/analytic"
	"multicore/internal/experiments"
	"multicore/internal/schema"
	"multicore/internal/store"
	"multicore/internal/sweepd/journal"
)

// Durability, admission control, and failure-domain tests: quotas,
// weighted-fair dequeue, domain quarantine, resume tokens, and the
// headline crash/restart guarantee.

// waitStatus polls /status until pred holds or the deadline passes.
func waitStatus(t *testing.T, base string, pred func(Status) bool) Status {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	var st Status
	for time.Now().Before(deadline) {
		st = getStatus(t, base)
		if pred(st) {
			return st
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("status never satisfied predicate; last = %+v", st)
	return st
}

func rankedGrid(workload string, ranks ...int) Grid {
	return Grid{Workloads: []string{workload}, Systems: []string{"tiger"},
		Ranks: ranks, Schemes: []string{"default"}, Scale: "quick"}
}

// TestQuotaRejectsOverInflightLimit: a client with its quota of cells in
// flight gets 429 + Retry-After on the next submission (surfaced as
// *QuotaError), while other clients are unaffected.
func TestQuotaRejectsOverInflightLimit(t *testing.T) {
	_, srv := startCoordinator(t, CoordinatorOptions{
		MaxInflightPerClient: 2, RetryAfter: 7 * time.Second,
	})
	// No workers: the first sweep's two cells stay in flight forever.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go Submit(ctx, srv.URL, SweepRequest{
		SchemaVersion: schema.Version, Grid: rankedGrid("stream", 1, 2), Client: "bulk",
	}, func(CellResult) {})
	waitStatus(t, srv.URL, func(s Status) bool { return s.Queued == 2 })

	// Same client, one more cell: over quota.
	_, err := Submit(context.Background(), srv.URL, SweepRequest{
		SchemaVersion: schema.Version, Grid: rankedGrid("stream", 4), Client: "bulk",
	}, func(CellResult) {})
	var qe *QuotaError
	if !errors.As(err, &qe) {
		t.Fatalf("over-quota submission err = %v, want *QuotaError", err)
	}
	if qe.RetryAfter != 7*time.Second {
		t.Errorf("QuotaError.RetryAfter = %s, want 7s (coordinator's hint)", qe.RetryAfter)
	}

	// A different client is admitted: its stream starts (HTTP 200).
	body, _ := json.Marshal(SweepRequest{
		SchemaVersion: schema.Version, Grid: rankedGrid("cg", 1), Client: "other",
	})
	resp, err := http.Post(srv.URL+PathSweep, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("other client's submission status = %d, want 200", resp.StatusCode)
	}
}

// TestQuotaAdmitsScreenedFootprint: a screened grid larger than the
// client's quota is admitted when its promoted cells fit, and the sweep
// queues exactly the cells the admission screening counted; a second
// copy from the same client no longer fits.
func TestQuotaAdmitsScreenedFootprint(t *testing.T) {
	g := screenGrid()
	promoted := 0
	for _, d := range ScreenGrid(analytic.New(), g, ScreenOptions{}) {
		if d.Promote {
			promoted++
		}
	}
	if promoted == 0 || promoted >= g.Size() {
		t.Fatalf("%d of %d cells promoted; the test needs a partial promotion", promoted, g.Size())
	}
	_, srv := startCoordinator(t, CoordinatorOptions{MaxInflightPerClient: promoted})
	req := SweepRequest{SchemaVersion: schema.Version, Grid: g, Screen: true, Client: "bulk"}
	// No workers: the promoted cells stay in flight.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go Submit(ctx, srv.URL, req, func(CellResult) {})
	waitStatus(t, srv.URL, func(s Status) bool { return s.Queued == promoted })

	var qe *QuotaError
	if _, err := Submit(context.Background(), srv.URL, req, func(CellResult) {}); !errors.As(err, &qe) {
		t.Fatalf("second screened submission err = %v, want *QuotaError", err)
	}
}

// TestPriorityWeightedDequeue: with a low- and a high-priority sweep
// queued, the stride scheduler hands out high-priority cells roughly
// (priority+1):1 — here all four high cells land within the first five
// dequeues instead of FIFO-draining the earlier low sweep.
func TestPriorityWeightedDequeue(t *testing.T) {
	_, srv := startCoordinator(t, CoordinatorOptions{})
	submitAsync(t, srv.URL, SweepRequest{
		SchemaVersion: schema.Version, Grid: rankedGrid("cg", 1, 2, 3, 4), Client: "bulk", Priority: 0,
	})
	waitStatus(t, srv.URL, func(s Status) bool { return s.Queued == 4 })
	submitAsync(t, srv.URL, SweepRequest{
		SchemaVersion: schema.Version, Grid: rankedGrid("stream", 1, 2, 3, 4), Client: "urgent", Priority: 9,
	})
	waitStatus(t, srv.URL, func(s Status) bool { return s.Queued == 8 })

	w := registerWorker(t, srv.URL)
	var order []string
	for i := 0; i < 8; i++ {
		asg := pollUntil(t, srv.URL, w, 5*time.Second)
		if asg == nil {
			t.Fatalf("queue dried up after %d cells (order %v)", i, order)
		}
		order = append(order, asg.Cell.Workload)
		completeOK(t, srv.URL, w, asg, 1.0)
	}
	hi := 0
	for _, wl := range order[:4] {
		if wl == "stream" {
			hi++
		}
	}
	if hi < 3 {
		t.Errorf("high-priority cells in first 4 dequeues = %d, want >= 3 (order %v)", hi, order)
	}
}

// TestDomainQuarantineAndRecovery: repeated lease expiries quarantine the
// worker's whole failure domain (polls refused with a backoff hint,
// /status surfaces it), and a successful completion afterwards clears
// the domain's record.
func TestDomainQuarantineAndRecovery(t *testing.T) {
	_, srv := startCoordinator(t, CoordinatorOptions{
		Lease: 60 * time.Millisecond, MaxAttempts: 10,
		QuarantineAfter: 2, QuarantineBackoff: 300 * time.Millisecond,
	})
	submitAsync(t, srv.URL, SweepRequest{SchemaVersion: schema.Version, Grid: rankedGrid("stream", 1, 2)})
	waitStatus(t, srv.URL, func(s Status) bool { return s.Queued == 2 })

	resp := postAs[RegisterResponse](t, srv.URL+PathRegister,
		RegisterRequest{SchemaVersion: schema.Version, Name: "flaky", Domain: "rack9"})
	w := resp.Worker

	// Lease both cells and never heartbeat. Leases of one worker that
	// lapse in one reap count as one expiry, so the quarantine trips once
	// leases have lapsed in two reaps (QuarantineAfter); the loop below
	// lets re-leased cells lapse again until it does.
	if a := pollUntil(t, srv.URL, w, 5*time.Second); a == nil {
		t.Fatal("no first assignment")
	}
	if a := pollUntil(t, srv.URL, w, 5*time.Second); a == nil {
		t.Fatal("no second assignment")
	}

	// Polls are now turned away with a backoff hint.
	var retry int64
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		pr := postAs[PollResponse](t, srv.URL+PathPoll, PollRequest{Worker: w, WaitMillis: 10})
		if pr.RetryAfterMillis > 0 {
			retry = pr.RetryAfterMillis
			break
		}
		if pr.Assignment != nil {
			// Re-leased before quarantine tripped; let it expire again.
			continue
		}
	}
	if retry <= 0 {
		t.Fatal("domain never quarantined after repeated lease expiries")
	}
	st := waitStatus(t, srv.URL, func(s Status) bool { return len(s.Domains) > 0 })
	found := false
	for _, d := range st.Domains {
		if d.Domain == "rack9" {
			found = true
			if !d.Quarantined || d.Quarantines < 1 {
				t.Errorf("domain status = %+v, want quarantined with >= 1 quarantine", d)
			}
		}
	}
	if !found {
		t.Fatalf("/status domains = %+v, want rack9", st.Domains)
	}

	// After the backoff the domain serves again; a success clears it.
	time.Sleep(time.Duration(retry) * time.Millisecond)
	for i := 0; i < 2; i++ {
		asg := pollUntil(t, srv.URL, w, 10*time.Second)
		if asg == nil {
			t.Fatalf("no assignment after quarantine lifted (cell %d)", i)
		}
		completeOK(t, srv.URL, w, asg, 1.0)
	}
	st = getStatus(t, srv.URL)
	for _, d := range st.Domains {
		if d.Domain == "rack9" && d.Quarantined {
			t.Errorf("domain still quarantined after successful completions: %+v", d)
		}
	}
}

// readEvent decodes one NDJSON stream line.
func readEvent(t *testing.T, sc *bufio.Scanner) StreamEvent {
	t.Helper()
	if !sc.Scan() {
		t.Fatalf("stream ended early: %v", sc.Err())
	}
	var ev StreamEvent
	if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
		t.Fatalf("bad stream line %q: %v", sc.Bytes(), err)
	}
	return ev
}

// TestResumeTokenReplaysFinalizedCells: a client that drops its stream
// mid-sweep reattaches with the token from the "start" event and
// receives every cell finalized in its absence, then the done summary.
func TestResumeTokenReplaysFinalizedCells(t *testing.T) {
	_, srv := startCoordinator(t, CoordinatorOptions{})
	g := rankedGrid("stream", 1, 2)
	body, _ := json.Marshal(SweepRequest{SchemaVersion: schema.Version, Grid: g})
	resp, err := http.Post(srv.URL+PathSweep, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	ev := readEvent(t, bufio.NewScanner(resp.Body))
	if ev.Type != "start" || ev.Token == "" {
		t.Fatalf("first event = %+v, want start with token", ev)
	}
	token := ev.Token
	resp.Body.Close() // client drops; the sweep is retained server-side

	// Finish both cells while no client is attached.
	w := registerWorker(t, srv.URL)
	for i := 0; i < 2; i++ {
		asg := pollUntil(t, srv.URL, w, 5*time.Second)
		if asg == nil {
			t.Fatalf("no assignment for cell %d", i)
		}
		completeOK(t, srv.URL, w, asg, float64(i+1))
	}
	waitStatus(t, srv.URL, func(s Status) bool { return s.Done == 2 })

	// Resume: replay of both finalized cells, then done.
	body, _ = json.Marshal(SweepRequest{Resume: token})
	resp2, err := http.Post(srv.URL+PathSweep, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("resume status = %d, want 200", resp2.StatusCode)
	}
	sc := bufio.NewScanner(resp2.Body)
	if ev := readEvent(t, sc); ev.Type != "start" || ev.Token != token {
		t.Fatalf("resume start = %+v, want same token %s", ev, token)
	}
	cells := 0
	for {
		ev := readEvent(t, sc)
		if ev.Type == "cell" {
			cells++
			continue
		}
		if ev.Type == "done" {
			if ev.Summary == nil || ev.Summary.Cells != 2 {
				t.Errorf("done summary = %+v, want 2 cells", ev.Summary)
			}
			break
		}
		if ev.Type == "ping" {
			continue
		}
		t.Fatalf("unexpected resume event %+v", ev)
	}
	if cells != 2 {
		t.Errorf("resume replayed %d cells, want 2", cells)
	}
}

// TestUnknownResumeToken404: resuming a token the coordinator has never
// seen (or already dropped) is a 404, not a hang or a fresh sweep.
func TestUnknownResumeToken404(t *testing.T) {
	_, srv := startCoordinator(t, CoordinatorOptions{})
	body, _ := json.Marshal(SweepRequest{Resume: "snope"})
	resp, err := http.Post(srv.URL+PathSweep, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown resume token status = %d, want 404", resp.StatusCode)
	}
}

// tcpCoordinator is one coordinator incarnation bound to a real TCP
// listener, so a restarted incarnation can rebind the address clients
// reconnect to.
type tcpCoordinator struct {
	coord *Coordinator
	srv   *http.Server
}

func startTCPCoordinator(addr string, opts CoordinatorOptions) (*tcpCoordinator, string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, "", err
	}
	coord, err := NewCoordinator(opts)
	if err != nil {
		ln.Close()
		return nil, "", err
	}
	tc := &tcpCoordinator{coord: coord, srv: &http.Server{Handler: coord.Handler()}}
	go tc.srv.Serve(ln)
	return tc, ln.Addr().String(), nil
}

// kill simulates SIGKILL: the coordinator stops without syncing or
// closing its journal and connections are severed. The journal file
// handle leaks until the process exits, exactly as a kill would leave
// it.
func (tc *tcpCoordinator) kill() {
	tc.coord.stopOnce.Do(func() { close(tc.coord.stop) })
	tc.srv.Close()
}

func (tc *tcpCoordinator) close() {
	tc.coord.Close()
	tc.srv.Close()
}

// TestCoordinatorCrashRestartResumesSweep is the headline durability
// guarantee end to end: SIGKILL the coordinator mid-sweep, restart it
// from the journal on the same address, and the in-flight client sweep
// completes byte-identical to serial with every cell simulated at most
// once. In the direct case the worker has a slot per cell, the
// coordinator dies once every slot runs one, and all of them find the
// registration gone after the restart: the worker re-registers once,
// so the restarted coordinator counts its four slots once. The batched
// case kills the coordinator while the worker is inside a batch, whose
// report then reaches no coordinator that knows the worker. A screened
// sweep survives the restart too: restore re-screens it rather than
// journaling its settled cells, so its table must equal RunScreened's
// serial one with only the promoted cells simulated.
func TestCoordinatorCrashRestartResumesSweep(t *testing.T) {
	g := e2eGrid()
	t.Run("direct", func(t *testing.T) {
		golden, _ := serialGolden(t, g)
		crashRestartSweep(t, g, false, golden, len(g.Cells()), len(g.Cells()), len(g.Cells()), 250*time.Millisecond)
	})
	t.Run("batched", func(t *testing.T) {
		g := manyCells(8)
		golden, _ := serialGolden(t, g)
		crashRestartSweep(t, g, false, golden, len(g.Cells()), 3, 1, 30*time.Millisecond)
	})
	t.Run("screened", func(t *testing.T) {
		r := experiments.NewRunner(context.Background(), experiments.Options{Parallelism: 1})
		golden, decisions := RunScreened(r, analytic.New(), g, ScreenOptions{}, 1)
		sum := ScreenSummary(decisions, golden)
		if sum.Promoted == 0 || sum.Screened == 0 {
			t.Fatalf("screening %v: %+v, want both promoted and screened cells", g, sum)
		}
		crashRestartSweep(t, g, true, golden, sum.Promoted, 1, 1, 250*time.Millisecond)
	})
}

// crashRestartSweep submits g, kills the coordinator when the worker
// (with the given number of slots) starts its killAt-th cell, restarts
// it on the same address and checks the completed sweep against the
// serial golden results, with the worker simulating exactly the given
// number of cells and registered once with the restarted coordinator.
// The worker stalls before every cell.
func crashRestartSweep(t *testing.T, g Grid, screen bool, golden map[string]CellResult, simulated, killAt, slots int, stall time.Duration) {
	stateDir := t.TempDir()
	storeDir := t.TempDir()
	coordOpts := CoordinatorOptions{
		Lease: time.Second, StateDir: stateDir, SyncEvery: 1,
		PingEvery: 100 * time.Millisecond,
	}
	tc, addr, err := startTCPCoordinator("127.0.0.1:0", coordOpts)
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + addr

	// The worker dawdles before each cell so the sweep is guaranteed to
	// be mid-flight when the coordinator dies.
	reached := make(chan struct{})
	var cells atomic.Int32
	w, err := NewWorker(WorkerOptions{
		Coordinator: base, Store: storeDir, Name: "a", Parallelism: slots,
		beforeCell: func(Assignment) {
			if cells.Add(1) == int32(killAt) {
				close(reached)
			}
			time.Sleep(stall)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, stopWorker := context.WithCancel(context.Background())
	stopped := make(chan struct{})
	go func() { defer close(stopped); w.Run(ctx) }()
	defer func() { stopWorker(); <-stopped }()

	var mu sync.Mutex
	results := map[string]CellResult{}
	sumc := make(chan *Summary, 1)
	errc := make(chan error, 1)
	go func() {
		sum, err := Submit(context.Background(), base, SweepRequest{
			SchemaVersion: schema.Version, Grid: g, Screen: screen, Client: "crashtest",
		}, func(r CellResult) {
			mu.Lock()
			results[r.Cell.Key()] = r
			mu.Unlock()
		})
		sumc <- sum
		errc <- err
	}()

	<-reached // a cell is leased: the sweep is live
	tc.kill() // simulated SIGKILL: journal unflushed, connections severed
	time.Sleep(150 * time.Millisecond)
	tc2, _, err := startTCPCoordinator(addr, coordOpts)
	if err != nil {
		t.Fatalf("coordinator restart: %v", err)
	}
	defer tc2.close()

	sum := <-sumc
	if err := <-errc; err != nil {
		t.Fatalf("sweep across coordinator crash failed: %v", err)
	}
	if sum.Errors != 0 || sum.Divergent != 0 {
		t.Fatalf("summary = %+v, want clean completion across the crash", sum)
	}
	mu.Lock()
	got := Table(g, results).Text()
	mu.Unlock()
	if goldenTable := Table(g, golden).Text(); got != goldenTable {
		t.Errorf("post-crash table differs from serial:\n--- distributed\n%s--- serial\n%s", got, goldenTable)
	}
	mu.Lock()
	for k, want := range golden {
		if results[k].Fingerprint != want.Fingerprint {
			t.Errorf("cell %s fingerprint %s != serial %s", k, results[k].Fingerprint, want.Fingerprint)
		}
	}
	mu.Unlock()
	tc2.coord.mu.Lock()
	registered, counted := len(tc2.coord.workers), tc2.coord.slots
	tc2.coord.mu.Unlock()
	if registered != 1 || counted != slots {
		t.Errorf("restarted coordinator has %d registrations with %d slots, want 1 with %d", registered, counted, slots)
	}
	// Zero re-simulation: cells finalized before the crash were restored
	// from the journal, and cells completed during the outage re-lease
	// into store hits; either way the worker simulates each cell once.
	if run, _ := w.Stats(); run != simulated {
		t.Errorf("worker simulated %d cells across the crash, want %d", run, simulated)
	}
	st, err := store.Open(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if n, err := st.Len(); err != nil || n != simulated {
		t.Errorf("store holds %d entries (err %v), want %d", n, err, simulated)
	}
}

// TestResumeAllocatesNothingPerCell: a stream resumed on a sweep of
// 21,600 pending cells allocates nothing that grows with the sweep. It
// reads the sweep's log in place; a per-stream buffer for every cell
// would cost about 4.5 MB per attach.
func TestResumeAllocatesNothingPerCell(t *testing.T) {
	c, err := NewCoordinator(CoordinatorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	c.Close() // the resumes under test are the only thing that allocates
	queueSweep(t, c, "sbig", manyCells(21600))
	h := c.Handler()
	body, _ := json.Marshal(SweepRequest{Resume: "sbig"})
	resume := func() {
		// A canceled request returns right after the start event's flush.
		req := httptest.NewRequest(http.MethodPost, PathSweep, bytes.NewReader(body))
		ctx, cancel := context.WithCancel(req.Context())
		cancel()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req.WithContext(ctx))
		if rec.Code != http.StatusOK {
			t.Fatalf("resume: %d %s", rec.Code, rec.Body)
		}
	}
	resume()
	const n = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		resume()
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / n; per > 256<<10 {
		t.Errorf("a resume allocated %d bytes on a sweep of 21,600 pending cells, want under 256 KiB", per)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if sw := c.sweeps["sbig"]; sw.streams != 0 || sw.idle.IsZero() {
		t.Errorf("after the streams ended: %d attached, idle since %v; want none and the retention clock running", sw.streams, sw.idle)
	}
}

// TestSnapshotBytesLinear: a durable coordinator driven through one
// unscreened sweep, a lease and a final per cell, writes snapshot bytes
// in proportion to the sweep: four times the cells write about four
// times the bytes. Compacting every snapshotEvery records whatever the
// state's size re-encoded every result held so far, so the bytes grew
// with the square of the cells (15.6 times for four times the cells).
func TestSnapshotBytesLinear(t *testing.T) {
	if testing.Short() {
		t.Skip("drives 54,000 cells through a durable coordinator")
	}
	snapshotBytes := func(cells int) int64 {
		dir := t.TempDir()
		c, err := NewCoordinator(CoordinatorOptions{StateDir: dir, SyncEvery: 1 << 30})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		queueSweep(t, c, "slinear", manyCells(cells))
		c.mu.Lock()
		defer c.mu.Unlock()
		var total int64
		// step journals one record; a snapshot on the way empties the
		// journal, and its file then holds what the snapshot wrote.
		step := func(journal func()) {
			n := c.jn.Records()
			journal()
			if c.jn.Records() <= n {
				fi, err := os.Stat(filepath.Join(dir, "snapshot.json"))
				if err != nil {
					t.Fatal(err)
				}
				total += fi.Size()
			}
		}
		for {
			var asg *Assignment
			step(func() { asg = c.popLocked("w1") })
			if asg == nil {
				return total
			}
			res := CellResult{Cell: asg.Cell, Status: StatusOK, Seconds: 1, Simulated: true}
			step(func() { c.completeLocked("w1", Report{ID: asg.ID, Attempt: asg.Attempt, Result: res}) })
		}
	}
	small, large := snapshotBytes(10800), snapshotBytes(43200)
	t.Logf("snapshot bytes: %d for 10,800 cells, %d for 43,200", small, large)
	if small == 0 {
		t.Fatal("no snapshot while driving 10,800 cells")
	}
	if r := float64(large) / float64(small); r > 5 {
		t.Errorf("4x the cells wrote %.1fx the snapshot bytes, want about 4x", r)
	}
}

// olderSweep and olderState are the snapshot format of coordinators
// that stored each sweep's completion: a "done" field per sweep, next to
// the "done" journal record written when a sweep completed.
type olderSweep struct {
	Token string       `json:"token"`
	Req   SweepRequest `json:"req"`
	Done  bool         `json:"done,omitempty"`
}

type olderState struct {
	Sweeps    []olderSweep          `json:"sweeps"`
	Results   map[string]CellResult `json:"results,omitempty"`
	Attempts  map[string]int        `json:"attempts,omitempty"`
	Finals    map[string]string     `json:"finals,omitempty"`
	DoneCells int                   `json:"done_cells,omitempty"`
}

// TestRestoreOlderFormatState: a state directory written in the older
// format, with snapshot sweeps marked "done" and "done" journal records,
// restores to the same sweeps, queue and completion. Completion comes
// from the finals replayed, so the complete sweeps stream their cells
// and end at once, the incomplete one re-queues its unfinished cells at
// their journaled attempt counts and ends once they are reported, and
// the new snapshot stores no completion.
func TestRestoreOlderFormatState(t *testing.T) {
	dir := t.TempDir()
	finished, live, replayed := rankedGrid("stream", 1, 2), rankedGrid("cg", 1, 2, 3), rankedGrid("ft", 1, 2)
	result := func(cell CellSpec) CellResult {
		res := CellResult{Cell: cell, Status: StatusOK, Seconds: float64(cell.Ranks), Worker: "w1-0a0b", Simulated: true, Attempt: 1}
		res.Fingerprint = Fingerprint(res)
		return res
	}
	ps := olderState{
		Sweeps: []olderSweep{
			{Token: "sfinished", Req: SweepRequest{SchemaVersion: schema.Version, Grid: finished}, Done: true},
			{Token: "slive", Req: SweepRequest{SchemaVersion: schema.Version, Grid: live, Priority: 3}},
		},
		Results: map[string]CellResult{}, Finals: map[string]string{},
		Attempts: map[string]int{live.Cells()[2].Key(): 2},
	}
	for _, cell := range append(finished.Cells(), live.Cells()[0]) {
		ps.Results[cell.Key()] = result(cell)
		ps.Finals[cell.Key()] = result(cell).Fingerprint
		ps.DoneCells++
	}
	snap, err := json.Marshal(ps)
	if err != nil {
		t.Fatal(err)
	}
	records := []journalRecord{{T: "sweep", Token: "sreplayed", Req: &SweepRequest{SchemaVersion: schema.Version, Grid: replayed}}}
	for _, cell := range replayed.Cells() {
		res := result(cell)
		records = append(records, journalRecord{T: "final", ID: cell.Key(), Res: &res})
	}
	records = append(records,
		journalRecord{T: "done", Token: "sreplayed"},
		journalRecord{T: "lease", ID: live.Cells()[2].Key(), Attempt: 3})
	jn, _, _, err := journal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := jn.Snapshot(snap); err != nil {
		t.Fatal(err)
	}
	for _, rec := range records {
		b, _ := json.Marshal(rec)
		if err := jn.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := jn.Close(); err != nil {
		t.Fatal(err)
	}

	c, srv := startCoordinator(t, CoordinatorOptions{StateDir: dir, PingEvery: 20 * time.Millisecond})
	st := getStatus(t, srv.URL)
	if st.Sweeps != 3 || st.Queued != 2 || st.Leased != 0 || st.Done != 5 {
		t.Fatalf("restored status %+v, want 3 sweeps, 2 queued, 0 leased, 5 done", st)
	}
	c.mu.Lock()
	for token, pending := range map[string]int{"sfinished": 0, "sreplayed": 0, "slive": 2} {
		if sw := c.sweeps[token]; sw == nil || sw.pending != pending {
			t.Errorf("sweep %s restored with %+v, want %d pending", token, sw, pending)
		}
	}
	if got := c.cells[live.Cells()[2].Key()].asg.Attempt; got != 3 {
		t.Errorf("journaled attempt count restored as %d, want 3", got)
	}
	c.mu.Unlock()
	snapshot, err := os.ReadFile(filepath.Join(dir, "snapshot.json"))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(snapshot, []byte(`"done"`)) {
		t.Errorf("the snapshot written after restore stores completion: %s", snapshot)
	}

	// stream resumes token and reads its events through done, or through
	// the first ping when the sweep is incomplete.
	stream := func(token string, untilPing bool) (cells int, sum *Summary) {
		t.Helper()
		body, _ := json.Marshal(SweepRequest{Resume: token})
		resp, err := http.Post(srv.URL+PathSweep, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		sc := bufio.NewScanner(resp.Body)
		for {
			switch ev := readEvent(t, sc); ev.Type {
			case "cell":
				cells++
			case "ping":
				if untilPing {
					return cells, nil
				}
			case "done":
				return cells, ev.Summary
			}
		}
	}
	for token, want := range map[string]int{"sfinished": 2, "sreplayed": 2} {
		if cells, sum := stream(token, false); cells != want || sum == nil || sum.Cells != want {
			t.Errorf("resumed %s: %d cells, summary %+v; want %d cells and done", token, cells, sum, want)
		}
	}
	if cells, _ := stream("slive", true); cells != 1 {
		t.Errorf("resumed the incomplete sweep: %d cells before a ping, want 1", cells)
	}

	w := registerWorker(t, srv.URL)
	for i := 0; i < 2; i++ {
		asg := pollUntil(t, srv.URL, w, 5*time.Second)
		if asg == nil {
			t.Fatalf("no assignment for queued cell %d", i)
		}
		if want := map[int]int{2: 1, 3: 4}[asg.Cell.Ranks]; asg.Attempt != want {
			t.Errorf("cell %s leased at attempt %d, want %d", asg.ID, asg.Attempt, want)
		}
		completeOK(t, srv.URL, w, asg, 1)
	}
	if cells, sum := stream("slive", false); cells != 3 || sum == nil || sum.Cells != 3 {
		t.Errorf("resumed the completed sweep: %d cells, summary %+v; want 3 cells and done", cells, sum)
	}
}
