package sweepd

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"multicore/internal/machine"
	"multicore/internal/schema"
)

// Control-plane tests: fake workers drive the coordinator's HTTP API
// directly, so lease expiry, failure finalization, dedup, and divergence
// detection are exercised without running simulations.

func startCoordinator(t *testing.T, opts CoordinatorOptions) (*Coordinator, *httptest.Server) {
	t.Helper()
	c, err := NewCoordinator(opts)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(c.Handler())
	t.Cleanup(func() { srv.Close(); c.Close() })
	return c, srv
}

func postAs[T any](t *testing.T, url string, req any) T {
	t.Helper()
	var out T
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST %s: status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

func registerWorker(t *testing.T, base string) string {
	t.Helper()
	resp := postAs[RegisterResponse](t, base+PathRegister, RegisterRequest{SchemaVersion: schema.Version, Name: "fake"})
	return resp.Worker
}

// pollUntil polls as the worker until an assignment arrives or the
// deadline passes.
func pollUntil(t *testing.T, base, worker string, timeout time.Duration) *Assignment {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		resp := postAs[PollResponse](t, base+PathPoll, PollRequest{Worker: worker, WaitMillis: 50})
		if resp.Assignment != nil {
			return resp.Assignment
		}
	}
	return nil
}

func completeOK(t *testing.T, base, worker string, asg *Assignment, secs float64) {
	t.Helper()
	res := CellResult{Cell: asg.Cell, Status: StatusOK, Seconds: secs, Simulated: true}
	res.Fingerprint = Fingerprint(res)
	postAs[struct{}](t, base+PathComplete, CompleteRequest{Worker: worker, ID: asg.ID, Attempt: asg.Attempt, Result: res})
}

func testGrid() Grid {
	return Grid{Workloads: []string{"stream"}, Systems: []string{"tiger"},
		Ranks: []int{2}, Schemes: []string{"default"}, Scale: "quick"}
}

// submitAsync runs Submit in a goroutine, returning channels for the
// summary and collected results.
func submitAsync(t *testing.T, base string, req SweepRequest) (<-chan *Summary, <-chan map[string]CellResult, <-chan error) {
	t.Helper()
	// Cleanups run last-registered first, so this cancel ends the stream
	// before startCoordinator's cleanup closes the server: a test that
	// fails mid-sweep returns instead of blocking in httptest's Close.
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	sumc := make(chan *Summary, 1)
	resc := make(chan map[string]CellResult, 1)
	errc := make(chan error, 1)
	go func() {
		results := map[string]CellResult{}
		var mu sync.Mutex
		sum, err := Submit(ctx, base, req, func(r CellResult) {
			mu.Lock()
			results[r.Cell.Key()] = r
			mu.Unlock()
		})
		sumc <- sum
		resc <- results
		errc <- err
	}()
	return sumc, resc, errc
}

func TestLeaseExpiryReassigns(t *testing.T) {
	_, srv := startCoordinator(t, CoordinatorOptions{Lease: 60 * time.Millisecond})
	w1 := registerWorker(t, srv.URL)
	w2 := registerWorker(t, srv.URL)

	req := SweepRequest{SchemaVersion: schema.Version, Grid: testGrid()}
	sumc, _, errc := submitAsync(t, srv.URL, req)

	asg1 := pollUntil(t, srv.URL, w1, 2*time.Second)
	if asg1 == nil {
		t.Fatal("w1 never got the cell")
	}
	if asg1.Attempt != 1 {
		t.Fatalf("first lease attempt = %d, want 1", asg1.Attempt)
	}
	// w1 goes silent: no heartbeat, no completion. The lease must expire
	// and the cell re-lease to w2.
	asg2 := pollUntil(t, srv.URL, w2, 2*time.Second)
	if asg2 == nil {
		t.Fatal("cell never re-leased after expiry")
	}
	if asg2.ID != asg1.ID || asg2.Attempt != 2 {
		t.Fatalf("re-lease = %+v, want same cell at attempt 2", asg2)
	}
	completeOK(t, srv.URL, w2, asg2, 1.5)
	sum := <-sumc
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	if sum.Cells != 1 || sum.Simulated != 1 {
		t.Errorf("summary = %+v, want 1 cell simulated", sum)
	}
}

func TestHeartbeatKeepsLease(t *testing.T) {
	// The lease outlasts a heartbeat period (a quarter lease) plus two
	// round trips by about 200 ms, which -race scheduling on a loaded
	// host does not eat; the loop spans at least three full leases.
	const lease = 300 * time.Millisecond
	_, srv := startCoordinator(t, CoordinatorOptions{Lease: lease})
	w1 := registerWorker(t, srv.URL)
	w2 := registerWorker(t, srv.URL)

	req := SweepRequest{SchemaVersion: schema.Version, Grid: testGrid()}
	sumc, _, errc := submitAsync(t, srv.URL, req)
	asg := pollUntil(t, srv.URL, w1, 2*time.Second)
	if asg == nil {
		t.Fatal("no assignment")
	}
	// Heartbeat well past the original lease; the cell must not be
	// re-leased while renewed.
	for start := time.Now(); time.Since(start) < 3*lease; {
		hb := postAs[HeartbeatResponse](t, srv.URL+PathHeartbeat, HeartbeatRequest{Worker: w1, IDs: []string{asg.ID}})
		if len(hb.Lost) != 0 {
			t.Fatalf("heartbeat lost lease: %v", hb.Lost)
		}
		if resp := postAs[PollResponse](t, srv.URL+PathPoll, PollRequest{Worker: w2, WaitMillis: 10}); resp.Assignment != nil {
			t.Fatalf("cell re-leased to w2 despite heartbeats: %+v", resp.Assignment)
		}
		time.Sleep(lease / 4)
	}
	completeOK(t, srv.URL, w1, asg, 2.5)
	<-sumc
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
}

func TestDeterministicFailureFinalizes(t *testing.T) {
	_, srv := startCoordinator(t, CoordinatorOptions{Lease: time.Second})
	w := registerWorker(t, srv.URL)
	req := SweepRequest{SchemaVersion: schema.Version, Grid: testGrid()}
	sumc, resc, errc := submitAsync(t, srv.URL, req)

	asg := pollUntil(t, srv.URL, w, 2*time.Second)
	res := CellResult{Cell: asg.Cell, Status: StatusError, Error: "cell panicked", Simulated: true}
	res.Fingerprint = Fingerprint(res)
	postAs[struct{}](t, srv.URL+PathComplete, CompleteRequest{Worker: w, ID: asg.ID, Attempt: asg.Attempt, Result: res})

	sum := <-sumc
	results := <-resc
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	if sum.Errors != 1 {
		t.Errorf("summary errors = %d, want 1", sum.Errors)
	}
	for _, r := range results {
		if r.Status != StatusError || r.Attempt != 1 {
			t.Errorf("deterministic failure retried: %+v", r)
		}
	}
}

func TestLeaseBudgetExhaustionFailsCell(t *testing.T) {
	_, srv := startCoordinator(t, CoordinatorOptions{Lease: 40 * time.Millisecond, MaxAttempts: 2})
	w := registerWorker(t, srv.URL)
	req := SweepRequest{SchemaVersion: schema.Version, Grid: testGrid()}
	sumc, resc, errc := submitAsync(t, srv.URL, req)

	// Take both leases and abandon them.
	for i := 0; i < 2; i++ {
		if asg := pollUntil(t, srv.URL, w, 2*time.Second); asg == nil {
			t.Fatalf("no assignment for attempt %d", i+1)
		}
	}
	sum := <-sumc
	results := <-resc
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	if sum.Errors != 1 {
		t.Errorf("summary = %+v, want 1 error", sum)
	}
	for _, r := range results {
		if r.Status != StatusError || !strings.Contains(r.Error, "lease expired") {
			t.Errorf("result = %+v, want lease-expiry error", r)
		}
	}
}

func TestConcurrentSweepsShareExecutions(t *testing.T) {
	_, srv := startCoordinator(t, CoordinatorOptions{Lease: time.Second})
	w := registerWorker(t, srv.URL)
	g := Grid{Workloads: []string{"stream", "cg"}, Systems: []string{"tiger"},
		Ranks: []int{1, 2}, Schemes: []string{"default"}, Scale: "quick"}
	req := SweepRequest{SchemaVersion: schema.Version, Grid: g}
	nCells := len(g.Cells())

	sum1, res1, err1 := submitAsync(t, srv.URL, req)
	sum2, res2, err2 := submitAsync(t, srv.URL, req)

	// Serve every assignment the coordinator hands out; count them.
	assigned := 0
	deadline := time.Now().Add(5 * time.Second)
	for assigned < nCells && time.Now().Before(deadline) {
		asg := pollUntil(t, srv.URL, w, 200*time.Millisecond)
		if asg == nil {
			continue
		}
		assigned++
		completeOK(t, srv.URL, w, asg, float64(assigned))
	}
	s1, s2 := <-sum1, <-sum2
	r1, r2 := <-res1, <-res2
	if err := <-err1; err != nil {
		t.Fatal(err)
	}
	if err := <-err2; err != nil {
		t.Fatal(err)
	}
	if assigned != nCells {
		t.Errorf("coordinator assigned %d executions for %d cells across 2 identical sweeps", assigned, nCells)
	}
	// No further work may be pending.
	if asg := pollUntil(t, srv.URL, w, 100*time.Millisecond); asg != nil {
		t.Errorf("extra assignment after both sweeps done: %+v", asg)
	}
	if s1.Cells != nCells || s2.Cells != nCells {
		t.Errorf("summaries = %+v / %+v, want %d cells each", s1, s2, nCells)
	}
	// Both clients saw identical results.
	for k, a := range r1 {
		b, ok := r2[k]
		if !ok || a.Fingerprint != b.Fingerprint {
			t.Errorf("sweep results diverge at %s: %+v vs %+v", k, a, b)
		}
	}
}

func TestDivergentDuplicateCompletionDetected(t *testing.T) {
	c, srv := startCoordinator(t, CoordinatorOptions{Lease: 50 * time.Millisecond})
	w1 := registerWorker(t, srv.URL)
	w2 := registerWorker(t, srv.URL)
	req := SweepRequest{SchemaVersion: schema.Version, Grid: testGrid()}
	sumc, _, errc := submitAsync(t, srv.URL, req)

	asg1 := pollUntil(t, srv.URL, w1, 2*time.Second)
	asg2 := pollUntil(t, srv.URL, w2, 2*time.Second) // re-lease after expiry
	if asg1 == nil || asg2 == nil {
		t.Fatal("missing assignments")
	}
	completeOK(t, srv.URL, w2, asg2, 1.0)
	// The stale worker reports a *different* value for the same cell:
	// must be counted as divergence, not silently dropped.
	completeOK(t, srv.URL, w1, asg1, 2.0)
	<-sumc
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	st := getStatus(t, srv.URL)
	if st.Divergent != 1 {
		t.Errorf("divergent = %d, want 1", st.Divergent)
	}
	c.Close()
}

func getStatus(t *testing.T, base string) Status {
	t.Helper()
	resp, err := http.Get(base + PathStatus)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func TestSchemaMismatchRejected(t *testing.T) {
	_, srv := startCoordinator(t, CoordinatorOptions{})
	req := SweepRequest{SchemaVersion: schema.Version + 1, Grid: testGrid()}
	if _, err := Submit(context.Background(), srv.URL, req, nil); err == nil ||
		!strings.Contains(err.Error(), "schema_version") {
		t.Errorf("mismatched sweep schema accepted: %v", err)
	}
	body, _ := json.Marshal(RegisterRequest{SchemaVersion: schema.Version + 1})
	resp, err := http.Post(srv.URL+PathRegister, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("mismatched register schema: status %d, want 400", resp.StatusCode)
	}
}

// TestMismatchedSpecIDRegistersNothing: a custom machine shipped under
// an id that does not match its content is rejected (400) before it is
// registered, so rejected submissions cannot grow the process-global
// machine registry.
func TestMismatchedSpecIDRegistersNothing(t *testing.T) {
	_, srv := startCoordinator(t, CoordinatorOptions{})
	spec := machine.DMZ()
	spec.MCBandwidth = 1.234567e9 // content no other test registers
	raw, err := machine.MarshalJSONSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	id, err := machine.SpecJSONID(raw)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := json.Marshal(SweepRequest{SchemaVersion: schema.Version, Grid: rankedGrid("cg", 2),
		Specs: map[string]json.RawMessage{"dmz@000000000000": raw}})
	resp, err := http.Post(srv.URL+PathSweep, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("spec under a wrong id: status %d, want 400", resp.StatusCode)
	}
	if _, ok := machine.CustomSpecJSON(id); ok {
		t.Fatalf("rejected spec %s was registered", id)
	}
}

// TestSubmitValidatesScreening: the coordinator rejects the screening
// options mcbench rejects — a negative promote_margin or
// uncertainty_bound, or either one without screen — with 400, before it
// registers a machine the request ships.
func TestSubmitValidatesScreening(t *testing.T) {
	_, srv := startCoordinator(t, CoordinatorOptions{})
	spec := machine.DMZ()
	spec.MCBandwidth = 2.345678e9 // content no other test registers
	raw, err := machine.MarshalJSONSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	id, err := machine.SpecJSONID(raw)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		req  SweepRequest
		want string
	}{
		{"negative margin", SweepRequest{Screen: true, PromoteMargin: -1}, "must not be negative"},
		{"negative bound", SweepRequest{Screen: true, UncertaintyBound: -3}, "must not be negative"},
		{"margin without screen", SweepRequest{PromoteMargin: 0.5}, "need screen"},
		{"bound without screen", SweepRequest{UncertaintyBound: 0.5}, "need screen"},
	} {
		req := tc.req
		req.SchemaVersion, req.Grid = schema.Version, rankedGrid("stream", 1, 2)
		req.Specs = map[string]json.RawMessage{id: raw}
		body, _ := json.Marshal(req)
		resp, err := http.Post(srv.URL+PathSweep, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, resp.StatusCode)
		}
		_, err = Submit(context.Background(), srv.URL, req, nil)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Submit error = %v, want one saying %q", tc.name, err, tc.want)
		}
	}
	if _, ok := machine.CustomSpecJSON(id); ok {
		t.Fatalf("spec %s shipped with rejected screening options was registered", id)
	}
	ok := SweepRequest{SchemaVersion: schema.Version, Grid: rankedGrid("stream", 1, 2),
		Screen: true, PromoteMargin: 0.2, UncertaintyBound: 0.4}
	if err := validateSweep(ok); err != nil {
		t.Errorf("screened request with positive options rejected: %v", err)
	}
}

func TestUnknownWorkerGets404(t *testing.T) {
	_, srv := startCoordinator(t, CoordinatorOptions{})
	body, _ := json.Marshal(PollRequest{Worker: "w999"})
	resp, err := http.Post(srv.URL+PathPoll, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown worker poll: status %d, want 404", resp.StatusCode)
	}
}

func TestSubmitValidatesGrid(t *testing.T) {
	_, srv := startCoordinator(t, CoordinatorOptions{})
	bad := SweepRequest{SchemaVersion: schema.Version,
		Grid: Grid{Workloads: []string{"cg"}, Systems: []string{"tiger"}, Ranks: []int{2}, Schemes: []string{"default"}}}
	if _, err := Submit(context.Background(), srv.URL, bad, nil); err == nil ||
		!strings.Contains(err.Error(), "scale") {
		t.Errorf("scaleless sweep accepted: %v", err)
	}
	bad.Grid.Scale = "quick"
	bad.Grid.Schemes = []string{"bogus"}
	if _, err := Submit(context.Background(), srv.URL, bad, nil); err == nil {
		t.Error("bogus scheme accepted")
	}
	// Negative overrides would panic in a kernel or simulate nothing.
	for _, override := range []string{`"n":-5`, `"steps":-3`} {
		body := fmt.Sprintf(`{"schema_version":%d,"grid":{"workloads":["dgemm","pop"],"systems":["tiger"],"ranks":[2],"schemes":["default"],"scale":"quick",%s}}`,
			schema.Version, override)
		resp, err := http.Post(srv.URL+PathSweep, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("sweep with %s: status %d, want 400", override, resp.StatusCode)
		}
	}
}

// FuzzSweepSubmit drives the sweep endpoint in-process with arbitrary
// bodies: a coordinator with a ten-cell in-flight quota that already
// holds a two-cell sweep from the empty client under a known token.
// The request context is canceled up front, so an accepted sweep returns
// right after its start event. Whatever the body, the reply is 200, 400,
// 404 or 429, and every cell stays in exactly one state.
func FuzzSweepSubmit(f *testing.F) {
	known := rankedGrid("stream", 1, 2)
	screened := Grid{Workloads: []string{"stream", "cg"}, Systems: []string{"tiger", "dmz"},
		Ranks: []int{1, 2, 4}, Schemes: []string{"default", "localalloc"}, Scale: "quick"}
	noScale := rankedGrid("cg", 2)
	noScale.Scale = ""
	badScheme := rankedGrid("cg", 2)
	badScheme.Schemes = []string{"bogus"}
	spec, err := machine.MarshalJSONSpec(machine.Hybrid16())
	if err != nil {
		f.Fatal(err)
	}
	v := schema.Version
	for _, req := range []SweepRequest{
		{SchemaVersion: v, Grid: rankedGrid("stream", 1, 2), Client: "a"},
		{SchemaVersion: v, Grid: rankedGrid("stream", 1, 2, 3, 4, 5, 6, 7, 8, 9)}, // over the quota
		{SchemaVersion: v, Grid: screened, Screen: true, Client: "b"},
		{SchemaVersion: v, Grid: screened, Screen: true, Faults: "noise:core=0,period=1ms,frac=0.1"},
		{SchemaVersion: v, Grid: screened, PromoteMargin: -1, UncertaintyBound: 0.5},
		{SchemaVersion: v, Grid: noScale},
		{SchemaVersion: v, Grid: badScheme},
		{SchemaVersion: v, Grid: rankedGrid("cg", 2), Specs: map[string]json.RawMessage{"sock:wrong@000000000000": spec}},
		{Resume: "snope"},
		{Resume: "sknown"},
		{SchemaVersion: v + 1, Grid: rankedGrid("cg", 2)},
	} {
		body, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	f.Add([]byte("{"))

	f.Fuzz(func(t *testing.T, body []byte) {
		c, err := NewCoordinator(CoordinatorOptions{MaxInflightPerClient: 10})
		if err != nil {
			t.Fatal(err)
		}
		c.Close() // the request under test is the only thing that changes the state
		queueSweep(t, c, "sknown", known)

		req := httptest.NewRequest(http.MethodPost, PathSweep, bytes.NewReader(body))
		ctx, cancel := context.WithCancel(req.Context())
		cancel()
		rec := httptest.NewRecorder()
		c.Handler().ServeHTTP(rec, req.WithContext(ctx))
		switch rec.Code {
		case http.StatusOK, http.StatusBadRequest, http.StatusNotFound, http.StatusTooManyRequests:
		default:
			t.Errorf("POST %s: status %d", PathSweep, rec.Code)
		}
		checkCellStates(t, c)
	})
}
