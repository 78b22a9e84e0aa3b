package main

import (
	"net/http"
	"sync"
	"time"
)

// timingTransport is an http.RoundTripper that times every request it
// carries, keyed by URL path, from the call until the response headers
// arrive. The coordinator writes each reply whole once it has decided
// it, so for a worker's long poll the time includes the wait for a cell
// to become available.
type timingTransport struct {
	base http.RoundTripper

	mu     sync.Mutex
	byPath map[string]durations
	failed int
}

func newTimingTransport(base http.RoundTripper) *timingTransport {
	return &timingTransport{base: base, byPath: map[string]durations{}}
}

func (t *timingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	t0 := time.Now()
	resp, err := t.base.RoundTrip(req)
	d := time.Since(t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	if err != nil {
		// Requests cut short by shutdown carry no round-trip time.
		t.failed++
		return nil, err
	}
	ds := t.byPath[req.URL.Path]
	ds.add(d)
	t.byPath[req.URL.Path] = ds
	return resp, nil
}

// take returns the timings recorded since the last take and how many
// requests failed, and starts a fresh record.
func (t *timingTransport) take() (byPath map[string]durations, failed int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	byPath, failed = t.byPath, t.failed
	t.byPath, t.failed = map[string]durations{}, 0
	return byPath, failed
}
