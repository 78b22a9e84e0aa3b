package main

import (
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

func TestTimingTransportRecordsByPath(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/slow" {
			time.Sleep(20 * time.Millisecond)
		}
		w.Write([]byte("ok"))
	}))
	defer srv.Close()
	tt := newTimingTransport(http.DefaultTransport)
	client := &http.Client{Transport: tt}
	get := func(path string) {
		resp, err := client.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	get("/slow")
	get("/fast")
	get("/fast")
	if _, err := client.Get("http://127.0.0.1:1/unreachable"); err == nil {
		t.Fatal("request to a closed port succeeded")
	}

	byPath, failed := tt.take()
	if len(byPath["/fast"]) != 2 || len(byPath["/slow"]) != 1 {
		t.Fatalf("recorded %v, want 2 /fast and 1 /slow", byPath)
	}
	if byPath["/slow"][0] < 0.02 {
		t.Errorf("/slow took %vs, want at least the handler's 20ms", byPath["/slow"][0])
	}
	if failed != 1 {
		t.Errorf("failed = %d, want 1", failed)
	}
	if again, failed := tt.take(); len(again) != 0 || failed != 0 {
		t.Errorf("take did not reset: %v, %d failed", again, failed)
	}
}
