package topology

import (
	"runtime"
	"testing"
)

func TestParseLadderMatchesLongs(t *testing.T) {
	got, err := Parse("ladder:4x2")
	if err != nil {
		t.Fatal(err)
	}
	longs := Longs()
	if got.NumSockets != longs.NumSockets || got.NumCores() != longs.NumCores() {
		t.Fatalf("ladder:4x2 shape %d/%d, want Longs %d/%d",
			got.NumSockets, got.NumCores(), longs.NumSockets, longs.NumCores())
	}
	if got.MaxHops() != longs.MaxHops() {
		t.Fatalf("ladder diameter %d, want %d", got.MaxHops(), longs.MaxHops())
	}
}

func TestParseRing(t *testing.T) {
	s, err := Parse("ring:6x1")
	if err != nil {
		t.Fatal(err)
	}
	if s.NumSockets != 6 || s.CoresPerSock != 1 {
		t.Fatalf("ring shape wrong: %d sockets, %d cores/socket", s.NumSockets, s.CoresPerSock)
	}
	if s.Hops(0, 3) != 3 || s.Hops(0, 5) != 1 {
		t.Fatalf("ring distances wrong: %d, %d", s.Hops(0, 3), s.Hops(0, 5))
	}
}

func TestParseXbar(t *testing.T) {
	s, err := Parse("xbar:8")
	if err != nil {
		t.Fatal(err)
	}
	if s.MaxHops() != 1 {
		t.Fatalf("xbar diameter = %d, want 1", s.MaxHops())
	}
	if len(s.Links) != 28 {
		t.Fatalf("xbar links = %d, want 28", len(s.Links))
	}
}

func TestParseLine(t *testing.T) {
	s, err := Parse("line:4")
	if err != nil {
		t.Fatal(err)
	}
	if s.Hops(0, 3) != 3 {
		t.Fatalf("line end-to-end = %d hops, want 3", s.Hops(0, 3))
	}
}

func TestParseErrors(t *testing.T) {
	for _, bad := range []string{
		"", "ladder", "ladder:4", "ladder:4x2x2x2", "ring:2", "ring:axb",
		"torus:4x2", "xbar:1", "line:1", "ladder:0x2",
	} {
		if _, err := Parse(bad); err == nil {
			t.Fatalf("Parse(%q) should fail", bad)
		}
	}
}

func TestParsedTopologiesRouteCorrectly(t *testing.T) {
	for _, spec := range []string{"ladder:3x3", "ring:5", "xbar:4", "line:6x1"} {
		s, err := Parse(spec)
		if err != nil {
			t.Fatal(err)
		}
		for a := 0; a < s.NumSockets; a++ {
			for b := 0; b < s.NumSockets; b++ {
				if len(s.Route(SocketID(a), SocketID(b))) != s.Hops(SocketID(a), SocketID(b)) {
					t.Fatalf("%s: route/hops mismatch %d->%d", spec, a, b)
				}
			}
		}
	}
}

// allocBytes returns the bytes fn allocates on the heap.
func allocBytes(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestParseBoundsUntrustedSizes: a spec past MaxSockets sockets or
// MaxCoresPerSocket cores or dies per socket is rejected before any
// per-socket or per-core storage is built. Without the bound, line:512
// allocated 2.7 GB of all-pairs routes.
func TestParseBoundsUntrustedSizes(t *testing.T) {
	for _, bad := range []string{
		"line:2032", "xbar:100000", "sock:100000000", "ring:65", "ladder:9x8",
		"ladder:100000x100000", "line:2x257", "sock:200P+57E", "sock:4/100000000",
		"line:9223372036854775807", "sock:9223372036854775807P+9223372036854775807E",
	} {
		var err error
		if n := allocBytes(func() { _, err = Parse(bad) }); err == nil || n > 1<<20 {
			t.Errorf("Parse(%q): err %v after allocating %d bytes, want an error under 1 MB", bad, err, n)
		}
	}
	for _, ok := range []string{"line:64x256", "ladder:8x8", "xbar:64", "sock:128P+128E/256"} {
		if _, err := Parse(ok); err != nil {
			t.Errorf("Parse(%q) at the limits: %v", ok, err)
		}
	}
}
