package sweepd

import (
	"strings"
	"testing"
)

func TestParseGridCanonical(t *testing.T) {
	g, err := ParseGrid("workloads=stream,cg,stream;systems=tiger,dmz;ranks=1,2,4;schemes=default,localalloc")
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Workloads) != 2 {
		t.Errorf("duplicate workload not removed: %v", g.Workloads)
	}
	g.Scale = "quick"
	want := "workloads=stream,cg;systems=tiger,dmz;ranks=1,2,4;schemes=default,localalloc;scale=quick"
	if g.String() != want {
		t.Errorf("canonical form = %q, want %q", g.String(), want)
	}
	// Round-trip: parsing the canonical form (minus scale) reproduces it.
	g2, err := ParseGrid(strings.TrimSuffix(g.String(), ";scale=quick"))
	if err != nil {
		t.Fatal(err)
	}
	g2.Scale = "quick"
	if g2.String() != want {
		t.Errorf("round-trip = %q, want %q", g2.String(), want)
	}
	if n := len(g.Cells()); n != 2*2*3*2 {
		t.Errorf("got %d cells, want 24", n)
	}
}

func TestParseGridDefaultsAndOverrides(t *testing.T) {
	g, err := ParseGrid("workloads=cg;systems=tiger;ranks=2;class=B;steps=5;n=1024")
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Schemes) != 1 || g.Schemes[0] != "default" {
		t.Errorf("schemes default = %v, want [default]", g.Schemes)
	}
	if g.Class != "B" || g.Steps != 5 || g.N != 1024 {
		t.Errorf("overrides not parsed: %+v", g)
	}
	g.Scale = "quick"
	c := g.Cells()[0]
	if !strings.Contains(c.Key(), "[class=B]") || !strings.Contains(c.Key(), "[steps=5]") || !strings.Contains(c.Key(), "[n=1024]") {
		t.Errorf("cell key misses overrides: %s", c.Key())
	}
}

func TestParseGridRankRanges(t *testing.T) {
	g, err := ParseGrid("workloads=stream;systems=tiger;ranks=1..8,16,2..4")
	if err != nil {
		t.Fatal(err)
	}
	want := []int{1, 2, 3, 4, 5, 6, 7, 8, 16}
	if len(g.Ranks) != len(want) {
		t.Fatalf("ranks = %v, want %v (ranges expanded, duplicates dropped)", g.Ranks, want)
	}
	for i, n := range want {
		if g.Ranks[i] != n {
			t.Fatalf("ranks = %v, want %v", g.Ranks, want)
		}
	}
	// The canonical form compresses the consecutive run back to a range
	// and round-trips.
	g.Scale = "quick"
	if got := g.String(); !strings.Contains(got, "ranks=1..8,16") {
		t.Errorf("canonical form = %q, want a compressed ranks=1..8,16", got)
	}
	g2, err := ParseGrid(strings.TrimSuffix(g.String(), ";scale=quick"))
	if err != nil {
		t.Fatal(err)
	}
	if len(g2.Ranks) != len(want) {
		t.Errorf("round-trip ranks = %v, want %v", g2.Ranks, want)
	}
}

func TestParseGridErrors(t *testing.T) {
	for _, bad := range []string{
		"",                                     // no dimensions
		"workloads=cg",                         // missing systems/ranks
		"workloads=cg;systems=tiger;ranks=0",   // bad rank
		"workloads=cg;systems=tiger;ranks=x",   // unparseable rank
		"workloads=cg;systems=tiger;ranks=4..2",   // inverted range
		"workloads=cg;systems=tiger;ranks=0..4",   // range below 1
		"workloads=cg;systems=tiger;ranks=1..x",   // unparseable range end
		"workloads=cg;systems=tiger;ranks=2;schemes=bogus", // unknown scheme
		"wibble=1;workloads=cg;systems=tiger;ranks=2",      // unknown section
		"workloads=;systems=tiger;ranks=2",                 // empty value
		"workloads=bogus;systems=tiger;ranks=2",            // unregistered workload
		"workloads=cg;systems=sunway;ranks=2",              // unknown system
		"workloads=cg;systems=tiger;ranks=2;class=Z",       // invalid NPB class
	} {
		if _, err := ParseGrid(bad); err == nil {
			t.Errorf("ParseGrid(%q) succeeded, want error", bad)
		}
	}
}

// FuzzParseGrid: any input either fails to parse or yields a grid that
// validates and whose canonical form round-trips to an equal grid. The
// seed corpus covers every section, the range syntax, and the error
// shapes from TestParseGridErrors.
func FuzzParseGrid(f *testing.F) {
	for _, seed := range []string{
		"workloads=stream,cg;systems=tiger,dmz;ranks=1,2,4;schemes=default,localalloc",
		"workloads=cg;systems=tiger;ranks=1..8,16;schemes=interleave",
		"workloads=cg;systems=tiger;ranks=2;class=B;steps=5;n=1024",
		"workloads=stream;systems=longs;ranks=1..300",
		"workloads=cg;systems=tiger;ranks=4..2",
		"workloads=cg;systems=tiger;ranks=0",
		"workloads=;systems=tiger;ranks=2",
		"wibble=1",
		"",
		";;;",
		"workloads=cg;systems=tiger;ranks=1..",
		"workloads=cg;systems=tiger;ranks=..4",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		g, err := ParseGrid(s)
		if err != nil {
			return
		}
		if verr := g.Validate(); verr != nil {
			t.Fatalf("ParseGrid(%q) ok but Validate failed: %v", s, verr)
		}
		// Canonical string round-trips to an identical grid.
		g.Scale = "quick"
		canon := g.String()
		g2, err := ParseGrid(strings.TrimSuffix(canon, ";scale=quick"))
		if err != nil {
			t.Fatalf("canonical form %q does not re-parse: %v", canon, err)
		}
		g2.Scale = "quick"
		if g2.String() != canon {
			t.Fatalf("round-trip %q -> %q", canon, g2.String())
		}
		// Size counts without expanding; check it where expanding is cheap.
		if n := g.Size(); n <= 1<<16 && len(g.Cells()) != n {
			t.Fatalf("Size() = %d for a grid of %d cells", n, len(g.Cells()))
		}
	})
}

// TestKeyFingerprintGolden pins cell keys and fingerprints to values
// computed by the original fmt/strconv implementation. Both are wire
// protocol: clients recompute fingerprints and compare them with the
// coordinator's, and keys index tables and dedup cells.
func TestKeyFingerprintGolden(t *testing.T) {
	for _, tc := range []struct {
		res     CellResult
		key, fp string
	}{
		{CellResult{Cell: CellSpec{Workload: "cg", System: "longs", Ranks: 8, Scheme: "membind", Scale: "quick"},
			Status: StatusOK, Seconds: 0.012345678901234567},
			"cg/longs/r8/membind/quick", "818dc5ae00e6d8e4"},
		{CellResult{Cell: CellSpec{Workload: "stream", System: "tiger", Ranks: 64, Scheme: "localalloc", Scale: "quick"},
			Status: StatusInfeasible},
			"stream/tiger/r64/localalloc/quick", "97c87df58f4ca097"},
		{CellResult{Cell: CellSpec{Workload: "nosuchfamily", System: "dmz", Ranks: 2, Scheme: "default", Scale: "full"},
			Status: StatusError, Error: `workload: unknown workload "nosuchfamily"`},
			"nosuchfamily/dmz/r2/default/full", "6251ab675ffb74ad"},
		{CellResult{Cell: CellSpec{Workload: "ra", System: "longs", Ranks: 4, Scheme: "interleave", Scale: "quick"},
			Status: StatusEstimated, Seconds: 3.0e-3 / 7, Uncertainty: 0.2375},
			"ra/longs/r4/interleave/quick", "54873c40892e967d"},
		{CellResult{Cell: CellSpec{Workload: "amber:JAC", Class: "B", Steps: 10, N: 64, System: "sock:8p+8e@0123456789ab",
			Ranks: 16, Scheme: "2mpi-membind", Scale: "quick"}, Status: StatusOK, Seconds: 1.5},
			"amber:JAC[class=B][steps=10][n=64]/sock:8p+8e@0123456789ab/r16/2mpi-membind/quick", "7f9023c8f09dbd1b"},
		{CellResult{Cell: CellSpec{Workload: "cg:", Steps: 3, System: "tiger", Ranks: 1, Scheme: "default", Scale: "quick"},
			Status: StatusOK, Seconds: 2.5e-7},
			"cg[steps=3]/tiger/r1/default/quick", "1f1009eb782b14f6"},
		{CellResult{Cell: CellSpec{Workload: ":x", Class: "A", N: 7, System: "tiger", Ranks: 2, Scheme: "nosuchscheme", Scale: "quick"},
			Status: StatusError, Error: `workload: empty workload name in ":x"`},
			"[class=A][n=7]/tiger/r2/nosuchscheme/quick", "1b2195e045035333"},
		{CellResult{Cell: CellSpec{Workload: "lammps:lj:big", System: "epyc2x4", Ranks: 32, Scheme: "interleave", Scale: "full"},
			Status: StatusOK, Worker: "w1", Simulated: true, Attempt: 2, Promoted: true},
			"lammps:lj:big/epyc2x4/r32/interleave/full", "fd94f654304de6d6"},
	} {
		if got := tc.res.Cell.Key(); got != tc.key {
			t.Errorf("Key() = %q, want %q", got, tc.key)
		}
		if got := Fingerprint(tc.res); got != tc.fp {
			t.Errorf("Fingerprint(%s) = %s, want %s", tc.key, got, tc.fp)
		}
	}
}

func TestFingerprintDeterministic(t *testing.T) {
	cell := CellSpec{Workload: "stream", System: "tiger", Ranks: 2, Scheme: "default", Scale: "quick"}
	a := CellResult{Cell: cell, Status: StatusOK, Seconds: 1.0625}
	b := CellResult{Cell: cell, Status: StatusOK, Seconds: 1.0625,
		Worker: "w7", Simulated: true, Attempt: 3} // observability fields must not matter
	if Fingerprint(a) != Fingerprint(b) {
		t.Error("fingerprint depends on observability fields")
	}
	c := a
	c.Seconds = 1.0625000000000002 // one ulp
	if Fingerprint(a) == Fingerprint(c) {
		t.Error("fingerprint misses a one-ulp value change")
	}
	d := a
	d.Status = StatusError
	d.Seconds = 0
	d.Error = "boom"
	if Fingerprint(a) == Fingerprint(d) {
		t.Error("fingerprint misses a status change")
	}
}

func TestTableRendering(t *testing.T) {
	g := Grid{Workloads: []string{"stream"}, Systems: []string{"tiger"}, Ranks: []int{1, 2},
		Schemes: []string{"default", "localalloc"}, Scale: "quick"}
	results := map[string]CellResult{}
	cells := g.Cells()
	for i, c := range cells {
		res := CellResult{Cell: c}
		switch i {
		case 0:
			res.Status = StatusOK
			res.Seconds = 1.5
		case 1:
			res.Status = StatusInfeasible
		case 2:
			res.Status = StatusError
			res.Error = "boom"
		default:
			continue // missing result renders ERR too
		}
		results[c.Key()] = res
	}
	text := Table(g, results).Text()
	for _, want := range []string{"1.500", "-", "ERR"} {
		if !strings.Contains(text, want) {
			t.Errorf("table misses %q:\n%s", want, text)
		}
	}
	if !strings.Contains(text, g.String()) {
		t.Errorf("table title is not the canonical grid:\n%s", text)
	}
}
