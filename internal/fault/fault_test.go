package fault

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
)

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"   ",
		"nonsense",
		"noise",
		"noise:period=1ms",                        // missing frac
		"noise:frac=0.1",                          // missing period
		"noise:core=3,period=0s,frac=0.1",         // period must be > 0
		"noise:core=3,period=1ms,frac=1",          // frac must be < 1
		"noise:core=3,period=1ms,frac=-0.1",       // frac must be >= 0
		"noise:core=3,period=1ms,frac=NaN",        // non-finite
		"noise:core=3,period=1ms,frac=Inf",        // non-finite
		"noise:core=x,period=1ms,frac=0.1",        // bad selector
		"noise:core=-2,period=1ms,frac=0.1",       // negative selector
		"noise:core=3,period=1ms,frac=0.1,x=1",    // unknown field
		"noise:core=3,core=4,period=1ms,frac=0.1", // duplicate field
		"linkdown:t=2ms..5ms",                     // missing target
		"linkdown:s0-s0",                          // endpoints must differ
		"linkdown:s0-s1,t=5ms..2ms",               // end before start
		"linkdown:s0-s1,t=2ms",                    // not a window
		"linkdown:s0-s1,factor=0",                 // factor must be > 0
		"linkdown:s0-s1,factor=2",                 // capacity factor <= 1
		"mcslow:socket=1",                         // missing factor
		"straggler:rank=2",                        // missing factor
		"straggler:factor=2",                      // missing rank
		"straggler:rank=*,factor=2",               // rank must be specific
		"straggler:rank=2,factor=0.5",             // slowdown must be >= 1
		"msgdelay:src=0",                          // missing delay
		"msgdelay:delay=-1ms",                     // negative duration
		"cellerr:workload=cg",                     // missing p
		"cellerr:p=1.5",                           // probability in [0,1]
		"cellerr:p=0.5,workload=",                 // empty filter
		"mcslow:socket=1,factor=0.5;bogus:x=1",    // second clause bad
	}
	for _, spec := range bad {
		if _, err := Parse(spec, 1); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", spec)
		}
	}
}

func TestParseAndCanonicalRoundTrip(t *testing.T) {
	specs := []string{
		"noise:core=3,period=1ms,frac=0.1",
		"noise:core=*,period=500us,frac=0.05",
		"linkdown:s0-s1,t=2ms..5ms",
		"linkdown:s1-s0,factor=0.25,t=1ms..2ms,t=4ms..6ms",
		"mcslow:socket=1,factor=0.5",
		"mcslow:socket=*,factor=0.75,t=1ms..inf",
		"straggler:rank=2,factor=1.5",
		"msgdelay:delay=10us,src=0",
		"cellerr:p=0.3,workload=cg",
		"noise:core=0,period=1ms,frac=0.1;linkdown:s0-s1,t=2ms..5ms;cellerr:p=0.2",
		" mcslow : socket=1 , factor=0.5 ; ; ",
	}
	for _, spec := range specs {
		p, err := Parse(spec, 42)
		if err != nil {
			t.Fatalf("Parse(%q): %v", spec, err)
		}
		canon := p.String()
		p2, err := Parse(canon, 42)
		if err != nil {
			t.Fatalf("Parse(canonical %q): %v", canon, err)
		}
		if got := p2.String(); got != canon {
			t.Errorf("canonical form not idempotent: %q -> %q -> %q", spec, canon, got)
		}
	}
}

func TestNoiseClosedForm(t *testing.T) {
	// Noise that steals [k·10+0, k·10+2) of every period of 10: starting at
	// t=2 (a burst end), 8 units of work fit exactly before the next burst.
	if got := noiseEnd(2, 8, 10, 2, 0); got != 10 {
		t.Errorf("work fitting the gap: end = %g, want 10", got)
	}
	// 9 units spill past the next burst: 8 before it, burst 10..12, 1 after.
	if got := noiseEnd(2, 9, 10, 2, 0); got != 13 {
		t.Errorf("work spanning one burst: end = %g, want 13", got)
	}
	// Starting inside the burst defers all work to the burst end.
	if got := noiseEnd(1, 4, 10, 2, 0); got != 6 {
		t.Errorf("start inside burst: end = %g, want 6", got)
	}
	// Many periods: 20 units of work at 8 usable per period.
	if got := noiseEnd(2, 20, 10, 2, 0); got != 26 {
		t.Errorf("multi-period: end = %g, want 26", got)
	}
	// Zero burst is the identity.
	if got := noiseEnd(3, 7, 10, 0, 0); got != 10 {
		t.Errorf("no burst: end = %g, want 10", got)
	}
	// Elapsed time never shrinks and is always >= the work.
	for i := 0; i < 1000; i++ {
		t0 := float64(i) * 0.37
		w := 0.1 + float64(i%17)
		end := noiseEnd(t0, w, 1.0, 0.25, 0.4)
		if end < t0+w {
			t.Fatalf("noiseEnd(%g, %g) = %g < t+w", t0, w, end)
		}
		if end2 := noiseEnd(t0, w+0.5, 1.0, 0.25, 0.4); end2 < end {
			t.Fatalf("more work finished earlier: %g < %g", end2, end)
		}
	}
}

func TestComputeTimeSelectivity(t *testing.T) {
	p := MustParse("noise:core=3,period=1ms,frac=0.5", 7)
	if d := p.ComputeTime(0, 0, 0.01); d != 0.01 {
		t.Errorf("unaffected core perturbed: %g", d)
	}
	if d := p.ComputeTime(3, 0, 0.01); d <= 0.01 {
		t.Errorf("noisy core not perturbed: %g", d)
	}
	all := MustParse("noise:core=*,period=1ms,frac=0.5", 7)
	for core := 0; core < 4; core++ {
		if d := all.ComputeTime(core, 0, 0.01); d <= 0.01 {
			t.Errorf("core=* left core %d unperturbed: %g", core, d)
		}
	}
}

func TestDeterminismAcrossInstances(t *testing.T) {
	spec := "noise:core=*,period=1ms,frac=0.2;cellerr:p=0.5;msgdelay:delay=5us"
	a := MustParse(spec, 99)
	b := MustParse(spec, 99)
	for core := 0; core < 8; core++ {
		if x, y := a.ComputeTime(core, 0.123, 0.01), b.ComputeTime(core, 0.123, 0.01); x != y {
			t.Fatalf("ComputeTime diverges on core %d: %g vs %g", core, x, y)
		}
	}
	for attempt := 0; attempt < 20; attempt++ {
		ea := a.CellError("cg/tiger/4", attempt)
		eb := b.CellError("cg/tiger/4", attempt)
		if (ea == nil) != (eb == nil) {
			t.Fatalf("CellError diverges at attempt %d", attempt)
		}
	}
	// A different seed must change the noise phase on some core.
	c := MustParse(spec, 100)
	diff := false
	for core := 0; core < 8; core++ {
		if a.ComputeTime(core, 0.123, 0.01) != c.ComputeTime(core, 0.123, 0.01) {
			diff = true
		}
	}
	if !diff {
		t.Error("seed change left every core's noise phase identical")
	}
}

func TestCellError(t *testing.T) {
	p := MustParse("cellerr:p=1", 1)
	err := p.CellError("any", 0)
	if err == nil || !IsTransient(err) {
		t.Fatalf("p=1 cellerr: got %v, want transient error", err)
	}
	if p := MustParse("cellerr:p=0", 1); p.CellError("any", 0) != nil {
		t.Error("p=0 cellerr fired")
	}
	filt := MustParse("cellerr:p=1,workload=cg", 1)
	if filt.CellError("ep/tiger/4", 0) != nil {
		t.Error("workload filter did not exclude non-matching cell")
	}
	if filt.CellError("cg/tiger/4", 0) == nil {
		t.Error("workload filter excluded matching cell")
	}
	// Attempts see independent draws: with p=0.5 over 64 attempts, both
	// outcomes must occur (probability of violation ~ 2^-63).
	half := MustParse("cellerr:p=0.5", 3)
	var hits, misses int
	for attempt := 0; attempt < 64; attempt++ {
		if half.CellError("cell", attempt) != nil {
			hits++
		} else {
			misses++
		}
	}
	if hits == 0 || misses == 0 {
		t.Errorf("p=0.5 over 64 attempts: %d hits, %d misses", hits, misses)
	}
	if !MustParse("cellerr:p=0.5", 3).InjectsCellErrors() {
		t.Error("InjectsCellErrors false with a cellerr rule")
	}
	if MustParse("noise:core=0,period=1ms,frac=0.1", 3).InjectsCellErrors() {
		t.Error("InjectsCellErrors true without a cellerr rule")
	}
}

func TestTransientWrapping(t *testing.T) {
	base := errors.New("boom")
	tr := &Transient{Err: base}
	if !IsTransient(tr) {
		t.Error("IsTransient(Transient) = false")
	}
	if !IsTransient(fmt.Errorf("cell failed: %w", tr)) {
		t.Error("IsTransient lost through wrapping")
	}
	if !errors.Is(tr, base) {
		t.Error("Transient does not unwrap to its cause")
	}
	if IsTransient(base) {
		t.Error("plain error reported transient")
	}
}

func TestCapacityWindows(t *testing.T) {
	p := MustParse("linkdown:s0-s1,factor=0.25,t=1ms..2ms,t=4ms..6ms;mcslow:socket=1,factor=0.5", 1)
	ws := p.LinkWindows(0, 1)
	if len(ws) != 2 || ws[0].Start != 0.001 || ws[0].End != 0.002 || ws[0].Factor != 0.25 {
		t.Fatalf("LinkWindows(0,1) = %+v", ws)
	}
	if rev := p.LinkWindows(1, 0); len(rev) != 2 {
		t.Errorf("LinkWindows not order-insensitive: %+v", rev)
	}
	if other := p.LinkWindows(1, 2); len(other) != 0 {
		t.Errorf("unrelated link degraded: %+v", other)
	}
	mc := p.MCWindows(1)
	if len(mc) != 1 || !math.IsInf(mc[0].End, 1) || mc[0].Factor != 0.5 {
		t.Fatalf("MCWindows(1) = %+v", mc)
	}
	if other := p.MCWindows(0); len(other) != 0 {
		t.Errorf("unrelated socket degraded: %+v", other)
	}
}

func TestSendDelayAndStraggler(t *testing.T) {
	p := MustParse("msgdelay:delay=10us,src=0,t=1ms..2ms;straggler:rank=2,factor=1.5", 1)
	if d := p.SendDelay(0, 3, 0.0015); d != 10e-6 {
		t.Errorf("in-window delay = %g, want 10us", d)
	}
	if d := p.SendDelay(0, 3, 0.005); d != 0 {
		t.Errorf("out-of-window delay = %g, want 0", d)
	}
	if d := p.SendDelay(1, 3, 0.0015); d != 0 {
		t.Errorf("non-matching src delayed: %g", d)
	}
	if f := p.RankFactor(2); f != 1.5 {
		t.Errorf("RankFactor(2) = %g, want 1.5", f)
	}
	if f := p.RankFactor(0); f != 1 {
		t.Errorf("RankFactor(0) = %g, want 1", f)
	}
}

func TestBackoffJitter(t *testing.T) {
	for attempt := 0; attempt < 10; attempt++ {
		j := BackoffJitter(5, "cell", attempt)
		if j < 0.5 || j >= 1.5 {
			t.Fatalf("jitter out of range: %g", j)
		}
		if j != BackoffJitter(5, "cell", attempt) {
			t.Fatal("jitter not deterministic")
		}
	}
	if BackoffJitter(5, "cell", 0) == BackoffJitter(6, "cell", 0) &&
		BackoffJitter(5, "cell", 1) == BackoffJitter(6, "cell", 1) &&
		BackoffJitter(5, "other", 2) == BackoffJitter(6, "other", 2) {
		t.Error("jitter ignores seed")
	}
}

func TestStringIsStable(t *testing.T) {
	// Two spellings of the same plan canonicalize identically.
	a := MustParse("linkdown:s1-s0, t=2ms..5ms, factor=0.25", 1).String()
	b := MustParse("linkdown:s1-s0,factor=0.25,t=0.002s..0.005s", 1).String()
	if a != b {
		t.Errorf("equivalent plans canonicalize differently:\n  %q\n  %q", a, b)
	}
	if strings.Contains(a, " ") {
		t.Errorf("canonical form contains spaces: %q", a)
	}
}
