package mem

import (
	"math"
	"testing"
	"testing/quick"
)

func TestPlaceLocal(t *testing.T) {
	for _, pol := range []Policy{FirstTouch, LocalAlloc} {
		d := Place(pol, 4, 2, nil)
		if d[2] != 1 {
			t.Fatalf("%v: dist = %v", pol, d)
		}
		for i, f := range d {
			if i != 2 && f != 0 {
				t.Fatalf("%v: dist = %v", pol, d)
			}
		}
	}
}

func TestPlaceInterleave(t *testing.T) {
	d := Place(Interleave, 8, 0, nil)
	sum := 0.0
	for _, f := range d {
		if math.Abs(f-0.125) > 1e-12 {
			t.Fatalf("interleave dist = %v", d)
		}
		sum += f
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("interleave does not sum to 1: %v", sum)
	}
}

func TestPlaceMembind(t *testing.T) {
	d := Place(Membind, 4, 0, []int{3})
	if d[3] != 1 || d[0] != 0 {
		t.Fatalf("membind dist = %v", d)
	}
	d = Place(Membind, 4, 0, []int{1, 2})
	if d[1] != 0.5 || d[2] != 0.5 {
		t.Fatalf("membind two-node dist = %v", d)
	}
}

func TestPlaceMembindEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Place(Membind, 4, 0, nil)
}

func TestPlacementSumsToOne(t *testing.T) {
	f := func(nodes uint8, home uint8) bool {
		n := int(nodes%7) + 1
		h := int(home) % n
		for _, pol := range []Policy{FirstTouch, LocalAlloc, Interleave} {
			d := Place(pol, n, h, nil)
			sum := 0.0
			for _, v := range d {
				if v < 0 {
					return false
				}
				sum += v
			}
			if math.Abs(sum-1) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRegionSplit(t *testing.T) {
	r := NewRegion("x", 1000, Placement{0.25, 0.75})
	parts := r.Split(nil, 400)
	if parts[0] != 100 || parts[1] != 300 {
		t.Fatalf("split = %v", parts)
	}
}

func newTestCache() *Cache { return NewCache(0, 1<<20, 64) } // 1 MB, 64 B lines

func TestStreamColdThenResident(t *testing.T) {
	c := newTestCache()
	r := NewRegion("small", 512<<10, Placement{1}) // 512 KB fits
	tr := c.Filter(Access{Region: r, Pattern: Stream, Bytes: r.Bytes})
	if tr.MemBytes != r.Bytes {
		t.Fatalf("cold pass traffic = %v, want %v", tr.MemBytes, r.Bytes)
	}
	tr = c.Filter(Access{Region: r, Pattern: Stream, Bytes: r.Bytes})
	if tr.MemBytes != 0 || tr.HitBytes != r.Bytes {
		t.Fatalf("warm pass traffic = %+v", tr)
	}
}

func TestStreamOverCapacityMostlyMisses(t *testing.T) {
	c := newTestCache()
	r := NewRegion("big", 8<<20, Placement{1})
	for pass := 0; pass < 3; pass++ {
		tr := c.Filter(Access{Region: r, Pattern: Stream, Bytes: r.Bytes})
		// Only the small residual slice (capacity/8 of an 8x-capacity
		// region, ~1.6%) can hit.
		if tr.MemBytes < 0.97*r.Bytes {
			t.Fatalf("pass %d traffic = %v, want ~%v", pass, tr.MemBytes, r.Bytes)
		}
	}
}

func TestStreamWriteDoublesTraffic(t *testing.T) {
	c := newTestCache()
	r := NewRegion("w", 8<<20, Placement{1})
	tr := c.Filter(Access{Region: r, Pattern: StreamWrite, Bytes: r.Bytes})
	if tr.MemBytes != 2*r.Bytes { // cold region: full write-allocate + writeback
		t.Fatalf("write traffic = %v, want %v", tr.MemBytes, 2*r.Bytes)
	}
}

func TestEvictionBetweenRegions(t *testing.T) {
	c := newTestCache()
	a := NewRegion("a", 768<<10, Placement{1})
	b := NewRegion("b", 768<<10, Placement{1})
	c.Filter(Access{Region: a, Pattern: Stream, Bytes: a.Bytes}) // a resident
	c.Filter(Access{Region: b, Pattern: Stream, Bytes: b.Bytes}) // evicts most of a
	tr := c.Filter(Access{Region: a, Pattern: Stream, Bytes: a.Bytes})
	// Most of a was evicted by b: over half the sweep misses again.
	if tr.MemBytes < a.Bytes/2 {
		t.Fatalf("a should have been mostly evicted; traffic = %v of %v", tr.MemBytes, a.Bytes)
	}
	if tr.MemBytes+tr.HitBytes != a.Bytes {
		t.Fatalf("traffic + hits = %v, want %v", tr.MemBytes+tr.HitBytes, a.Bytes)
	}
}

func TestRandomHitFraction(t *testing.T) {
	c := newTestCache()
	r := NewRegion("tbl", 4<<20, Placement{1}) // 4x capacity
	tr := c.Filter(Access{Region: r, Pattern: Random, Touches: 1000})
	// Cold: all miss.
	if tr.LatencyTouches != 1000 || tr.MemBytes != 1000*64 {
		t.Fatalf("cold random = %+v", tr)
	}
	// Now 1 MB of 4 MB resident: 25% hit.
	tr = c.Filter(Access{Region: r, Pattern: Random, Touches: 1000})
	if math.Abs(tr.LatencyTouches-750) > 1 {
		t.Fatalf("warm random misses = %v, want 750", tr.LatencyTouches)
	}
}

func TestChaseFullyResidentRegionHits(t *testing.T) {
	c := newTestCache()
	r := NewRegion("list", 256<<10, Placement{1})
	c.Filter(Access{Region: r, Pattern: Stream, Bytes: r.Bytes})
	tr := c.Filter(Access{Region: r, Pattern: Chase, Touches: 5000})
	if tr.LatencyTouches != 0 {
		t.Fatalf("resident chase misses = %v, want 0", tr.LatencyTouches)
	}
}

func TestBlockedReuseCutsTraffic(t *testing.T) {
	c := newTestCache()
	r := NewRegion("mat", 64<<20, Placement{1})
	tr := c.Filter(Access{Region: r, Pattern: Blocked, Bytes: 32 << 20, Reuse: 16})
	if math.Abs(tr.MemBytes-(32<<20)/16) > 1 {
		t.Fatalf("blocked traffic = %v, want %v", tr.MemBytes, (32<<20)/16)
	}
}

func TestBlockedResidentRegionFree(t *testing.T) {
	c := newTestCache()
	r := NewRegion("small", 128<<10, Placement{1})
	c.Filter(Access{Region: r, Pattern: Stream, Bytes: r.Bytes})
	tr := c.Filter(Access{Region: r, Pattern: Blocked, Bytes: 10 << 20, Reuse: 4})
	if tr.MemBytes != 0 {
		t.Fatalf("resident blocked traffic = %v", tr.MemBytes)
	}
}

func TestFlushDropsResidency(t *testing.T) {
	c := newTestCache()
	r := NewRegion("small", 128<<10, Placement{1})
	c.Filter(Access{Region: r, Pattern: Stream, Bytes: r.Bytes})
	c.Flush()
	tr := c.Filter(Access{Region: r, Pattern: Stream, Bytes: r.Bytes})
	if tr.MemBytes != r.Bytes {
		t.Fatalf("post-flush traffic = %v, want all misses", tr.MemBytes)
	}
}

func TestPerCoreResidencyIsIndependent(t *testing.T) {
	c0 := NewCache(0, 1<<20, 64)
	c1 := NewCache(1, 1<<20, 64)
	r := NewRegion("shared", 256<<10, Placement{1})
	c0.Filter(Access{Region: r, Pattern: Stream, Bytes: r.Bytes})
	tr := c1.Filter(Access{Region: r, Pattern: Stream, Bytes: r.Bytes})
	if tr.MemBytes != r.Bytes {
		t.Fatalf("core 1 should be cold; traffic = %v", tr.MemBytes)
	}
}

func TestCacheResidencyNeverExceedsCapacity(t *testing.T) {
	c := newTestCache()
	regions := []*Region{
		NewRegion("a", 600<<10, Placement{1}),
		NewRegion("b", 600<<10, Placement{1}),
		NewRegion("c", 600<<10, Placement{1}),
	}
	for pass := 0; pass < 4; pass++ {
		for _, r := range regions {
			c.Filter(Access{Region: r, Pattern: Stream, Bytes: r.Bytes})
			total := 0.0
			for _, rr := range regions {
				total += rr.resident[c.CoreID]
			}
			if total > c.Capacity+1 {
				t.Fatalf("resident total %v exceeds capacity %v", total, c.Capacity)
			}
		}
	}
}

// TestFilterWarmLRUZeroAlloc: once every region has been seen, filtering
// accesses that reorder the LRU and evict from it allocates nothing: touch
// moves a region to the front in place.
func TestFilterWarmLRUZeroAlloc(t *testing.T) {
	c := NewCache(0, 1000, 64)
	var accesses []Access
	for i, p := range []Pattern{Stream, Random, StreamWrite, Blocked} {
		r := NewRegion("r", float64(300+100*i), Placement{1})
		accesses = append(accesses, Access{Region: r, Pattern: p, Bytes: r.Bytes, Touches: 10, Reuse: 4})
	}
	round := func() {
		for _, a := range accesses {
			c.Filter(a)
		}
		c.Filter(accesses[1])
	}
	round()
	if n := testing.AllocsPerRun(100, round); n != 0 {
		t.Errorf("filtering on a warm LRU allocates %v times per round, want 0", n)
	}
}
