package sweepd

import (
	"fmt"
	"slices"
	"testing"

	"multicore/internal/schema"
)

func TestFairQueueFIFOWithinClass(t *testing.T) {
	q := newFairQueue()
	for i := 0; i < 5; i++ {
		q.push(fmt.Sprintf("c%d", i), 0)
	}
	for i := 0; i < 5; i++ {
		id, ok := q.pop()
		if !ok || id != fmt.Sprintf("c%d", i) {
			t.Fatalf("pop %d = %q ok=%v, want c%d", i, id, ok, i)
		}
	}
	if _, ok := q.pop(); ok {
		t.Error("pop from empty queue succeeded")
	}
}

// TestFairQueueWeightedInterleave checks the stride property: with a
// priority-4 class (weight 5) and a priority-0 class (weight 1) both
// backlogged, dequeues interleave roughly 5:1 — neither class starves.
func TestFairQueueWeightedInterleave(t *testing.T) {
	q := newFairQueue()
	for i := 0; i < 100; i++ {
		q.push(fmt.Sprintf("hi%d", i), 4)
		q.push(fmt.Sprintf("lo%d", i), 0)
	}
	hi, lo := 0, 0
	for i := 0; i < 60; i++ {
		id, ok := q.pop()
		if !ok {
			t.Fatal("queue drained early")
		}
		if id[:2] == "hi" {
			hi++
		} else {
			lo++
		}
		// The low class must never fall further behind than the weight
		// ratio allows (one extra dequeue of slack for startup).
		if hi > 5*(lo+1) {
			t.Fatalf("after %d pops: hi=%d lo=%d, low class starved", i+1, hi, lo)
		}
	}
	if lo == 0 {
		t.Fatal("low-priority class never dequeued")
	}
	if hi < 4*lo {
		t.Errorf("hi=%d lo=%d, want roughly 5:1 interleave", hi, lo)
	}
}

func TestFairQueueLateArrivalNoBurst(t *testing.T) {
	q := newFairQueue()
	for i := 0; i < 50; i++ {
		q.push(fmt.Sprintf("lo%d", i), 0)
	}
	// Drain some low-priority work first, accumulating pass.
	for i := 0; i < 20; i++ {
		q.pop()
	}
	// A high-priority class arriving late starts at the current virtual
	// time: it dominates per its weight but does not monopolize.
	for i := 0; i < 50; i++ {
		q.push(fmt.Sprintf("hi%d", i), 4)
	}
	lo := 0
	for i := 0; i < 12; i++ {
		id, _ := q.pop()
		if id[:2] == "lo" {
			lo++
		}
	}
	if lo == 0 {
		t.Error("low class starved after high-priority arrival")
	}
}

func TestFairQueueRemoveAndPromote(t *testing.T) {
	q := newFairQueue()
	q.push("a", 0)
	q.push("b", 0)
	q.push("c", 0)
	b := map[string]bool{"b": true}
	if len(q.remove(b)) != 1 {
		t.Fatal("remove(b) failed")
	}
	if len(q.remove(b)) != 0 {
		t.Fatal("remove(b) twice succeeded")
	}
	if q.len() != 2 {
		t.Fatalf("len = %d, want 2", q.len())
	}
	// Promote c above a: with weight 10 vs 1 it dequeues first.
	q.promote(map[string]bool{"c": true}, 9)
	id, _ := q.pop()
	if id != "c" {
		t.Errorf("after promote, pop = %q, want c", id)
	}
	// Demotion is a no-op.
	q.promote(map[string]bool{"a": true}, 0)
	if id, _ := q.pop(); id != "a" {
		t.Errorf("pop = %q, want a", id)
	}
	if q.len() != 0 {
		t.Errorf("len = %d, want 0", q.len())
	}
}

// TestFairQueueOnePassRemoveAndPromote: removing or promoting a set of
// ids keeps every class's other ids in FIFO order and len() exact.
// Promoted ids join the target class after its own ids, in the order
// they were queued, lower classes first; ids queued at or above the
// target stay where they are, and ids not queued are ignored.
func TestFairQueueOnePassRemoveAndPromote(t *testing.T) {
	q := newFairQueue()
	for i := 0; i < 6; i++ {
		q.push(fmt.Sprintf("a%d", i), 0)
		q.push(fmt.Sprintf("b%d", i), 2)
		q.push(fmt.Sprintf("c%d", i), 5)
	}
	set := func(ids ...string) map[string]bool {
		m := map[string]bool{}
		for _, id := range ids {
			m[id] = true
		}
		return m
	}
	check := func(what string, n int, want map[int][]string) {
		t.Helper()
		if q.len() != n {
			t.Errorf("%s: len = %d, want %d", what, q.len(), n)
		}
		for prio, cl := range q.classes {
			if !slices.Equal(cl.ids, want[prio]) {
				t.Errorf("%s: class %d holds %v, want %v", what, prio, cl.ids, want[prio])
			}
		}
	}
	if got := q.remove(set("c3", "a0", "nope", "b4", "a2")); !slices.Equal(got, []string{"a0", "a2", "b4", "c3"}) {
		t.Errorf("remove took %v, want [a0 a2 b4 c3]", got)
	}
	check("remove", 14, map[int][]string{
		0: {"a1", "a3", "a4", "a5"},
		2: {"b0", "b1", "b2", "b3", "b5"},
		5: {"c0", "c1", "c2", "c4", "c5"},
	})
	q.push("d0", 4)
	q.promote(set("b1", "a3", "c5", "a1", "a0"), 4)
	check("promote", 15, map[int][]string{
		0: {"a4", "a5"},
		2: {"b0", "b2", "b3", "b5"},
		4: {"d0", "a1", "a3", "b1"},
		5: {"c0", "c1", "c2", "c4", "c5"},
	})
	seen := map[string]bool{}
	for id, ok := q.pop(); ok; id, ok = q.pop() {
		if seen[id] {
			t.Errorf("%s dequeued twice", id)
		}
		seen[id] = true
	}
	if len(seen) != 15 || q.len() != 0 {
		t.Errorf("drained %d ids, len %d; want 15 and 0", len(seen), q.len())
	}
}

// BenchmarkDropQueuedSweep times dropSweepLocked, which the janitor runs
// under the coordinator's lock, on a sweep whose cells are all queued.
func BenchmarkDropQueuedSweep(b *testing.B) {
	for _, n := range []int{5400, 10800, 21600, 43200} {
		b.Run(fmt.Sprintf("cells=%d", n), func(b *testing.B) {
			g := manyCells(n)
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				c, err := NewCoordinator(CoordinatorOptions{})
				if err != nil {
					b.Fatal(err)
				}
				c.Close()
				queueSweep(b, c, "sdrop", g)
				b.StartTimer()
				c.mu.Lock()
				c.dropSweepLocked("sdrop", c.sweeps["sdrop"])
				c.mu.Unlock()
			}
		})
	}
}

// BenchmarkPromoteQueuedSweep times buildSweepLocked, which runs under
// the coordinator's lock, for a resubmission at priority 9 of a grid
// whose cells are all queued at priority 0.
func BenchmarkPromoteQueuedSweep(b *testing.B) {
	for _, n := range []int{5400, 10800, 21600, 43200} {
		b.Run(fmt.Sprintf("cells=%d", n), func(b *testing.B) {
			g := manyCells(n)
			req := SweepRequest{SchemaVersion: schema.Version, Grid: g, Priority: 9}
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				c, err := NewCoordinator(CoordinatorOptions{})
				if err != nil {
					b.Fatal(err)
				}
				c.Close()
				queueSweep(b, c, "slow", g)
				b.StartTimer()
				c.mu.Lock()
				c.buildSweepLocked("shigh", req, nil, nil)
				c.mu.Unlock()
			}
		})
	}
}

func TestClampPriority(t *testing.T) {
	for _, tc := range []struct{ in, want int }{{-3, 0}, {0, 0}, {5, 5}, {9, 9}, {42, 9}} {
		if got := clampPriority(tc.in); got != tc.want {
			t.Errorf("clampPriority(%d) = %d, want %d", tc.in, got, tc.want)
		}
	}
}
