package sim

import (
	"fmt"
	"runtime"
	"testing"
)

// mallocsDuring counts heap allocations performed by fn.
func mallocsDuring(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// steadyStateAllocs runs workload at two scales and returns the allocation
// count attributable to the extra iterations, cancelling out fixed setup
// costs (engine, procs, goroutines, slice warm-up).
func steadyStateAllocs(small, large int, workload func(iters int)) uint64 {
	a := mallocsDuring(func() { workload(small) })
	b := mallocsDuring(func() { workload(large) })
	if b <= a {
		return 0
	}
	return b - a
}

// TestEventScheduleZeroAlloc: pushing and popping the typed events (resume,
// flow-check) must not allocate once the heap's backing array is warm, and
// Engine.At with a preallocated closure must not either.
func TestEventScheduleZeroAlloc(t *testing.T) {
	e := NewEngine()
	p := &Proc{eng: e}
	// Warm the heap storage.
	for i := 0; i < 64; i++ {
		e.scheduleResume(1, p)
	}
	for len(e.queue) > 0 {
		e.queue.pop()
	}
	if n := testing.AllocsPerRun(200, func() {
		e.scheduleResume(1, p)
		e.queue.pop()
	}); n != 0 {
		t.Errorf("schedule/pop of a resume event allocates %v per cycle, want 0", n)
	}
	fn := func() {}
	if n := testing.AllocsPerRun(200, func() {
		e.At(1, fn)
		e.queue.pop()
	}); n != 0 {
		t.Errorf("At/pop with a hoisted closure allocates %v per cycle, want 0", n)
	}
}

// TestSleepPingPongZeroAlloc: a process sleeping in a loop — the schedule,
// handoff, block, resume cycle — must not allocate in steady state.
func TestSleepPingPongZeroAlloc(t *testing.T) {
	workload := func(iters int) {
		e := NewEngine()
		e.Spawn("sleeper", func(p *Proc) {
			for i := 0; i < iters; i++ {
				p.Sleep(1e-9)
			}
		})
		e.Run()
	}
	if extra := steadyStateAllocs(2000, 20000, workload); extra > 100 {
		t.Errorf("18000 extra sleep cycles allocated %d times, want ~0", extra)
	}
}

// TestWaitQueueChurnZeroAlloc: sustained Wait/WakeOne cycles must reuse the
// ring's backing storage instead of allocating per cycle.
func TestWaitQueueChurnZeroAlloc(t *testing.T) {
	workload := func(iters int) {
		e := NewEngine()
		var q WaitQueue
		e.Spawn("waiter", func(p *Proc) {
			for i := 0; i < iters; i++ {
				q.Wait(p, "churn")
			}
		})
		e.Spawn("waker", func(p *Proc) {
			for woken := 0; woken < iters; {
				if q.WakeOne(e) {
					woken++
				}
				p.Sleep(1e-9)
			}
		})
		e.Run()
	}
	if extra := steadyStateAllocs(2000, 20000, workload); extra > 100 {
		t.Errorf("18000 extra wait/wake cycles allocated %d times, want ~0", extra)
	}
}

// TestFlowChurnAllocsBounded: a transfer cycle allocates nothing in
// steady state — the Flow object itself recycles through the network's
// arena (Transfer owns and releases it), and the settle/fill/completion
// machinery runs entirely on recycled scratch.
func TestFlowChurnAllocsBounded(t *testing.T) {
	workload := func(iters int) {
		e := NewEngine()
		r := NewResource("mc", 1e9)
		path := []*Resource{r}
		e.Spawn("mover", func(p *Proc) {
			for i := 0; i < iters; i++ {
				p.Transfer("t", 1e3, path, 0)
			}
		})
		e.Run()
	}
	const small, large = 1000, 5000
	extra := steadyStateAllocs(small, large, workload)
	perCycle := float64(extra) / float64(large-small)
	if perCycle > 0.05 {
		t.Errorf("flow start/finish cycle allocates %.2f times, want ~0 (arena-recycled)", perCycle)
	}
}

// spawnChurn runs one engine in which a parent process spawns n children
// one after another; each child's body returns at once, so every spawn
// after the first reuses the worker the previous child freed.
func spawnChurn(n int) {
	e := NewEngine()
	child := func(*Proc) {}
	e.Spawn("parent", func(p *Proc) {
		for i := 0; i < n; i++ {
			e.Spawn("child", child)
			p.Sleep(1)
		}
	})
	e.Run()
}

// TestSpawnChurnAllocs: in steady state a goroutine-backed Spawn and its
// finish allocate at most one object, the *Proc. The worker coroutine
// and its closures are pooled, so a coroutine created per spawn (about
// ten objects) fails this.
func TestSpawnChurnAllocs(t *testing.T) {
	const small, large = 1000, 2000
	extra := steadyStateAllocs(small, large, spawnChurn)
	if extra > large-small+50 {
		t.Errorf("%d extra spawns allocated %d times, want at most one each", large-small, extra)
	}
}

// TestWaitQueueStorageBounded: the head-indexed ring must keep its backing
// array at a small multiple of the live waiter count under sustained churn,
// instead of growing with the total number of Wait calls.
func TestWaitQueueStorageBounded(t *testing.T) {
	e := NewEngine()
	var q WaitQueue
	const live, cycles = 4, 5000
	for i := 0; i < live; i++ {
		e.Spawn("w", func(p *Proc) {
			for j := 0; j < cycles; j++ {
				q.Wait(p, "cycle")
			}
		})
	}
	e.Spawn("waker", func(p *Proc) {
		for woken := 0; woken < live*cycles; {
			if q.WakeOne(e) {
				woken++
			} else {
				p.Sleep(1e-9)
			}
		}
	})
	e.Run()
	if q.Len() != 0 {
		t.Fatalf("queue not drained: %d waiters left", q.Len())
	}
	if c := cap(q.waiters); c > 4*live+8 {
		t.Errorf("backing storage grew to %d slots for %d live waiters over %d cycles",
			c, live, live*cycles)
	}
}

// BenchmarkEventSchedule measures the typed schedule+pop cycle.
func BenchmarkEventSchedule(b *testing.B) {
	e := NewEngine()
	p := &Proc{eng: e}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.scheduleResume(1, p)
		e.queue.pop()
	}
}

// BenchmarkProcHandoff measures a lone process's block/resume cycle: one
// zero-length sleep per iteration. The event loop runs on the process's
// own coroutine and resumes it there, so the cycle makes no switch.
func BenchmarkProcHandoff(b *testing.B) {
	e := NewEngine()
	n := b.N
	e.Spawn("pingpong", func(p *Proc) {
		for i := 0; i < n; i++ {
			p.Sleep(0)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
}

// BenchmarkProcSwitch measures a switch between two goroutine-backed
// processes whose sleeps interleave: every resume passes control to the
// other process's coroutine, which costs two coroutine switches (the
// blocking process yields to the RunContext caller, which resumes the
// other). One iteration is one resume.
func BenchmarkProcSwitch(b *testing.B) {
	e := NewEngine()
	for k := 0; k < 2; k++ {
		n := (b.N + 1 - k) / 2
		e.Spawn("switch", func(p *Proc) {
			for i := 0; i < n; i++ {
				p.Sleep(1)
			}
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
}

// BenchmarkSpawnChurn measures a goroutine-backed process's lifetime on
// a pooled worker: spawn, start, return, and the parent's resume. One
// iteration is one spawn.
func BenchmarkSpawnChurn(b *testing.B) {
	b.ReportAllocs()
	spawnChurn(b.N)
}

// BenchmarkSettleCoalesce measures a 16-flow fan-out admitted at one
// timestamp, one fan-out every millisecond — a collective's pattern. Lazy
// settling runs one component discovery + fill per batch instead of one
// per flow. Each fan-out schedules the next, so the timed run carries no
// backlog of b.N pending events.
func BenchmarkSettleCoalesce(b *testing.B) {
	e := NewEngine()
	n := e.net
	res := make([]*Resource, 4)
	for i := range res {
		res[i] = NewResource(fmt.Sprintf("r%d", i), 1e9)
	}
	i := 0
	var fan func()
	fan = func() {
		for k := 0; k < 16; k++ {
			n.Start("fan", 1e3, res[k%len(res):k%len(res)+1], 0)
		}
		if i++; i < b.N {
			e.At(float64(i)*1e-3, fan)
		}
	}
	e.At(0, fan)
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
}

// BenchmarkComponentDrain measures retiring flows one at a time out of a
// wide shared component (~64 flows over one resource, one admitted every
// microsecond): the completion scan, the compaction of the active list,
// and component refill. Each admission schedules the next, so the timed
// run carries no backlog of b.N pending events.
func BenchmarkComponentDrain(b *testing.B) {
	e := NewEngine()
	n := e.net
	r := []*Resource{NewResource("shared", 1e9)}
	i := 0
	var admit func()
	admit = func() {
		n.Start("drain", 1e3+float64(i%64)*8, r, 0)
		if i++; i < b.N {
			e.At(float64(i)*1e-6, admit)
		}
	}
	e.At(0, admit)
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
}
