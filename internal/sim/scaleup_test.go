package sim

import "testing"

// TestSpawnContChurnZeroAlloc: spawning and retiring lightweight
// continuation processes in a loop must recycle the Proc through the
// engine's free list and never allocate a wrapper closure — the flat
// spawn/teardown path helper-heavy workloads (Isend/Irecv) ride on.
func TestSpawnContChurnZeroAlloc(t *testing.T) {
	child := func(c *Proc) {
		c.SleepThen(1e-9, func() {})
	}
	workload := func(iters int) {
		e := NewEngine()
		e.Spawn("spawner", func(p *Proc) {
			for i := 0; i < iters; i++ {
				e.SpawnCont("child", child)
				p.Sleep(2e-9)
			}
		})
		e.Run()
	}
	if extra := steadyStateAllocs(2000, 20000, workload); extra > 100 {
		t.Errorf("18000 extra SpawnCont spawn/teardown cycles allocated %d times, want ~0", extra)
	}
}

// TestSpawnContOrdering: converting a process between the goroutine and
// continuation backings must not reorder the simulation — both consume
// the same start-event sequence number and resume at the same times.
func TestSpawnContOrdering(t *testing.T) {
	run := func(lightFirst bool) []int {
		e := NewEngine()
		var order []int
		spawnHeavy := func(id int) {
			e.Spawn("h", func(p *Proc) {
				p.Sleep(1e-6)
				order = append(order, id)
			})
		}
		spawnLight := func(id int) {
			e.SpawnCont("l", func(p *Proc) {
				p.SleepThen(1e-6, func() { order = append(order, id) })
			})
		}
		if lightFirst {
			spawnLight(0)
			spawnHeavy(1)
			spawnLight(2)
		} else {
			spawnHeavy(0)
			spawnLight(1)
			spawnHeavy(2)
		}
		e.Run()
		return order
	}
	for _, lightFirst := range []bool{true, false} {
		got := run(lightFirst)
		if len(got) != 3 || got[0] != 0 || got[1] != 1 || got[2] != 2 {
			t.Errorf("lightFirst=%v: wake order %v, want [0 1 2]", lightFirst, got)
		}
	}
}

// TestWaitQueueShrinkAfterBurst: a queue that once held a large burst of
// waiters must release its backing array once the era that follows only
// needs a few slots — 10k-rank barriers must not pin 10k slots forever.
func TestWaitQueueShrinkAfterBurst(t *testing.T) {
	e := NewEngine()
	var q WaitQueue
	const burst = 1024
	for i := 0; i < burst; i++ {
		e.Spawn("burst", func(p *Proc) { q.Wait(p, "burst") })
	}
	var capAfterQuiet int
	e.Spawn("driver", func(p *Proc) {
		p.Sleep(1e-6) // let the burst enqueue
		q.WakeAll(e)  // first drain: maxLive == burst, array kept
		if cap(q.waiters) < burst {
			t.Errorf("backing array cap %d after burst of %d", cap(q.waiters), burst)
		}
		// A quiet era: a handful of waiters, then a drain. The empty
		// transition sees maxLive << cap/4 and releases the array.
		for i := 0; i < 4; i++ {
			e.Spawn("quiet", func(p *Proc) { q.Wait(p, "quiet") })
		}
		p.Sleep(1e-6)
		q.WakeAll(e)
		capAfterQuiet = cap(q.waiters)
	})
	e.Run()
	if capAfterQuiet != 0 {
		t.Errorf("backing array cap %d after quiet-era drain, want 0 (released)", capAfterQuiet)
	}
}

// TestWaitQueueSmallNeverShrinks: queues below shrinkMinCap keep their
// backing array across drains — releasing a mailbox-sized slice would
// reintroduce a steady-state allocation per wait cycle.
func TestWaitQueueSmallNeverShrinks(t *testing.T) {
	e := NewEngine()
	var q WaitQueue
	e.Spawn("w", func(p *Proc) {
		for i := 0; i < 3; i++ {
			q.Wait(p, "small")
		}
	})
	e.Spawn("waker", func(p *Proc) {
		for woken := 0; woken < 3; {
			if q.WakeOne(e) {
				woken++
			}
			p.Sleep(1e-9)
		}
	})
	e.Run()
	if cap(q.waiters) == 0 {
		t.Errorf("small queue released its backing array; shrink floor is %d", shrinkMinCap)
	}
}
