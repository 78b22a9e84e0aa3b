package sweepd

// fairQueue is the coordinator's pending-cell queue with weighted-fair
// dequeue across sweep priorities (stride scheduling). Each priority
// level is one class with weight priority+1: a priority-4 sweep drains
// five cells for every one a priority-0 sweep drains, but the low
// class always makes progress — a million-cell background submission
// cannot starve an interactive sweep, and vice versa. Within a class,
// cells dequeue FIFO, preserving submission order. Not safe for
// concurrent use; the coordinator guards it with its mutex.
type fairQueue struct {
	classes map[int]*fairClass
	n       int
}

type fairClass struct {
	ids    []string
	pass   float64 // virtual time consumed; min-pass class dequeues next
	stride float64 // 1/weight
}

// MaxPriority caps sweep priorities; higher submissions clamp to it.
const MaxPriority = 9

func clampPriority(p int) int {
	if p < 0 {
		return 0
	}
	if p > MaxPriority {
		return MaxPriority
	}
	return p
}

func newFairQueue() *fairQueue {
	return &fairQueue{classes: map[int]*fairClass{}}
}

func (q *fairQueue) len() int { return q.n }

// push enqueues id at priority prio. A class waking from empty starts at
// the current minimum pass so it competes fairly from now on instead of
// burning accumulated credit in a burst.
func (q *fairQueue) push(id string, prio int) {
	prio = clampPriority(prio)
	cl := q.classes[prio]
	if cl == nil {
		cl = &fairClass{stride: 1 / float64(prio+1)}
		q.classes[prio] = cl
	}
	if len(cl.ids) == 0 {
		if m, ok := q.minPass(); ok && cl.pass < m {
			cl.pass = m
		}
	}
	cl.ids = append(cl.ids, id)
	q.n++
}

func (q *fairQueue) minPass() (float64, bool) {
	min, ok := 0.0, false
	for _, cl := range q.classes {
		if len(cl.ids) == 0 {
			continue
		}
		if !ok || cl.pass < min {
			min, ok = cl.pass, true
		}
	}
	return min, ok
}

// pop dequeues from the non-empty class with the lowest pass (ties break
// toward the higher priority, deterministically).
func (q *fairQueue) pop() (string, bool) {
	var best *fairClass
	bestPrio := -1
	for prio, cl := range q.classes {
		if len(cl.ids) == 0 {
			continue
		}
		if best == nil || cl.pass < best.pass || (cl.pass == best.pass && prio > bestPrio) {
			best, bestPrio = cl, prio
		}
	}
	if best == nil {
		return "", false
	}
	id := best.ids[0]
	best.ids = best.ids[1:]
	best.pass += best.stride
	q.n--
	return id, true
}

// remove takes every queued id in ids out of the queue in one pass over
// it, keeping the order of the rest, and returns them in queue order,
// lower classes first.
func (q *fairQueue) remove(ids map[string]bool) []string {
	return q.take(ids, MaxPriority+1)
}

// promote moves every id in ids that is queued below priority to into
// class to (a second sweep referencing pending cells at a higher
// priority), in one pass over the lower classes; they join it in the
// order they were queued, lower classes first. Ids queued at or above to
// stay where they are.
func (q *fairQueue) promote(ids map[string]bool, to int) {
	to = clampPriority(to)
	for _, id := range q.take(ids, to) {
		q.push(id, to)
	}
}

// take removes the ids in ids from the classes below priority below, in
// one pass over each, keeping the order of the rest, and returns the
// removed ids in queue order, lower classes first.
func (q *fairQueue) take(ids map[string]bool, below int) []string {
	var took []string
	for prio := 0; prio < below; prio++ {
		cl := q.classes[prio]
		if cl == nil {
			continue
		}
		kept := cl.ids[:0]
		for _, id := range cl.ids {
			if ids[id] {
				took = append(took, id)
			} else {
				kept = append(kept, id)
			}
		}
		clear(cl.ids[len(kept):])
		cl.ids = kept
	}
	q.n -= len(took)
	return took
}
