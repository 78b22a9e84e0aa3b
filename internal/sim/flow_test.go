package sim

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"sort"
	"testing"
)

// refFill is the reference rate assignment: one progressive-filling pass
// over flows in admission order, with every round rescanning each
// unfrozen flow's whole path, and the used rate of every resource the
// flows cross summed in admission order. It is the straightforward
// map-based algorithm the engine's fill must reproduce: to the bit over
// the same union (TestFillBitExact), and within rounding over the whole
// active set (TestIncrementalMatchesReference).
func refFill(flows []*Flow) (rates map[*Flow]float64, used map[*Resource]float64) {
	type rstate struct {
		avail  float64
		active int
	}
	state := map[*Resource]*rstate{}
	for _, f := range flows {
		for _, r := range f.path {
			s, ok := state[r]
			if !ok {
				s = &rstate{avail: r.Cap}
				state[r] = s
			}
			s.active++
		}
	}
	rates = map[*Flow]float64{}
	ordered := append([]*Flow(nil), flows...)
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].seq < ordered[j].seq })
	unfrozen := append([]*Flow(nil), ordered...)
	level := 0.0
	for len(unfrozen) > 0 {
		inc := math.Inf(1)
		for _, f := range unfrozen {
			if f.ceiling > 0 {
				if d := f.ceiling - level; d < inc {
					inc = d
				}
			}
			for _, r := range f.path {
				if s := state[r]; s.active > 0 {
					if d := s.avail / float64(s.active); d < inc {
						inc = d
					}
				}
			}
		}
		if math.IsInf(inc, 1) {
			for _, f := range unfrozen {
				rates[f] = math.Inf(1)
			}
			break
		}
		if inc < 0 {
			inc = 0
		}
		level += inc
		for _, s := range state {
			s.avail -= inc * float64(s.active)
			if s.avail < 0 {
				s.avail = 0
			}
		}
		next := unfrozen[:0]
		for _, f := range unfrozen {
			frozen := false
			if f.ceiling > 0 && level >= f.ceiling*(1-1e-12) {
				frozen = true
			}
			if !frozen {
				for _, r := range f.path {
					if state[r].avail <= 1e-9*r.Cap {
						frozen = true
						break
					}
				}
			}
			rates[f] = level
			if frozen {
				for _, r := range f.path {
					state[r].active--
				}
			} else {
				next = append(next, f)
			}
		}
		if len(next) == len(unfrozen) {
			break
		}
		unfrozen = next
	}
	used = map[*Resource]float64{}
	for _, f := range ordered {
		if rate := rates[f]; !math.IsInf(rate, 1) {
			for _, r := range f.path {
				used[r] += rate
			}
		}
	}
	return rates, used
}

// refUnion is the set of flows connected to the seeds through shared
// resources.
func refUnion(seeds []*Flow) map[*Flow]bool {
	union := map[*Flow]bool{}
	work := append([]*Flow(nil), seeds...)
	for len(work) > 0 {
		f := work[len(work)-1]
		work = work[:len(work)-1]
		if union[f] {
			continue
		}
		union[f] = true
		for _, r := range f.path {
			for _, fr := range r.flows {
				work = append(work, fr.f)
			}
		}
	}
	return union
}

// TestFillBitExact fills random unions of components with the engine's
// components and fill and with refFill, and requires the same bits for
// every flow's rate and every touched resource's used rate. The unions
// hold 1 to 200 flows, several disjoint components, repeated crossings
// of one resource, empty paths, binding ceilings and paths longer than
// the 8 inline slots; unseeded groups of flows make unions small against
// the active set, so both of components' ordering paths run.
func TestFillBitExact(t *testing.T) {
	filtered, sorted := 0, 0
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := NewEngine().net
		var seeds []*Flow
		groups := 1 + rng.Intn(4)
		for g := 0; g < groups; g++ {
			res := make([]*Resource, 1+rng.Intn(10))
			for i := range res {
				res[i] = NewResource(fmt.Sprintf("g%dr%d", g, i), 50+rng.Float64()*500)
			}
			seeded := g == 0 || rng.Intn(2) == 0
			nf := 1 + rng.Intn(200/groups)
			if seeded && rng.Intn(2) == 0 {
				nf = 1 + rng.Intn(12)
			}
			for i := 0; i < nf; i++ {
				path := make([]*Resource, rng.Intn(13))
				for j := range path {
					path[j] = res[rng.Intn(len(res))]
				}
				ceiling := 0.0
				if rng.Intn(3) == 0 {
					ceiling = 1 + rng.Float64()*100
				}
				f := n.Start("x", 100, path, ceiling)
				if seeded && (i == 0 || rng.Intn(8) == 0) {
					seeds = append(seeds, f)
				}
			}
		}
		union := refUnion(seeds)
		n.components(seeds)
		got := n.compFlows
		if len(got) != len(union) {
			t.Fatalf("seed %d: components listed %d flows, the union holds %d", seed, len(got), len(union))
		}
		for i, f := range got {
			if !union[f] {
				t.Fatalf("seed %d: components listed flow %d outside the union", seed, f.seq)
			}
			if i > 0 && got[i-1].seq >= f.seq {
				t.Fatalf("seed %d: components listed flow %d after flow %d", seed, f.seq, got[i-1].seq)
			}
		}
		if k := len(got); len(n.flows) <= k*bits.Len(uint(k)) {
			filtered++
		} else {
			sorted++
		}
		rates, used := refFill(got)
		n.fill()
		for _, f := range n.flows {
			want := rates[f] // 0 outside the union, which fill never touches
			if math.Float64bits(f.rate) != math.Float64bits(want) {
				t.Fatalf("seed %d: flow %d rate %v, reference %v", seed, f.seq, f.rate, want)
			}
		}
		for r, want := range used {
			if math.Float64bits(r.usedRate) != math.Float64bits(want) {
				t.Fatalf("seed %d: resource %s used rate %v, reference %v", seed, r.Name, r.usedRate, want)
			}
		}
	}
	if filtered == 0 || sorted == 0 {
		t.Fatalf("unions filtered %d times and sorted %d times; want both paths", filtered, sorted)
	}
}

// TestIncrementalMatchesReference drives randomized overlapping flow sets
// through the engine and checks, at every admission, every completion and
// at random probe times, that the incrementally-maintained rates equal a
// from-scratch progressive filling over the whole active set, and that the
// active list stays in admission order. Seeds from 30 on draw wide
// networks: components far above components' filter threshold, paths
// longer than the 8 inline slots, and volumes and start times on a coarse
// grid, so equal flows complete at the same instant.
func TestIncrementalMatchesReference(t *testing.T) {
	seeds := int64(60)
	if testing.Short() {
		seeds = 36
	}
	wideFilled, together := 0, 0
	for seed := int64(0); seed < seeds; seed++ {
		wide := seed >= 30
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()
		n := e.net
		nRes := 2 + rng.Intn(6)
		if wide {
			nRes = 3 + rng.Intn(10)
		}
		res := make([]*Resource, nRes)
		for i := range res {
			res[i] = NewResource(fmt.Sprintf("r%d", i), 50+rng.Float64()*500)
		}
		check := func(when string) {
			// Admissions are settled lazily; flush so the incremental
			// rates are current before comparing against the reference.
			if n.dirty {
				n.flush()
			}
			if k := len(n.compFlows); k > 12 && len(n.flows) <= k*bits.Len(uint(k)) {
				wideFilled++
			}
			ref, _ := refFill(n.flows)
			for i, f := range n.flows {
				if i > 0 && n.flows[i-1].seq >= f.seq {
					t.Fatalf("seed %d %s: active flow %d listed after flow %d", seed, when, f.seq, n.flows[i-1].seq)
				}
				want := ref[f]
				if math.IsInf(want, 1) != math.IsInf(f.rate, 1) {
					t.Fatalf("seed %d %s: flow %d rate=%v ref=%v", seed, when, f.seq, f.rate, want)
				}
				if math.IsInf(want, 1) {
					continue
				}
				if diff := math.Abs(f.rate - want); diff > 1e-9*(1+want) {
					t.Fatalf("seed %d %s: flow %d rate=%v ref=%v (diff %v)",
						seed, when, f.seq, f.rate, want, diff)
				}
			}
		}
		// Every flow of a completion batch runs its callbacks after the
		// batch's refill; check once per instant and count the rest.
		lastDone := -1.0
		done := func() {
			if e.Now() == lastDone {
				together++
				return
			}
			lastDone = e.Now()
			check("after completion")
		}
		nFlows := 5 + rng.Intn(20)
		if wide {
			nFlows = 30 + rng.Intn(170)
		}
		for i := 0; i < nFlows; i++ {
			start := rng.Float64() * 3
			bytes := 10 + rng.Float64()*500
			pathLen := rng.Intn(4)
			if wide {
				start = float64(rng.Intn(6)) / 2
				bytes = float64(1+rng.Intn(3)) * 100
				pathLen = rng.Intn(13)
			}
			path := make([]*Resource, pathLen)
			for j := range path {
				path[j] = res[rng.Intn(nRes)]
			}
			ceiling := 0.0
			if rng.Intn(3) == 0 {
				ceiling = 20 + rng.Float64()*200
			}
			b, p, c := bytes, path, ceiling
			e.At(start, func() {
				n.Start("x", b, p, c).OnDone(n, done)
				check("after start")
			})
		}
		// Probe between admissions and completions too.
		for i := 0; i < 10; i++ {
			e.At(rng.Float64()*4, func() { check("probe") })
		}
		e.Run()
		if len(n.flows) != 0 {
			t.Fatalf("seed %d: %d flows never completed", seed, len(n.flows))
		}
	}
	if wideFilled == 0 || together == 0 {
		t.Fatalf("%d fills of more than 12 flows took the filter, %d flows completed with another; want both", wideFilled, together)
	}
}

// benchFlows admits staggered flows, one every microsecond, over a
// 16-resource ladder of link resources; volume controls the offered load
// and therefore how many flows overlap at once (it must keep the network
// below saturation, or the backlog — and the component size — grows with
// b.N). Each admission schedules the next, so the timed run carries no
// backlog of b.N pending events for the heap and the GC.
func benchFlows(b *testing.B, volume float64) {
	e := NewEngine()
	n := e.net
	res := make([]*Resource, 16)
	for i := range res {
		res[i] = NewResource(fmt.Sprintf("l%d", i), 1e9)
	}
	i := 0
	var admit func()
	admit = func() {
		lo := i % (len(res) - 4)
		n.Start("x", volume, res[lo:lo+4], 0)
		if i++; i < b.N {
			e.At(float64(i)*1e-6, admit)
		}
	}
	e.At(0, admit)
	b.ResetTimer()
	e.Run()
}

// BenchmarkFlowNetStart admits flows under heavy overlap (~75% network
// load): the cost of component discovery + filling on a loaded network.
func BenchmarkFlowNetStart(b *testing.B) { benchFlows(b, 3e3) }

// BenchmarkFlowNetChurn cycles flows with light overlap: the steady-state
// admit/complete path.
func BenchmarkFlowNetChurn(b *testing.B) { benchFlows(b, 5e2) }

// BenchmarkFlowNetWide stripes accesses over every memory node of an
// 8-socket ladder (2 columns × 4 rows of sockets, two ranks each), the
// shape of Longs under numactl --interleave: each access starts one flow
// to every node's controller through the rail and rung links of its
// route. Every flow shares a controller or a link with the rest, so the
// active flows (48 at the 75% load of the controllers and the middle
// rails) form one wide component that every admission and completion
// refills. One op is one access of eight flows.
func BenchmarkFlowNetWide(b *testing.B) {
	e := NewEngine()
	n := e.net
	const sockets, ranks = 8, 16
	mc := make([]*Resource, sockets)
	for s := range mc {
		mc[s] = NewResource(fmt.Sprintf("mc%d", s), 1e9)
	}
	// rail[c][k] joins rows k and k+1 of column c; rung[k] joins the two
	// columns at row k.
	var rail [2][sockets/2 - 1]*Resource
	var rung [sockets / 2]*Resource
	for k := range rung {
		rung[k] = NewResource(fmt.Sprintf("rung%d", k), 2e9)
		for c := range rail {
			if k < len(rail[c]) {
				rail[c][k] = NewResource(fmt.Sprintf("rail%d.%d", c, k), 2e9)
			}
		}
	}
	paths := make([][][]*Resource, ranks)
	for rk := range paths {
		port := NewResource(fmt.Sprintf("port%d", rk), 1e9)
		src := rk / 2
		for dst := 0; dst < sockets; dst++ {
			path := []*Resource{port}
			c, row := src%2, src/2
			for ; row < dst/2; row++ {
				path = append(path, rail[c][row])
			}
			for ; row > dst/2; row-- {
				path = append(path, rail[c][row-1])
			}
			if c != dst%2 {
				path = append(path, rung[row])
			}
			paths[rk] = append(paths[rk], append(path, mc[dst]))
		}
	}
	// Each access schedules the next, so the timed run carries no
	// backlog of b.N pending events for the GC to scan.
	i := 0
	var access func()
	access = func() {
		for _, path := range paths[i%ranks] {
			n.Start("stripe", 750, path, 0)
		}
		if i++; i < b.N {
			e.At(float64(i)*1e-6, access)
		}
	}
	e.At(0, access)
	b.ResetTimer()
	e.Run()
}
