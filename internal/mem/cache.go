package mem

import "fmt"

// Pattern classifies how a workload touches a region. The pattern decides
// how an access batch translates into DRAM traffic and latency-bound
// touches.
type Pattern int

const (
	// Stream reads a region sequentially (hardware prefetch effective;
	// bandwidth bound).
	Stream Pattern = iota
	// StreamWrite writes a region sequentially. A write miss costs a
	// write-allocate read plus an eventual writeback: 2x traffic.
	StreamWrite
	// Random touches independent random elements (memory-level
	// parallelism available, latency bound at the MLP limit).
	Random
	// Chase follows a dependent pointer chain (no overlap; fully
	// latency bound).
	Chase
	// Blocked is a cache-tiled access (e.g. DGEMM): each byte moved from
	// memory is reused Reuse times, cutting traffic accordingly.
	Blocked
)

func (p Pattern) String() string {
	switch p {
	case Stream:
		return "stream"
	case StreamWrite:
		return "stream-write"
	case Random:
		return "random"
	case Chase:
		return "chase"
	case Blocked:
		return "blocked"
	}
	return fmt.Sprintf("Pattern(%d)", int(p))
}

// Access describes one batch of memory operations issued by a core.
type Access struct {
	Region  *Region
	Pattern Pattern
	// Bytes is the logical volume touched by streaming/blocked patterns.
	Bytes float64
	// Touches is the number of element touches for Random/Chase.
	Touches float64
	// Reuse is the reuse factor for Blocked (>= 1).
	Reuse float64
	// RateCeiling optionally bounds the access's aggregate DRAM rate in
	// B/s (e.g. indexed/strided streams that cannot saturate the issue
	// port). Zero means unbounded.
	RateCeiling float64
}

// Traffic is what an access batch costs after cache filtering.
type Traffic struct {
	// MemBytes is the DRAM traffic the batch generates.
	MemBytes float64
	// HitBytes is the volume served from cache.
	HitBytes float64
	// LatencyTouches is the number of latency-bound line fetches
	// (Random/Chase misses); the machine converts these to time using
	// the NUMA round-trip latency and the pattern's MLP.
	LatencyTouches float64
}

// Cache is the analytic per-core cache model: a single capacity (L1+L2,
// exclusive on Opteron) with LRU region tracking. Rather than simulating
// individual lines, it tracks how many bytes of each region are resident
// per core and derives hit fractions.
type Cache struct {
	CoreID   int
	Capacity float64 // bytes (L1 data + L2)
	Line     float64 // bytes per line

	// LRU order of regions with resident bytes on this core,
	// most-recently-used first.
	lru []*Region
}

// NewCache creates a cache model for one core.
func NewCache(coreID int, capacity, line float64) *Cache {
	if capacity <= 0 || line <= 0 {
		panic("mem: cache capacity and line must be positive")
	}
	return &Cache{CoreID: coreID, Capacity: capacity, Line: line}
}

// residentOf returns resident bytes of r on this core.
func (c *Cache) residentOf(r *Region) float64 { return r.resident[c.CoreID] }

// touch installs `bytes` of region r as resident, evicting LRU regions.
func (c *Cache) touch(r *Region, bytes float64) {
	if bytes > c.Capacity {
		bytes = c.Capacity
	}
	if bytes > r.Bytes {
		bytes = r.Bytes
	}
	// Move r to the front of the LRU list in place, shifting the regions
	// ahead of it back one slot; a new region grows the list by one.
	i := 0
	for i < len(c.lru) && c.lru[i] != r {
		i++
	}
	if i == len(c.lru) {
		c.lru = append(c.lru, nil)
	}
	copy(c.lru[1:i+1], c.lru[:i])
	c.lru[0] = r
	if bytes > r.resident[c.CoreID] {
		r.resident[c.CoreID] = bytes
	}
	// Evict from the back (never the just-touched front) until within
	// capacity.
	total := 0.0
	for _, reg := range c.lru {
		total += reg.resident[c.CoreID]
	}
	for total > c.Capacity && len(c.lru) > 1 {
		last := c.lru[len(c.lru)-1]
		over := total - c.Capacity
		if last.resident[c.CoreID] > over {
			last.resident[c.CoreID] -= over
			total = c.Capacity
			break
		}
		total -= last.resident[c.CoreID]
		delete(last.resident, c.CoreID)
		c.lru[len(c.lru)-1] = nil
		c.lru = c.lru[:len(c.lru)-1]
	}
	if total > c.Capacity {
		// Only the touched region remains; clamp it.
		r.resident[c.CoreID] = c.Capacity
	}
}

// Filter converts an access batch into DRAM traffic given current cache
// contents, and updates the resident-set model.
func (c *Cache) Filter(a Access) Traffic {
	r := a.Region
	if r == nil {
		panic("mem: access without region")
	}
	switch a.Pattern {
	case Stream, StreamWrite:
		res := c.residentOf(r)
		factor := 1.0
		if a.Pattern == StreamWrite {
			factor = 2.0 // write-allocate + writeback
		}
		// Partially-resident sweeps hit on the resident share (recency
		// keeps re-referenced lines ahead of a one-shot pass).
		hitFrac := 0.0
		if r.Bytes > 0 {
			hitFrac = res / r.Bytes
			if hitFrac > 1 {
				hitFrac = 1
			}
		}
		// A region that fits becomes resident for next time; an
		// over-capacity stream has no reuse and claims only a residual
		// slice, so concurrently-hot small regions survive.
		claim := r.Bytes
		if claim > c.Capacity {
			claim = c.Capacity / 8
		}
		c.touch(r, claim)
		return Traffic{
			MemBytes: a.Bytes * (1 - hitFrac) * factor,
			HitBytes: a.Bytes * hitFrac,
		}

	case Random, Chase:
		res := c.residentOf(r)
		hitFrac := 0.0
		if r.Bytes > 0 {
			hitFrac = res / r.Bytes
			if hitFrac > 1 {
				hitFrac = 1
			}
		}
		misses := a.Touches * (1 - hitFrac)
		c.touch(r, r.Bytes) // random touches populate up to capacity share
		return Traffic{
			MemBytes: misses * c.Line,
			// Hits are pipelined element loads, not full line refills.
			HitBytes:       a.Touches * hitFrac * 8,
			LatencyTouches: misses,
		}

	case Blocked:
		// Cache-tile service time is part of the kernel's compute
		// efficiency, so blocked accesses report DRAM traffic only.
		reuse := a.Reuse
		if reuse < 1 {
			reuse = 1
		}
		if r.Bytes <= c.Capacity && c.residentOf(r) >= r.Bytes-1 {
			c.touch(r, r.Bytes)
			return Traffic{}
		}
		claim := r.Bytes
		if claim > c.Capacity {
			claim = c.Capacity / 2 // the active tile set
		}
		c.touch(r, claim)
		return Traffic{MemBytes: a.Bytes / reuse}
	}
	panic("mem: unknown pattern " + a.Pattern.String())
}

// Flush drops all resident bytes on this core (e.g. after a context
// migration in the unbound OS model).
func (c *Cache) Flush() {
	for _, r := range c.lru {
		delete(r.resident, c.CoreID)
	}
	clear(c.lru)
	c.lru = c.lru[:0]
}
