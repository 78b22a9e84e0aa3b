package topology

import (
	"fmt"
	"strconv"
	"strings"
)

// Parse builds a System from a compact spec string, for experimenting
// with hypothetical machines beyond the paper's three:
//
//	"ladder:RxC[xK]"  R rows by C columns grid/ladder, K cores per socket
//	"ring:N[xK]"      N sockets in a ring
//	"xbar:N[xK]"      N sockets fully connected
//	"line:N[xK]"      N sockets in a chain
//	"sock:K"          a single socket (no inter-socket links)
//
// K defaults to 2 (dual-core). Examples: "ladder:4x2" is the Longs
// fabric; "xbar:8" is the ablation crossbar.
//
// The cores-per-socket position also accepts a core-class list for
// heterogeneous (hybrid) sockets: "+"-joined count/name items, e.g.
// "sock:8P+8E" is one socket with eight P-cores and eight E-cores, and
// "line:2x4big+4little" is a two-socket hybrid. Class names are letters
// and apply identically to every socket.
//
// A trailing "/D" splits every socket into D equal chiplet dies joined
// by an on-package fabric (see System.DiesPerSocket): "line:2x32/4" is a
// two-socket EPYC-style machine with four 8-core dies per socket.
//
// Specs arrive from untrusted sweep submissions, and building a system
// precomputes a route for every socket pair, so Parse rejects more than
// MaxSockets sockets or MaxCoresPerSocket cores (or dies) per socket
// before it allocates anything.
func Parse(spec string) (*System, error) {
	kind, rest, ok := strings.Cut(spec, ":")
	if !ok {
		return nil, fmt.Errorf("topology: spec %q needs the form kind:dims", spec)
	}
	dies := 1
	if body, d, found := strings.Cut(rest, "/"); found {
		v, err := strconv.Atoi(d)
		if err != nil || v < 1 || v > MaxCoresPerSocket {
			return nil, fmt.Errorf("topology: bad die count %q in %q", d, spec)
		}
		dies, rest = v, body
	}

	if kind == "sock" {
		classes, err := parseClasses(rest, spec)
		if err != nil {
			return nil, err
		}
		return assemble(spec, 1, classes, dies, nil)
	}

	dims := strings.Split(rest, "x")
	coresIdx := 1 // the dimension that may be a class list
	if kind == "ladder" {
		coresIdx = 2
	}
	nums := make([]int, len(dims))
	var classes []CoreClass
	for i, d := range dims {
		if v, err := strconv.Atoi(d); err == nil && v > 0 {
			if i == coresIdx && v > MaxCoresPerSocket || i != coresIdx && v > MaxSockets {
				return nil, fmt.Errorf("topology: dimension %s in %q exceeds the limit (%d sockets, %d cores per socket)",
					d, spec, MaxSockets, MaxCoresPerSocket)
			}
			nums[i] = v
			continue
		}
		if i != coresIdx {
			return nil, fmt.Errorf("topology: bad dimension %q in %q", d, spec)
		}
		cl, err := parseClasses(d, spec)
		if err != nil {
			return nil, err
		}
		classes = cl
	}
	cores := 2
	switch kind {
	case "ladder":
		if len(nums) < 2 || len(nums) > 3 {
			return nil, fmt.Errorf("topology: ladder needs RxC[xK], got %q", spec)
		}
		if len(nums) == 3 && classes == nil {
			cores = nums[2]
		}
		rows, cols := nums[0], nums[1]
		if rows*cols > MaxSockets {
			return nil, fmt.Errorf("topology: %q has %d sockets, more than %d", spec, rows*cols, MaxSockets)
		}
		if classes == nil && dies == 1 {
			return Ladder(spec, rows, cols, cores), nil
		}
		if classes == nil {
			classes = []CoreClass{{PerSocket: cores}}
		}
		return assemble(spec, rows*cols, classes, dies, ladderLinks(rows, cols))
	case "ring", "xbar", "line":
		if len(nums) < 1 || len(nums) > 2 {
			return nil, fmt.Errorf("topology: %s needs N[xK], got %q", kind, spec)
		}
		n := nums[0]
		if len(nums) == 2 && classes == nil {
			cores = nums[1]
		}
		links, err := fabricLinks(kind, n)
		if err != nil {
			return nil, err
		}
		if classes == nil && dies == 1 {
			return New(spec, n, cores, links), nil
		}
		if classes == nil {
			classes = []CoreClass{{PerSocket: cores}}
		}
		return assemble(spec, n, classes, dies, links)
	}
	return nil, fmt.Errorf("topology: unknown kind %q (want ladder, ring, xbar, line, or sock)", kind)
}

// fabricLinks builds the link list of the non-ladder fabrics, enforcing
// their minimum socket counts.
func fabricLinks(kind string, n int) ([]Link, error) {
	var links []Link
	switch kind {
	case "ring":
		if n < 3 {
			return nil, fmt.Errorf("topology: ring needs >= 3 sockets")
		}
		for i := 0; i < n; i++ {
			links = append(links, Link{A: SocketID(i), B: SocketID((i + 1) % n)})
		}
	case "line":
		if n < 2 {
			return nil, fmt.Errorf("topology: line needs >= 2 sockets")
		}
		for i := 0; i+1 < n; i++ {
			links = append(links, Link{A: SocketID(i), B: SocketID(i + 1)})
		}
	case "xbar":
		if n < 2 {
			return nil, fmt.Errorf("topology: xbar needs >= 2 sockets")
		}
		for a := 0; a < n; a++ {
			for b := a + 1; b < n; b++ {
				links = append(links, Link{A: SocketID(a), B: SocketID(b)})
			}
		}
	}
	return links, nil
}

// parseClasses parses a core-class list like "8P+8E": a count followed
// by a class name, items joined by "+". A bare count ("4") is a single
// unnamed class; names are required as soon as there is more than one.
func parseClasses(tok, spec string) ([]CoreClass, error) {
	parts := strings.Split(tok, "+")
	out := make([]CoreClass, 0, len(parts))
	total := 0
	for _, p := range parts {
		i := 0
		for i < len(p) && p[i] >= '0' && p[i] <= '9' {
			i++
		}
		count, err := strconv.Atoi(p[:i])
		if err != nil || count <= 0 {
			return nil, fmt.Errorf("topology: bad core class %q in %q", p, spec)
		}
		if total += count; total > MaxCoresPerSocket {
			return nil, fmt.Errorf("topology: core classes in %q exceed %d cores per socket", spec, MaxCoresPerSocket)
		}
		name := p[i:]
		for _, r := range name {
			if !(r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z') {
				return nil, fmt.Errorf("topology: bad core class %q in %q", p, spec)
			}
		}
		if len(parts) > 1 && name == "" {
			return nil, fmt.Errorf("topology: core class %q in %q needs a name", p, spec)
		}
		out = append(out, CoreClass{Name: name, PerSocket: count})
	}
	for i := range out {
		for j := i + 1; j < len(out); j++ {
			if out[i].Name == out[j].Name {
				return nil, fmt.Errorf("topology: duplicate core class %q in %q", out[i].Name, spec)
			}
		}
	}
	return out, nil
}

// assemble builds a heterogeneous/multi-die system from parsed pieces,
// converting the remaining layout violations into errors instead of
// NewHetero's panics.
func assemble(spec string, n int, classes []CoreClass, dies int, links []Link) (*System, error) {
	per := 0
	for _, cl := range classes {
		per += cl.PerSocket
	}
	if per%dies != 0 {
		return nil, fmt.Errorf("topology: %d cores per socket do not split into %d dies in %q", per, dies, spec)
	}
	return NewHetero(spec, n, classes, dies, links), nil
}

// Ladder builds an R-row by C-column grid (the Iwill H8501 is 4x2):
// links along rows and columns. Socket numbering is row-major.
func Ladder(name string, rows, cols, coresPerSocket int) *System {
	return New(name, rows*cols, coresPerSocket, ladderLinks(rows, cols))
}

func ladderLinks(rows, cols int) []Link {
	var links []Link
	id := func(r, c int) SocketID { return SocketID(r*cols + c) }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				links = append(links, Link{A: id(r, c), B: id(r, c+1)})
			}
			if r+1 < rows {
				links = append(links, Link{A: id(r, c), B: id(r+1, c)})
			}
		}
	}
	return links
}
