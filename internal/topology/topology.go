// Package topology describes the structure of the evaluated systems: cores,
// sockets, memory nodes, and the inter-socket interconnect (coherent
// HyperTransport), including the Iwill H8501 2x4 ladder used by the paper's
// Longs system. It provides shortest-path routing between sockets; link
// congestion and cost modeling live in internal/machine.
package topology

import "fmt"

// CoreID identifies a core within a system (0-based, dense).
type CoreID int

// SocketID identifies a socket (and its attached memory node: on Opteron
// every socket has a local memory controller, so memory node IDs equal
// socket IDs).
type SocketID int

// Link is an undirected inter-socket HyperTransport link. Machine-level
// code instantiates two directed resources per link.
type Link struct {
	A, B SocketID
}

// CoreClass is one class of cores present in every socket of a
// heterogeneous system (e.g. performance vs efficiency cores on a hybrid
// part). Homogeneous systems have no declared classes.
type CoreClass struct {
	Name      string
	PerSocket int
}

// System is the static structure of one evaluated machine.
type System struct {
	Name         string
	CoresPerSock int
	NumSockets   int
	Links        []Link

	// Classes, when non-empty, partitions every socket's cores into
	// named classes in declared order (class 0 gets the socket's lowest
	// core ids). Empty means one anonymous homogeneous class.
	Classes []CoreClass
	// DiesPerSocket splits each socket into equal chiplets joined by an
	// on-package fabric (Infinity-Fabric-style); 0 or 1 means a
	// monolithic socket. Cores are assigned to dies in contiguous
	// id blocks.
	DiesPerSocket int

	coreToSocket []SocketID
	socketCores  [][]CoreID
	coreClass    []int              // core id -> class index (nil when homogeneous)
	routes       [][][]DirectedLink // [from][to] -> directed link sequence
	hopCount     [][]int
}

// DirectedLink identifies one direction of a Link: link index plus
// direction (false = A->B, true = B->A).
type DirectedLink struct {
	Index   int
	Reverse bool
}

// Limits on the systems Parse and Reshape build. A system precomputes
// all-pairs routes, O(sockets² × hops) of memory, so these bounds cap
// what an untrusted spec can cost at a few MB. The largest shipped or
// tested machine has 8 sockets and 32 cores per socket.
const (
	MaxSockets        = 64
	MaxCoresPerSocket = 256
)

// New builds a system from socket/core counts and a link list, and
// precomputes all shortest routes. It panics on disconnected topologies:
// every socket must reach every other.
func New(name string, numSockets, coresPerSocket int, links []Link) *System {
	s := &System{
		Name:         name,
		CoresPerSock: coresPerSocket,
		NumSockets:   numSockets,
		Links:        links,
	}
	s.coreToSocket = make([]SocketID, numSockets*coresPerSocket)
	s.socketCores = make([][]CoreID, numSockets)
	for sock := 0; sock < numSockets; sock++ {
		for c := 0; c < coresPerSocket; c++ {
			id := CoreID(sock*coresPerSocket + c)
			s.coreToSocket[id] = SocketID(sock)
			s.socketCores[sock] = append(s.socketCores[sock], id)
		}
	}
	s.computeRoutes()
	return s
}

// NewHetero builds a heterogeneous and/or multi-die system: every socket
// holds the declared core classes in order, split into diesPerSocket
// equal chiplets. It panics on invalid layouts (use topology.Parse for
// error-returning construction from untrusted strings). A single unnamed
// class is normalized to the homogeneous representation, so
// NewHetero(name, n, []CoreClass{{PerSocket: k}}, 1, links) is
// equivalent to New(name, n, k, links).
func NewHetero(name string, numSockets int, classes []CoreClass, diesPerSocket int, links []Link) *System {
	if diesPerSocket < 1 {
		diesPerSocket = 1
	}
	per := 0
	for _, cl := range classes {
		if cl.PerSocket <= 0 {
			panic(fmt.Sprintf("topology: %s class %q has %d cores per socket", name, cl.Name, cl.PerSocket))
		}
		if len(classes) > 1 && cl.Name == "" {
			panic(fmt.Sprintf("topology: %s has an unnamed core class among %d", name, len(classes)))
		}
		per += cl.PerSocket
	}
	for i := range classes {
		for j := i + 1; j < len(classes); j++ {
			if classes[i].Name == classes[j].Name {
				panic(fmt.Sprintf("topology: %s has duplicate core class %q", name, classes[i].Name))
			}
		}
	}
	if per == 0 {
		panic(fmt.Sprintf("topology: %s has no core classes", name))
	}
	if per%diesPerSocket != 0 {
		panic(fmt.Sprintf("topology: %s has %d cores per socket, not divisible into %d dies", name, per, diesPerSocket))
	}
	s := New(name, numSockets, per, links)
	s.DiesPerSocket = diesPerSocket
	if len(classes) == 1 && classes[0].Name == "" {
		return s // homogeneous: keep the canonical class-free form
	}
	s.Classes = append([]CoreClass(nil), classes...)
	s.coreClass = make([]int, s.NumCores())
	for sock := 0; sock < numSockets; sock++ {
		id := sock * per
		for ci, cl := range classes {
			for k := 0; k < cl.PerSocket; k++ {
				s.coreClass[id] = ci
				id++
			}
		}
	}
	return s
}

// Reshape returns a copy of s with the given core classes and die count
// on the same socket/link fabric. It is the layering hook for machine
// specs that declare classes or dies in JSON on top of a plain topology
// string. Nil classes keeps the existing layout (likewise dies < 1); the
// class counts must sum to the existing cores per socket.
func (s *System) Reshape(classes []CoreClass, diesPerSocket int) (*System, error) {
	if classes == nil {
		classes = s.Classes
	}
	if classes == nil {
		classes = []CoreClass{{PerSocket: s.CoresPerSock}}
	}
	if diesPerSocket < 1 {
		diesPerSocket = s.NumDies()
	}
	per := 0
	for _, cl := range classes {
		if cl.PerSocket <= 0 || cl.PerSocket > MaxCoresPerSocket {
			return nil, fmt.Errorf("topology: class %q has %d cores per socket", cl.Name, cl.PerSocket)
		}
		if len(classes) > 1 && cl.Name == "" {
			return nil, fmt.Errorf("topology: multi-class systems need named classes")
		}
		per += cl.PerSocket
	}
	if per != s.CoresPerSock {
		return nil, fmt.Errorf("topology: %s has %d cores per socket, classes sum to %d", s.Name, s.CoresPerSock, per)
	}
	if per%diesPerSocket != 0 {
		return nil, fmt.Errorf("topology: %s has %d cores per socket, not divisible into %d dies", s.Name, per, diesPerSocket)
	}
	for i := range classes {
		for j := i + 1; j < len(classes); j++ {
			if classes[i].Name == classes[j].Name {
				return nil, fmt.Errorf("topology: duplicate core class %q", classes[i].Name)
			}
		}
	}
	return NewHetero(s.Name, s.NumSockets, classes, diesPerSocket, s.Links), nil
}

// Renamed returns a shallow copy of s under a new name. The routing
// tables and core maps are shared — they are immutable after
// construction.
func (s *System) Renamed(name string) *System {
	c := *s
	c.Name = name
	return &c
}

// NumCores returns the total core count.
func (s *System) NumCores() int { return len(s.coreToSocket) }

// NumClasses returns the number of core classes (1 for homogeneous
// systems).
func (s *System) NumClasses() int {
	if len(s.Classes) == 0 {
		return 1
	}
	return len(s.Classes)
}

// ClassOf returns the class index of core c (always 0 on homogeneous
// systems).
func (s *System) ClassOf(c CoreID) int {
	if int(c) < 0 || int(c) >= len(s.coreToSocket) {
		panic(fmt.Sprintf("topology: core %d out of range on %s", c, s.Name))
	}
	if s.coreClass == nil {
		return 0
	}
	return s.coreClass[c]
}

// ClassName returns the name of class i ("" for the single anonymous
// class of a homogeneous system).
func (s *System) ClassName(i int) string {
	if len(s.Classes) == 0 {
		return ""
	}
	return s.Classes[i].Name
}

// NumDies returns the dies per socket (1 for monolithic sockets).
func (s *System) NumDies() int {
	if s.DiesPerSocket < 1 {
		return 1
	}
	return s.DiesPerSocket
}

// CoresPerDie returns the cores hosted by one die.
func (s *System) CoresPerDie() int { return s.CoresPerSock / s.NumDies() }

// DieOf returns the die (within its socket) hosting core c — always 0 on
// monolithic sockets.
func (s *System) DieOf(c CoreID) int {
	if s.NumDies() == 1 {
		return 0
	}
	sock := int(s.SocketOf(c))
	return (int(c) - sock*s.CoresPerSock) / s.CoresPerDie()
}

// SocketOf returns the socket hosting core c.
func (s *System) SocketOf(c CoreID) SocketID {
	if int(c) < 0 || int(c) >= len(s.coreToSocket) {
		panic(fmt.Sprintf("topology: core %d out of range on %s", c, s.Name))
	}
	return s.coreToSocket[c]
}

// CoresOn returns the cores hosted by socket id.
func (s *System) CoresOn(id SocketID) []CoreID { return s.socketCores[id] }

// Route returns the directed link sequence from socket a to socket b
// (empty for a == b). Routes are shortest paths with deterministic
// tie-breaking (lowest next socket id first), mirroring static HT routing
// tables.
func (s *System) Route(a, b SocketID) []DirectedLink { return s.routes[a][b] }

// Hops returns the number of links between sockets a and b.
func (s *System) Hops(a, b SocketID) int { return s.hopCount[a][b] }

// MaxHops returns the topology diameter in links.
func (s *System) MaxHops() int {
	max := 0
	for a := range s.hopCount {
		for _, h := range s.hopCount[a] {
			if h > max {
				max = h
			}
		}
	}
	return max
}

func (s *System) computeRoutes() {
	n := s.NumSockets
	type edge struct {
		to SocketID
		dl DirectedLink
	}
	adjE := make([][]edge, n)
	for i, l := range s.Links {
		adjE[l.A] = append(adjE[l.A], edge{to: l.B, dl: DirectedLink{Index: i}})
		adjE[l.B] = append(adjE[l.B], edge{to: l.A, dl: DirectedLink{Index: i, Reverse: true}})
	}
	s.routes = make([][][]DirectedLink, n)
	s.hopCount = make([][]int, n)
	for src := 0; src < n; src++ {
		// BFS with deterministic neighbor order.
		prev := make([]int, n)
		prevLink := make([]DirectedLink, n)
		dist := make([]int, n)
		for i := range prev {
			prev[i] = -1
			dist[i] = -1
		}
		dist[src] = 0
		queue := []int{src}
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, e := range adjE[u] {
				v := int(e.to)
				if dist[v] == -1 {
					dist[v] = dist[u] + 1
					prev[v] = u
					prevLink[v] = e.dl
					queue = append(queue, v)
				}
			}
		}
		s.routes[src] = make([][]DirectedLink, n)
		s.hopCount[src] = make([]int, n)
		for dst := 0; dst < n; dst++ {
			if dst == src {
				continue
			}
			if dist[dst] == -1 {
				panic(fmt.Sprintf("topology: %s sockets %d and %d are disconnected", s.Name, src, dst))
			}
			var rev []DirectedLink
			for v := dst; v != src; v = prev[v] {
				rev = append(rev, prevLink[v])
			}
			route := make([]DirectedLink, len(rev))
			for i := range rev {
				route[i] = rev[len(rev)-1-i]
			}
			s.routes[src][dst] = route
			s.hopCount[src][dst] = dist[dst]
		}
	}
}

// Tiger is the Cray XD1 node: two single-core 2.2 GHz Opteron 248 sockets
// joined by one coherent HT link (paper Table 1).
func Tiger() *System {
	return New("Tiger", 2, 1, []Link{{A: 0, B: 1}})
}

// DMZ is one node of the DMZ cluster: two dual-core 2.2 GHz Opteron 275
// sockets joined by one coherent HT link (paper Table 1).
func DMZ() *System {
	return New("DMZ", 2, 2, []Link{{A: 0, B: 1}})
}

// Longs is the eight-socket Iwill H8501 server: dual-core 1.8 GHz Opteron
// 865 sockets arranged in a 2x4 HyperTransport ladder (paper Figure 1).
// Socket numbering: column-major pairs, rung r holds sockets 2r and 2r+1.
//
//	0 -- 1
//	|    |
//	2 -- 3
//	|    |
//	4 -- 5
//	|    |
//	6 -- 7
func Longs() *System {
	links := []Link{
		{A: 0, B: 1}, {A: 2, B: 3}, {A: 4, B: 5}, {A: 6, B: 7}, // rungs
		{A: 0, B: 2}, {A: 2, B: 4}, {A: 4, B: 6}, // left rail
		{A: 1, B: 3}, {A: 3, B: 5}, {A: 5, B: 7}, // right rail
	}
	return New("Longs", 8, 2, links)
}
