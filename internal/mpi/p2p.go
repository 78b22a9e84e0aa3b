package mpi

import (
	"fmt"

	"multicore/internal/sim"
	"multicore/internal/topology"
)

// segmentCost returns the serial software overhead of pushing a message
// through the shared-buffer FIFO in SegmentBytes chunks: every chunk past
// the first pays the lock/wake round again.
func segmentCost(im *Impl, bytes float64) float64 {
	if im.SegmentBytes <= 0 || bytes <= im.SegmentBytes {
		return 0
	}
	segs := bytes / im.SegmentBytes
	return (segs - 1) * (im.Sub.LockLatency + im.Sub.WakeLatency) / 2
}

// message is an in-flight point-to-point message. Messages are pooled on
// the World (newMessage/freeMessage): the sender side allocates one per
// send, the receiver returns it once the drain completes, so sustained
// traffic at 10k+ ranks recycles a small arena instead of allocating per
// message. The wait queue is embedded so its backing storage recycles
// with the message.
type message struct {
	src, dst int
	bytes    float64
	bufNode  topology.SocketID

	// rendezvous: the sender blocks on senderQ until the receiver has
	// drained the transfer.
	rendezvous bool
	senderQ    sim.WaitQueue

	// eager: readyAt is when the copy-in completed (the receiver cannot
	// start draining earlier).
	readyAt float64

	// network marks an inter-node message (already landed at the NIC).
	network bool
}

// newMessage services a message from the world's pool.
func (w *World) newMessage() *message {
	if n := len(w.msgFree); n > 0 {
		m := w.msgFree[n-1]
		w.msgFree[n-1] = nil
		w.msgFree = w.msgFree[:n-1]
		q := m.senderQ // empty; the copy keeps its backing storage
		*m = message{senderQ: q}
		return m
	}
	return &message{}
}

// freeMessage returns a fully-drained message to the pool. Only the
// receiver calls it, at the end of its Recv: by then the message has left
// the inbox, the sender (rendezvous) has been woken and never touches the
// message after its wait returns, and no other reference exists.
func (w *World) freeMessage(m *message) {
	w.msgFree = append(w.msgFree, m)
}

// Send transmits bytes to rank dst, blocking per the transport protocol:
// eager sends return after the copy into the shared segment; rendezvous
// sends block until the receiver has drained the message.
func (r *Rank) Send(dst int, bytes float64) {
	r.sendPrepare(dst, bytes)
	r.sendTransfer(dst, bytes)
}

// sendPrepare charges the send-side software cost (lock, descriptor,
// protocol hops). It always runs on the issuing process: even a
// non-blocking send spends these CPU cycles inline.
func (r *Rank) sendPrepare(dst int, bytes float64) {
	if dst == r.id {
		panic(fmt.Sprintf("mpi: rank %d sending to itself", r.id))
	}
	w := r.w
	im := w.cfg.Impl
	w.messages++
	w.bytes += bytes

	// Send-side software cost: lock the segment, post the descriptor.
	r.proc.Sleep(im.Sub.LockLatency + im.Overhead/2)
	if w.cfg.Faults != nil {
		// Injected message delay (fault layer): extra latency charged on
		// the sending process before the payload moves.
		if d := w.cfg.Faults.SendDelay(r.id, dst, r.Now()); d > 0 {
			r.proc.Sleep(d)
		}
	}

	topo := w.cfg.Spec.Topo
	peer := w.ranks[dst]
	// Crossing sockets costs extra protocol latency per hop.
	r.proc.Sleep(float64(topo.Hops(topo.SocketOf(r.bind.Core), topo.SocketOf(peer.bind.Core))) *
		w.cfg.Spec.HopLatency)
	r.account(catMPI, "send-sw")
}

// sendTransfer performs the data movement and delivery.
func (r *Rank) sendTransfer(dst int, bytes float64) {
	w := r.w
	im := w.cfg.Impl
	peer := w.ranks[dst]

	if peer.node != r.node {
		r.proc.Sleep(w.net.Overhead + w.net.Latency)
		r.account(catMPI, "net-sw")
		if bytes > 0 {
			r.proc.Transfer("net-send", bytes, r.netPath(peer), 0)
			r.account(catCopy, "net-send")
		}
		r.post(peer, bytes, 0)
		return
	}

	buf := w.bufNode(r.id, dst, bytes)
	if bytes > im.EagerThreshold {
		// Rendezvous: post the offer, wake the receiver if it is
		// already waiting, and block until the transfer is drained.
		r.proc.Sleep(im.RendezvousOverhead)
		m := r.offer(peer, bytes, buf)
		m.senderQ.Wait(r.proc, w.rdvLabels[dst])
		r.account(catMPI, "rendezvous-wait")
		return
	}

	// Eager: copy into the shared segment, then post.
	if bytes > 0 {
		r.proc.Sleep(segmentCost(im, bytes))
		vol, path, ceiling := r.eagerIn(bytes, buf)
		r.proc.Transfer("eager-in", vol, path, ceiling)
		r.account(catCopy, "eager-in")
	}
	r.post(peer, bytes, buf)
}

// The flows of the protocols. Each builder returns its path in the
// world's scratch buffer, so the caller must start the flow before
// anything can yield; values that read mutable machine state (contention
// inflation) are taken where the protocol samples them.

// eagerIn returns the volume, path and rate ceiling of an eager send's
// copy into the segment on buf.
func (r *Rank) eagerIn(bytes float64, buf topology.SocketID) (float64, []*sim.Resource, float64) {
	w := r.w
	topo := w.cfg.Spec.Topo
	inflate := r.mach.ContentionInflate(buf) / w.cfg.Impl.CopyEfficiency
	w.path = r.mach.CopyPath(w.path[:0], r.cpu.Core(), r.home, buf)
	hops := topo.Hops(r.home, buf) + topo.Hops(topo.SocketOf(r.bind.Core), buf)
	return bytes * inflate, w.path, w.cfg.Spec.CopyCeiling(hops)
}

// eagerOut returns the volume, path and rate ceiling of draining eager
// message m out of its segment.
func (r *Rank) eagerOut(m *message) (float64, []*sim.Resource, float64) {
	w := r.w
	topo := w.cfg.Spec.Topo
	inflate := r.mach.ContentionInflate(m.bufNode) / w.cfg.Impl.CopyEfficiency
	w.path = r.mach.CopyPath(w.path[:0], r.cpu.Core(), m.bufNode, r.home)
	hops := topo.Hops(m.bufNode, r.home) + topo.Hops(topo.SocketOf(r.bind.Core), m.bufNode)
	return m.bytes * inflate, w.path, w.cfg.Spec.CopyCeiling(hops)
}

// rendezvousInflate is the contention factor of rendezvous message m's
// pipelined copy, sampled before the segment cost is paid.
func (r *Rank) rendezvousInflate(m *message) float64 {
	return r.mach.ContentionInflate(m.bufNode) / r.w.cfg.Impl.CopyEfficiency
}

// rendezvousPath returns the path and rate ceiling of rendezvous message
// m's pipelined copy through the segment: the single flow crosses both
// the sender-side and receiver-side paths (segment controller charged
// twice: written once, read once).
func (r *Rank) rendezvousPath(m *message) ([]*sim.Resource, float64) {
	w := r.w
	topo := w.cfg.Spec.Topo
	sender := w.ranks[m.src]
	path := r.mach.CopyPath(w.path[:0], sender.cpu.Core(), sender.home, m.bufNode)
	w.path = r.mach.CopyPath(path, r.cpu.Core(), m.bufNode, r.home)
	hops := topo.Hops(sender.home, m.bufNode) + topo.Hops(m.bufNode, r.home) +
		topo.Hops(topo.SocketOf(sender.bind.Core), topo.SocketOf(r.bind.Core))
	return w.path, w.cfg.Spec.CopyCeiling(hops)
}

// netPath is the wire path of a message to peer on another node: the
// sender copies out of its memory through its NIC, the payload crosses
// the fabric, and the receiver's NIC lands it. The receive-side memory
// write is charged when the receiver drains the message.
func (r *Rank) netPath(peer *Rank) []*sim.Resource {
	w := r.w
	w.path = append(r.mach.ReadPath(w.path[:0], r.cpu.Core(), r.home),
		w.nics[r.node][0], w.fabric, w.nics[peer.node][1])
	return w.path
}

// netInPath is the path of landing a network message into this rank's
// memory.
func (r *Rank) netInPath() []*sim.Resource {
	w := r.w
	w.path = r.mach.WritePath(w.path[:0], r.cpu.Core(), r.home)
	return w.path
}

// post delivers an eager message staged in the segment on buf, or a
// network message when peer is on another node, ready now.
func (r *Rank) post(peer *Rank, bytes float64, buf topology.SocketID) {
	m := r.w.newMessage()
	m.src, m.dst, m.bytes, m.readyAt = r.id, peer.id, bytes, r.Now()
	if peer.node != r.node {
		m.network = true
	} else {
		m.bufNode = buf
	}
	peer.deliver(m)
}

// offer delivers a rendezvous offer and returns it; the sender waits on
// its senderQ until the receiver has drained it.
func (r *Rank) offer(peer *Rank, bytes float64, buf topology.SocketID) *message {
	m := r.w.newMessage()
	m.src, m.dst, m.bytes, m.bufNode, m.rendezvous = r.id, peer.id, bytes, buf, true
	peer.deliver(m)
	return m
}

// mailbox holds the messages from one peer in arrival order, head-indexed
// over one backing slice, and the processes waiting to receive them.
type mailbox struct {
	msgs  []*message
	head  int
	recvQ sim.WaitQueue
}

func (b *mailbox) empty() bool { return b.head == len(b.msgs) }

// push appends m, compacting the dead prefix when it dominates.
func (b *mailbox) push(m *message) {
	if b.head > 0 && b.head*2 >= len(b.msgs) {
		n := copy(b.msgs, b.msgs[b.head:])
		clear(b.msgs[n:])
		b.msgs = b.msgs[:n]
		b.head = 0
	}
	b.msgs = append(b.msgs, m)
}

func (b *mailbox) pop() *message {
	m := b.msgs[b.head]
	b.msgs[b.head] = nil
	b.head++
	if b.head == len(b.msgs) {
		b.msgs = b.msgs[:0]
		b.head = 0
	}
	return m
}

// box returns the mailbox of messages from rank src, creating it on first
// use. Helper clones share their rank's mailboxes.
func (r *Rank) box(src int) *mailbox {
	b := r.boxes[src]
	if b == nil {
		b = &mailbox{}
		r.boxes[src] = b
	}
	return b
}

// deliver places a message in the destination's mailbox and wakes a
// waiting receiver.
func (peer *Rank) deliver(m *message) {
	b := peer.box(m.src)
	b.push(m)
	b.recvQ.WakeOne(peer.w.eng)
}

// Recv receives the next message from rank src, blocking until it arrives
// and its data has been drained from the shared segment.
func (r *Rank) Recv(src int) {
	if src == r.id {
		panic(fmt.Sprintf("mpi: rank %d receiving from itself", r.id))
	}
	w := r.w
	im := w.cfg.Impl

	b := r.box(src)
	for b.empty() {
		b.recvQ.Wait(r.proc, w.recvLabels[src])
	}
	m := b.pop()

	if m.network {
		// Network receive: stack overhead, then land the payload into
		// this rank's memory.
		r.proc.Sleep(w.net.Overhead + im.Overhead/2)
		if m.readyAt > r.Now() {
			r.proc.Sleep(m.readyAt - r.Now())
		}
		r.account(catMPI, "recv-wait")
		if m.bytes > 0 {
			r.proc.Transfer("net-recv", m.bytes, r.netInPath(), 0)
			r.account(catCopy, "net-recv")
		}
		w.freeMessage(m)
		return
	}

	// Receive-side software cost: notification plus library overhead.
	r.proc.Sleep(im.Sub.WakeLatency + im.Overhead/2)
	r.account(catMPI, "recv-wait")

	if m.rendezvous {
		inflate := r.rendezvousInflate(m)
		r.proc.Sleep(segmentCost(im, m.bytes))
		path, ceiling := r.rendezvousPath(m)
		r.proc.Transfer("rendezvous", m.bytes*inflate, path, ceiling)
		r.account(catCopy, "rendezvous-copy")
		m.senderQ.WakeAll(w.eng)
		w.freeMessage(m)
		return
	}

	// Eager: drain the segment copy.
	if m.readyAt > r.Now() {
		r.proc.Sleep(m.readyAt - r.Now())
		r.account(catMPI, "recv-wait")
	}
	if m.bytes > 0 {
		r.proc.Sleep(segmentCost(im, m.bytes))
		vol, path, ceiling := r.eagerOut(m)
		r.proc.Transfer("eager-out", vol, path, ceiling)
		r.account(catCopy, "eager-out")
	}
	w.freeMessage(m)
}

// Request is a handle for a non-blocking operation. Until it completes,
// h is the helper carrying it out, whose queue holds the processes
// waiting on it.
type Request struct {
	done bool
	h    *helper
}

// helper is a clone of a rank that carries out one Isend or Irecv at a
// time as a lightweight process. The clone shares the rank's identity and
// mailboxes but gets a discarded time breakdown (overlapped transfer time
// is not rank wall time; the main process only accounts what it spends in
// Wait) and its own trace thread id, so helper spans don't collide with
// the main process's track.
//
// The operation's state lives on the clone, so each protocol step is a
// method with no arguments. k names the step the next resume runs; step
// and start are the clone's only func values, bound once when it is
// created, so with tracing off an operation allocates nothing but its
// Request. The steps
// are Send and Recv in continuation form: every block maps to its *Then
// twin, with values computed at the same points relative to the blocks,
// so the two schedule identically.
type helper struct {
	Rank
	owner *Rank
	req   *Request
	waitQ sim.WaitQueue // processes in Wait on req

	peer    int // destination (Isend) or source (Irecv)
	bytes   float64
	buf     topology.SocketID
	m       *message
	inflate float64 // rendezvous drain's contention factor

	k     func(*helper)
	step  func()
	start func(*sim.Proc)
}

// helper returns a clone ready to run body for an operation with peer.
// When tracing is off nothing distinguishes one finished clone from the
// next, so clones recycle through helperFree; with tracing on every
// helper keeps a fresh thread id and the clone is kept alive by its spans.
func (r *Rank) helper(peer int, bytes float64, body func(*helper)) *helper {
	var h *helper
	if n := len(r.helperFree); n > 0 && r.w.trace == nil {
		h = r.helperFree[n-1]
		r.helperFree[n-1] = nil
		r.helperFree = r.helperFree[:n-1]
	} else {
		h = &helper{Rank: *r, owner: r}
		h.bd = &TimeBreakdown{}
		h.cpu = nil // begin gives the clone its own context; never share r's
		h.acctCompute = 0
		h.helperFree = nil
		r.helpers++
		h.tid = r.helpers
		h.step = h.run
		h.start = h.begin
	}
	h.req = &Request{h: h}
	h.peer, h.bytes, h.k = peer, bytes, body
	return h
}

// begin attaches the clone to its freshly spawned process and runs the
// operation's first step. A recycled clone rebinds its existing CPU
// context instead of allocating a new one; behavior is identical either
// way (helpers never Compute, so the context carries no accumulated state
// a fresh one wouldn't).
func (h *helper) begin(p *sim.Proc) {
	h.proc = p
	if h.cpu == nil {
		h.cpu = h.mach.CPU(p, h.bind.Core)
	} else {
		h.cpu.Rebind(p)
	}
	h.acct = p.Now()
	h.acctCompute = h.cpu.ComputeSeconds
	h.k(h)
}

func (h *helper) run() { h.k(h) }

// then arms k as the next step and returns the continuation that runs it.
func (h *helper) then(k func(*helper)) func() {
	h.k = k
	return h.step
}

// finish completes the request and returns the clone to its rank's pool.
// It runs as the helper's last step, strictly after its last accounted
// interval, so the next Isend/Irecv can safely rebind it.
func (h *helper) finish() {
	req := h.req
	h.req, h.m = nil, nil
	req.done, req.h = true, nil
	h.waitQ.WakeAll(h.w.eng)
	if h.w.trace == nil {
		h.owner.helperFree = append(h.owner.helperFree, h)
	}
}

// Isend starts a non-blocking send; complete it with Wait. The software
// preparation cost runs inline on the caller (the CPU cannot post two
// messages at once); only the data movement overlaps.
func (r *Rank) Isend(dst int, bytes float64) *Request {
	r.sendPrepare(dst, bytes)
	h := r.helper(dst, bytes, (*helper).send)
	r.w.eng.SpawnCont(r.w.isendNames[r.id], h.start)
	return h.req
}

// send is sendTransfer's first block.
func (h *helper) send() {
	w := h.w
	im := w.cfg.Impl
	if w.ranks[h.peer].node != h.node {
		h.proc.SleepThen(w.net.Overhead+w.net.Latency, h.then((*helper).sendNet))
		return
	}
	h.buf = w.bufNode(h.id, h.peer, h.bytes)
	switch {
	case h.bytes > im.EagerThreshold:
		h.proc.SleepThen(im.RendezvousOverhead, h.then((*helper).sendOffer))
	case h.bytes > 0:
		h.proc.SleepThen(segmentCost(im, h.bytes), h.then((*helper).sendCopy))
	default:
		h.sendPost()
	}
}

func (h *helper) sendNet() {
	h.account(catMPI, "net-sw")
	if h.bytes > 0 {
		h.proc.TransferThen("net-send", h.bytes, h.netPath(h.w.ranks[h.peer]), 0, h.then((*helper).sendNetDone))
		return
	}
	h.sendPost()
}

func (h *helper) sendNetDone() {
	h.account(catCopy, "net-send")
	h.sendPost()
}

func (h *helper) sendOffer() {
	m := h.offer(h.w.ranks[h.peer], h.bytes, h.buf)
	m.senderQ.WaitThen(h.proc, h.w.rdvLabels[h.peer], h.then((*helper).sendOfferDone))
}

func (h *helper) sendOfferDone() {
	h.account(catMPI, "rendezvous-wait")
	h.finish()
}

func (h *helper) sendCopy() {
	vol, path, ceiling := h.eagerIn(h.bytes, h.buf)
	h.proc.TransferThen("eager-in", vol, path, ceiling, h.then((*helper).sendCopyDone))
}

func (h *helper) sendCopyDone() {
	h.account(catCopy, "eager-in")
	h.sendPost()
}

func (h *helper) sendPost() {
	h.post(h.w.ranks[h.peer], h.bytes, h.buf)
	h.finish()
}

// Irecv starts a non-blocking receive; complete it with Wait.
func (r *Rank) Irecv(src int) *Request {
	h := r.helper(src, 0, (*helper).recv)
	r.w.eng.SpawnCont(r.w.irecvNames[r.id], h.start)
	return h.req
}

// recv waits for a message from the peer, then takes Recv's first block
// for its protocol.
func (h *helper) recv() {
	if h.peer == h.id {
		panic(fmt.Sprintf("mpi: rank %d receiving from itself", h.id))
	}
	w := h.w
	im := w.cfg.Impl
	b := h.box(h.peer)
	if b.empty() {
		b.recvQ.WaitThen(h.proc, w.recvLabels[h.peer], h.then((*helper).recv))
		return
	}
	h.m = b.pop()
	if h.m.network {
		h.proc.SleepThen(w.net.Overhead+im.Overhead/2, h.then((*helper).recvNet))
		return
	}
	h.proc.SleepThen(im.Sub.WakeLatency+im.Overhead/2, h.then((*helper).recvMatched))
}

func (h *helper) recvNet() {
	if h.m.readyAt > h.Now() {
		h.proc.SleepThen(h.m.readyAt-h.Now(), h.then((*helper).recvLand))
		return
	}
	h.recvLand()
}

func (h *helper) recvLand() {
	h.account(catMPI, "recv-wait")
	if h.m.bytes > 0 {
		h.proc.TransferThen("net-recv", h.m.bytes, h.netInPath(), 0, h.then((*helper).recvLandDone))
		return
	}
	h.recvDone()
}

func (h *helper) recvLandDone() {
	h.account(catCopy, "net-recv")
	h.recvDone()
}

func (h *helper) recvMatched() {
	h.account(catMPI, "recv-wait")
	m := h.m
	im := h.w.cfg.Impl
	if m.rendezvous {
		h.inflate = h.rendezvousInflate(m)
		h.proc.SleepThen(segmentCost(im, m.bytes), h.then((*helper).recvPull))
		return
	}
	if m.readyAt > h.Now() {
		h.proc.SleepThen(m.readyAt-h.Now(), h.then((*helper).recvReady))
		return
	}
	h.recvDrain()
}

func (h *helper) recvPull() {
	path, ceiling := h.rendezvousPath(h.m)
	h.proc.TransferThen("rendezvous", h.m.bytes*h.inflate, path, ceiling, h.then((*helper).recvPullDone))
}

func (h *helper) recvPullDone() {
	h.account(catCopy, "rendezvous-copy")
	h.m.senderQ.WakeAll(h.w.eng)
	h.recvDone()
}

func (h *helper) recvReady() {
	h.account(catMPI, "recv-wait")
	h.recvDrain()
}

func (h *helper) recvDrain() {
	if h.m.bytes > 0 {
		h.proc.SleepThen(segmentCost(h.w.cfg.Impl, h.m.bytes), h.then((*helper).recvCopy))
		return
	}
	h.recvDone()
}

func (h *helper) recvCopy() {
	vol, path, ceiling := h.eagerOut(h.m)
	h.proc.TransferThen("eager-out", vol, path, ceiling, h.then((*helper).recvCopyDone))
}

func (h *helper) recvCopyDone() {
	h.account(catCopy, "eager-out")
	h.recvDone()
}

func (h *helper) recvDone() {
	h.w.freeMessage(h.m)
	h.finish()
}

// Wait blocks until the request completes.
func (r *Rank) Wait(req *Request) {
	if req.done {
		r.proc.Sleep(0)
	} else {
		req.h.waitQ.Wait(r.proc, "wait request")
	}
	r.account(catMPI, "mpi-wait")
}

// WaitAll blocks until every request completes.
func (r *Rank) WaitAll(reqs ...*Request) {
	for _, req := range reqs {
		r.Wait(req)
	}
}

// Sendrecv exchanges messages with two (possibly distinct) peers
// concurrently: sends to dst while receiving from src.
func (r *Rank) Sendrecv(dst int, bytes float64, src int) {
	req := r.Isend(dst, bytes)
	r.Recv(src)
	r.Wait(req)
}
