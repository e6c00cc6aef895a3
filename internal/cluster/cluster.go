// Package cluster provides the simulated distributed machine that the
// DCR runtime runs on: a set of nodes that exchange asynchronous
// messages. Nodes live in one process (each node's services run on
// goroutines), but the transport can be configured to behave like a
// network: per-message delivery latency, optional gob wire-encoding
// that deep-copies every payload so no hidden shared memory can leak
// between nodes (the "strict distribution" mode used by the
// integration tests), and seeded fault injection (message drop,
// duplication, reordering, latency jitter, node stall/crash — see
// FaultPlan in faults.go) with a transparent ack/retransmit sublayer
// that preserves exactly-once delivery under loss.
//
// This is the substitution for the paper's physical clusters and
// GASNet transport: the runtime above sees the same interface — fire
// and forget sends, tag-matched receives, registered active-message
// handlers — and the same cost structure when latency injection is on.
//
// Physical delivery is pluggable (see transport.go): the Cluster is a
// facade that layers matching, reliability, faults, and heartbeats
// over a Transport backend. NewWithTransport selects the backend;
// New keeps the historical all-in-process behavior (MemTransport).
// With a TCPTransport the same facade spans OS processes: each
// process hosts the backend's Local() nodes and frames cross real
// sockets.
package cluster

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// NodeID identifies a node in the cluster, in [0, N).
type NodeID int

// Message is one transport-level message.
type Message struct {
	From, To NodeID
	Tag      uint64
	Payload  any

	// wireLen is the payload's exact encoded size when the Send path
	// already serialized it (WireEncode mode); 0 means "estimate at
	// transmission time".
	wireLen int

	// epoch, when epochPin is set, fixes the transport epoch the
	// message is stamped with (and checked against) instead of the
	// current one: heartbeats pin their detector's epoch so a beat from
	// a dead epoch cannot keep a crashed shard looking alive across an
	// epoch change. Inbound frames carry their wire epoch here.
	epoch    uint64
	epochPin bool
}

// Handler is an active-message callback. Handlers are invoked on their
// own goroutine (like a network progress thread handing off to a
// worker), so they may block and may send messages.
type Handler func(Message)

// Config controls transport behaviour.
type Config struct {
	// Nodes is the machine size.
	Nodes int
	// Latency is injected one-way message delay (0 = immediate).
	Latency time.Duration
	// WireEncode forces every payload through the wire codec's
	// encode/decode, guaranteeing nodes share no memory. Payload types
	// must be registered with RegisterWireType (or, for the binary
	// codec's fast path, RegisterBinaryPayload).
	WireEncode bool
	// Codec selects the payload codec WireEncode round-trips through
	// (nil selects CodecGob, the historical behavior). The TCP backend
	// has its own codec selection (TCPOptions.Codec); this one exists so
	// the in-process backend can exercise a codec under the same
	// bit-identical parity matrix the TCP backend must pass.
	Codec PayloadCodec
	// Faults injects transport faults (chaos testing); nil keeps the
	// perfect-network fast path.
	Faults *FaultPlan
}

// Stats aggregates transport counters.
type Stats struct {
	Messages uint64
	// Bytes is the frame bytes transmitted by the backend (header +
	// payload). Counted uniformly on every backend: exact on the TCP
	// backend and in WireEncode mode, header + size hint on the
	// in-process fast path.
	Bytes uint64

	// Fault-injection counters (zero on unperturbed clusters).
	Dropped        uint64 // transmissions swallowed by drop/crash faults
	Duplicated     uint64 // transmissions delivered twice
	Reordered      uint64 // transmissions held back to force reordering
	Jittered       uint64 // transmissions given random extra latency
	Stalled        uint64 // stall/crash windows triggered
	Retransmits    uint64 // reliable-sublayer retransmissions
	Acks           uint64 // reliable-sublayer acks that retired messages (dedicated or piggybacked)
	AckRetired     uint64 // messages retired by cumulative acks (≥ Acks)
	PiggyAcks      uint64 // acks that rode outgoing data frames instead of dedicated ack frames
	DupDeliveries  uint64 // duplicates suppressed by receiver dedup
	Heartbeats     uint64 // failure-detector beats delivered
	Corrupted      uint64 // transmissions corrupted on the wire (bit-flips injected, or corrupt-as-drop in-process)
	PartitionDrops uint64 // transmissions severed by active partition windows
}

// Cluster is a set of nodes plus the transport connecting them.
type Cluster struct {
	cfg    Config
	tr     Transport
	nodes  []*Node
	local  []bool   // local[id]: does this process host the node?
	locals []NodeID // ascending local node ids

	faults *faultState

	msgs     atomic.Uint64
	frameSeq atomic.Uint64

	// linkFrames/linkBytes count outbound wire traffic per destination
	// node (index = destination id), sized at transmit like the
	// backend's own accounting. Observability only — never consulted by
	// the protocol.
	linkFrames []atomic.Uint64
	linkBytes  []atomic.Uint64

	dropped        atomic.Uint64
	duplicated     atomic.Uint64
	reordered      atomic.Uint64
	jittered       atomic.Uint64
	stalled        atomic.Uint64
	retransmits    atomic.Uint64
	acks           atomic.Uint64
	ackRetired     atomic.Uint64
	piggyAcks      atomic.Uint64
	dupDelivered   atomic.Uint64
	heartbeats     atomic.Uint64
	corrupted      atomic.Uint64
	partitionDrops atomic.Uint64

	// hb is the live heartbeat failure detector, if one is running
	// (StartHeartbeats installs it, its stop function clears it).
	hb atomic.Pointer[hbState]

	closed atomic.Bool
	intr   atomic.Pointer[intrBox]
	// epoch is the transport generation. Advance and Revived move it;
	// deliveries scheduled in an earlier epoch are dropped when their
	// timers fire, so a healed transport cannot observe pre-crash traffic.
	epoch atomic.Uint64

	// epochMu serializes the epoch state: every write of epoch, intr and
	// stop happens under it (reads of the atomics need no lock).
	epochMu    sync.Mutex
	stop       chan struct{} // per-epoch: closed by Interrupt/Close, replaced by the epoch reset
	stopClosed bool

	wg sync.WaitGroup
}

// intrBox wraps the interrupt error so it can be stored (and cleared)
// through an atomic pointer regardless of the error's concrete type.
type intrBox struct{ err error }

// Node is one endpoint of the cluster — or a job-scoped *view* of one
// (see jobs.go). The root node (ep == self) owns the queues; a view
// shares them but XOR-mixes every tag with its job's mix and subjects
// its sends/receives to the job's interrupt in addition to the
// cluster's. mix 0 and jc nil is the root itself.
type Node struct {
	id  NodeID
	c   *Cluster
	ep  *Node // endpoint owning the queues below; self for root nodes
	mix uint64
	jc  *JobCtl

	mu       sync.Mutex
	cond     *sync.Cond
	pending  map[matchKey][]queuedMsg
	handlers map[uint64]registeredHandler
	closed   bool
	arrival  uint64
	waits    map[uint64]*waitRecord
	waitSeq  uint64
}

// registeredHandler pairs an active-message handler with its dispatch
// mode: inline handlers run on the delivery goroutine itself, saving a
// goroutine spawn and a scheduler hop per message.
type registeredHandler struct {
	fn     Handler
	inline bool
}

type matchKey struct {
	tag  uint64
	from NodeID
}

// queuedMsg is one queued message plus its arrival index, which makes
// RecvAny's choice of sender deterministic (oldest first).
type queuedMsg struct {
	msg     Message
	arrival uint64
}

// waitRecord tracks one blocked receive for the stall watchdog. tag is
// the wire (mixed) tag; mix is the recording view's job mix so a job's
// watchdog only sees — and can unmix — its own waits.
type waitRecord struct {
	tag   uint64
	mix   uint64
	from  NodeID // -1 for RecvAny
	since time.Time
}

// New creates an all-in-process cluster with cfg.Nodes nodes.
func New(cfg Config) *Cluster {
	if cfg.Nodes <= 0 {
		panic("cluster: need at least one node")
	}
	return NewWithTransport(cfg, NewMemTransport(cfg.Nodes))
}

// NewWithTransport creates a cluster on the given backend. The cluster
// owns the transport from here on: Close closes it. cfg.Nodes may be
// zero (it is taken from the transport) but must otherwise agree with
// the transport's size. Node objects exist for every id, but only the
// transport's Local() nodes receive traffic in this process — remote
// ids are send-to-only stubs.
func NewWithTransport(cfg Config, tr Transport) *Cluster {
	if tr == nil {
		panic("cluster: nil transport")
	}
	if cfg.Nodes == 0 {
		cfg.Nodes = tr.Size()
	}
	if cfg.Nodes != tr.Size() {
		panic(fmt.Sprintf("cluster: config has %d nodes, transport %d", cfg.Nodes, tr.Size()))
	}
	c := &Cluster{cfg: cfg, tr: tr, stop: make(chan struct{})}
	c.linkFrames = make([]atomic.Uint64, cfg.Nodes)
	c.linkBytes = make([]atomic.Uint64, cfg.Nodes)
	c.local = make([]bool, cfg.Nodes)
	for _, id := range tr.Local() {
		if int(id) < 0 || int(id) >= cfg.Nodes {
			panic(fmt.Sprintf("cluster: transport local node %d out of range", id))
		}
		c.local[id] = true
		c.locals = append(c.locals, id)
	}
	for i := 0; i < cfg.Nodes; i++ {
		n := &Node{
			id:       NodeID(i),
			c:        c,
			pending:  make(map[matchKey][]queuedMsg),
			handlers: make(map[uint64]registeredHandler),
			waits:    make(map[uint64]*waitRecord),
		}
		n.ep = n
		n.cond = sync.NewCond(&n.mu)
		c.nodes = append(c.nodes, n)
	}
	if cfg.Faults != nil {
		c.faults = newFaultState(c, cfg.Faults)
		if c.faults.plan.Corrupt > 0 {
			// A backend with real encoded bytes injects the bit-flips
			// itself; the in-process corrupt-as-drop roll is then skipped
			// so corruption is not applied twice.
			if wc, ok := tr.(WireCorrupter); ok {
				wc.SetWireCorruption(c.faults.plan.Corrupt, c.faults.plan.Seed,
					func() { c.corrupted.Add(1) })
				c.faults.wireCorrupt = true
			}
		}
	}
	tr.Bind(c)
	return c
}

// Size returns the number of nodes.
func (c *Cluster) Size() int { return len(c.nodes) }

// Node returns the node with the given id.
func (c *Cluster) Node(id NodeID) *Node { return c.nodes[id] }

// LocalIDs returns the node ids hosted by this process, ascending. On
// an in-process cluster that is every id.
func (c *Cluster) LocalIDs() []NodeID { return append([]NodeID(nil), c.locals...) }

// IsLocal reports whether this process hosts the node.
func (c *Cluster) IsLocal(id NodeID) bool {
	return int(id) >= 0 && int(id) < len(c.local) && c.local[id]
}

// Transport returns the backend the cluster runs on.
func (c *Cluster) Transport() Transport { return c.tr }

// Stats returns a snapshot of the transport counters.
func (c *Cluster) Stats() Stats {
	return Stats{
		Messages:       c.msgs.Load(),
		Bytes:          c.tr.Stats().BytesOut,
		Dropped:        c.dropped.Load(),
		Duplicated:     c.duplicated.Load(),
		Reordered:      c.reordered.Load(),
		Jittered:       c.jittered.Load(),
		Stalled:        c.stalled.Load(),
		Retransmits:    c.retransmits.Load(),
		Acks:           c.acks.Load(),
		AckRetired:     c.ackRetired.Load(),
		PiggyAcks:      c.piggyAcks.Load(),
		DupDeliveries:  c.dupDelivered.Load(),
		Heartbeats:     c.heartbeats.Load(),
		Corrupted:      c.corrupted.Load(),
		PartitionDrops: c.partitionDrops.Load(),
	}
}

// Close shuts the transport down; blocked receives return an error.
func (c *Cluster) Close() {
	if c.closed.Swap(true) {
		return
	}
	// On a multi-process cluster, drain the reliable sublayer before
	// stopping it: an in-flight message this process sent may have been
	// destroyed on the wire (corruption, drop) and only this process's
	// retransmit loops can repair the loss — once the process exits,
	// nobody can, and the peer blocks forever on a message that no
	// longer exists anywhere. Skipped after an interrupt (the loops are
	// already stopped); bounded, and excludes crashed/partitioned peers.
	if c.faults != nil && len(c.locals) < len(c.nodes) {
		c.epochMu.Lock()
		interrupted := c.stopClosed
		c.epochMu.Unlock()
		if !interrupted {
			c.faults.drain(2 * time.Second)
		}
	}
	c.closeStop()
	for _, n := range c.nodes {
		n.mu.Lock()
		n.closed = true
		n.cond.Broadcast()
		n.mu.Unlock()
	}
	c.wg.Wait()
	c.tr.Close()
}

// closeStop closes the current epoch's stop channel exactly once.
func (c *Cluster) closeStop() {
	c.epochMu.Lock()
	c.closeStopLocked()
	c.epochMu.Unlock()
}

func (c *Cluster) closeStopLocked() {
	if !c.stopClosed {
		c.stopClosed = true
		close(c.stop)
	}
}

// stopChan returns the current epoch's stop channel. Long-running
// transport goroutines (retransmit loops) capture it once; after an
// epoch reset the captured channel is the closed one of the dead epoch,
// so stale loops exit instead of re-sending into the new epoch.
func (c *Cluster) stopChan() chan struct{} {
	c.epochMu.Lock()
	defer c.epochMu.Unlock()
	return c.stop
}

// Interrupt poisons the transport with err: every blocked and future
// receive (and send) on every node fails with err. This is the abort
// broadcast of the runtime above — when one shard dies, Interrupt
// unwedges every peer blocked in a collective on the dead shard so the
// whole machine can unwind instead of deadlocking. Unlike Close it
// does not wait for in-flight timers; a later Close still joins them.
func (c *Cluster) Interrupt(err error) { c.interrupt(err, true) }

// interrupt poisons the local endpoints; propagate additionally
// broadcasts the interrupt to remote processes through the backend
// (false on the receive side, so a relayed interrupt cannot loop).
func (c *Cluster) interrupt(err error, propagate bool) {
	if err == nil {
		err = ErrInterrupted
	}
	c.epochMu.Lock()
	if c.intr.Load() != nil {
		c.epochMu.Unlock()
		return
	}
	c.intr.Store(&intrBox{err: err})
	c.closeStopLocked()
	c.epochMu.Unlock()
	if propagate {
		c.tr.Interrupt(err.Error())
	}
	for _, n := range c.nodes {
		n.mu.Lock()
		n.cond.Broadcast()
		n.mu.Unlock()
	}
}

// InterruptLocal poisons only this process's endpoints, without
// broadcasting to remote peers. It is the unwedge for an attempt that
// discovered it is stale — the cluster has already moved to a newer
// epoch — where a propagated interrupt would needlessly kill the
// peers' healthy attempts in that newer epoch and restart the very
// storm the stale attempt is trying to leave.
func (c *Cluster) InterruptLocal(err error) { c.interrupt(err, false) }

// Err returns the interrupt error, or nil if the transport is healthy.
func (c *Cluster) Err() error {
	if b := c.intr.Load(); b != nil {
		return b.err
	}
	return nil
}

// Done returns a channel that is closed when the current epoch ends: by
// Interrupt, whether raised here or relayed from a peer process, or by
// Close. A revive installs a fresh channel, so a caller captures it at
// the start of the work the interrupt must cancel — waiters that sit on
// their own events rather than in a Recv learn of the interrupt here.
func (c *Cluster) Done() <-chan struct{} { return c.stopChan() }

// Epoch returns the current transport epoch (0 until the first Advance).
func (c *Cluster) Epoch() uint64 { return c.epoch.Load() }

// Advance heals this process's endpoints past epoch seen — an epoch the
// caller has observed (never ahead of the one in force), for a failed
// attempt the epoch it is abandoning — and returns the epoch in force
// afterwards. A transport healed under the caller is an epoch to join,
// not an error, so Advance is idempotent:
//
//   - healthy: nothing to heal. At seen that is a no-op; past seen a
//     peer's revive already reached Revived, which did the reset.
//   - interrupted past seen: join the epoch in force. The interrupt is
//     lifted, but that epoch's queued traffic and reliable-link state
//     stay: they were reset when this process adopted it and now carry
//     its peers' live attempts.
//   - interrupted at seen: mint seen+1 (the reset: clear the interrupt,
//     discard the dead epoch's queued traffic, reset the fault engine)
//     and run the transport's revive barrier. Deliveries still in
//     flight from the dead epoch (latency timers, retransmissions) are
//     dropped when they fire, by the epoch check in deliverAfter.
//
// The decision and the reset happen under epochMu, which every epoch
// transition and interrupt takes, so a peer's Revived either lands
// first (and this call joins it) or after (and finds its epoch already
// in force): nothing can slip between observing the interrupt and
// acting on it.
//
// Advance does not resurrect a Closed cluster (ErrClosed), and the
// caller must ensure no goroutine is still using the transport for live
// work (the runtime above guarantees this: Advance runs between
// Execute attempts, after every shard has unwound).
func (c *Cluster) Advance(seen uint64) (uint64, error) {
	if c.closed.Load() {
		return 0, ErrClosed
	}
	// Join stale retransmit loops while the interrupt still poisons
	// delivery: a loop that fired its timer must not transmit after the
	// interrupt clears, or dead-epoch traffic would leak into the new
	// epoch.
	if c.faults != nil && c.Err() != nil {
		c.faults.loops.Wait()
	}
	c.epochMu.Lock()
	epoch := c.epoch.Load()
	poisoned := c.intr.Load() != nil
	mint := poisoned && epoch <= seen
	if mint {
		epoch++
	}
	if poisoned {
		c.resetLocked(epoch)
	}
	c.epochMu.Unlock()
	if !mint {
		return epoch, nil
	}
	// The transport-level revive barrier: on remote backends this blocks
	// until every peer has adopted the epoch and acked, so traffic sent
	// after Advance returns cannot be destroyed by a peer's late wipe.
	if err := c.tr.Revive(epoch); err != nil {
		return epoch, fmt.Errorf("cluster: revive: %w", err)
	}
	return epoch, nil
}

// resetLocked is the epoch reset, shared by Advance and the remote-driven
// Revived. When epoch is newer than the one in force it adopts it,
// discarding the dead epoch's queued traffic and resetting the fault
// engine (so a node whose "NIC died" can re-register and exchange
// messages again); then it installs a fresh stop channel and clears the
// interrupt. The wipe runs once per epoch this process adopts — only a
// transition to a newer epoch performs it — and never touches traffic
// of the epoch in force: the switch comes first, so Deliver's epoch
// gate refuses the dead epoch's frames from then on, and the interrupt
// clears last, so no local send lands in the new epoch before its
// queues are clean. Caller holds epochMu.
func (c *Cluster) resetLocked(epoch uint64) {
	if epoch > c.epoch.Load() {
		c.epoch.Store(epoch)
		for _, n := range c.nodes {
			n.mu.Lock()
			n.pending = make(map[matchKey][]queuedMsg)
			n.cond.Broadcast()
			n.mu.Unlock()
		}
		if c.faults != nil {
			c.faults.revive()
		}
	}
	if c.stopClosed {
		c.stop = make(chan struct{})
		c.stopClosed = false
	}
	c.intr.Store(nil)
}

// SyncEpoch rendezvouses with remote peer processes on the newest
// transport epoch before an attempt starts, adopting whatever the
// cluster agreed on while this process was down or backing off, and
// returns the epoch in force. On all-local backends it returns the
// current epoch immediately. timeout <= 0 uses the backend default.
func (c *Cluster) SyncEpoch(timeout time.Duration) uint64 {
	if !c.closed.Load() {
		c.tr.SyncEpoch(timeout)
	}
	return c.epoch.Load()
}

// --- Transport sink ------------------------------------------------------

// Deliver implements Sink: the backend hands arriving data frames to
// the endpoint layer here. Dead-epoch frames and frames for nodes this
// process does not host are dropped; remotely-encoded payloads are
// decoded through the same wire codec WireEncode mode uses.
func (c *Cluster) Deliver(f *Frame) {
	if c.closed.Load() || f.Epoch != c.epoch.Load() {
		return
	}
	if int(f.To) < 0 || int(f.To) >= len(c.nodes) || !c.local[f.To] {
		return
	}
	payload := f.Payload
	if payload == nil && len(f.Wire) > 0 {
		// Remote payloads open with the sending codec's ID byte; decode
		// dispatches on it, so endpoints with different codecs interoperate.
		p, err := DecodePayload(f.Wire)
		if err != nil {
			return // undecodable remote payload: drop, like line noise
		}
		payload = p
	}
	c.nodes[f.To].deliver(Message{From: f.From, To: f.To, Tag: f.Tag, Payload: payload, epoch: f.Epoch, epochPin: true})
}

// Interrupted implements Sink: a remote process interrupted the
// transport; poison the local endpoints without re-broadcasting.
func (c *Cluster) Interrupted(reason string) {
	c.interrupt(fmt.Errorf("%w: remote: %s", ErrInterrupted, reason), false)
}

// Revived implements Sink: a remote process revived the transport into
// a new epoch. Adopt it through the same reset Advance performs. On the
// TCP backend this adoption runs on the inbound read loop *before* the
// revive ack returns to the reviver, so when the reviver's barrier
// releases, every peer's dead-epoch queues are already wiped and late
// frames from the dead epoch stay dropped by the epoch gate in Deliver.
func (c *Cluster) Revived(epoch uint64) {
	c.epochMu.Lock()
	defer c.epochMu.Unlock()
	if !c.closed.Load() && epoch > c.epoch.Load() {
		c.resetLocked(epoch)
	}
}

// Errors returned by the transport.
var (
	// ErrClosed is returned by receives after the cluster is closed.
	ErrClosed = fmt.Errorf("cluster: transport closed")
	// ErrInterrupted is the default Interrupt error.
	ErrInterrupted = fmt.Errorf("cluster: transport interrupted")
	// ErrTimeout is returned by RecvTimeout when the deadline passes.
	ErrTimeout = fmt.Errorf("cluster: receive timed out")
	// ErrBadPayload wraps payloads that fail wire encoding.
	ErrBadPayload = fmt.Errorf("cluster: bad payload")
	// ErrReviveTimeout is returned (wrapped) by Advance when a remote
	// peer never acknowledged the new epoch within the barrier window —
	// typically a dead worker process that has not been respawned yet.
	ErrReviveTimeout = fmt.Errorf("cluster: revive barrier timed out")
)

var wireTypesMu sync.Mutex

// RegisterWireType registers a payload type for WireEncode mode.
func RegisterWireType(v any) {
	wireTypesMu.Lock()
	defer wireTypesMu.Unlock()
	gob.Register(v)
}

// ID returns the node's id.
func (n *Node) ID() NodeID { return n.id }

// ClusterSize returns the size of the cluster this node belongs to.
func (n *Node) ClusterSize() int { return n.c.Size() }

// Handle registers an active-message handler for tag. Messages with a
// registered handler are dispatched to it (on a new goroutine) instead
// of being queued for Recv. Messages that arrived before registration
// are drained to the new handler in arrival order — a rejoining shard's
// re-requests can land on a survivor before its fresh attempt has wired
// up the serving handlers.
func (n *Node) Handle(tag uint64, h Handler) { n.handle(tag, h, false) }

// HandleInline registers a handler that runs synchronously on the
// delivery goroutine instead of a fresh one, eliminating a goroutine
// spawn and a scheduler hop per message. The handler must not block:
// on a remote transport it runs on the connection's read loop, so a
// blocking handler stalls every later frame on that link. Handlers
// that only sometimes block (a pull server whose version is usually
// already published) should take the fast path inline and spawn a
// goroutine themselves for the slow case. On clusters with fault
// injection the hint is ignored and every dispatch gets its own
// goroutine: the reliable sublayer's release path is re-entrant
// through a handler that sends (the reply's piggybacked ack can
// recurse into a pair lock already held up-stack).
func (n *Node) HandleInline(tag uint64, h Handler) { n.handle(tag, h, true) }

func (n *Node) handle(tag uint64, h Handler, inline bool) {
	ep := n.ep
	tag ^= n.mix
	if n.mix != 0 {
		// Hand the handler the unmixed tag: the mixing is a wire-level
		// concern the layers above never see.
		inner, mix := h, n.mix
		h = func(m Message) { m.Tag ^= mix; inner(m) }
	}
	ep.mu.Lock()
	var backlog []queuedMsg
	for key, q := range ep.pending {
		if key.tag == tag {
			backlog = append(backlog, q...)
			delete(ep.pending, key)
		}
	}
	ep.handlers[tag] = registeredHandler{fn: h, inline: inline}
	ep.mu.Unlock()
	sort.Slice(backlog, func(i, j int) bool { return backlog[i].arrival < backlog[j].arrival })
	for _, qm := range backlog {
		if inline && n.c.faults == nil {
			h(qm.msg)
		} else {
			go h(qm.msg)
		}
	}
}

// Send delivers a message to node `to` with the configured latency. If
// WireEncode is on, the payload is deep-copied through gob. A non-nil
// error means the message was provably not delivered (encode failure
// or interrupted transport); nil is fire-and-forget as on a real NIC —
// with fault injection on, delivery is only guaranteed by the reliable
// sublayer.
func (n *Node) Send(to NodeID, tag uint64, payload any) error {
	if n.c.closed.Load() {
		return ErrClosed
	}
	if err := n.c.Err(); err != nil {
		return err
	}
	if err := n.jobErr(); err != nil {
		return err
	}
	msg := Message{From: n.id, To: to, Tag: tag ^ n.mix, Payload: payload}
	// nil payloads (barriers) are trivially copy-safe and cannot be
	// wire-encoded inside an interface; skip the wire round-trip.
	if n.c.cfg.WireEncode && payload != nil {
		codec := n.c.cfg.Codec
		if codec == nil {
			codec = CodecGob
		}
		wire, err := codec.Append(nil, payload)
		if err != nil {
			return err
		}
		out, err := codec.Decode(wire)
		if err != nil {
			return fmt.Errorf("%w: %T not wire-decodable: %v", ErrBadPayload, payload, err)
		}
		msg.Payload = out
		msg.wireLen = len(wire)
	}
	n.c.msgs.Add(1)
	if n.jc != nil {
		n.jc.msgs.Add(1)
	}
	if n.c.faults != nil {
		return n.c.faults.send(msg)
	}
	n.c.deliverAfter(msg, n.c.cfg.Latency)
	return nil
}

// deliverAfter schedules delivery of msg after delay d (immediately
// when d <= 0). Delayed deliveries are tagged with the epoch they were
// scheduled in and dropped if the transport has since been revived into
// a newer epoch: a message sent before a crash must not materialize in
// the healed run.
func (c *Cluster) deliverAfter(msg Message, d time.Duration) {
	if d <= 0 {
		c.transmit(msg)
		return
	}
	epoch := c.epoch.Load()
	c.wg.Add(1)
	time.AfterFunc(d, func() {
		defer c.wg.Done()
		if !c.closed.Load() && c.Err() == nil && c.epoch.Load() == epoch {
			c.transmit(msg)
		}
	})
}

// transmit hands one message to the backend as a data frame stamped
// with the current epoch (or the message's pinned epoch — heartbeats
// pin their detector's so a stale detector cannot mint fresh-looking
// beats after a revive). Fire-and-forget: a backend refusal (closing
// transport, unreachable peer) is indistinguishable from wire loss.
func (c *Cluster) transmit(msg Message) {
	ep := c.epoch.Load()
	if msg.epochPin {
		ep = msg.epoch
	}
	f := &Frame{
		Kind:    frameData,
		Epoch:   ep,
		Tag:     msg.Tag,
		Seq:     c.frameSeq.Add(1),
		From:    msg.From,
		To:      msg.To,
		Payload: msg.Payload,
		Hint:    msg.wireLen,
	}
	if f.Hint == 0 && msg.Payload != nil {
		f.Hint = payloadSizeHint(msg.Payload)
	}
	if int(f.To) >= 0 && int(f.To) < len(c.linkFrames) {
		c.linkFrames[f.To].Add(1)
		c.linkBytes[f.To].Add(wireSize(f))
	}
	_ = c.tr.Send(f)
}

// LinkStats is one destination's outbound wire traffic from this
// process (see Cluster.Links).
type LinkStats struct {
	Frames uint64 `json:"frames"`
	Bytes  uint64 `json:"bytes"`
}

// Links returns per-destination outbound frame/byte counts, indexed by
// node id: the per-link half of the wire accounting WireStats
// aggregates. Local sends on a remote backend still count — a link is
// a (sender process, destination node) pair, not a TCP connection.
func (c *Cluster) Links() []LinkStats {
	out := make([]LinkStats, len(c.linkFrames))
	for i := range out {
		out[i] = LinkStats{Frames: c.linkFrames[i].Load(), Bytes: c.linkBytes[i].Load()}
	}
	return out
}

// WireStats returns the backend's frame counters (including CRC
// rejections on backends that verify).
func (c *Cluster) WireStats() WireStats { return c.tr.Stats() }

type wireEnvelope struct{ Payload any }

// EncodeWire gob-encodes a payload exactly as WireEncode mode does on
// every Send. Exposed so tools (and the wire-codec fuzz target) can
// exercise the real marshalling path.
func EncodeWire(payload any) ([]byte, error) {
	var buf bytes.Buffer
	wrapped := wireEnvelope{Payload: payload}
	if err := gob.NewEncoder(&buf).Encode(&wrapped); err != nil {
		return nil, fmt.Errorf("%w: %T not wire-encodable: %v", ErrBadPayload, payload, err)
	}
	return buf.Bytes(), nil
}

// DecodeWire decodes bytes produced by EncodeWire back into a payload.
// Arbitrary inputs return an error; they must never panic or hang.
func DecodeWire(b []byte) (any, error) {
	var out wireEnvelope
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&out); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadPayload, err)
	}
	return out.Payload, nil
}

func (n *Node) deliver(msg Message) {
	if msg.Tag == hbTag {
		// Heartbeats never reach the queues or handlers; they only feed
		// the failure detector's arrival history — and only the detector
		// of the epoch they were beaten in: a beat from a dead epoch
		// must not keep a crashed shard looking alive across an epoch
		// change, and a fresh beat must not refresh a stale detector.
		if hb := n.c.hb.Load(); hb != nil && msg.epoch == hb.epoch {
			hb.observe(msg.From, n.id)
		}
		return
	}
	if f := n.c.faults; f != nil && f.reliable {
		f.intercept(msg, n.enqueue)
		return
	}
	n.enqueue(msg)
}

// enqueue dispatches a logical message to its handler or match queue.
func (n *Node) enqueue(msg Message) {
	n.mu.Lock()
	h, ok := n.handlers[msg.Tag]
	if ok {
		n.mu.Unlock()
		if h.inline && n.c.faults == nil {
			h.fn(msg)
		} else {
			go h.fn(msg)
		}
		return
	}
	n.arrival++
	key := matchKey{msg.Tag, msg.From}
	n.pending[key] = append(n.pending[key], queuedMsg{msg: msg, arrival: n.arrival})
	n.cond.Broadcast()
	n.mu.Unlock()
}

// popLocked dequeues the head of key's queue. Caller holds n.mu.
func (n *Node) popLocked(key matchKey) Message {
	q := n.pending[key]
	msg := q[0].msg
	if len(q) == 1 {
		delete(n.pending, key)
	} else {
		n.pending[key] = q[1:]
	}
	return msg
}

// beginWaitLocked registers a blocked receive for the watchdog; caller
// holds n.ep.mu. tag is the wire (mixed) tag; the view's mix is stored
// alongside so OldestWait can scope and unmix.
func (n *Node) beginWaitLocked(tag uint64, from NodeID) uint64 {
	ep := n.ep
	ep.waitSeq++
	ep.waits[ep.waitSeq] = &waitRecord{tag: tag, mix: n.mix, from: from, since: time.Now()}
	return ep.waitSeq
}

func (n *Node) endWaitLocked(id uint64) { delete(n.ep.waits, id) }

// OldestWait reports the longest-blocked receive on this node in the
// view's job namespace: its (unmixed) tag, the sender it waits on (-1
// for RecvAny), and when it started. ok is false when nothing is
// blocked. The stall watchdog uses this to name the collective a
// wedged shard is stuck inside; a job view only reports its own job's
// waits, so one job's watchdog never blames another's traffic.
func (n *Node) OldestWait() (tag uint64, from NodeID, since time.Time, ok bool) {
	ep := n.ep
	ep.mu.Lock()
	defer ep.mu.Unlock()
	for _, w := range ep.waits {
		if w.mix != n.mix {
			continue
		}
		if !ok || w.since.Before(since) {
			tag, from, since, ok = w.tag^n.mix, w.from, w.since, true
		}
	}
	return tag, from, since, ok
}

// Recv blocks until a message with the given tag from the given sender
// arrives, and returns its payload.
func (n *Node) Recv(tag uint64, from NodeID) (any, error) {
	return n.recv(tag, from, 0)
}

// RecvTimeout is Recv with a deadline: it returns ErrTimeout if no
// matching message arrives within d.
func (n *Node) RecvTimeout(tag uint64, from NodeID, d time.Duration) (any, error) {
	return n.recv(tag, from, d)
}

func (n *Node) recv(tag uint64, from NodeID, timeout time.Duration) (any, error) {
	ep := n.ep
	key := matchKey{tag ^ n.mix, from}
	var deadline time.Time
	var timer *time.Timer
	if timeout > 0 {
		deadline = time.Now().Add(timeout)
		// The timer only wakes the cond loop; the loop checks the clock.
		timer = time.AfterFunc(timeout, func() {
			ep.mu.Lock()
			ep.cond.Broadcast()
			ep.mu.Unlock()
		})
		defer timer.Stop()
	}
	ep.mu.Lock()
	defer ep.mu.Unlock()
	waitID := uint64(0)
	defer func() {
		if waitID != 0 {
			n.endWaitLocked(waitID)
		}
	}()
	for {
		if len(ep.pending[key]) > 0 {
			return ep.popLocked(key).Payload, nil
		}
		if ep.closed {
			return nil, ErrClosed
		}
		if err := n.c.Err(); err != nil {
			return nil, err
		}
		if err := n.jobErr(); err != nil {
			return nil, err
		}
		if timeout > 0 && !time.Now().Before(deadline) {
			return nil, ErrTimeout
		}
		if waitID == 0 {
			waitID = n.beginWaitLocked(key.tag, from)
		}
		ep.cond.Wait()
	}
}

// RecvAny blocks until a message with the given tag arrives from any
// sender, returning the sender and payload. When several senders have
// pending messages it picks the oldest (earliest arrival), so the
// choice is deterministic and no sender can be starved.
func (n *Node) RecvAny(tag uint64) (NodeID, any, error) {
	ep := n.ep
	tag ^= n.mix
	ep.mu.Lock()
	defer ep.mu.Unlock()
	waitID := uint64(0)
	defer func() {
		if waitID != 0 {
			n.endWaitLocked(waitID)
		}
	}()
	for {
		bestKey := matchKey{}
		bestArrival := uint64(0)
		found := false
		for key, q := range ep.pending {
			if key.tag != tag || len(q) == 0 {
				continue
			}
			if !found || q[0].arrival < bestArrival {
				bestKey, bestArrival, found = key, q[0].arrival, true
			}
		}
		if found {
			msg := ep.popLocked(bestKey)
			return msg.From, msg.Payload, nil
		}
		if ep.closed {
			return -1, nil, ErrClosed
		}
		if err := n.c.Err(); err != nil {
			return -1, nil, err
		}
		if err := n.jobErr(); err != nil {
			return -1, nil, err
		}
		if waitID == 0 {
			waitID = n.beginWaitLocked(tag, -1)
		}
		ep.cond.Wait()
	}
}

// TryRecv returns a pending message with the given tag/from if one is
// queued, without blocking.
func (n *Node) TryRecv(tag uint64, from NodeID) (any, bool) {
	ep := n.ep
	key := matchKey{tag ^ n.mix, from}
	ep.mu.Lock()
	defer ep.mu.Unlock()
	if len(ep.pending[key]) > 0 {
		return ep.popLocked(key).Payload, true
	}
	return nil, false
}
