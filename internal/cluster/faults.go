package cluster

// Fault injection and reliable delivery. A FaultPlan turns the perfect
// in-process transport into a misbehaving network: messages can be
// dropped, duplicated, reordered, delayed by random jitter, and whole
// nodes can stall or crash mid-run. Every fault decision is derived
// from a counter-based PRNG keyed by (plan seed, sender, receiver,
// per-link transmission index), so a failing run reproduces from its
// seed as long as each sender's per-link send order is stable.
//
// When a plan can lose messages (Drop or Duplicate > 0) the transport
// automatically interposes a reliable-delivery sublayer: every logical
// message gets a per-link sequence number, the receiver acks with the
// highest contiguously-received sequence (a cumulative ack, so one
// envelope can retire a whole window of in-flight messages), dedups by
// sequence, and holds out-of-order arrivals back so the stream it
// releases is exactly-once and per-link FIFO; the sender retransmits
// with capped exponential backoff until acked. The sublayer is
// entirely absent on zero-fault clusters — the fast path is the one
// the benchmarks measure.

import (
	"encoding/gob"
	"sync"
	"sync/atomic"
	"time"
)

func init() {
	// The reliable sublayer's envelopes stay in-process on MemTransport
	// but cross the gob boundary on remote backends: relData wraps the
	// logical payload, and cumulative acks carry a bare uint64.
	gob.Register(relData{})
	gob.Register(uint64(0))
}

// FaultPlan configures deterministic, seeded fault injection on a
// cluster's transport. The zero value injects nothing; a nil plan on
// Config selects the unperturbed fast path.
type FaultPlan struct {
	// Seed keys the fault PRNG; identical seeds reproduce identical
	// fault schedules (per sender/receiver link).
	Seed uint64
	// Drop is the per-transmission probability a message vanishes.
	// Drop > 0 auto-enables the reliable-delivery sublayer.
	Drop float64
	// Duplicate is the probability a transmission is delivered twice.
	// Duplicate > 0 auto-enables the reliable-delivery sublayer.
	Duplicate float64
	// Corrupt is the per-transmission probability of a bit-flip on the
	// wire. On a backend with real encoded bytes (TCP) the flip is
	// injected into the outbound buffer and the receiver's frame CRCs
	// turn it into a dropped frame or a torn-down connection; on the
	// in-process backend — whose frames are never encoded — the
	// transmission is dropped outright, the exact observable a
	// CRC-verifying receiver produces for a payload flip. Corrupt > 0
	// auto-enables the reliable-delivery sublayer, which is what turns
	// corruption-as-loss back into exactly-once delivery.
	Corrupt float64
	// Reorder is the probability a transmission is held back long
	// enough for later messages to overtake it.
	Reorder float64
	// JitterMax adds uniform random latency in [0, JitterMax) to every
	// transmission (on top of Config.Latency).
	JitterMax time.Duration
	// ReorderDelay is how long a reordered message is held back
	// (default 1ms).
	ReorderDelay time.Duration
	// Stalls schedules per-node stall/crash windows.
	Stalls []StallWindow
	// Partitions schedules link-level partition windows: traffic on the
	// severed links is silently dropped while a window is active. Unlike
	// Drop this is not recovered by retransmission alone when the window
	// outlives the retransmit budget — partitions are the failure class
	// the phi-accrual detector and supervisor handle.
	Partitions []PartitionWindow
	// RetransmitBase/RetransmitCap bound the reliable sublayer's
	// exponential backoff (defaults 1ms / 32ms).
	RetransmitBase time.Duration
	RetransmitCap  time.Duration
	// AckDelay is how long a receiver holds a pending cumulative ack
	// hoping a reverse-direction data send piggybacks it first; a
	// dedicated ack frame goes out only when the timer wins (default
	// RetransmitBase/4, so a delayed ack still beats the sender's first
	// retransmission).
	AckDelay time.Duration
}

// StallWindow stalls or kills one node's traffic. The window triggers
// when the node has attempted its AfterSends-th send, so the trigger
// point is reproducible from the workload rather than wall-clock time.
type StallWindow struct {
	// Node is the afflicted node.
	Node NodeID
	// AfterSends is the send-attempt count that triggers the window.
	AfterSends uint64
	// Duration delays the node's traffic (both directions) for this
	// long after the trigger. Ignored when Crash is set.
	Duration time.Duration
	// Crash kills the node's network permanently: every later message
	// to or from it is silently dropped (the fail-stop model — the
	// node's goroutines still run, but its NIC is gone).
	Crash bool
}

// PartitionWindow severs the network link between a pair of nodes for
// a window: transmissions From→To vanish while it is active, and so do
// To→From unless OneWay is set (the asymmetric case — From's frames
// are lost but From still hears To). Heartbeats are severed with the
// data traffic, so the phi-accrual detector convicts the unreachable
// side. The window triggers when node From has attempted its
// AfterSends-th send — reproducible from the workload, like
// StallWindow — or immediately at cluster construction when AfterSends
// is 0 (heartbeat-only tests have no sends to key on). It heals
// Duration after triggering; Duration 0 never heals (the permanent
// partition of conviction tests). Unlike crash/stall verdicts a
// partition is a property of the network, not of an endpoint, so
// Advance does NOT heal it: a restarted attempt inside the window keeps
// failing until the window expires, which is exactly the retry-until-
// heal convergence the supervisor must exhibit.
type PartitionWindow struct {
	// From and To are the endpoints of the severed link.
	From, To NodeID
	// AfterSends is From's send-attempt count that triggers the window;
	// 0 arms it immediately.
	AfterSends uint64
	// Duration is how long the window stays active after triggering;
	// 0 means it never heals.
	Duration time.Duration
	// OneWay limits the severing to the From→To direction.
	OneWay bool
}

// reliable reports whether the plan requires the ack/retransmit
// sublayer to preserve exactly-once delivery semantics. Corruption
// counts: a corrupt frame is a lost frame once CRCs reject it.
func (p *FaultPlan) reliable() bool {
	return p != nil && (p.Drop > 0 || p.Duplicate > 0 || p.Corrupt > 0)
}

// Reserved wire tags for the reliable sublayer's envelopes.
const (
	relDataTag = uint64(0xFE) << 56
	relAckTag  = uint64(0xFD) << 56
)

// relData wraps one logical message with its link sequence number. On
// the in-process backend it never crosses the gob boundary (the inner
// payload is already wire-encoded by the time it is wrapped); remote
// backends serialize it whole, hence the registration in init above
// (the binary codec encodes it natively, tag 0x0B).
type relData struct {
	Seq uint64
	Tag uint64
	// Ack piggybacks the sender's cumulative ack for the reverse link —
	// the highest sequence it has contiguously received from the peer
	// it is sending to — so request/reply traffic retires in-flight
	// windows without dedicated ack frames. Zero means "nothing to ack"
	// (link sequences start at 1). Retransmissions re-send the original
	// Ack; a stale value is harmless, cumulative acks are monotonic.
	Ack     uint64
	Payload any
}

// relLink is the sender-side state of one (from, to) reliable link.
type relLink struct {
	mu      sync.Mutex
	nextSeq uint64
	unacked map[uint64]*relPending
}

type relPending struct {
	msg Message
	ack chan struct{}
}

// relRecv is the receiver-side dedup/reorder state of one (to, from)
// link: out-of-sequence arrivals are held back so the logical stream
// the node observes is exactly the fault-free one (per-link FIFO).
type relRecv struct {
	mu sync.Mutex
	// contig is the highest sequence released so far; held buffers
	// arrivals above the first gap.
	contig uint64
	held   map[uint64]*Message
	// ackPending marks that contig advanced (or a dup arrived) and the
	// sender has not yet been acked: either a reverse-direction data
	// send piggybacks the ack first, or the delayed ack flush sends a
	// dedicated ack frame when the timer fires.
	ackPending bool
}

// release records seq's logical message and emits, in sequence order,
// every message that has become contiguously deliverable. It returns
// the post-release contiguous high-water mark (the cumulative ack
// value), whether the mark advanced, and whether seq was a duplicate.
// emit runs under the link lock so concurrent arrivals cannot
// interleave their release batches.
func (r *relRecv) release(seq uint64, msg Message, emit func(Message)) (contig uint64, advanced, dup bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if seq <= r.contig {
		return r.contig, false, true
	}
	if r.held == nil {
		r.held = make(map[uint64]*Message)
	}
	if _, have := r.held[seq]; have {
		return r.contig, false, true
	}
	r.held[seq] = &msg
	for {
		m, ok := r.held[r.contig+1]
		if !ok {
			return r.contig, advanced, false
		}
		delete(r.held, r.contig+1)
		r.contig++
		advanced = true
		emit(*m)
	}
}

// nodeFaultState tracks one node's send count and stall/crash status.
type nodeFaultState struct {
	mu         sync.Mutex
	sends      uint64
	crashed    bool
	stallUntil time.Time
	windows    []StallWindow // untriggered windows for this node
	parts      []*partition  // untriggered partition windows sourced here
}

// partition is one PartitionWindow's runtime state; triggered/until are
// guarded by faultState.partMu (windows are shared across links and
// read on every transmit).
type partition struct {
	w         PartitionWindow
	triggered bool
	until     time.Time // zero when the window never heals
}

// faultState is the per-cluster fault-injection engine.
type faultState struct {
	c        *Cluster
	plan     FaultPlan
	reliable bool
	// wireCorrupt is set when the transport injects real bit-flips
	// itself (WireCorrupter, the TCP backend); the in-process
	// corrupt-as-drop roll is then skipped so corruption is not applied
	// twice.
	wireCorrupt bool
	nodes       []*nodeFaultState
	// partMu guards every partition window's triggered/until state.
	partMu sync.Mutex
	parts  []*partition
	links  [][]*relLink // [from][to], reliable mode only
	recvs  [][]*relRecv // [to][from], reliable mode only
	// wires counts physical transmissions per (from, to) link; it
	// indexes the fault PRNG so decisions reproduce from the seed.
	wires [][]*atomic.Uint64
	// loops tracks live retransmit loops so revive can join them: a
	// stale loop must not retransmit dead-epoch traffic into a healed
	// transport.
	loops sync.WaitGroup
}

func newFaultState(c *Cluster, plan *FaultPlan) *faultState {
	f := &faultState{c: c, plan: *plan, reliable: plan.reliable()}
	if f.plan.ReorderDelay <= 0 {
		f.plan.ReorderDelay = time.Millisecond
	}
	if f.plan.RetransmitBase <= 0 {
		f.plan.RetransmitBase = time.Millisecond
	}
	if f.plan.RetransmitCap <= 0 {
		f.plan.RetransmitCap = 32 * time.Millisecond
	}
	if f.plan.AckDelay <= 0 {
		f.plan.AckDelay = f.plan.RetransmitBase / 4
	}
	n := len(c.nodes)
	f.nodes = make([]*nodeFaultState, n)
	for i := range f.nodes {
		ns := &nodeFaultState{}
		for _, w := range f.plan.Stalls {
			if w.Node == NodeID(i) {
				ns.windows = append(ns.windows, w)
			}
		}
		f.nodes[i] = ns
	}
	now := time.Now()
	for _, w := range f.plan.Partitions {
		p := &partition{w: w}
		if w.AfterSends == 0 {
			p.triggered = true
			if w.Duration > 0 {
				p.until = now.Add(w.Duration)
			}
		} else if int(w.From) >= 0 && int(w.From) < n {
			f.nodes[w.From].parts = append(f.nodes[w.From].parts, p)
		}
		f.parts = append(f.parts, p)
	}
	f.wires = make([][]*atomic.Uint64, n)
	for i := range f.wires {
		f.wires[i] = make([]*atomic.Uint64, n)
		for j := range f.wires[i] {
			f.wires[i][j] = &atomic.Uint64{}
		}
	}
	if f.reliable {
		f.links = make([][]*relLink, n)
		f.recvs = make([][]*relRecv, n)
		for i := 0; i < n; i++ {
			f.links[i] = make([]*relLink, n)
			f.recvs[i] = make([]*relRecv, n)
			for j := 0; j < n; j++ {
				f.links[i][j] = &relLink{unacked: make(map[uint64]*relPending)}
				f.recvs[i][j] = &relRecv{}
			}
		}
	}
	return f
}

// splitmix64 is the finalizer of Vigna's SplitMix64 — a cheap, strong
// bit mixer used here as a counter-based PRNG (same construction as
// the Philox stream in internal/rng, minimized for the transport).
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// roll returns a uniform float in [0, 1) for fault decision `salt` of
// transmission `seq` on link from→to. Pure in its arguments.
func (f *faultState) roll(from, to NodeID, seq, salt uint64) float64 {
	x := splitmix64(f.plan.Seed ^ uint64(from)<<48 ^ uint64(to)<<32 ^ seq<<4 ^ salt)
	return float64(x>>11) / (1 << 53)
}

// senderGate applies the sender's stall/crash window; it returns the
// extra delay to impose and whether the message is swallowed.
func (f *faultState) senderGate(from NodeID) (extra time.Duration, dead bool) {
	ns := f.nodes[from]
	ns.mu.Lock()
	defer ns.mu.Unlock()
	ns.sends++
	kept := ns.windows[:0]
	for _, w := range ns.windows {
		if ns.sends >= w.AfterSends {
			if w.Crash {
				ns.crashed = true
			} else if until := time.Now().Add(w.Duration); until.After(ns.stallUntil) {
				ns.stallUntil = until
			}
			f.c.stalled.Add(1)
		} else {
			kept = append(kept, w)
		}
	}
	ns.windows = kept
	if len(ns.parts) > 0 {
		keptP := ns.parts[:0]
		for _, p := range ns.parts {
			if ns.sends >= p.w.AfterSends {
				f.triggerPartition(p)
			} else {
				keptP = append(keptP, p)
			}
		}
		ns.parts = keptP
	}
	if ns.crashed {
		return 0, true
	}
	if d := time.Until(ns.stallUntil); d > 0 {
		extra = d
	}
	return extra, false
}

// triggerPartition arms one partition window, starting its heal clock.
func (f *faultState) triggerPartition(p *partition) {
	f.partMu.Lock()
	if !p.triggered {
		p.triggered = true
		if p.w.Duration > 0 {
			p.until = time.Now().Add(p.w.Duration)
		}
	}
	f.partMu.Unlock()
}

// partitioned reports whether the from→to link is severed right now by
// any active partition window.
func (f *faultState) partitioned(from, to NodeID) bool {
	if len(f.parts) == 0 {
		return false
	}
	f.partMu.Lock()
	defer f.partMu.Unlock()
	now := time.Now()
	for _, p := range f.parts {
		if !p.triggered {
			continue
		}
		if !p.until.IsZero() && now.After(p.until) {
			continue
		}
		if (p.w.From == from && p.w.To == to) ||
			(!p.w.OneWay && p.w.From == to && p.w.To == from) {
			return true
		}
	}
	return false
}

// revive re-admits crashed/stalled endpoints into a new transport
// epoch: crash and stall verdicts are cleared (the node's "NIC" is
// plugged back in) and the reliable sublayer's per-link sequencing is
// reset, since the links start from scratch — pre-revive sequence state
// would otherwise make the receivers discard the new epoch's traffic
// as duplicates. Untriggered stall windows and the per-link wire
// counters (which key the fault PRNG) are preserved, so the fault
// schedule stays reproducible across the revival. Partition windows
// are deliberately untouched in both directions: a partition is a
// property of the network, not of an endpoint, so a revival inside the
// window stays partitioned until the window's own heal clock expires.
func (f *faultState) revive() {
	for _, ns := range f.nodes {
		ns.mu.Lock()
		ns.crashed = false
		ns.stallUntil = time.Time{}
		ns.mu.Unlock()
	}
	n := len(f.c.nodes)
	if f.reliable {
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				f.links[i][j] = &relLink{unacked: make(map[uint64]*relPending)}
				f.recvs[i][j] = &relRecv{}
			}
		}
	}
}

// crashedNode reports whether a node's network is permanently dead.
func (f *faultState) crashedNode(id NodeID) bool {
	ns := f.nodes[id]
	ns.mu.Lock()
	defer ns.mu.Unlock()
	return ns.crashed
}

// send is the faulty counterpart of the direct delivery path: it
// applies the sender's stall/crash gate, then either hands the message
// to the reliable sublayer or transmits it raw.
func (f *faultState) send(msg Message) error {
	extra, dead := f.senderGate(msg.From)
	if dead {
		f.c.dropped.Add(1)
		return nil // fail-stop: the send "succeeds" into the void
	}
	if !f.reliable {
		f.transmit(msg, extra)
		return nil
	}
	// Piggyback the reverse link's pending cumulative ack on this data
	// send, cancelling the delayed dedicated ack it replaces.
	ack := f.takeAck(msg.From, msg.To)
	l := f.links[msg.From][msg.To]
	l.mu.Lock()
	l.nextSeq++
	seq := l.nextSeq
	wire := Message{From: msg.From, To: msg.To, Tag: relDataTag,
		Payload: relData{Seq: seq, Tag: msg.Tag, Ack: ack, Payload: msg.Payload}}
	p := &relPending{msg: wire, ack: make(chan struct{})}
	l.unacked[seq] = p
	l.mu.Unlock()
	f.transmit(wire, extra)
	f.c.wg.Add(1)
	f.loops.Add(1)
	go f.retransmitLoop(l, p)
	return nil
}

// lossAccounter is implemented by backends that model the physical
// wire in-process (MemTransport): transmissions the fault layer
// vaporizes never reach Transport.Send, but on a real network the
// sender's NIC counts them out before the wire loses them — the
// accounting hook keeps the in-process backend's WireStats faithful
// to that asymmetry. Backends with a real wire (TCP) never see these
// frames and correctly count nothing.
type lossAccounter interface {
	accountLoss(bytes uint64)
}

// accountLoss charges one vaporized transmission to the backend's
// outbound counters, sized exactly as transmit would have framed it.
func (f *faultState) accountLoss(msg Message) {
	la, ok := f.c.tr.(lossAccounter)
	if !ok {
		return
	}
	hint := msg.wireLen
	if hint == 0 && msg.Payload != nil {
		hint = payloadSizeHint(msg.Payload)
	}
	la.accountLoss(wireSize(&Frame{Kind: frameData, Hint: hint}))
}

// transmit is one physical transmission attempt: it rolls the drop,
// jitter, reorder, and duplication faults and schedules delivery.
func (f *faultState) transmit(msg Message, extra time.Duration) {
	if f.crashedNode(msg.To) || f.crashedNode(msg.From) {
		f.c.dropped.Add(1)
		f.accountLoss(msg)
		return
	}
	if f.partitioned(msg.From, msg.To) {
		f.c.partitionDrops.Add(1)
		f.accountLoss(msg)
		return
	}
	linkSeq := f.wires[msg.From][msg.To].Add(1)
	if f.plan.Drop > 0 && f.roll(msg.From, msg.To, linkSeq, 0) < f.plan.Drop {
		f.c.dropped.Add(1)
		f.accountLoss(msg)
		return
	}
	if f.plan.Corrupt > 0 && !f.wireCorrupt &&
		f.roll(msg.From, msg.To, linkSeq, 4) < f.plan.Corrupt {
		// In-process frames carry no encoded bytes to flip, so inject
		// what a CRC-verifying receiver would observe for a flipped
		// payload: the frame vanishes. (The TCP backend flips real bits
		// instead — wireCorrupt — and its receiver's CRCs do the rest.)
		f.c.corrupted.Add(1)
		f.accountLoss(msg)
		return
	}
	d := f.c.cfg.Latency + extra
	if f.plan.JitterMax > 0 {
		d += time.Duration(f.roll(msg.From, msg.To, linkSeq, 1) * float64(f.plan.JitterMax))
		f.c.jittered.Add(1)
	}
	if f.plan.Reorder > 0 && f.roll(msg.From, msg.To, linkSeq, 2) < f.plan.Reorder {
		d += f.plan.ReorderDelay
		f.c.reordered.Add(1)
	}
	f.c.deliverAfter(msg, d)
	if f.plan.Duplicate > 0 && f.roll(msg.From, msg.To, linkSeq, 3) < f.plan.Duplicate {
		f.c.duplicated.Add(1)
		f.c.deliverAfter(msg, d+f.plan.ReorderDelay/2)
	}
}

// retransmitLoop re-sends one unacked message with capped exponential
// backoff until it is acked, the cluster stops, or the node crashes.
func (f *faultState) retransmitLoop(l *relLink, p *relPending) {
	defer f.c.wg.Done()
	defer f.loops.Done()
	backoff := f.plan.RetransmitBase
	timer := time.NewTimer(backoff)
	defer timer.Stop()
	// Capture this epoch's stop channel: after an epoch reset it is
	// the closed one of the epoch this loop belongs to, so the loop
	// exits instead of retransmitting stale traffic into the new epoch.
	stop := f.c.stopChan()
	for {
		select {
		case <-p.ack:
			return
		case <-stop:
			return
		case <-timer.C:
			// select picks randomly among ready cases; re-check stop so
			// a stopped loop never wins the race and retransmits.
			select {
			case <-stop:
				return
			default:
			}
			if f.crashedNode(p.msg.To) || f.crashedNode(p.msg.From) {
				return
			}
			f.c.retransmits.Add(1)
			f.transmit(p.msg, 0)
			backoff *= 2
			if backoff > f.plan.RetransmitCap {
				backoff = f.plan.RetransmitCap
			}
			timer.Reset(backoff)
		}
	}
}

// drain blocks until every reliable link sourced at a locally hosted
// node has no unacked in-flight messages, or until timeout; it reports
// whether the links emptied. Links to crashed or currently-partitioned
// peers are excluded — those can only retire after a recovery, which is
// the supervisor's job, not a graceful close's. Called before the stop
// channel closes so the retransmit loops doing the repairing are still
// alive.
func (f *faultState) drain(timeout time.Duration) bool {
	if !f.reliable {
		return true
	}
	deadline := time.Now().Add(timeout)
	for {
		n := 0
		for from, row := range f.links {
			if !f.c.local[from] || f.crashedNode(NodeID(from)) {
				continue
			}
			for to, l := range row {
				if f.crashedNode(NodeID(to)) || f.partitioned(NodeID(from), NodeID(to)) {
					continue
				}
				l.mu.Lock()
				n += len(l.unacked)
				l.mu.Unlock()
			}
		}
		if n == 0 {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
}

// takeAck claims the pending cumulative ack of the (at, peer) reverse
// link for piggybacking: it returns at's contiguous high-water mark for
// traffic from peer and clears the pending flag, so the delayed
// dedicated ack (if armed) finds nothing to do when its timer fires.
func (f *faultState) takeAck(at, peer NodeID) uint64 {
	r := f.recvs[at][peer]
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.ackPending {
		return 0
	}
	r.ackPending = false
	f.c.piggyAcks.Add(1)
	return r.contig
}

// retire applies a cumulative ack — dedicated or piggybacked — for
// messages `sender` sent to `receiver`, retiring every in-flight
// message with sequence <= high.
func (f *faultState) retire(sender, receiver NodeID, high uint64) {
	if high == 0 {
		return
	}
	l := f.links[sender][receiver]
	l.mu.Lock()
	var retired []*relPending
	for seq, p := range l.unacked {
		if seq <= high {
			delete(l.unacked, seq)
			retired = append(retired, p)
		}
	}
	l.mu.Unlock()
	if len(retired) > 0 {
		f.c.acks.Add(1)
		f.c.ackRetired.Add(uint64(len(retired)))
		for _, p := range retired {
			close(p.ack)
		}
	}
}

// scheduleAck marks the (to, from) link's cumulative ack pending and
// arms the delayed flush: if no reverse-direction data send piggybacks
// the ack within AckDelay, a dedicated ack frame goes out. The delay
// is below the sender's retransmit backoff, so holding the ack back
// never triggers a spurious retransmission; epoch and interrupt checks
// keep a timer armed in a dead epoch from minting traffic into a
// healed transport (the same guards deliverAfter applies).
func (f *faultState) scheduleAck(to, from NodeID) {
	r := f.recvs[to][from]
	r.mu.Lock()
	armed := r.ackPending
	r.ackPending = true
	r.mu.Unlock()
	if armed {
		return // an earlier flush timer is already running
	}
	c := f.c
	epoch := c.epoch.Load()
	c.wg.Add(1)
	time.AfterFunc(f.plan.AckDelay, func() {
		defer c.wg.Done()
		if c.closed.Load() || c.Err() != nil || c.epoch.Load() != epoch {
			return
		}
		r.mu.Lock()
		pending := r.ackPending
		r.ackPending = false
		contig := r.contig
		r.mu.Unlock()
		if pending {
			f.transmit(Message{From: to, To: from, Tag: relAckTag, Payload: contig}, 0)
		}
	})
}

// intercept handles reliable-sublayer envelopes on the receive path,
// invoking release (possibly several times, in per-link sequence
// order) for each logical message that becomes deliverable.
func (f *faultState) intercept(msg Message, release func(Message)) {
	switch msg.Tag {
	case relAckTag:
		// Cumulative ack for messages this node sent earlier: From is
		// the original receiver, To the original sender, the payload the
		// highest contiguous sequence the receiver has released. Retire
		// the whole acked window at once.
		f.retire(msg.To, msg.From, msg.Payload.(uint64))
	case relDataTag:
		d := msg.Payload.(relData)
		// The envelope's piggybacked ack covers the reverse direction:
		// messages this node (msg.To) sent to msg.From.
		f.retire(msg.To, msg.From, d.Ack)
		logical := Message{From: msg.From, To: msg.To, Tag: d.Tag, Payload: d.Payload}
		_, advanced, dup := f.recvs[msg.To][msg.From].release(d.Seq, logical, release)
		if dup {
			f.c.dupDelivered.Add(1)
		}
		// Ack when the contiguous mark advanced (possibly covering a
		// batch of held messages) and on duplicates, since the ack that
		// retired the original may itself have been lost. A first-time
		// out-of-order arrival stays silent: the ack it needs is the one
		// the gap-filling retransmission will trigger. The ack is not
		// sent eagerly: it sits pending for AckDelay so a reply headed
		// the other way can carry it for free.
		if advanced || dup {
			f.scheduleAck(msg.To, msg.From)
		}
	default:
		release(msg)
	}
}
