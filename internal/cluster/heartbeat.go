package cluster

// Heartbeat failure detection. A started detector makes every node emit
// a lightweight beat to every peer on a fixed interval and accrues a
// phi suspicion level per (observer, peer) pair from the inter-arrival
// history (Hayashibara et al.'s phi-accrual detector, with an
// exponential inter-arrival model: phi = age / (mean · ln 10), i.e. the
// -log10 probability that a live peer would stay silent this long).
// When a majority of a peer's observers cross the threshold the
// detector declares the peer down exactly once, so a crashed shard is
// discovered in O(heartbeat interval) instead of the deadlock
// watchdog's global stall deadline.
//
// Beats deliberately bypass the normal Send path: they do not count in
// Stats.Messages (the watchdog's progress sum must freeze when real
// work freezes), do not pass the sender's send-count gate (StallWindow
// triggers stay keyed to workload sends), and do not advance the
// per-link wire counters that index the fault PRNG (the seeded fault
// schedule must be identical with detection on or off). They do respect
// crash and stall verdicts — a crashed node's beats vanish in both
// directions, which is precisely the silence the detector listens for.

import (
	"fmt"
	"math"
	"sync"
	"time"
)

// hbTag is the reserved wire tag for heartbeat beats.
const hbTag = uint64(0xFC) << 56

// ShardDownError reports a peer declared dead by the heartbeat failure
// detector: a majority of its observers accrued suspicion phi above the
// configured threshold.
type ShardDownError struct {
	// Shard is the node declared down.
	Shard NodeID
	// LastSeen is the most recent beat any observer received from it.
	LastSeen time.Time
	// Phi is the maximum suspicion level among the voting observers at
	// declaration time.
	Phi float64
}

func (e *ShardDownError) Error() string {
	return fmt.Sprintf("cluster: shard %d down (phi %.1f, last heartbeat %s ago)",
		e.Shard, e.Phi, time.Since(e.LastSeen).Round(time.Millisecond))
}

// HeartbeatOptions tunes the failure detector.
type HeartbeatOptions struct {
	// Every is the beat interval (default 2ms).
	Every time.Duration
	// PhiThreshold is the suspicion level at which an observer votes a
	// peer down (default 8 ≈ "one in 10^8 that it is merely slow").
	PhiThreshold float64
	// MinSamples is how many inter-arrival samples an observer needs
	// before its vote counts, so startup jitter cannot convict anyone
	// (default 4).
	MinSamples int
}

func (o HeartbeatOptions) withDefaults() HeartbeatOptions {
	if o.Every <= 0 {
		o.Every = 2 * time.Millisecond
	}
	if o.PhiThreshold <= 0 {
		o.PhiThreshold = 8
	}
	if o.MinSamples <= 0 {
		o.MinSamples = 4
	}
	return o
}

// hbObserver is one observer's view of one peer.
type hbObserver struct {
	last    time.Time
	meanNs  float64 // EWMA of inter-arrival time
	samples int
}

// hbState is one detector incarnation; StartHeartbeats installs a fresh
// one, stop() tears it down, so suspicion never leaks across runtime
// attempts.
type hbState struct {
	c         *Cluster
	opts      HeartbeatOptions
	onSuspect func(*ShardDownError)
	started   time.Time
	// grace delays suspicion of never-heard peers: see phi.
	grace time.Duration
	// epoch is the transport epoch this detector was started in; every
	// beat it emits is pinned to it, and Node.deliver only feeds it
	// beats from the same epoch. A detector that outlives an Advance
	// (stopped a beat later by the unwinding attempt) can therefore
	// neither mint fresh-looking beats into the new epoch nor consume
	// the new epoch's beats into stale arrival histories.
	epoch uint64

	mu        sync.Mutex
	obs       [][]*hbObserver // [observer][peer]
	suspected []bool

	stopCh   chan struct{}
	done     chan struct{}
	stopOnce sync.Once
}

// StartHeartbeats starts the failure detector: every node beats every
// peer each opts.Every, and when a majority of a peer's observers
// accrue phi above opts.PhiThreshold, onSuspect fires exactly once for
// that peer (from the detector goroutine; it may block briefly but must
// not call back into StartHeartbeats). The returned stop function tears
// the detector down and is idempotent. Single-node clusters get a no-op
// detector: there are no peers to observe.
func (c *Cluster) StartHeartbeats(opts HeartbeatOptions, onSuspect func(*ShardDownError)) (stop func()) {
	opts = opts.withDefaults()
	hb := &hbState{
		c:         c,
		opts:      opts,
		onSuspect: onSuspect,
		started:   time.Now(),
		// Three extra conviction horizons of startup grace for peers
		// never heard from (the horizon is the silence that drives phi
		// to the threshold: threshold · interval · ln 10).
		grace:     3 * time.Duration(opts.PhiThreshold*float64(opts.Every)*math.Ln10),
		epoch:     c.epoch.Load(),
		suspected: make([]bool, len(c.nodes)),
		stopCh:    make(chan struct{}),
		done:      make(chan struct{}),
	}
	n := len(c.nodes)
	hb.obs = make([][]*hbObserver, n)
	for i := range hb.obs {
		hb.obs[i] = make([]*hbObserver, n)
		for j := range hb.obs[i] {
			hb.obs[i][j] = &hbObserver{}
		}
	}
	stop = func() {
		hb.stopOnce.Do(func() {
			close(hb.stopCh)
			<-hb.done
			c.hb.CompareAndSwap(hb, nil)
		})
	}
	if n == 1 {
		close(hb.done)
		return stop
	}
	c.hb.Store(hb)
	go hb.run()
	return stop
}

// LastSeen reports the most recent heartbeat any observer received from
// id. ok is false when no detector is running or no beat has arrived.
func (c *Cluster) LastSeen(id NodeID) (t time.Time, ok bool) {
	hb := c.hb.Load()
	if hb == nil {
		return time.Time{}, false
	}
	return hb.lastSeen(id)
}

func (hb *hbState) lastSeen(id NodeID) (t time.Time, ok bool) {
	hb.mu.Lock()
	defer hb.mu.Unlock()
	for o := range hb.obs {
		if NodeID(o) == id {
			continue
		}
		ob := hb.obs[o][id]
		if !ob.last.IsZero() && ob.last.After(t) {
			t, ok = ob.last, true
		}
	}
	return t, ok
}

// run is the detector goroutine: each tick it emits the full beat
// matrix, then re-evaluates every peer's suspicion vote.
func (hb *hbState) run() {
	defer close(hb.done)
	tick := time.NewTicker(hb.opts.Every)
	defer tick.Stop()
	for {
		select {
		case <-hb.stopCh:
			return
		case <-tick.C:
			if hb.c.closed.Load() || hb.c.Err() != nil {
				// Poisoned or closing transport: the run is already
				// unwinding, declaring more nodes down is noise.
				continue
			}
			if hb.c.epoch.Load() != hb.epoch {
				// The cluster moved to a newer epoch (a peer revived past
				// this detector's attempt). The detector is deaf by
				// construction — its beats are dropped by the epoch gate
				// and fresh beats no longer feed it — so its silence
				// evidence is meaningless: convicting on it would declare
				// healthy peers down and interrupt their new epoch.
				continue
			}
			hb.beat()
			hb.evaluate()
		}
	}
}

// beat emits one beat from every *local* node to every peer, skipping
// endpoints whose network is crashed or inside a stall window — their
// silence is the signal. Remote nodes' beats are emitted by their own
// process's detector and arrive through the transport. Beats ride
// deliverAfter directly (see package comment for why they must bypass
// Send and the fault PRNG).
func (hb *hbState) beat() {
	c := hb.c
	for _, from := range c.locals {
		if c.faults != nil && !c.faults.hbLive(from) {
			continue
		}
		for j := range c.nodes {
			to := NodeID(j)
			if from == to {
				continue
			}
			if c.faults != nil && !c.faults.hbLive(to) {
				continue
			}
			// Partitions sever heartbeats along with data traffic: the
			// detector on the far side stops hearing from us and convicts.
			if c.faults != nil && c.faults.partitioned(from, to) {
				continue
			}
			c.deliverAfter(Message{From: from, To: to, Tag: hbTag, epoch: hb.epoch, epochPin: true}, c.cfg.Latency)
		}
	}
}

// observe records a beat's arrival at the observer; called from the
// delivery path (Node.deliver intercepts hbTag).
func (hb *hbState) observe(from, at NodeID) {
	now := time.Now()
	hb.c.heartbeats.Add(1)
	hb.mu.Lock()
	ob := hb.obs[at][from]
	if !ob.last.IsZero() {
		iv := float64(now.Sub(ob.last))
		if ob.samples == 0 {
			ob.meanNs = iv
		} else {
			ob.meanNs = 0.9*ob.meanNs + 0.1*iv
		}
		ob.samples++
	}
	ob.last = now
	hb.mu.Unlock()
}

// phi is the suspicion level the observer holds about the peer at time
// now: -log10 of the probability a live peer stays silent for the
// current gap, under an exponential inter-arrival model. An observer
// with no (or not yet MinSamples of) inter-arrival history assumes the
// configured interval as its mean, so a peer that crashes right at
// startup is still convictable; the mean is floored at the interval so
// a burst of fast beats can never sharpen suspicion below nominal.
//
// A peer this observer has never heard from gets a startup grace of a
// few conviction horizons before suspicion starts accruing: on a
// multi-process cluster, peers enter a resumed attempt with real skew
// (abort unwind, backoff, checkpoint spill, the restart-scope
// exchange), and a detector armed early must not convict a peer that
// is merely still arriving. A genuinely dead newcomer is still
// convicted, just a few horizons later.
func (hb *hbState) phi(ob *hbObserver, now time.Time) float64 {
	last, mean := ob.last, ob.meanNs
	if ob.last.IsZero() {
		last = hb.started.Add(hb.grace)
	}
	if ob.samples < hb.opts.MinSamples {
		mean = float64(hb.opts.Every)
	}
	if floor := float64(hb.opts.Every); mean < floor {
		mean = floor
	}
	age := float64(now.Sub(last))
	if age <= 0 {
		return 0
	}
	return age / (mean * math.Ln10)
}

// evaluate takes the majority vote for every not-yet-suspected peer
// and fires onSuspect for each newly convicted one. Only this
// process's local nodes observe (each process convicts from its own
// vantage; on an in-process cluster that is every node, preserving the
// original all-observer vote).
func (hb *hbState) evaluate() {
	now := time.Now()
	var down []*ShardDownError
	hb.mu.Lock()
	n := len(hb.obs)
	for p := 0; p < n; p++ {
		if hb.suspected[p] {
			continue
		}
		votes, observers, maxPhi := 0, 0, 0.0
		var lastSeen time.Time
		for _, oid := range hb.c.locals {
			o := int(oid)
			if o == p {
				continue
			}
			observers++
			ob := hb.obs[o][p]
			if ob.last.After(lastSeen) {
				lastSeen = ob.last
			}
			ph := hb.phi(ob, now)
			if ph > hb.opts.PhiThreshold {
				votes++
				if ph > maxPhi {
					maxPhi = ph
				}
			}
		}
		// Conviction takes a majority of the peer's observers.
		if observers > 0 && votes*2 > observers {
			hb.suspected[p] = true
			if lastSeen.IsZero() {
				lastSeen = hb.started
			}
			down = append(down, &ShardDownError{Shard: NodeID(p), LastSeen: lastSeen, Phi: maxPhi})
		}
	}
	hb.mu.Unlock()
	for _, e := range down {
		if hb.onSuspect != nil {
			hb.onSuspect(e)
		}
	}
}

// hbLive reports whether a node's network can carry beats right now:
// not crashed and not inside a stall window. Unlike senderGate it
// mutates nothing — heartbeats must not advance the send counts that
// trigger StallWindows.
func (f *faultState) hbLive(id NodeID) bool {
	ns := f.nodes[id]
	ns.mu.Lock()
	defer ns.mu.Unlock()
	return !ns.crashed && !time.Now().Before(ns.stallUntil)
}
