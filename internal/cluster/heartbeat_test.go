package cluster

import (
	"errors"
	"testing"
	"time"
)

// TestHeartbeatDetectsCrash: once a node's network crashes, a majority
// of its peers must accrue suspicion and the detector must declare
// exactly that node down, in O(heartbeat interval) rather than a
// watchdog deadline.
func TestHeartbeatDetectsCrash(t *testing.T) {
	c := New(Config{Nodes: 4, Faults: &FaultPlan{
		Stalls: []StallWindow{{Node: 2, AfterSends: 1, Crash: true}},
	}})
	defer c.Close()

	down := make(chan *ShardDownError, 4)
	stop := c.StartHeartbeats(HeartbeatOptions{
		Every:        2 * time.Millisecond,
		PhiThreshold: 6,
		MinSamples:   2,
	}, func(e *ShardDownError) { down <- e })
	defer stop()

	// Let every observer build inter-arrival history, then trigger the
	// crash with node 2's first workload send.
	time.Sleep(20 * time.Millisecond)
	c.Node(2).Send(0, 1, "last words")

	select {
	case e := <-down:
		if e.Shard != 2 {
			t.Fatalf("detector convicted shard %d, want 2 (%v)", e.Shard, e)
		}
		if e.Phi <= 6 {
			t.Fatalf("conviction below threshold: phi %v", e.Phi)
		}
		if e.LastSeen.IsZero() {
			t.Fatal("conviction carries no LastSeen")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("crashed shard never declared down")
	}
	// Exactly once, and nobody else.
	select {
	case e := <-down:
		t.Fatalf("spurious second conviction: %v", e)
	case <-time.After(20 * time.Millisecond):
	}
	if c.Stats().Heartbeats == 0 {
		t.Fatal("Stats.Heartbeats == 0 with a running detector")
	}
}

// TestHeartbeatHealthyClusterStaysQuiet: with all nodes alive, no
// suspicion may ever fire, and LastSeen must track arrivals.
func TestHeartbeatHealthyClusterStaysQuiet(t *testing.T) {
	c := New(Config{Nodes: 3})
	defer c.Close()

	down := make(chan *ShardDownError, 3)
	stop := c.StartHeartbeats(HeartbeatOptions{
		Every: 2 * time.Millisecond,
		// Generous threshold: a loaded CI scheduler must not convict a
		// live node.
		PhiThreshold: 50,
	}, func(e *ShardDownError) { down <- e })

	time.Sleep(60 * time.Millisecond)
	for id := NodeID(0); id < 3; id++ {
		if _, ok := c.LastSeen(id); !ok {
			t.Fatalf("no heartbeat heard from live node %d", id)
		}
	}
	stop()
	stop() // idempotent

	select {
	case e := <-down:
		t.Fatalf("healthy cluster convicted a node: %v", e)
	default:
	}
	if _, ok := c.LastSeen(0); ok {
		t.Fatal("LastSeen reports a beat after the detector stopped")
	}
}

// TestHeartbeatDoesNotPerturbWorkloadCounters: beats must not count as
// messages, advance the fault PRNG, or trip send-count stall triggers —
// the seeded fault schedule must be identical with detection on or off.
func TestHeartbeatDoesNotPerturbWorkloadCounters(t *testing.T) {
	run := func(detect bool) (dropped, messages uint64) {
		c := New(Config{Nodes: 2, Faults: &FaultPlan{
			Seed: 11, Drop: 0.2,
			RetransmitBase: time.Hour, RetransmitCap: time.Hour,
		}})
		defer c.Close()
		if detect {
			stop := c.StartHeartbeats(HeartbeatOptions{Every: time.Millisecond, PhiThreshold: 100}, nil)
			defer stop()
			time.Sleep(10 * time.Millisecond) // let beats flow
		}
		for i := 0; i < 100; i++ {
			c.Node(0).Send(1, 1, i)
		}
		st := c.Stats()
		return st.Dropped, st.Messages
	}
	dOff, mOff := run(false)
	dOn, mOn := run(true)
	if dOff != dOn {
		t.Fatalf("heartbeats changed the seeded drop schedule: %d vs %d", dOff, dOn)
	}
	if mOff != mOn {
		t.Fatalf("heartbeats counted as workload messages: %d vs %d", mOff, mOn)
	}
}

// TestHeartbeatSingleNodeNoop: a single-node cluster has no peers to
// observe; the detector must be a no-op with an idempotent stop.
func TestHeartbeatSingleNodeNoop(t *testing.T) {
	c := New(Config{Nodes: 1})
	defer c.Close()
	stop := c.StartHeartbeats(HeartbeatOptions{}, func(e *ShardDownError) {
		t.Errorf("single-node detector fired: %v", e)
	})
	time.Sleep(10 * time.Millisecond)
	stop()
	if c.Stats().Heartbeats != 0 {
		t.Fatal("single-node detector emitted beats")
	}
}

// TestPartitionConvictionDeterministic: a one-way partition that cuts a
// node's outbound links (its beats vanish, but it still hears everyone)
// must convict exactly the partitioned shard — the detector sees silence
// from it at a majority of observers, not vice versa. Repeated trials
// pin the conviction's determinism: always shard 3, never a bystander.
func TestPartitionConvictionDeterministic(t *testing.T) {
	for trial := 0; trial < 3; trial++ {
		c := New(Config{Nodes: 4, Faults: &FaultPlan{
			Partitions: []PartitionWindow{
				{From: 3, To: 0, AfterSends: 1, OneWay: true},
				{From: 3, To: 1, AfterSends: 1, OneWay: true},
				{From: 3, To: 2, AfterSends: 1, OneWay: true},
			},
		}})

		down := make(chan *ShardDownError, 4)
		stop := c.StartHeartbeats(HeartbeatOptions{
			Every:        2 * time.Millisecond,
			PhiThreshold: 6,
			MinSamples:   2,
		}, func(e *ShardDownError) { down <- e })

		// Build arrival history, then let node 3's first workload send arm
		// all three windows at once: its beats stop reaching anyone, while
		// everyone else's beats still reach node 3.
		time.Sleep(20 * time.Millisecond)
		c.Node(3).Send(0, 1, "armed")

		select {
		case e := <-down:
			if e.Shard != 3 {
				t.Fatalf("trial %d: convicted shard %d, want partitioned shard 3 (%v)", trial, e.Shard, e)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("trial %d: partitioned shard never declared down", trial)
		}
		// No bystander convictions: nodes 0-2 keep beating and keep being
		// heard by each other (and by node 3 on its intact inbound links).
		select {
		case e := <-down:
			t.Fatalf("trial %d: spurious second conviction: %v", trial, e)
		case <-time.After(20 * time.Millisecond):
		}
		stop()
		c.Close()
	}
}

// TestHeartbeatStaleEpochDropped is the regression for epoch-unaware
// beats: a revive under in-flight heartbeats must not let the dead
// epoch's detector keep refreshing liveness. Two holes are closed —
// the sender pins each beat to its detector's epoch (so a detector
// that outlives the revive cannot mint fresh-looking beats into the
// new epoch), and the receiver only feeds a beat to the detector of
// the epoch it was beaten in.
func TestHeartbeatStaleEpochDropped(t *testing.T) {
	c := New(Config{Nodes: 2})
	defer c.Close()
	stop := c.StartHeartbeats(HeartbeatOptions{Every: time.Millisecond}, nil)
	defer stop()

	// Let beats flow in epoch 0.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, ok := c.LastSeen(0); ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no heartbeat ever observed")
		}
		time.Sleep(time.Millisecond)
	}

	// Advance into epoch 1 while the epoch-0 detector keeps beating.
	c.Interrupt(errors.New("shard down"))
	if _, err := c.Advance(0); err != nil {
		t.Fatalf("Advance: %v", err)
	}
	t1, _ := c.LastSeen(0)
	time.Sleep(20 * time.Millisecond) // ~20 beat intervals in the dead epoch
	t2, _ := c.LastSeen(0)
	if t2.After(t1) {
		t.Fatalf("dead-epoch beats still refresh liveness after the revive (last seen advanced %v)", t2.Sub(t1))
	}

	// Receive-side check: a current-epoch heartbeat frame must not feed
	// a stale detector's arrival history either.
	c.Deliver(&Frame{Kind: frameData, Epoch: c.Epoch(), Tag: hbTag, From: 0, To: 1})
	t3, _ := c.LastSeen(0)
	if t3.After(t2) {
		t.Fatal("stale detector observed a beat from the new epoch")
	}
}
