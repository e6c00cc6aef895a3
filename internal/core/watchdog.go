package core

import (
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"godcr/internal/cluster"
)

// The deadlock watchdog. A replicated runtime deadlocks silently when
// one shard stops participating in a collective every other shard has
// entered — a crashed node, a divergent shard that stopped issuing
// collectives, a lost message no reliability layer recovered. With
// Config.OpDeadline set, a watchdog goroutine samples a cluster-wide
// progress sum; if it is frozen for a full deadline while at least one
// node has been blocked in a receive that long, the watchdog aborts
// the run with a *StallError naming, per shard, how far its pipeline
// got and which protocol it is stuck inside.

// ShardProgress is one shard's slice of a StallError snapshot.
type ShardProgress struct {
	// Shard is the shard id.
	Shard int
	// APICalls is the last API-call sequence the app thread issued.
	APICalls uint64
	// CoarseSeq / FineSeq are the last op seqs each analysis stage
	// admitted; a shard whose FineSeq trails its peers' names the
	// pipeline stage that wedged.
	CoarseSeq uint64
	FineSeq   uint64
	// Blocked reports whether the shard's node is blocked in a
	// receive or its tasks on an unanswered pull batch; BlockedOn names
	// the protocol (fence barrier, determinism check, pull, …) and
	// BlockedFor how long.
	Blocked    bool
	BlockedOn  string
	BlockedFor time.Duration
	// HeartbeatAge is how long ago any peer last heard a heartbeat from
	// this shard (0 when the failure detector is not running). It
	// separates "slow" (recent beats, wedged pipeline) from "dead" (no
	// beats at all) in stall reports.
	HeartbeatAge time.Duration
}

// StallError is the structured diagnosis the watchdog aborts with.
type StallError struct {
	// Deadline is the configured OpDeadline that expired.
	Deadline time.Duration
	// Shards holds one progress snapshot per shard.
	Shards []ShardProgress
	// Checkpoint, when Config.Journal is enabled, snapshots the
	// replayable control state at the stall: pass it to Runtime.Resume
	// to restart the run on a healed transport. Nil when the journal is
	// disabled.
	Checkpoint *Checkpoint
}

func (e *StallError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "core: no cross-shard progress for %v (deadlock watchdog)", e.Deadline)
	if e.Checkpoint != nil {
		fmt.Fprintf(&b, "; checkpoint at op %d available for Resume", e.Checkpoint.Frontier)
	}
	for _, s := range e.Shards {
		fmt.Fprintf(&b, "; shard %d: api=%d coarse=%d fine=%d", s.Shard, s.APICalls, s.CoarseSeq, s.FineSeq)
		if s.Blocked {
			fmt.Fprintf(&b, ", blocked %v in %s", s.BlockedFor.Round(time.Millisecond), s.BlockedOn)
		}
		if s.HeartbeatAge > 0 {
			fmt.Fprintf(&b, ", last heartbeat %v ago", s.HeartbeatAge.Round(time.Millisecond))
		}
	}
	return b.String()
}

// shardProgress is what the watchdog samples per shard: the counter
// triple, and the attempt's fetcher — tasks wait for pull batches on
// events, not in receives, so the fetcher is where an unanswered batch
// shows.
type shardProgress struct {
	api    atomic.Uint64
	coarse atomic.Uint64
	fine   atomic.Uint64
	fetch  atomic.Pointer[fetcher]
}

// reset clears the shard's progress between Execute attempts (Resume).
func (p *shardProgress) reset() {
	p.api.Store(0)
	p.coarse.Store(0)
	p.fine.Store(0)
	p.fetch.Store(nil)
}

// describeTag names the protocol a wire tag belongs to, for StallError
// diagnostics. Tag layouts: point-to-point protocols claim the top
// byte; collectives encode space<<32|call.
func describeTag(tag uint64) string {
	switch tag >> 56 {
	case 0xF0:
		return fmt.Sprintf("data pull request (tag %#x)", tag)
	case 0xF1:
		return fmt.Sprintf("data pull reply (tag %#x)", tag)
	case 0xFA:
		// Bits 48–55 carry the attempt salt; the low bits the op seq.
		return fmt.Sprintf("single-launch future push (seq %d)", tag&((uint64(1)<<48)-1))
	case 0xF2:
		return fmt.Sprintf("partial-restart scalar re-serve request (tag %#x)", tag)
	case 0xF3:
		return fmt.Sprintf("partial-restart scalar re-serve reply (tag %#x)", tag)
	case 0xFD, 0xFE:
		return fmt.Sprintf("reliable-delivery sublayer (tag %#x)", tag)
	case 0xC7, 0xC8, 0xC9, 0xCA:
		return fmt.Sprintf("centralized control (tag %#x)", tag)
	}
	space, call := tag>>32, tag&0xFFFFFFFF
	switch {
	case space == 0xCE000000:
		return fmt.Sprintf("fine-stage fence barrier (collective space %#x, call %d)", space, call)
	case space == detSpaceCount:
		return fmt.Sprintf("determinism check-count alignment (call %d)", call)
	case space == detSpaceFinal:
		return fmt.Sprintf("final determinism check (call %d)", call)
	case space == divSpaceVote:
		return fmt.Sprintf("divergence localization vote (call %d)", call)
	case space == divSpaceBarrier:
		return fmt.Sprintf("divergence verdict barrier (call %d)", call)
	case space >= detSpaceBase && space < detSpaceCount:
		return fmt.Sprintf("determinism check %d (call %d)", space-detSpaceBase, call)
	case space>>24 == 0xDD:
		return fmt.Sprintf("deferred-deletion consensus at fence %d (call %d)", space&0xFFFFFF, call)
	case space>>24 == 0xB0:
		return fmt.Sprintf("future-map reduce (collective space %#x, call %d)", space, call)
	case space>>24 == 0xEB:
		return fmt.Sprintf("epoch re-admission barrier (epoch %d, call %d)", space&0xFFFFFF, call)
	case space>>24 == 0xAC:
		return fmt.Sprintf("partial-restart catch-up rendezvous (frontier %d, call %d)", space&0xFFFFFF, call)
	}
	return fmt.Sprintf("collective space %#x (call %d)", space, call)
}

// startWatchdog launches the watchdog goroutine for one attempt;
// closing the returned channel stops it.
func (rt *Runtime) startWatchdog(rs *runState) chan struct{} {
	stop := make(chan struct{})
	deadline := rt.cfg.OpDeadline
	tick := deadline / 4
	if tick < time.Millisecond {
		tick = time.Millisecond
	}
	go func() {
		ticker := time.NewTicker(tick)
		defer ticker.Stop()
		lastSum := rt.progressSum()
		lastChange := time.Now()
		for {
			select {
			case <-stop:
				return
			case <-rs.abortCh:
				return
			case <-ticker.C:
			}
			if sum := rt.progressSum(); sum != lastSum {
				lastSum, lastChange = sum, time.Now()
				continue
			}
			if time.Since(lastChange) < deadline {
				continue
			}
			// Quiescent past the deadline. Only a stall if some node
			// has actually been blocked in a receive that long —
			// otherwise the machine is merely idle (program thinking).
			snap, stalled := rt.stallSnapshot(deadline)
			if !stalled {
				lastChange = time.Now()
				continue
			}
			// Snapshot the replayable control state (journal position +
			// region versions) before aborting: "detect and abort"
			// becomes "detect, checkpoint, resume".
			rt.abortOn(rs, &StallError{
				Deadline:   deadline,
				Shards:     snap,
				Checkpoint: rt.buildCheckpoint(),
			})
			return
		}
	}()
	return stop
}

// progressSum folds every monotone counter the runtime advances; the
// watchdog declares a stall only when this sum freezes. On a scoped
// job the message counter is the job's own — the cluster-wide count
// would let another job's healthy traffic mask this job's wedge.
func (rt *Runtime) progressSum() uint64 {
	var msgs uint64
	if rt.jc != nil {
		msgs = rt.jc.Messages()
	} else {
		msgs = rt.clust.Stats().Messages
	}
	sum := msgs + rt.stats.ops.Load() + rt.stats.points.Load() + rt.stats.detChecks.Load()
	for _, p := range rt.progress {
		sum += p.api.Load() + p.coarse.Load() + p.fine.Load()
	}
	return sum
}

// stallSnapshot captures every shard's progress and what it has been
// blocked on longest — a receive or an unanswered pull batch — and
// reports whether any of those is older than the deadline.
func (rt *Runtime) stallSnapshot(deadline time.Duration) ([]ShardProgress, bool) {
	now := time.Now()
	stalled := false
	snap := make([]ShardProgress, rt.cfg.Shards)
	for s := range snap {
		p := rt.progress[s]
		sp := ShardProgress{
			Shard:     s,
			APICalls:  p.api.Load(),
			CoarseSeq: p.coarse.Load(),
			FineSeq:   p.fine.Load(),
		}
		// The job's node view scopes the wait registry: a scoped job's
		// snapshot names only its own blocked receives, with the tags
		// unmixed back into the job's logical namespace for describeTag.
		if tag, from, since, ok := rt.node(s).OldestWait(); ok {
			sp.Blocked = true
			sp.BlockedFor = now.Sub(since)
			who := "any shard"
			if from >= 0 {
				who = fmt.Sprintf("shard %d", from)
			}
			sp.BlockedOn = fmt.Sprintf("%s from %s", describeTag(tag), who)
		}
		if f := p.fetch.Load(); f != nil {
			if owner, since, ok := f.oldestBatch(); ok && now.Sub(since) > sp.BlockedFor {
				sp.Blocked = true
				sp.BlockedFor = now.Sub(since)
				sp.BlockedOn = fmt.Sprintf("data pull batch from shard %d", owner)
			}
		}
		if sp.Blocked && sp.BlockedFor >= deadline {
			stalled = true
		}
		if t, ok := rt.clust.LastSeen(cluster.NodeID(s)); ok {
			sp.HeartbeatAge = now.Sub(t)
		}
		snap[s] = sp
	}
	return snap, stalled
}
