package core

import (
	"errors"
	"fmt"
	"log"
	"strings"
	"time"

	"godcr/internal/cluster"
)

// The supervisor closes the self-healing loop. PR-era recovery was
// manual: the user caught a *StallError, decoded its checkpoint, and
// called Resume by hand. RunSupervised runs that state machine
// automatically:
//
//	Execute ──ok──▶ done
//	   │ err
//	   ▼
//	classify ──unrecoverable──▶ fail (raw error, or SupervisorError
//	   │                         with history if restarts happened)
//	   │ recoverable (StallError / ShardDownError / DivergenceError)
//	   ▼
//	pick checkpoint ─▶ backoff+jitter ─▶ Resume ──ok──▶ done
//	   ▲                                     │ err
//	   └──────── restarts < MaxRestarts ─────┘
//
// Checkpoint selection per failure class: a StallError carries its own
// checkpoint (cut by the watchdog at the stall); a ShardDownError
// (heartbeat detector) recovers from the latest periodic checkpoint; a
// DivergenceError recovers from the latest periodic checkpoint
// truncated below the divergence op, so the resumed run never replays
// a journal entry the culprit may have polluted. With no periodic
// checkpoint yet, recovery restarts from an empty one — Resume then
// replays nothing but still heals the transport into a new epoch.

// SupervisorPolicy tunes RunSupervised's retry loop.
type SupervisorPolicy struct {
	// MaxRestarts bounds how many times a failed attempt is resumed
	// before the supervisor gives up (default 3).
	MaxRestarts int
	// Backoff is the delay before the first restart; it doubles per
	// restart up to BackoffCap (defaults 10ms, capped at 1s).
	Backoff    time.Duration
	BackoffCap time.Duration
	// JitterSeed keys the deterministic jitter added to each backoff
	// (up to half the delay), decorrelating restart storms without
	// sacrificing reproducibility.
	JitterSeed uint64
	// OnEvent, when set, observes each restart decision.
	OnEvent func(SupervisorEvent)
}

func (p SupervisorPolicy) withDefaults() SupervisorPolicy {
	if p.MaxRestarts <= 0 {
		p.MaxRestarts = 3
	}
	if p.Backoff <= 0 {
		p.Backoff = 10 * time.Millisecond
	}
	if p.BackoffCap <= 0 {
		p.BackoffCap = time.Second
	}
	return p
}

// SupervisorEvent describes one restart the supervisor is about to
// perform.
type SupervisorEvent struct {
	// Attempt is the attempt number that just failed (1-based).
	Attempt int
	// Err is the failure being recovered from.
	Err error
	// Frontier is the checkpoint frontier the next attempt resumes at.
	Frontier uint64
	// Backoff is the delay before the restart.
	Backoff time.Duration
}

// AttemptFailure is one failed attempt in a SupervisorError's history.
type AttemptFailure struct {
	// Attempt is the attempt number (1-based).
	Attempt int
	// Err is the attempt's failure.
	Err error
	// Frontier is the checkpoint frontier recovery restarted from (or
	// would have, for the final failure).
	Frontier uint64
	// SpillErr is the checkpoint-spill failure in force when the attempt
	// failed (Runtime.SpillError at classification time); nil when the
	// spill path is healthy or disabled. A supervisor silently
	// restarting from a stale cut because the disk is failing is worth
	// surfacing alongside the failure itself.
	SpillErr error
	// LoadErr records a spilled-checkpoint load failure observed while
	// picking this restart's checkpoint: generation files existed but
	// none verified, so recovery degraded to the in-memory cut or a
	// from-scratch restart. Nil when the chain was readable or absent.
	LoadErr error
	// Scope is the recovery scope of the restart that followed this
	// failure — ScopePartial when only the failed shard re-executed its
	// gap, ScopeFull for a whole-cluster rollback, ScopeNone when the
	// attempt was never restarted (the final failure).
	Scope RestartScope
	// Restarted lists the shards the restart re-executed: the plan's
	// rejoiners for a partial recovery, every shard for a full one.
	Restarted []int
}

// SupervisorError is RunSupervised's permanent-failure verdict: the
// run could not be healed within the policy's restart budget (or hit
// an unrecoverable error after restarts). History carries every failed
// attempt in order; Unwrap exposes the last failure for errors.As.
type SupervisorError struct {
	// Attempts is the number of failed attempts.
	Attempts int
	// History holds each attempt's failure, oldest first.
	History []AttemptFailure
}

func (e *SupervisorError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "core: supervisor gave up after %d failed attempt(s)", e.Attempts)
	for _, f := range e.History {
		fmt.Fprintf(&b, "; attempt %d (frontier %d): %v", f.Attempt, f.Frontier, f.Err)
		if f.Scope != ScopeNone {
			fmt.Fprintf(&b, " [recovered %s, restarted %v]", f.Scope, f.Restarted)
		}
		if f.SpillErr != nil {
			fmt.Fprintf(&b, " [spill failing: %v]", f.SpillErr)
		}
		if f.LoadErr != nil {
			fmt.Fprintf(&b, " [spilled checkpoint unusable: %v]", f.LoadErr)
		}
	}
	return b.String()
}

// Unwrap exposes the final failure.
func (e *SupervisorError) Unwrap() error {
	if len(e.History) == 0 {
		return nil
	}
	return e.History[len(e.History)-1].Err
}

// RunSupervised executes the program under automatic recovery:
// Execute → detect (heartbeat, watchdog, or divergence vote) → Advance →
// Resume, with bounded restarts and exponential backoff, until the run
// completes or the policy is exhausted. On success it returns nil and
// the run's outputs (and ControlHash) are bit-identical to a fault-free
// Execute — recovery is deterministic replay, not approximation.
// Requires the journal (Config.Journal, or implied by CheckpointEvery /
// CheckpointInterval) and replicated control.
func (rt *Runtime) RunSupervised(program Program, pol SupervisorPolicy) error {
	if !rt.cfg.Journal {
		return fmt.Errorf("core: RunSupervised requires Config.Journal (or CheckpointEvery/CheckpointInterval)")
	}
	if rt.cfg.Centralized {
		return fmt.Errorf("core: RunSupervised requires replicated control")
	}
	pol = pol.withDefaults()
	var history []AttemptFailure
	var err error
	startCP, loadErr := rt.loadSpilledCheckpoint()
	if loadErr != nil {
		// Spill files exist but no generation verified: corrupt disk is a
		// degradation (cold start), never a fatal failure — the run's
		// correctness comes from deterministic re-execution, not the spill.
		log.Printf("core: supervisor: spilled checkpoint unusable, starting cold: %v", loadErr)
	}
	if cp := startCP; cp != nil {
		// A previous process of this run spilled a checkpoint
		// (Config.CheckpointDir): resume from it instead of starting
		// cold — whole-process crash recovery.
		if rt.remote() {
			// On a multi-process backend the spill means this process was
			// reborn into a possibly-live cluster. Announce the rebirth so
			// the survivors abandon their attempt and everyone resumes
			// together in a fresh epoch (see AnnounceRebirth).
			rt.AnnounceRebirth()
		}
		// A reborn process has no retained state (it votes rejoiner) but
		// consents to a partial plan: the survivors may park and re-serve
		// while this process alone re-executes its gap.
		rt.setPartialIntent(rt.cfg.PartialRestart, nil)
		err = rt.Resume(cp, program)
	} else {
		err = rt.Execute(program)
	}
	var spillLogged map[string]bool
	for attempt := 1; err != nil; attempt++ {
		// The recovery span covers classification, checkpoint selection,
		// and backoff — everything between one attempt's failure and the
		// next attempt's start (the resumed attempt times itself).
		recStart := rt.rtTimers.recovery.Start()
		cp, recoverable := rt.recoveryPoint(err)
		failure := AttemptFailure{Attempt: attempt, Err: err}
		if cp != nil {
			failure.Frontier = cp.Frontier
		}
		if le := rt.checkpointLoadError(); le != nil {
			// recoveryPoint just consulted the on-disk chain; if nothing
			// verified, this restart runs from the in-memory cut (or from
			// scratch) — record the degradation with the attempt.
			failure.LoadErr = le
		}
		if sp := rt.SpillError(); sp != nil {
			// Spilling is best-effort, but a supervisor restarting while
			// the spill path is broken must not be silent about it: the
			// error rides the attempt history and is logged once per
			// distinct failure.
			failure.SpillErr = sp
			if !spillLogged[sp.Error()] {
				if spillLogged == nil {
					spillLogged = make(map[string]bool)
				}
				spillLogged[sp.Error()] = true
				log.Printf("core: supervisor: checkpoint spill failing (recovery may restart from a stale cut): %v", sp)
			}
		}
		history = append(history, failure)
		if !recoverable {
			rt.rtTimers.recovery.Stop(recStart)
			if attempt == 1 {
				return err // never restarted: surface the raw failure
			}
			return &SupervisorError{Attempts: attempt, History: history}
		}
		if attempt > pol.MaxRestarts {
			rt.rtTimers.recovery.Stop(recStart)
			return &SupervisorError{Attempts: attempt, History: history}
		}
		delay := backoffDelay(pol, attempt)
		if pol.OnEvent != nil {
			pol.OnEvent(SupervisorEvent{Attempt: attempt, Err: err, Frontier: failure.Frontier, Backoff: delay})
		}
		time.Sleep(delay)
		eligible, convicted := partialIntentFor(err)
		rt.setPartialIntent(eligible && rt.cfg.PartialRestart, convicted)
		rt.rtTimers.recovery.Stop(recStart)
		err = rt.Resume(cp, program)
		// Attribute the restart we just ran: the resumed attempt's
		// cluster-agreed plan says whether recovery was partial (and
		// which shards re-executed) or a full rollback.
		last := &history[len(history)-1]
		if p := rt.lastPlan.Load(); p != nil && p.partial {
			last.Scope = ScopePartial
			last.Restarted = append([]int(nil), p.rejoiners...)
		} else {
			last.Scope = ScopeFull
			for s := 0; s < rt.cfg.Shards; s++ {
				last.Restarted = append(last.Restarted, s)
			}
		}
	}
	return nil
}

// partialIntentFor classifies a failure for restart-scope selection:
// only classes naming a recoverable, shard-local cause consent to a
// partial plan, and a heartbeat conviction names the shard that must
// rejoin. Everything else (stalls, divergence verdicts, a failed
// partial attempt) votes for a full restart.
func partialIntentFor(err error) (eligible bool, convicted []int) {
	var down *cluster.ShardDownError
	switch {
	case errors.As(err, &down):
		return true, []int{int(down.Shard)}
	case errors.Is(err, errPartialEscalate):
		return false, nil
	case errors.Is(err, cluster.ErrInterrupted), errors.Is(err, cluster.ErrReviveTimeout):
		// A peer's abort or a rebirth announcement: the root cause lives
		// on the peer, whose own vote carries the conviction; this
		// process consents and lets the exchange decide.
		return true, nil
	}
	return false, nil
}

// recoveryPoint classifies a failure and picks the checkpoint the next
// attempt resumes from; recoverable is false for failure classes the
// supervisor must not retry (program errors, API misuse).
func (rt *Runtime) recoveryPoint(err error) (cp *Checkpoint, recoverable bool) {
	var stall *StallError
	var down *cluster.ShardDownError
	var div *DivergenceError
	switch {
	case errors.As(err, &stall):
		if stall.Checkpoint != nil {
			return stall.Checkpoint, true
		}
		return rt.fallbackCheckpoint(), true
	case errors.As(err, &down):
		return rt.fallbackCheckpoint(), true
	case errors.As(err, &div):
		cp := rt.fallbackCheckpoint()
		if div.OpIndex > 0 {
			cp = cp.truncate(div.OpIndex - 1)
		}
		return cp, true
	case errors.Is(err, cluster.ErrInterrupted):
		// A transport interrupt without a more specific local verdict:
		// a peer process aborted its attempt (remote interrupts relay the
		// reason as text — the peer's own supervisor owns the root-cause
		// classification) or a reborn process demanded a cluster-wide
		// restart. Rejoin the recovery round from the freshest
		// checkpoint; a peer's truly unrecoverable failure burns this
		// process's restart budget and gives up at MaxRestarts.
		return rt.fallbackCheckpoint(), true
	case errors.Is(err, cluster.ErrReviveTimeout):
		// The resume's revive barrier timed out: a dead peer process had
		// not been respawned within the window. Retry the same recovery —
		// by the next attempt the process supervisor has usually brought
		// the worker back and the barrier completes.
		return rt.fallbackCheckpoint(), true
	case errors.Is(err, errPartialEscalate):
		// A partial attempt could not be completed from retained state.
		// Recoverable — but the escalation latch makes the retry vote
		// ineligible, so the next attempt is a full restart.
		return rt.fallbackCheckpoint(), true
	}
	return nil, false
}

// fallbackCheckpoint is the freshest checkpoint available to this
// attempt — the in-memory periodic cut or, when it is further along,
// the spilled on-disk image (per-attempt checkpoint selection: an
// attempt that failed before its first cut still has the previous
// attempt's spill on disk, and a frontier-0 restart would throw that
// progress away). With neither, an empty checkpoint: full
// deterministic re-execution on the healed transport.
func (rt *Runtime) fallbackCheckpoint() *Checkpoint {
	cp := rt.LatestCheckpoint()
	// A load error means the on-disk chain is unusable: fall through to
	// the in-memory cut (or empty) — degradation, not failure. The error
	// is recorded on the runtime and rides the attempt history.
	if disk, _ := rt.loadSpilledCheckpoint(); disk != nil && (cp == nil || disk.Frontier > cp.Frontier) {
		cp = disk
	}
	if cp != nil {
		return cp
	}
	return &Checkpoint{Shards: rt.cfg.Shards, Journal: newJournal()}
}

// backoffDelay is the exponential backoff plus deterministic jitter for
// the given restart number.
func backoffDelay(pol SupervisorPolicy, attempt int) time.Duration {
	d := pol.Backoff
	for i := 1; i < attempt && d < pol.BackoffCap; i++ {
		d *= 2
	}
	if d > pol.BackoffCap {
		d = pol.BackoffCap
	}
	// SplitMix64 finalizer over (seed, attempt): jitter in [0, d/2).
	x := pol.JitterSeed ^ (uint64(attempt) * 0x9E3779B97F4A7C15)
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	x ^= x >> 31
	if half := uint64(d / 2); half > 0 {
		d += time.Duration(x % half)
	}
	return d
}
