package core

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"godcr/internal/cluster"
	"godcr/internal/geom"
)

// Partial restart (ISSUE 6). A full restart rolls every shard back to
// the latest checkpoint and re-executes the whole prefix; when a single
// shard died, that wastes the survivors' work. Control replication makes
// a narrower repair possible: every shard re-derives the same control
// decisions, so a survivor that kept its versioned store and scalar
// results can re-run the *analysis* of the prefix while skipping every
// point task whose outputs it already holds — effectively parking at its
// pre-failure frontier and re-serving pulls, future pushes, and
// journaled reduction results to the rejoining shard, which alone
// re-executes its share of the gap. Once the pipeline passes the agreed
// park frontier, a catch-up rendezvous (a barrier in a frontier-keyed
// collective space) runs the deferred store GC and normal execution
// resumes for everyone.
//
// The restart scope is agreed at the attempt boundary: after the epoch
// rendezvous, every process publishes one QuiesceVote per hosted shard
// through Cluster.QuiesceExchange and evaluates the merged set with
// decidePlan. Any missing vote, any ineligible shard, a failed previous
// partial attempt, or a retention overflow degrades the plan to the
// existing full restart — partial restart is a strict latency
// optimization, never a correctness risk.

// RestartScope classifies how a supervisor restart recovered the run.
type RestartScope int

const (
	// ScopeNone marks an attempt that was never restarted (the final
	// failure of a supervisor run).
	ScopeNone RestartScope = iota
	// ScopeFull is the classic recovery: every shard rolls back to the
	// checkpoint and re-executes the prefix.
	ScopeFull
	// ScopePartial is the narrow recovery: only the rejoining shard(s)
	// re-execute their gap; survivors replay-skip and re-serve.
	ScopePartial
)

func (s RestartScope) String() string {
	switch s {
	case ScopeFull:
		return "full"
	case ScopePartial:
		return "partial"
	}
	return "none"
}

// errPartialEscalate aborts a partial attempt that cannot be completed
// from retained state (a journaled reduction result that no shard
// holds). The supervisor classifies it as recoverable; the next attempt
// votes ineligible for partial, so the retry is a full restart.
var errPartialEscalate = errors.New("core: partial restart cannot replay from retained state; escalating to full restart")

// partialPlan is the cluster-agreed restart scope of one resumed
// attempt.
type partialPlan struct {
	// partial selects the narrow recovery; false is a full restart.
	partial bool
	// frontier is the park point P: the minimum survivor frontier. Ops
	// with seq <= P form the replay window (survivors skip their
	// retained tasks, fine-stage GC is deferred, reductions replay from
	// the scalar log); the op at seq == P runs the catch-up rendezvous.
	frontier uint64
	// rejoiners are the shards re-executing from their checkpoint.
	rejoiners []int
}

// shardRetained is one survivor shard's replay buffer, captured at the
// attempt boundary from the failed attempt's fine stage: the versioned
// store (served to the rejoiner by the ordinary pull protocol), the
// scalar results log, and the fine frontier the shard had reached.
type shardRetained struct {
	store    *store
	scalars  *scalarLog
	frontier uint64
}

// partialState is the Runtime's cross-attempt partial-restart state.
type partialState struct {
	mu sync.Mutex
	// live registers the current attempt's fine stages by shard, so the
	// next attempt boundary can capture their stores as replay buffers.
	live map[int]*fineStage
	// retained holds the captured replay buffers for the attempt being
	// started; cleared on success.
	retained map[int]*shardRetained
	// convicted marks shards named by the failure being recovered from
	// (their retained state, if any, is stale and must be discarded).
	convicted map[int]bool
	// eligible is the supervisor's classification of the failure being
	// recovered from: only failure classes that name a recoverable,
	// shard-local cause consent to a partial plan.
	eligible bool
	// prevPartialFailed records that the previous attempt ran under a
	// partial plan and failed; the next vote is ineligible, forcing the
	// escalation to a full restart the tentpole promises.
	prevPartialFailed bool
}

// registerFine publishes a shard's fine stage for later retention
// capture.
func (rt *Runtime) registerFine(shard int, fs *fineStage) {
	rt.partial.mu.Lock()
	if rt.partial.live == nil {
		rt.partial.live = make(map[int]*fineStage)
	}
	rt.partial.live[shard] = fs
	rt.partial.mu.Unlock()
}

// setPartialIntent is called by the supervisor before each Resume with
// its classification of the failure: whether the class consents to a
// partial plan, and which shards the failure convicted.
func (rt *Runtime) setPartialIntent(eligible bool, convicted []int) {
	rt.partial.mu.Lock()
	rt.partial.eligible = eligible
	rt.partial.convicted = make(map[int]bool, len(convicted))
	for _, s := range convicted {
		rt.partial.convicted[s] = true
	}
	rt.partial.mu.Unlock()
}

// capturePartialRetention snapshots the failed attempt's per-shard fine
// state as replay buffers. Runs at the start of a resumed attempt,
// before the progress counters are reset. Convicted shards and shards
// whose store exceeds the retention bound contribute nothing (they will
// vote as rejoiners).
func (rt *Runtime) capturePartialRetention() {
	limit := rt.cfg.PartialRetainLimit
	if limit <= 0 {
		limit = 1 << 20
	}
	rt.partial.mu.Lock()
	defer rt.partial.mu.Unlock()
	rt.partial.retained = make(map[int]*shardRetained)
	for shard, fs := range rt.partial.live {
		if rt.partial.convicted[shard] {
			continue
		}
		if fs.store.size() > limit {
			continue // replay buffer overflow: this shard rejoins
		}
		rt.partial.retained[shard] = &shardRetained{
			store:    fs.store,
			scalars:  fs.scalars,
			frontier: fs.frontier.Load(),
		}
	}
}

// clearPartialRetention drops the replay buffers and resets the
// escalation latch (called after a successful attempt).
func (rt *Runtime) clearPartialRetention() {
	rt.partial.mu.Lock()
	rt.partial.retained = nil
	rt.partial.convicted = nil
	rt.partial.eligible = false
	rt.partial.prevPartialFailed = false
	rt.partial.mu.Unlock()
}

// retainedFor returns the replay buffer the given shard should adopt
// under the current plan, or nil (fresh state).
func (rt *Runtime) retainedFor(plan *partialPlan, shard int) *shardRetained {
	if plan == nil || !plan.partial {
		return nil
	}
	for _, r := range plan.rejoiners {
		if r == shard {
			return nil
		}
	}
	rt.partial.mu.Lock()
	defer rt.partial.mu.Unlock()
	return rt.partial.retained[shard]
}

// localQuiesceVotes builds this process's park descriptors, one per
// hosted shard.
func (rt *Runtime) localQuiesceVotes() []cluster.QuiesceVote {
	rt.partial.mu.Lock()
	defer rt.partial.mu.Unlock()
	eligible := rt.cfg.PartialRestart && rt.partial.eligible && !rt.partial.prevPartialFailed
	votes := make([]cluster.QuiesceVote, 0, len(rt.localShards))
	for _, s := range rt.localShards {
		v := cluster.QuiesceVote{Shard: cluster.NodeID(s), Eligible: eligible, Rejoiner: true}
		if ret := rt.partial.retained[s]; ret != nil && !rt.partial.convicted[s] {
			v.Rejoiner = false
			v.Frontier = ret.frontier
		}
		votes = append(votes, v)
	}
	return votes
}

// decideRestartScope runs the cluster-wide quiesce exchange for a
// resumed attempt and evaluates the merged votes into the attempt's
// plan. Called after SyncEpoch and after heartbeats are armed, before
// any shard context starts.
//
// The exchange is a rendezvous, not a poll. Proceeding on a timeout
// with a unilateral full plan while a slower peer completes the
// exchange and derives a partial one would split the cluster across
// incompatible collective protocols (the parked side replays reductions
// the other side re-runs), which only the watchdog untangles. So the
// exchange retries short rounds until every vote is in; the escape
// hatch for a peer that never shows is the failure detector — its
// conviction (or a transport interrupt, or a newer epoch superseding
// this attempt) aborts the round loop and the plan degrades to full.
func (rt *Runtime) decideRestartScope(rs *runState, epoch uint64) *partialPlan {
	local := rt.localQuiesceVotes()
	for {
		votes := rt.clust.QuiesceExchange(epoch, local, quiesceRound)
		if len(votes) == rt.cfg.Shards {
			return decidePlan(votes, rt.cfg.Shards)
		}
		if rs.aborted.Load() || rt.clust.Err() != nil {
			return &partialPlan{}
		}
		if cur := rt.clust.Epoch(); cur != epoch {
			// A peer revived past this attempt while it waited: the
			// attempt is stale (its collectives and detector are deaf to
			// the new epoch). Abort locally — recoverable, and without a
			// broadcast that would kill the peers' healthy attempts —
			// and resume into the newer epoch via Rejoin.
			rt.abortLocalOn(rs, fmt.Errorf("%w: %w (epoch %d by %d, during the restart-scope exchange)",
				cluster.ErrInterrupted, errSuperseded, epoch, cur))
			return &partialPlan{}
		}
	}
}

// quiesceRound bounds one round of the restart-scope exchange. Every
// round re-broadcasts the vote request to unresponsive peers, so the
// round length only sets how promptly an abort or epoch supersession
// is noticed between rounds.
const quiesceRound = 100 * time.Millisecond

// decidePlan evaluates a merged vote set. Partial requires every shard
// present and eligible, at least one rejoiner, and at least one
// survivor with a nonzero frontier; anything less is a full restart.
func decidePlan(votes []cluster.QuiesceVote, shards int) *partialPlan {
	if len(votes) != shards {
		return &partialPlan{} // no cluster-wide agreement
	}
	var rejoiners []int
	frontier := ^uint64(0)
	for _, v := range votes {
		if !v.Eligible {
			return &partialPlan{}
		}
		if v.Rejoiner {
			rejoiners = append(rejoiners, int(v.Shard))
			continue
		}
		if v.Frontier < frontier {
			frontier = v.Frontier
		}
	}
	if len(rejoiners) == 0 || len(rejoiners) == shards || frontier == ^uint64(0) || frontier == 0 {
		return &partialPlan{}
	}
	return &partialPlan{partial: true, frontier: frontier, rejoiners: rejoiners}
}

// --- Scalar results log --------------------------------------------------

// scalarLog records every scalar a shard's execution produced — single
// future values, per-point index-launch results, and concluded
// reduction folds — keyed by op seq. It is the scalar half of the
// replay buffer: survivors resolve skipped tasks' futures from it, and
// reductions inside the replay window replay their journaled result
// instead of re-running the collective.
type scalarLog struct {
	mu      sync.Mutex
	futs    map[uint64]float64
	points  map[pointScalarKey]float64
	reduces map[reduceKey]float64
}

type pointScalarKey struct {
	seq   uint64
	point geom.Point
}

type reduceKey struct {
	seq uint64
	idx int
}

func newScalarLog() *scalarLog {
	return &scalarLog{
		futs:    make(map[uint64]float64),
		points:  make(map[pointScalarKey]float64),
		reduces: make(map[reduceKey]float64),
	}
}

func (l *scalarLog) logFut(seq uint64, v float64) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.futs[seq] = v
	l.mu.Unlock()
}

func (l *scalarLog) fut(seq uint64) (float64, bool) {
	if l == nil {
		return 0, false
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	v, ok := l.futs[seq]
	return v, ok
}

func (l *scalarLog) logPoint(seq uint64, p geom.Point, v float64) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.points[pointScalarKey{seq, p}] = v
	l.mu.Unlock()
}

func (l *scalarLog) point(seq uint64, p geom.Point) (float64, bool) {
	if l == nil {
		return 0, false
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	v, ok := l.points[pointScalarKey{seq, p}]
	return v, ok
}

func (l *scalarLog) logReduce(seq uint64, idx int, v float64) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.reduces[reduceKey{seq, idx}] = v
	l.mu.Unlock()
}

func (l *scalarLog) reduce(seq uint64, idx int) (float64, bool) {
	if l == nil {
		return 0, false
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	v, ok := l.reduces[reduceKey{seq, idx}]
	return v, ok
}

// --- Scalar re-serve protocol (0xF2 request / 0xF3 reply) ---------------

const (
	scalarReqTag   = uint64(0xF2) << 56
	scalarReplyTag = uint64(0xF3) << 56
)

// scalarReq asks a peer for a logged reduction result: the rejoiner's
// replay window re-requests journaled folds instead of re-running the
// collective against parked survivors.
type scalarReq struct {
	Seq      uint64
	Idx      int
	ReplyTag uint64
	From     int
}

// scalarResp answers a scalarReq; OK is false when the peer's log has
// no entry (the fold never concluded there before the failure).
type scalarResp struct {
	OK  bool
	Val float64
}

func init() {
	cluster.RegisterWireType(scalarReq{})
	cluster.RegisterWireType(scalarResp{})
}

// serveScalars registers the re-serve handler: any shard may ask this
// one for a logged reduction result. Registered per attempt (the
// handler drains queued early requests — see cluster.Node.Handle).
func (ctx *Context) serveScalars() {
	ctx.node.Handle(scalarReqTag, func(m cluster.Message) {
		req, ok := m.Payload.(scalarReq)
		if !ok {
			ctx.abort(fmt.Errorf("core: scalar re-serve request carried %T", m.Payload))
			return
		}
		v, ok := ctx.scalars.reduce(req.Seq, req.Idx)
		if ok {
			ctx.rt.stats.scalarServes.Add(1)
		}
		_ = ctx.node.Send(cluster.NodeID(req.From), req.ReplyTag, scalarResp{OK: ok, Val: v})
	})
}

// requestScalar asks one peer for a logged reduction result.
func (ctx *Context) requestScalar(peer int, seq uint64, idx int) (float64, bool, error) {
	tag := scalarReplyTag | (ctx.attempt&0xFF)<<48 | ctx.scalarSeq.Add(1)
	if err := ctx.node.Send(cluster.NodeID(peer), scalarReqTag, scalarReq{
		Seq: seq, Idx: idx, ReplyTag: tag, From: ctx.shard,
	}); err != nil {
		return 0, false, err
	}
	payload, err := ctx.node.Recv(tag, cluster.NodeID(peer))
	if err != nil {
		return 0, false, err
	}
	resp, ok := payload.(scalarResp)
	if !ok {
		return 0, false, fmt.Errorf("core: scalar re-serve reply carried %T", payload)
	}
	return resp.Val, resp.OK, nil
}

// replayReduce resolves a replay-window reduction from the scalar log:
// locally if this shard concluded the fold before the failure, else by
// re-requesting it from peers in ascending order. If no shard holds it
// the fold never concluded anywhere, and the attempt escalates to a
// full restart.
func (ctx *Context) replayReduce(seq uint64, idx int, fut *Future) {
	if v, ok := ctx.scalars.reduce(seq, idx); ok {
		fut.set(v)
		return
	}
	for s := 0; s < ctx.nShards; s++ {
		if s == ctx.shard {
			continue
		}
		v, ok, err := ctx.requestScalar(s, seq, idx)
		if err != nil {
			// The request broke: a peer aborted (its interrupt poisons the
			// transport before this attempt's abortCh closes) or the peer
			// died. Abort with the transport's verdict rather than resolving
			// zero while live — a bogus zero here feeds the replayed control
			// stream and surfaces as an unrecoverable "journal divergence"
			// that masks the real, recoverable cause. No-op if the abort
			// broadcast already landed.
			ctx.abort(err)
			fut.set(0)
			return
		}
		if ok {
			ctx.scalars.logReduce(seq, idx, v)
			fut.set(v)
			return
		}
	}
	ctx.abort(fmt.Errorf("%w (reduction op %d fold %d concluded on no shard)", errPartialEscalate, seq, idx))
	fut.set(0)
}
