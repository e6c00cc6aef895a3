// The resident host: the half of the runtime that survives across
// programs in a multi-tenant deployment.
//
// Historically one Runtime owned everything — the cluster handle, the
// task registry, and every piece of per-attempt state — and ran one
// program to completion. The split here factors that into:
//
//   - Host: what is shared by every program and lives as long as the
//     process — the cluster/transport, the task registry, the mapper
//     memo, the heartbeat failure detector (refcounted and fanned out,
//     since the cluster supports exactly one detector at a time), and
//     the registry of live jobs.
//
//   - Runtime (one per job): everything reset "at the attempt boundary"
//     — abort state, plan memo, attempt counter and tag salt, journal,
//     checkpoints, divergence verdicts, progress counters, partial-
//     restart state, per-run stats. A job additionally carries its
//     JobCtl (job-scoped tag namespace + interrupt domain, see
//     cluster/jobs.go) and a per-job checkpoint subdirectory, so two
//     jobs' wire traffic, collectives, supervision, and checkpoint GC
//     can never touch each other.
//
// NewRuntime is preserved as a thin shim: it builds a one-job host and
// returns the legacy job 0, whose tag namespace, salts, and wire
// format are bit-identical to the historical single-job runtime — the
// entire seed test matrix runs unchanged through the shim.
package core

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"godcr/internal/cluster"
	"godcr/internal/mapper"
)

// Host is the resident half of a split runtime: one per process,
// owning the transport and everything programs share. Create jobs with
// NewJob; each is an isolated Runtime multiplexed over the host's
// shard pool.
type Host struct {
	cfg   Config
	clust *cluster.Cluster
	tasks map[string]TaskFn
	memo  *mapper.Memo

	// localShards lists the shard ids this process drives, ascending.
	localShards []int

	// active counts jobs currently inside execute; the task registry is
	// read without locks by running jobs, so registration is only legal
	// while nothing executes.
	active atomic.Int64

	mu   sync.Mutex
	jobs map[uint64]*Runtime

	// The cluster supports one heartbeat failure detector at a time
	// (StartHeartbeats replaces the previous one), so the host arms it
	// refcounted across jobs and fans every conviction out to all
	// subscribed jobs: a dead shard is dead for everyone.
	hbMu   sync.Mutex
	hbRefs int
	hbStop func()
	hbSubs map[*Runtime]func(*cluster.ShardDownError)

	// healMu serializes whole-transport healing (Revive) across jobs
	// resuming concurrently after a cluster-wide fault.
	healMu sync.Mutex
}

// NewHost creates a resident host on a fresh cluster. The host owns
// the transport: Shutdown closes it.
func NewHost(cfg Config) *Host {
	cfg = cfg.withDefaults()
	if cfg.Centralized && cfg.WireEncode && (cfg.Codec == nil || cfg.Codec.ID() == cluster.CodecGob.ID()) {
		// Task plans carry unexported fields that gob silently drops;
		// the binary codec encodes them natively (see wirecodec.go).
		panic("core: Centralized WireEncode requires Codec: cluster.CodecBinary")
	}
	if cfg.Centralized && cfg.Faults != nil {
		panic("core: fault injection requires replicated control (Centralized unsupported)")
	}
	tr := cfg.Transport
	if tr == nil {
		tr = cluster.NewMemTransport(cfg.Shards)
	}
	if tr.Size() != cfg.Shards {
		panic(fmt.Sprintf("core: Config.Shards = %d but transport connects %d nodes", cfg.Shards, tr.Size()))
	}
	if cfg.Centralized && len(tr.Local()) != tr.Size() {
		panic("core: Centralized mode requires an all-local transport")
	}
	h := &Host{
		cfg: cfg,
		clust: cluster.NewWithTransport(cluster.Config{
			Nodes: cfg.Shards, Latency: cfg.Latency, WireEncode: cfg.WireEncode,
			Codec: cfg.Codec, Faults: cfg.Faults,
		}, tr),
		tasks:  make(map[string]TaskFn),
		memo:   mapper.NewMemo(),
		jobs:   make(map[uint64]*Runtime),
		hbSubs: make(map[*Runtime]func(*cluster.ShardDownError)),
	}
	for _, id := range h.clust.LocalIDs() {
		h.localShards = append(h.localShards, int(id))
	}
	return h
}

// RegisterTask registers a task body under a name, shared by every job
// on the host. All registrations must happen while no job executes.
func (h *Host) RegisterTask(name string, fn TaskFn) {
	if h.active.Load() > 0 {
		panic("core: RegisterTask during Execute")
	}
	if _, dup := h.tasks[name]; dup {
		panic(fmt.Sprintf("core: duplicate task %q", name))
	}
	h.tasks[name] = fn
}

// Shutdown releases the host's cluster; every job's blocked operations
// fail with ErrClosed.
func (h *Host) Shutdown() { h.clust.Close() }

// Cluster exposes the underlying cluster (introspection, tests).
func (h *Host) Cluster() *cluster.Cluster { return h.clust }

// Shards returns the cluster size.
func (h *Host) Shards() int { return h.cfg.Shards }

// LocalShards returns the shard ids this process drives, ascending.
func (h *Host) LocalShards() []int { return append([]int(nil), h.localShards...) }

// WireStats returns the transport's frame/byte counters (both
// directions; see cluster.WireStats).
func (h *Host) WireStats() cluster.WireStats { return h.clust.WireStats() }

// LinkStats returns per-destination frame/byte counters, indexed by
// shard id.
func (h *Host) LinkStats() []cluster.LinkStats { return h.clust.Links() }

// HeartbeatAges returns, per shard, how long ago the failure detector
// last heard from it: -1 for shards never heard from (including when
// no job has armed heartbeats), 0 for this process's own shards.
func (h *Host) HeartbeatAges() []time.Duration {
	ages := make([]time.Duration, h.cfg.Shards)
	local := make(map[int]bool, len(h.localShards))
	for _, s := range h.localShards {
		local[s] = true
	}
	now := time.Now()
	for i := range ages {
		if local[i] {
			continue
		}
		if t, ok := h.clust.LastSeen(cluster.NodeID(i)); ok {
			ages[i] = now.Sub(t)
		} else {
			ages[i] = -1
		}
	}
	return ages
}

// newRuntime builds a job's per-program state over this host. cfg is
// the job's (possibly specialized) config copy; jc nil means the
// legacy job 0 namespace.
func (h *Host) newRuntime(job uint64, cfg Config, jc *cluster.JobCtl) *Runtime {
	rt := &Runtime{
		host:        h,
		jobID:       job,
		jc:          jc,
		cfg:         cfg,
		clust:       h.clust,
		tasks:       h.tasks,
		memo:        h.memo,
		localShards: h.localShards,
		progress:    make([]*shardProgress, cfg.Shards),
		divVerdicts: make([]atomic.Pointer[DivergenceError], cfg.Shards),
	}
	rt.nodes = make([]*cluster.Node, cfg.Shards)
	for i := range rt.nodes {
		if jc != nil {
			rt.nodes[i] = h.clust.JobNode(cluster.NodeID(i), jc)
		} else {
			rt.nodes[i] = h.clust.Node(cluster.NodeID(i))
		}
	}
	rt.run.Store(newRunState())
	for i := range rt.progress {
		rt.progress[i] = &shardProgress{}
	}
	rt.timers = make([]*shardTimers, cfg.Shards)
	for _, s := range h.localShards {
		rt.timers[s] = newShardTimers(!cfg.DisableTimers)
	}
	rt.rtTimers = newRuntimeTimers(!cfg.DisableTimers)
	return rt
}

// NewJob creates an isolated job on the host's shard pool. The id
// names the job's wire namespace and must agree across the processes
// of a multi-process cluster (the peers derive identical tag mixes
// from it); id 0 is reserved for the legacy single-job shim. Each job
// gets its own checkpoint generation chain under
// <CheckpointDir>/job-<id> and its own supervision scope: its crash,
// restart, or divergence interrupts only its own traffic.
func (h *Host) NewJob(id uint64) *Runtime {
	if id == 0 {
		panic("core: job id 0 is reserved for the legacy single-job shim")
	}
	if h.cfg.Centralized {
		panic("core: jobs require replicated control")
	}
	cfg := h.cfg
	if cfg.CheckpointDir != "" {
		// Per-job generation chain: keep-K GC walks only this job's
		// subdirectory, so one job's GC can never delete another's
		// generations (checkpointGenerations skips directories).
		cfg.CheckpointDir = filepath.Join(cfg.CheckpointDir, fmt.Sprintf("job-%d", id))
		_ = os.MkdirAll(cfg.CheckpointDir, 0o755) // best-effort; spill records failures
	}
	// Partial restart coordinates through a transport-global quiesce
	// exchange that would freeze every job's traffic; job-scoped
	// supervision recovers by full per-job restart instead.
	cfg.PartialRestart = false
	rt := h.newRuntime(id, cfg, h.clust.NewJobCtl(id))
	h.mu.Lock()
	defer h.mu.Unlock()
	if _, dup := h.jobs[id]; dup {
		panic(fmt.Sprintf("core: duplicate job id %d", id))
	}
	h.jobs[id] = rt
	return rt
}

// Job returns the live job with the given id, or nil.
func (h *Host) Job(id uint64) *Runtime {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.jobs[id]
}

// closeJob deregisters a job and poisons its namespace so stragglers
// unwind. The host (and its transport) stay up for other jobs.
func (h *Host) closeJob(rt *Runtime) {
	h.mu.Lock()
	delete(h.jobs, rt.jobID)
	h.mu.Unlock()
	if rt.jc != nil {
		// Abort first: tasks waiting on a pull batch sit on events, which
		// only the attempt's abort releases.
		err := fmt.Errorf("%w: core: job %d closed", cluster.ErrInterrupted, rt.jobID)
		rt.abortLocalOn(rt.run.Load(), err)
		rt.jc.Interrupt(err)
	}
}

// armHeartbeats subscribes a job's attempt to the host's shared
// failure detector, starting it on the first subscription. The
// returned stop unsubscribes and stops the detector with the last one.
func (h *Host) armHeartbeats(rt *Runtime, cb func(*cluster.ShardDownError)) func() {
	h.hbMu.Lock()
	h.hbSubs[rt] = cb
	h.hbRefs++
	if h.hbRefs == 1 {
		h.hbStop = h.clust.StartHeartbeats(cluster.HeartbeatOptions{
			Every:        h.cfg.HeartbeatEvery,
			PhiThreshold: h.cfg.HeartbeatPhi,
		}, h.fanoutShardDown)
	}
	h.hbMu.Unlock()
	var once sync.Once
	return func() {
		once.Do(func() {
			var stop func()
			h.hbMu.Lock()
			delete(h.hbSubs, rt)
			h.hbRefs--
			if h.hbRefs == 0 {
				stop, h.hbStop = h.hbStop, nil
			}
			h.hbMu.Unlock()
			if stop != nil {
				stop()
			}
		})
	}
}

// fanoutShardDown delivers one conviction to every subscribed job: a
// dead shard is dead for all of them, and each cuts its own checkpoint
// and aborts its own attempt.
func (h *Host) fanoutShardDown(e *cluster.ShardDownError) {
	h.hbMu.Lock()
	subs := make([]func(*cluster.ShardDownError), 0, len(h.hbSubs))
	for _, cb := range h.hbSubs {
		subs = append(subs, cb)
	}
	h.hbMu.Unlock()
	for _, cb := range subs {
		cb(e)
	}
}

// heal recovers a cluster-wide transport poisoning (a legacy job's
// abort broadcast, AnnounceRebirth) on behalf of a scoped job about to
// resume: exactly one concurrent caller revives, the rest observe the
// healthy transport and proceed. Job-scoped aborts never need this —
// they poison only their JobCtl.
func (h *Host) heal() error {
	h.healMu.Lock()
	defer h.healMu.Unlock()
	if h.clust.Err() == nil {
		return nil
	}
	if _, err := h.clust.Revive(); err != nil {
		return fmt.Errorf("core: heal: %w", err)
	}
	return nil
}
