package core

import (
	"fmt"
	"sync/atomic"

	"godcr/internal/cluster"
	"godcr/internal/collective"
	"godcr/internal/dethash"
	"godcr/internal/event"
	"godcr/internal/geom"
	"godcr/internal/instance"
	"godcr/internal/mapper"
	"godcr/internal/region"
	"godcr/internal/rng"
)

// Context is one shard's view of the replicated top-level task. The
// program calls its methods exactly as it would call a sequential
// runtime; under the hood every call is hashed for the determinism
// check and fed to this shard's analysis pipeline.
//
// A Context is confined to the program goroutine that received it.
type Context struct {
	rt      *Runtime
	shard   int
	nShards int
	node    *cluster.Node
	tree    *region.Tree
	digest  *dethash.Digest
	det     *detChecker
	random  *rng.Source
	prog    *shardProgress
	tm      *shardTimers

	// rs is the attempt's abort state, captured at context creation so
	// every goroutine this context spawns aborts/waits against its own
	// attempt even after Resume has started a new one.
	rs *runState
	// attempt salts per-attempt wire tags (future pushes, collective
	// generations) and is carried in full by pull batches and their
	// replies; identical on all shards of one attempt —
	// across processes too: it is Runtime.salt, which remote backends
	// derive from the rendezvoused transport epoch rather than the
	// process-local attempt counter.
	attempt uint64
	// replayTo is the journal frontier to fast-forward through on
	// Resume (0 = fresh run); epoch, when nonzero, is the transport
	// epoch whose re-admission barrier must run before the pipeline.
	replayTo uint64
	epoch    uint64

	// plan is the restart scope agreed for this attempt (nil for fresh
	// runs or full restarts of a non-partial configuration); retained is
	// the replay buffer this shard adopts as a survivor (nil for
	// rejoiners and full restarts); scalars is the scalar results log
	// (allocated whenever Config.PartialRestart, carried across attempts
	// by survivors). scalarSeq numbers re-serve reply tags.
	plan      *partialPlan
	retained  *shardRetained
	scalars   *scalarLog
	scalarSeq atomic.Uint64

	seq      uint64
	coarseCh chan *op
	fine     *fineStage

	// Deferred-deletion side channel (§4.3).
	deferred   []int64
	deleted    []region.RegionID
	fenceCount uint64
}

func newContext(rt *Runtime, shard int) *Context {
	ctx := &Context{
		rt:      rt,
		shard:   shard,
		nShards: rt.cfg.Shards,
		node:    rt.node(shard),
		tree:    region.NewTree(),
		digest:  dethash.New(),
		random:  rng.New(rt.cfg.Seed ^ 0x9E3779B9),
		prog:    rt.progress[shard],
		tm:      rt.timers[shard],
		rs:      rt.run.Load(),
		attempt: rt.salt.Load(),
	}
	ctx.plan = rt.lastPlan.Load()
	ctx.retained = rt.retainedFor(ctx.plan, shard)
	switch {
	case ctx.retained != nil && ctx.retained.scalars != nil:
		ctx.scalars = ctx.retained.scalars
	case rt.cfg.PartialRestart:
		ctx.scalars = newScalarLog()
	}
	return ctx
}

// abort, waitOrAbort, abortErr: the context-bound abort machinery. All
// pipeline code reached from a Context must use these (not the Runtime
// equivalents) so stragglers stay pinned to their own attempt.
func (ctx *Context) abort(err error)                 { ctx.rt.abortOn(ctx.rs, err) }
func (ctx *Context) waitOrAbort(ev event.Event) bool { return ctx.rs.waitOrAbort(ev) }
func (ctx *Context) abortErr() error                 { return ctx.rs.abortErr() }

// futureTag is the wire tag of a single-launch future push for op seq;
// attempt-salted so a stale push from an aborted attempt can never
// satisfy the current attempt's receive.
func (ctx *Context) futureTag(seq uint64) uint64 {
	return futureTagBit | (ctx.attempt&0xFF)<<48 | seq
}

// run wires the pipeline, executes the program, and drains.
func (ctx *Context) run(program Program) {
	if ctx.rt.cfg.Centralized && ctx.shard != 0 {
		ctx.runWorker()
		return
	}
	if ctx.epoch > 0 {
		// Resumed attempt: quiesce on the re-admission barrier so every
		// endpoint (restarted and survivor alike) has re-registered in
		// the new transport epoch before any protocol traffic flows.
		if err := collective.JoinEpoch(ctx.node, ctx.epoch); err != nil {
			ctx.abort(fmt.Errorf("shard %d: epoch %d re-admission: %w", ctx.shard, ctx.epoch, err))
			return
		}
	}
	if ctx.rt.cfg.PartialRestart && !ctx.rt.cfg.Centralized {
		ctx.serveScalars()
	}
	ctx.coarseCh = make(chan *op, 1024)
	fineCh := make(chan *op, 1024)
	coarse := newCoarseStage(ctx, fineCh)
	ctx.fine = newFineStage(ctx)
	if ctx.rt.cfg.SafetyChecks && !ctx.rt.cfg.Centralized {
		ctx.det = newDetChecker(ctx)
	}
	coarseDone := make(chan struct{})
	fineDone := make(chan struct{})
	go func() {
		defer close(coarseDone)
		coarse.run(ctx.coarseCh)
	}()
	go func() {
		defer close(fineDone)
		ctx.fine.run(fineCh)
	}()

	if err := ctx.invokeProgram(program); err != nil {
		ctx.abort(fmt.Errorf("shard %d: program error: %w", ctx.shard, err))
	}
	// Shutdown: flows through both stages, quiescing execution.
	shutdown := &op{seq: ctx.nextSeq(), kind: opShutdown, done: event.NewUserEvent()}
	if ctx.rt.journal != nil {
		shutdown.ctl = ctx.digest.Sum()
	}
	ctx.coarseCh <- shutdown
	close(ctx.coarseCh)
	shutdown.done.Wait()
	<-coarseDone
	<-fineDone
	if ctx.det != nil {
		ctx.det.finish()
	}
	// The lowest local shard publishes the process's control hash
	// (shard 0 on the in-process backend; with SafetyChecks the digest
	// is verified identical on every shard, so any representative do).
	if ctx.shard == ctx.rt.localShards[0] {
		ctx.rt.finalCtl.Store(ctx.digest.Sum())
	}
}

// invokeProgram runs the replicated program body, converting panics
// (API misuse, user bugs) into errors so one shard's failure aborts
// the run with a diagnostic instead of killing the process.
func (ctx *Context) invokeProgram(program Program) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("program panicked: %v", r)
		}
	}()
	return program(ctx)
}

func (ctx *Context) nextSeq() uint64 {
	ctx.seq++
	ctx.prog.api.Store(ctx.seq)
	return ctx.seq
}

// submit hashes and enqueues an operation.
func (ctx *Context) submit(o *op) {
	if ctx.rt.testPerturb != nil {
		// Divergence-injection test hook: fold a foreign value into
		// this shard's digest so later checks observe a mismatch.
		if v := ctx.rt.testPerturb(ctx.shard, o.seq); v != 0 {
			ctx.digest.Op(v)
		}
	}
	if ctx.rt.journal != nil {
		// Snapshot the control digest after this op's API call was
		// hashed: the journal's per-op fingerprint, verified on replay.
		o.ctl = ctx.digest.Sum()
	}
	ctx.rt.stats.ops.Add(1)
	if ctx.det != nil {
		// Log the per-op digest for divergence localization.
		ctx.det.logCtl(ctx.digest.Sum())
		ctx.det.maybeCheck()
	}
	ctx.coarseCh <- o
}

// --- Determinism hashing helpers ---------------------------------------

func (ctx *Context) hashOp(code uint64) { ctx.digest.Op(code) }

// Hash codes for API calls.
const (
	hCreateRegion = iota + 1
	hPartition
	hFill
	hLaunch
	hSingle
	hExecFence
	hInline
	hFutureGet
	hFutureReady
	hAttach
	hDetach
	hTraceBegin
	hTraceEnd
)

// --- Shard introspection ------------------------------------------------

// ShardID returns this shard's id. Branching on it inside replicated
// control flow violates control determinism (the checker will catch
// divergent API sequences); it exists for diagnostics and for
// shard-local caches.
func (ctx *Context) ShardID() int { return ctx.shard }

// NumShards returns the number of replicated shards.
func (ctx *Context) NumShards() int { return ctx.nShards }

// RNG returns the replicated counter-based random stream (paper §3):
// every shard observes the same sequence, so control flow may branch
// on its draws.
func (ctx *Context) RNG() *rng.Source { return ctx.random }

// --- Data model ----------------------------------------------------------

// CreateRegion creates a logical region with the given dense bounds
// and float64 fields. Unwritten data reads as zero.
func (ctx *Context) CreateRegion(bounds geom.Rect, fields ...string) *region.Region {
	ctx.hashOp(hCreateRegion)
	ctx.digest.Int64(bounds.Lo[0])
	ctx.digest.Int64(bounds.Hi[0])
	ctx.digest.Int(bounds.Dim)
	for _, f := range fields {
		ctx.digest.String(f)
	}
	return ctx.tree.CreateRegion(bounds, fields...)
}

// PartitionEqual tiles a region into a dense grid (disjoint,
// complete).
func (ctx *Context) PartitionEqual(r *region.Region, counts ...int) *region.Partition {
	ctx.hashOp(hPartition)
	ctx.digest.Int(int(r.ID))
	for _, c := range counts {
		ctx.digest.Int(c)
	}
	return ctx.tree.PartitionEqual(r, counts...)
}

// PartitionHalo builds the ghost partition of a base partition.
func (ctx *Context) PartitionHalo(base *region.Partition, radius int64) *region.Partition {
	ctx.hashOp(hPartition)
	ctx.digest.Int(int(base.ID))
	ctx.digest.Int64(radius)
	return ctx.tree.PartitionHalo(base, radius)
}

// PartitionInterior builds the interior partition of a base partition.
func (ctx *Context) PartitionInterior(base *region.Partition, radius int64) *region.Partition {
	ctx.hashOp(hPartition)
	ctx.digest.Int(int(base.ID))
	ctx.digest.Int64(-radius)
	return ctx.tree.PartitionInterior(base, radius)
}

// PartitionCustom builds a partition from explicit rectangles.
func (ctx *Context) PartitionCustom(parent *region.Region, colorSpace geom.Rect, rects []geom.Rect) *region.Partition {
	ctx.hashOp(hPartition)
	ctx.digest.Int(int(parent.ID))
	for _, rc := range rects {
		ctx.digest.Int64(rc.Lo[0])
		ctx.digest.Int64(rc.Hi[0])
		ctx.digest.Int64(rc.Lo[1])
		ctx.digest.Int64(rc.Hi[1])
	}
	return ctx.tree.PartitionCustom(parent, colorSpace, rects)
}

// Tree exposes the region forest (read-only use).
func (ctx *Context) Tree() *region.Tree { return ctx.tree }

// Subregion returns the subregion of p colored by color.
func (ctx *Context) Subregion(p *region.Partition, color geom.Point) *region.Region {
	return ctx.tree.Subregion(p, color)
}

// --- Operations ----------------------------------------------------------

// Fill sets every element of a region's field to a value. Like
// Legion's fill it is deferred and analyzed like any other operation.
func (ctx *Context) Fill(r *region.Region, field string, v float64) {
	ctx.hashOp(hFill)
	ctx.digest.Int(int(r.ID))
	ctx.digest.String(field)
	ctx.digest.Float64(v)
	fid := ctx.mustField(r, field)
	ctx.submit(&op{
		seq:  ctx.nextSeq(),
		kind: opFill,
		fill: &fillState{region: r, root: r.Root, field: fid, name: field, value: v},
	})
}

// IndexLaunch launches one point task per point of l.Domain — a task
// group in the paper's sense. It returns immediately with a FutureMap
// of the point results.
func (ctx *Context) IndexLaunch(l Launch) *FutureMap {
	if l.Domain.Empty() {
		panic("core: IndexLaunch with empty domain")
	}
	ls := ctx.prepLaunch(&l, false)
	ctx.hashLaunch(hLaunch, ls)
	o := &op{seq: ctx.nextSeq(), kind: opLaunch, launch: ls}
	ls.fm = newFutureMap(ctx, o.seq, ls)
	ctx.submit(o)
	return ls.fm
}

// SingleLaunch launches one task. Its owner shard is chosen by the
// sharding functor over a unit domain (default: shard 0). It returns
// a Future of the task's result, available on every shard.
func (ctx *Context) SingleLaunch(l Launch) *Future {
	l.Domain = geom.R1(0, 0)
	ls := ctx.prepLaunch(&l, true)
	ctx.hashLaunch(hSingle, ls)
	o := &op{seq: ctx.nextSeq(), kind: opSingle, launch: ls}
	ls.fut = newFuture(ctx, o.seq, ls.owner)
	ctx.submit(o)
	return ls.fut
}

func (ctx *Context) prepLaunch(l *Launch, single bool) *launchState {
	if l.Sharding == nil {
		l.Sharding = ctx.rt.cfg.Mapper.SelectSharding(l.Task, l.Domain)
	}
	if l.Sharding == nil {
		l.Sharding = mapper.Cyclic
	}
	if _, ok := ctx.rt.tasks[l.Task]; !ok {
		panic(fmt.Sprintf("core: launch of unregistered task %q", l.Task))
	}
	ls := &launchState{spec: *l, single: single, taskName: l.Task}
	for i := range ls.spec.Reqs {
		rq := &ls.spec.Reqs[i]
		if rq.Proj == nil {
			rq.Proj = region.Identity
		}
		rr := resolvedReq{req: *rq, partID: -1}
		switch {
		case single && rq.Region != nil:
			rr.root = rq.Region.Root
			rr.ub = rq.Region.Bounds
		case !single && rq.Part != nil:
			rr.root = rq.Part.Root
			rr.ub = rq.Part.Bounds
			rr.partID = rq.Part.ID
			rr.disjoint = rq.Part.Disjoint
		case single && rq.Part != nil:
			panic("core: single launch must use Region requirements")
		default:
			panic("core: index launch must use Part requirements")
		}
		if len(rq.Fields) == 0 {
			panic("core: region requirement with no fields")
		}
		for _, f := range rq.Fields {
			root := ctx.tree.Region(rr.root)
			fid, err := ctx.tree.FieldIndex(root, f)
			if err != nil {
				panic(err)
			}
			rr.fields = append(rr.fields, fid)
		}
		if rq.Priv == Reduce && rq.RedOp == instance.ReduceNone {
			panic("core: Reduce privilege requires RedOp")
		}
		ls.reqs = append(ls.reqs, rr)
	}
	ls.writeMaps = make([][]rectPoint, len(ls.reqs))
	if single {
		ls.point = geom.Pt1(0)
		ls.owner = l.Sharding.Shard(l.Domain, ls.point, ctx.nShards)
	}
	return ls
}

func (ctx *Context) hashLaunch(code uint64, ls *launchState) {
	ctx.hashOp(code)
	ctx.digest.String(ls.spec.Task)
	d := ls.spec.Domain
	ctx.digest.Int(d.Dim)
	for k := 0; k < d.Dim; k++ {
		ctx.digest.Int64(d.Lo[k])
		ctx.digest.Int64(d.Hi[k])
	}
	ctx.digest.String(ls.spec.Sharding.Name())
	for _, rr := range ls.reqs {
		ctx.digest.Int(int(rr.root))
		ctx.digest.Int(int(rr.partID))
		ctx.digest.String(rr.req.Proj.Name())
		ctx.digest.Int(int(rr.req.Priv))
		ctx.digest.Int(int(rr.req.RedOp))
		for _, f := range rr.fields {
			ctx.digest.Int(int(f))
		}
	}
	for _, a := range ls.spec.Args {
		ctx.digest.Float64(a)
	}
	for _, f := range ls.spec.Futures {
		ctx.digest.Uint64(f.seq)
	}
}

// ExecutionFence blocks until every previously launched operation has
// completed on every shard.
func (ctx *Context) ExecutionFence() {
	ctx.hashOp(hExecFence)
	o := &op{seq: ctx.nextSeq(), kind: opExecFence, done: event.NewUserEvent()}
	ctx.submit(o)
	o.done.Wait()
	if err := ctx.applyDeferred(); err != nil {
		ctx.abort(err)
	}
}

// InlineRead physically maps a region's field on every shard and
// returns its values in row-major order over the region's bounds. It
// blocks until the data is valid; use it to extract results.
func (ctx *Context) InlineRead(r *region.Region, field string) []float64 {
	ctx.hashOp(hInline)
	ctx.digest.Int(int(r.ID))
	ctx.digest.String(field)
	fid := ctx.mustField(r, field)
	res := &InlineResult{done: event.NewUserEvent()}
	ctx.submit(&op{
		seq:    ctx.nextSeq(),
		kind:   opInlineRead,
		inline: &inlineState{region: r, root: r.Root, field: fid, result: res},
	})
	res.done.Wait()
	return res.vals
}

// InlineResult carries an inline mapping's data.
type InlineResult struct {
	done event.UserEvent
	vals []float64
}

func (ctx *Context) mustField(r *region.Region, field string) region.FieldID {
	root := ctx.tree.Region(r.Root)
	fid, err := ctx.tree.FieldIndex(root, field)
	if err != nil {
		panic(err)
	}
	return fid
}
