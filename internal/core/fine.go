package core

import (
	"cmp"
	"fmt"
	"slices"
	"sync/atomic"

	"godcr/internal/cluster"
	"godcr/internal/collective"
	"godcr/internal/geom"
	"godcr/internal/instance"
	"godcr/internal/region"
)

// The fine analysis stage (paper §4.1, Fig. 9 bottom): operations
// arrive in program order once their coarse-stage dependences are
// known. The stage first executes any cross-shard fences the coarse
// stage inserted (an all-gather with no payload). It then evaluates
// the sharding functor to find the point tasks this shard owns,
// resolves each point's data sources against the per-field
// write-index directory, asks each remote owner once for everything
// those points need from it (store.go), submits the points to the
// executor, and finally paints the directory with the operation's
// writes — for *all* points, not just local ones, so any shard can
// locate any producer (legal because projection and sharding functors
// are pure).

// fineRec is one painted write in the directory: which operation
// produced this rectangle, at which point, executing on which shard.
type fineRec struct {
	seq     uint64
	fill    bool
	fillVal float64
	point   geom.Point
	owner   int
}

// fineRed is one layered reduction contribution.
type fineRed struct {
	seq   uint64
	rect  geom.Rect
	point geom.Point
	owner int
	op    instance.ReduceOp
}

type fineField struct {
	writes geom.RectMap[fineRec]
	reds   []fineRed
}

type fineStage struct {
	ctx   *Context
	comm  *collective.Comm
	store *store
	fetch *fetcher
	exec  *executor
	dir   map[dirKey]*fineField

	traces *fineTraces

	// scalars is the attempt's scalar results log (see partial.go);
	// frontier tracks the last op seq this stage started processing —
	// the shard's park frontier if the attempt fails.
	scalars  *scalarLog
	frontier atomic.Uint64
	// window is the partial-restart replay window: non-nil from the
	// start of a partial resumed attempt until the catch-up rendezvous
	// at window.frontier. While set, survivors replay-skip retained
	// tasks, reductions replay logged results, and store GC is deferred.
	window *partialPlan
	// catchup is the rendezvous barrier's collective space, keyed by the
	// park frontier so it can never alias another attempt's collectives.
	catchup *collective.Comm

	// central is the controller-side state in centralized mode.
	central *centralizedState
}

func newFineStage(ctx *Context) *fineStage {
	st := newStore()
	if ctx.retained != nil {
		// Survivor of a partial restart: adopt the retained versioned
		// store wholesale. The rejoiner's pulls for gap ops are answered
		// from it by the ordinary pull protocol, and this shard's own
		// re-run skips every task whose outputs it already holds.
		st = ctx.retained.store
	}
	f := newFetcher(ctx, st)
	fs := &fineStage{
		ctx:     ctx,
		comm:    ctx.rt.comm(ctx.shard, 0xCE000000),
		store:   st,
		fetch:   f,
		exec:    newExecutor(ctx, st, f),
		dir:     make(map[dirKey]*fineField),
		traces:  newFineTraces(),
		scalars: ctx.scalars,
	}
	if p := ctx.plan; p != nil && p.partial {
		fs.window = p
		fs.catchup = ctx.rt.comm(ctx.shard, 0xAC000000|(p.frontier&0xFFFFFF))
	}
	if ctx.rt.cfg.Centralized {
		fs.central = newCentralizedState()
		fs.installResultHandler()
	} else {
		ctx.rt.registerFine(ctx.shard, fs)
	}
	return fs
}

func (fs *fineStage) field(root region.RegionID, f region.FieldID) *fineField {
	key := dirKey{root, f}
	ff := fs.dir[key]
	if ff == nil {
		ff = &fineField{}
		fs.dir[key] = ff
	}
	return ff
}

func (fs *fineStage) run(in <-chan *op) {
	for o := range in {
		fs.ctx.prog.fine.Store(o.seq)
		fs.frontier.Store(o.seq)
		// Catch-up rendezvous: the replay window ends at the park
		// frontier. Every shard — survivors and rejoiners alike —
		// quiesces its executor and meets on a frontier-keyed barrier,
		// then the deferred store GC runs and normal execution resumes.
		if w := fs.window; w != nil && o.seq >= w.frontier {
			fs.exec.quiesce()
			if err := fs.catchup.Barrier(); err != nil {
				fs.ctx.abort(err)
			}
			fs.gcStore()
			fs.window = nil
		}
		// Periodic op-count checkpoint. The cut lives here, not in the
		// coarse stage: a checkpoint's frontier is capped by the
		// slowest shard's fine progress, and the fine stages advance in
		// near-lockstep (fence collectives couple them) while coarse
		// can run arbitrarily far ahead — a coarse-side cut would
		// snapshot a near-empty frontier. The lowest local shard owns
		// the cuts (shard 0 in-process; every process cuts its own on a
		// remote transport).
		if every := fs.ctx.rt.cfg.CheckpointEvery; every > 0 && fs.ctx.shard == fs.ctx.rt.localShards[0] && o.seq%uint64(every) == 0 {
			fs.ctx.rt.cutCheckpoint()
		}
		// Cross-shard fences first: they order this shard's fine
		// analysis against its peers'.
		if len(o.fences) > 0 && !fs.ctx.rt.cfg.DisableFences && fs.central == nil {
			fw := fs.ctx.tm.fence.Start()
			if err := fs.comm.Barrier(); err != nil {
				fs.ctx.abort(err)
			}
			fs.ctx.tm.fence.Stop(fw)
		}
		switch o.kind {
		case opFill:
			f := o.fill
			fs.paintWrite(f.root, f.field, f.region.Bounds, fineRec{seq: o.seq, fill: true, fillVal: f.value})
		case opLaunch, opSingle:
			fa := fs.ctx.tm.fineAn.Start()
			fs.handleLaunch(o)
			fs.ctx.tm.fineAn.Stop(fa)
		case opExecFence:
			if fs.central != nil {
				fs.quiesceCentral()
			} else {
				fs.exec.quiesce()
				fw := fs.ctx.tm.fence.Start()
				if err := fs.comm.Barrier(); err != nil {
					fs.ctx.abort(err)
				}
				fs.ctx.tm.fence.Stop(fw)
			}
			// Inside the replay window the GC is deferred: its live set
			// would be computed from the re-run's partial directory and
			// would reclaim retained versions the rejoiner still needs.
			// The catch-up rendezvous runs it once the window closes.
			if fs.window == nil {
				fs.gcStore()
			}
			o.done.Trigger()
		case opInlineRead:
			fs.handleInline(o)
		case opAttach, opDetach:
			fs.handleAttach(o)
		case opTraceBegin:
			fs.traces.begin(o.traceID)
		case opTraceEnd:
			fs.traces.end(o.traceID)
		case opShutdown:
			if fs.central != nil {
				fs.quiesceCentral()
				fs.stopWorkers()
			} else {
				fs.exec.quiesce()
				// Shutdown barrier failures (an aborting peer) are not
				// re-reported: the first cause is already recorded.
				fw := fs.ctx.tm.fence.Start()
				_ = fs.comm.Barrier()
				fs.ctx.tm.fence.Stop(fw)
			}
			o.done.Trigger()
		}
	}
}

// pointRect returns the rectangle requirement ri of launch ls touches
// at point p.
func (fs *fineStage) pointRect(ls *launchState, ri int, p geom.Point) geom.Rect {
	rr := &ls.reqs[ri]
	if ls.single {
		return rr.req.Region.Bounds
	}
	color := rr.req.Proj.Color(ls.spec.Domain, p)
	return fs.ctx.tree.Subregion(rr.req.Part, color).Bounds
}

// writeMap returns, memoized, the (rect, point) pairs requirement ri
// writes across the whole launch domain.
func (fs *fineStage) writeMap(ls *launchState, ri int) []rectPoint {
	if ls.writeMaps[ri] != nil {
		return ls.writeMaps[ri]
	}
	var out []rectPoint
	ls.spec.Domain.Each(func(p geom.Point) bool {
		if rc := fs.pointRect(ls, ri, p); !rc.Empty() {
			out = append(out, rectPoint{rect: rc, point: p})
		}
		return true
	})
	if out == nil {
		out = []rectPoint{}
	}
	ls.writeMaps[ri] = out
	return out
}

func (fs *fineStage) handleLaunch(o *op) {
	ls := o.launch

	if fs.central != nil {
		fs.handleLaunchCentral(o)
		return
	}

	// Which points do we own?
	var pts []geom.Point
	if ls.single {
		if ls.owner == fs.ctx.shard {
			pts = []geom.Point{ls.point}
		} else {
			// Await the owner's pushed future value.
			owner := ls.owner
			fut := ls.fut
			go func() {
				payload, err := fs.ctx.node.Recv(fs.ctx.futureTag(o.seq), cluster.NodeID(owner))
				if err != nil {
					fut.set(0)
					return
				}
				v, ok := payload.(float64)
				if !ok {
					fs.ctx.abort(fmt.Errorf("core: future push carried %T, want float64", payload))
				}
				fut.set(v)
			}()
		}
	} else {
		pts = fs.ctx.rt.memo.LocalPoints(ls.spec.Sharding, ls.spec.Domain, fs.ctx.nShards, fs.ctx.shard)
	}

	// Build per-point plans: recorded-trace replay or fresh analysis.
	// Launch seqs are noted in the trace history first, so relative
	// producer references can name ops of the current occurrence.
	if ti := fs.traces.active; ti != nil {
		ti.noteLaunch(o.seq)
	}
	mode := fs.traces.mode()
	var plans [][]fieldPlan
	if mode == traceReplay {
		if rec := fs.traces.record(o); rec != nil {
			plans = decodePlans(fs.traces.active, rec)
			if plans == nil {
				fs.traces.active.invalid = true
			} else {
				fs.ctx.rt.stats.replays.Add(1)
			}
		}
	}
	if plans == nil {
		plans = make([][]fieldPlan, len(pts))
		for pi, p := range pts {
			plans[pi] = fs.planPoint(o, ls, p)
		}
		switch mode {
		case traceRecording:
			fs.traces.store(o, encodePlans(fs.traces.active, plans, pts))
		case traceValidating:
			fs.traces.validate(o, encodePlans(fs.traces.active, plans, pts))
		}
	}

	if !ls.single {
		ls.fm.expectLocal(len(pts))
	}
	// Ask every owner once for everything the points that actually run
	// need from it, before the first of them starts (replay-skipped
	// points contribute nothing). The gather writes slots into the
	// plans, so it comes after the trace recorded them above.
	tasks := make([]*pointTask, 0, len(pts))
	pulls := fs.fetch.gather()
	for pi, p := range pts {
		if fs.replaySkip(o, ls, p) {
			continue
		}
		tasks = append(tasks, &pointTask{o: o, ls: ls, point: p, plans: plans[pi]})
		pulls.addPlans(plans[pi])
	}
	pulls.send()
	for _, t := range tasks {
		fs.exec.submit(t)
	}

	// Directory update for every point of every writing requirement.
	for ri, rr := range ls.reqs {
		switch {
		case rr.req.Priv == Reduce:
			for _, wp := range fs.writeMap(ls, ri) {
				owner := ls.spec.Sharding.Shard(ls.spec.Domain, wp.point, fs.ctx.nShards)
				for _, f := range rr.fields {
					ff := fs.field(rr.root, f)
					ff.reds = append(ff.reds, fineRed{
						seq: o.seq, rect: wp.rect, point: wp.point, owner: owner, op: rr.req.RedOp,
					})
				}
			}
		case rr.req.Priv.writes():
			wm := fs.writeMap(ls, ri)
			if fs.ctx.rt.cfg.SafetyChecks {
				fs.checkGroupIndependence(ls, ri, wm)
			}
			for _, wp := range wm {
				owner := ls.spec.Sharding.Shard(ls.spec.Domain, wp.point, fs.ctx.nShards)
				for _, f := range rr.fields {
					fs.paintWrite(rr.root, f, wp.rect, fineRec{seq: o.seq, point: wp.point, owner: owner})
				}
			}
		}
	}
}

// checkGroupIndependence enforces the task-group well-formedness rule
// of the paper's model (§2): tasks launched together must be pairwise
// independent, so two point tasks of one launch may not write
// overlapping data (reductions commute and are exempt). Violations
// abort the run: overlapping group writes have no sequential meaning.
func (fs *fineStage) checkGroupIndependence(ls *launchState, ri int, wm []rectPoint) {
	if ls.single || ls.reqs[ri].disjoint {
		return
	}
	var cover geom.RectMap[geom.Point]
	for _, wp := range wm {
		if hits := cover.Query(wp.rect); len(hits) > 0 {
			fs.ctx.abort(fmt.Errorf(
				"task group %q: points %v and %v write overlapping data %v of requirement %d "+
					"(tasks in a group must be pairwise independent)",
				ls.taskName, hits[0].Value, wp.point, hits[0].Rect, ri))
			return
		}
		cover.Paint(wp.rect, wp.point)
	}
}

// planPoint computes the fine analysis for one owned point.
func (fs *fineStage) planPoint(o *op, ls *launchState, p geom.Point) []fieldPlan {
	var plans []fieldPlan
	for ri, rr := range ls.reqs {
		rect := fs.pointRect(ls, ri, p)
		for fi, f := range rr.fields {
			pl := fieldPlan{
				reqIdx:    ri,
				root:      rr.root,
				field:     f,
				fieldName: rr.req.Fields[fi],
				rect:      rect,
				priv:      rr.req.Priv,
				redOp:     rr.req.RedOp,
			}
			if rr.req.Priv.reads() && !rect.Empty() {
				pl.sources = fs.resolveRead(rr.root, f, rect)
			}
			plans = append(plans, pl)
		}
	}
	return plans
}

// resolveRead maps a rectangle of a field to the exact version pieces
// that hold its current value: painted producers, zero-fill for
// never-written holes, and layered reduction contributions to fold on
// top.
func (fs *fineStage) resolveRead(root region.RegionID, f region.FieldID, rect geom.Rect) []sourcePiece {
	ff := fs.field(root, f)
	var out []sourcePiece
	addReds := func(sp *sourcePiece) {
		for _, r := range ff.reds {
			if inter := r.rect.Intersect(sp.rect); !inter.Empty() {
				sp.reds = append(sp.reds, redPull{
					rect:  inter,
					key:   verKey{Seq: r.seq, Point: r.point, Root: root, Field: f},
					owner: r.owner,
					op:    r.op,
				})
			}
		}
	}
	for _, e := range ff.writes.Query(rect) {
		sp := sourcePiece{rect: e.Rect}
		if e.Value.fill {
			sp.fill = true
			sp.fillVal = e.Value.fillVal
		} else {
			sp.key = verKey{Seq: e.Value.seq, Point: e.Value.point, Root: root, Field: f}
			sp.owner = e.Value.owner
		}
		addReds(&sp)
		out = append(out, sp)
	}
	for _, h := range ff.writes.Holes(rect) {
		sp := sourcePiece{rect: h, fill: true, fillVal: 0}
		addReds(&sp)
		out = append(out, sp)
	}
	// Canonical order: the directory's paint bookkeeping reshuffles
	// entry positions between structurally identical iterations, so
	// sort by rectangle for deterministic assembly and stable trace
	// validation (the pieces are disjoint, so Lo is a total key).
	slices.SortFunc(out, func(a, b sourcePiece) int {
		for d := 0; d < a.rect.Dim; d++ {
			if c := cmp.Compare(a.rect.Lo[d], b.rect.Lo[d]); c != 0 {
				return c
			}
		}
		return 0
	})
	return out
}

// paintWrite records a write in the directory, superseding overlapped
// writers and reduction layers.
func (fs *fineStage) paintWrite(root region.RegionID, f region.FieldID, rect geom.Rect, rec fineRec) {
	if rect.Empty() {
		return
	}
	ff := fs.field(root, f)
	ff.writes.Paint(rect, rec)
	if len(ff.reds) > 0 {
		var kept []fineRed
		for _, r := range ff.reds {
			for _, piece := range r.rect.Subtract(rect) {
				nr := r
				nr.rect = piece
				kept = append(kept, nr)
			}
		}
		ff.reds = kept
	}
}

// handleInline assembles the whole region's field on this shard.
func (fs *fineStage) handleInline(o *op) {
	in := o.inline
	srcs := fs.resolveRead(in.root, in.field, in.region.Bounds)
	bounds := in.region.Bounds
	res := in.result
	fs.fetch.pull(srcs)
	fs.exec.inflight.Add(1)
	go func() {
		defer fs.exec.inflight.Done()
		inst := instance.New(bounds)
		if err := fs.exec.assemble(inst, srcs); err != nil {
			fs.ctx.abort(err)
		}
		res.vals = inst.Data
		res.done.Trigger()
	}()
}

// replaySkip resolves one point of a replay-window launch from retained
// state instead of re-executing it, reporting whether it did. A point is
// skippable when this shard is a parked survivor, the op is inside the
// window, its scalar result is logged, and every version it wrote is
// still published in the retained store (pre-failure GC may have
// reclaimed some — those tasks re-execute, and the recursion bottoms
// out at fills, attaches, and retained versions).
func (fs *fineStage) replaySkip(o *op, ls *launchState, p geom.Point) bool {
	if fs.window == nil || fs.ctx.retained == nil || o.seq > fs.window.frontier {
		return false
	}
	var val float64
	var ok bool
	if ls.single {
		val, ok = fs.scalars.fut(o.seq)
	} else {
		val, ok = fs.scalars.point(o.seq, p)
	}
	if !ok {
		return false
	}
	for _, rr := range ls.reqs {
		if rr.req.Priv == ReadOnly {
			continue
		}
		for _, f := range rr.fields {
			if !fs.store.has(verKey{Seq: o.seq, Point: p, Root: rr.root, Field: f}) {
				return false
			}
		}
	}
	fs.ctx.rt.stats.replaySkips.Add(1)
	if ls.single {
		// The owner's push still happens — rejoining peers await it on
		// the attempt-salted future tag — just with the logged value.
		for s := 0; s < fs.ctx.nShards; s++ {
			if s != fs.ctx.shard {
				_ = fs.ctx.node.Send(cluster.NodeID(s), fs.ctx.futureTag(o.seq), val)
			}
		}
		ls.fut.set(val)
		return true
	}
	ls.fm.deliver(p, val)
	return true
}

// gcStore drops versions unreachable from the directory. Only legal at
// quiescent points (execution fences).
func (fs *fineStage) gcStore() {
	live := make(map[uint64]bool)
	for _, ff := range fs.dir {
		for _, e := range ff.writes.Entries() {
			live[e.Value.seq] = true
		}
		for _, r := range ff.reds {
			live[r.seq] = true
		}
	}
	dropped := fs.store.retain(live)
	fs.ctx.rt.stats.gcDropped.Add(uint64(dropped))
}

// purgeRegion drops a deleted region tree's directory and versions
// (deferred-deletion consensus, §4.3).
func (fs *fineStage) purgeRegion(root region.RegionID) {
	for key := range fs.dir {
		if key.root == root {
			delete(fs.dir, key)
		}
	}
	fs.store.mu.Lock()
	for k := range fs.store.versions {
		if k.Root == root {
			delete(fs.store.versions, k)
		}
	}
	fs.store.mu.Unlock()
}
