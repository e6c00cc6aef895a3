package core

import (
	"sync"

	"godcr/internal/cluster"
	"godcr/internal/geom"
)

// Centralized execution — the "No Control Replication" baseline the
// paper evaluates against (and the model of lazy-evaluation systems
// like Dask and TensorFlow, §1): one control node executes the program
// and performs the *entire* dependence analysis, including the
// per-point fine stage for every node's tasks, then ships task
// descriptors to worker nodes for execution. Workers execute and
// exchange field data directly (pull protocol), but all analysis and
// all task launches funnel through the controller — the sequential
// bottleneck DCR removes.
//
// The mode reuses the same pipeline code: the only differences are
// that shard 0 analyzes all points and dispatches remote ones, there
// are no cross-shard fences (there is only one analysis stream), and
// no determinism checking (there is only one control stream).

const (
	ctrlTaskTag    = uint64(0xC7) << 56
	ctrlResultTag  = uint64(0xC8) << 56
	ctrlStopTag    = uint64(0xC9) << 56
	ctrlStopAckTag = uint64(0xCA) << 56
)

// remoteTask is a controller→worker task descriptor: the analysis is
// already done; the worker only assembles inputs and executes.
type remoteTask struct {
	Seq        uint64
	Task       string
	Point      geom.Point
	Args       []float64
	FutureArgs []float64
	Plans      []fieldPlan
}

// remoteResult is the worker→controller completion notification.
type remoteResult struct {
	Seq   uint64
	Point geom.Point
	Val   float64
}

// runWorker is a worker node's main loop in centralized mode.
func (ctx *Context) runWorker() {
	st := newStore()
	f := newFetcher(ctx, st)
	ex := newExecutor(ctx, st, f)
	stop := make(chan struct{})
	ctx.node.Handle(ctrlTaskTag, func(m cluster.Message) {
		rt := m.Payload.(*remoteTask)
		ex.inflight.Add(1)
		defer ex.inflight.Done()
		val, err := ex.runRemote(rt)
		if err != nil {
			ctx.abort(err)
		}
		ctx.rt.stats.points.Add(1)
		_ = ctx.node.Send(0, ctrlResultTag, &remoteResult{Seq: rt.Seq, Point: rt.Point, Val: val})
	})
	ctx.node.Handle(ctrlStopTag, func(cluster.Message) { close(stop) })
	select {
	case <-stop:
	case <-ctx.rs.abortCh:
		// The controller may never send stop after an abort.
	}
	ex.quiesce()
	_ = ctx.node.Send(0, ctrlStopAckTag, ctx.shard)
}

// centralizedState is the controller-side dispatch bookkeeping.
type centralizedState struct {
	mu       sync.Mutex
	launches map[uint64]*launchState
	remoteWG sync.WaitGroup
}

func newCentralizedState() *centralizedState {
	return &centralizedState{launches: make(map[uint64]*launchState)}
}

// installResultHandler routes worker results to futures/future maps.
func (fs *fineStage) installResultHandler() {
	fs.ctx.node.Handle(ctrlResultTag, func(m cluster.Message) {
		res := m.Payload.(*remoteResult)
		fs.central.mu.Lock()
		ls := fs.central.launches[res.Seq]
		fs.central.mu.Unlock()
		if ls == nil {
			fs.ctx.abort(errUnknownResult(res.Seq))
			return
		}
		if ls.single {
			ls.fut.set(res.Val)
		} else {
			ls.fm.deliver(res.Point, res.Val)
		}
		fs.central.remoteWG.Done()
	})
}

type errUnknownResult uint64

func (e errUnknownResult) Error() string {
	return "core: result for unknown launch seq"
}

// dispatchRemote ships one analyzed point task to its owner worker.
// Future arguments resolve on the controller first (lazy-evaluation
// semantics: the controller blocks dataflow on futures, one of the
// costs DCR's replicated futures avoid).
func (fs *fineStage) dispatchRemote(o *op, ls *launchState, owner int, p geom.Point, plans []fieldPlan) {
	fs.central.mu.Lock()
	if fs.central.launches[o.seq] == nil {
		fs.central.launches[o.seq] = ls
	}
	fs.central.mu.Unlock()
	fs.central.remoteWG.Add(1)
	go func() {
		futArgs := make([]float64, 0, len(ls.spec.Futures))
		for _, fut := range ls.spec.Futures {
			// On abort the future may never resolve and the dispatch
			// is moot; balance the WaitGroup (the task was never sent,
			// so no result will arrive for it).
			if !fs.ctx.waitOrAbort(fut.ready.Event) {
				fs.central.remoteWG.Done()
				return
			}
			fut.mu.Lock()
			futArgs = append(futArgs, fut.val)
			fut.mu.Unlock()
		}
		if err := fs.ctx.node.Send(cluster.NodeID(owner), ctrlTaskTag, &remoteTask{
			Seq: o.seq, Task: ls.taskName, Point: p,
			Args: ls.spec.Args, FutureArgs: futArgs, Plans: plans,
		}); err != nil {
			fs.central.remoteWG.Done()
		}
	}()
}

// waitRemote blocks on the remote-dispatch WaitGroup, abort-aware: a
// dead worker's results may never arrive.
func (fs *fineStage) waitRemote() {
	done := make(chan struct{})
	go func() {
		fs.central.remoteWG.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-fs.ctx.rs.abortCh:
	}
}

// quiesceCentral waits for local tasks and all dispatched remote tasks.
func (fs *fineStage) quiesceCentral() {
	fs.exec.quiesce()
	fs.waitRemote()
}

// stopWorkers tells workers to drain and waits for their acks.
func (fs *fineStage) stopWorkers() {
	n := fs.ctx.nShards
	for s := 1; s < n; s++ {
		_ = fs.ctx.node.Send(cluster.NodeID(s), ctrlStopTag, nil)
	}
	for s := 1; s < n; s++ {
		if _, err := fs.ctx.node.Recv(ctrlStopAckTag, cluster.NodeID(s)); err != nil {
			return
		}
	}
}

// handleLaunchCentral is the controller's fine stage for a launch: it
// analyzes *every* point of the domain (the O(total tasks) cost the
// paper identifies as the centralized bottleneck), executes the points
// the functor maps to node 0 locally, and ships the rest to workers.
func (fs *fineStage) handleLaunchCentral(o *op) {
	ls := o.launch
	type owned struct {
		p     geom.Point
		owner int
	}
	var all []owned
	if ls.single {
		all = []owned{{ls.point, ls.owner}}
	} else {
		ls.spec.Domain.Each(func(p geom.Point) bool {
			all = append(all, owned{p, ls.spec.Sharding.Shard(ls.spec.Domain, p, fs.ctx.nShards)})
			return true
		})
		// Every point's result routes back to the controller's map.
		ls.fm.expectLocal(len(all))
	}
	var local []*pointTask
	pulls := fs.fetch.gather()
	for _, pt := range all {
		plans := fs.planPoint(o, ls, pt.p)
		if pt.owner == fs.ctx.shard {
			local = append(local, &pointTask{o: o, ls: ls, point: pt.p, plans: plans})
			pulls.addPlans(plans)
		} else {
			fs.dispatchRemote(o, ls, pt.owner, pt.p, plans)
		}
	}
	pulls.send()
	for _, t := range local {
		fs.exec.submit(t)
	}
	// Directory update, identical to the replicated path.
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
			for _, wp := range fs.writeMap(ls, ri) {
				owner := ls.spec.Sharding.Shard(ls.spec.Domain, wp.point, fs.ctx.nShards)
				for _, f := range rr.fields {
					fs.paintWrite(rr.root, f, wp.rect, fineRec{seq: o.seq, point: wp.point, owner: owner})
				}
			}
		}
	}
}

// runRemote executes a pre-analyzed task descriptor on a worker.
func (e *executor) runRemote(rt *remoteTask) (float64, error) {
	fn := e.ctx.rt.tasks[rt.Task]
	pulls := e.fetch.gather()
	pulls.addPlans(rt.Plans)
	pulls.send()
	tc, err := e.assembleTask(rt.Task, rt.Point, rt.Args, rt.FutureArgs, rt.Plans)
	if err != nil {
		return 0, err
	}
	var val float64
	if !e.ctx.rs.aborted.Load() {
		e.sem <- struct{}{}
		val, err = e.invoke(fn, tc)
		<-e.sem
	}
	e.publishPlans(tc, rt.Seq, rt.Point, rt.Plans)
	return val, err
}
