package core

import (
	"fmt"
	"sync"

	"godcr/internal/cluster"
	"godcr/internal/geom"
	"godcr/internal/instance"
	"godcr/internal/region"
)

// The executor runs point tasks as dataflow. Each task gets its own
// goroutine for input assembly (waiting for versioned data can block on
// producers), but actual compute is gated by a semaphore sized
// to the node's processor count. Assembly is never gated — a bounded
// worker pool could otherwise deadlock with every worker blocked on a
// producer stuck behind it in the queue.

// fieldPlan is the fine-stage analysis result for one (requirement,
// field) of one point task: the rectangle it touches and, for reading
// privileges, exactly which version pieces initialize it.
type fieldPlan struct {
	reqIdx    int
	root      region.RegionID
	field     region.FieldID
	fieldName string
	rect      geom.Rect
	priv      Privilege
	redOp     instance.ReduceOp
	sources   []sourcePiece
}

// sourcePiece initializes one rectangle of a task's input: either a
// fill value or a producer version, possibly with reduction
// contributions folded on top.
type sourcePiece struct {
	rect    geom.Rect
	fill    bool
	fillVal float64
	key     verKey
	owner   int
	reds    []redPull
	// slot is where a remote piece's values land (see pullGather);
	// zero for fills and local pieces.
	slot pullSlot
}

// redPull is one reduction contribution to fold into a piece.
type redPull struct {
	rect  geom.Rect
	key   verKey
	owner int
	op    instance.ReduceOp
	slot  pullSlot // as sourcePiece.slot
}

// pointTask is one executable point of a launch.
type pointTask struct {
	o     *op
	ls    *launchState
	point geom.Point
	plans []fieldPlan
}

type executor struct {
	ctx      *Context
	fetch    *fetcher
	store    *store
	sem      chan struct{}
	inflight sync.WaitGroup
}

func newExecutor(ctx *Context, st *store, f *fetcher) *executor {
	return &executor{
		ctx:   ctx,
		fetch: f,
		store: st,
		sem:   make(chan struct{}, ctx.rt.cfg.CPUsPerShard),
	}
}

// submit schedules a point task; it returns immediately.
func (e *executor) submit(t *pointTask) {
	e.inflight.Add(1)
	go func() {
		defer e.inflight.Done()
		e.runTask(t)
	}()
}

// quiesce blocks until all submitted tasks have completed.
func (e *executor) quiesce() { e.inflight.Wait() }

func (e *executor) runTask(t *pointTask) {
	val, clean, err := e.execute(t)
	if err != nil {
		e.ctx.abort(fmt.Errorf("task %q point %v: %w", t.ls.taskName, t.point, err))
	}
	// Deliver the scalar even after errors, so consumers never hang
	// (data-version waiters are released by the abort broadcast).
	e.ctx.rt.stats.points.Add(1)
	e.deliverResult(t, val, clean)
}

// deliverResult resolves the task's scalar result; clean reports that
// the compute actually ran without error, gating the scalar log — a
// zero substituted during abort unwinding must never be retained as a
// replayable result.
func (e *executor) deliverResult(t *pointTask, val float64, clean bool) {
	if t.ls.single {
		if e.ctx.rt.cfg.Centralized {
			// Only the controller holds the future.
			t.ls.fut.set(val)
			return
		}
		if clean {
			e.ctx.scalars.logFut(t.o.seq, val)
		}
		// Push the value to every other shard, then resolve locally.
		// A failed push means the transport is interrupted; the peer's
		// receive goroutine resolves its future from the same error.
		for s := 0; s < e.ctx.nShards; s++ {
			if s != e.ctx.shard {
				_ = e.ctx.node.Send(cluster.NodeID(s), e.ctx.futureTag(t.o.seq), val)
			}
		}
		t.ls.fut.set(val)
		return
	}
	if clean {
		e.ctx.scalars.logPoint(t.o.seq, t.point, val)
	}
	t.ls.fm.deliver(t.point, val)
}

// execute assembles and runs one point task; clean reports that the
// task body ran to completion without error — only then are its outputs
// published (an abort-skipped or failed task must not install empty
// versions into a store that may be retained as a replay buffer; its
// consumers are released by the abort broadcast instead).
func (e *executor) execute(t *pointTask) (val float64, clean bool, err error) {
	// Wait for future arguments (they resolve on every shard). On
	// abort they may never resolve; substitute zeros and fall through
	// — assembly and compute are skipped once aborted.
	futArgs := make([]float64, 0, len(t.ls.spec.Futures))
	for _, f := range t.ls.spec.Futures {
		if !e.ctx.waitOrAbort(f.ready.Event) {
			futArgs = append(futArgs, 0)
			continue
		}
		f.mu.Lock()
		futArgs = append(futArgs, f.val)
		f.mu.Unlock()
	}

	tc, err := e.assembleTask(t.ls.taskName, t.point, t.ls.spec.Args, futArgs, t.plans)
	if err != nil {
		return 0, false, err
	}

	// Compute, gated by the processor semaphore.
	if !e.ctx.rs.aborted.Load() {
		fn := e.ctx.rt.tasks[t.ls.taskName]
		e.sem <- struct{}{}
		start := e.ctx.tm.point.Start()
		val, err = e.invoke(fn, tc)
		e.ctx.tm.point.Stop(start)
		<-e.sem
		clean = err == nil
	}

	if clean {
		e.publishPlans(tc, t.o.seq, t.point, t.plans)
	}
	return val, clean, err
}

// invoke runs a task body, converting panics into errors so one buggy
// task aborts the run with a diagnostic instead of crashing every
// shard's process.
func (e *executor) invoke(fn TaskFn, tc *TaskContext) (val float64, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("task panicked: %v", r)
		}
	}()
	return fn(tc)
}

// assembleTask builds a TaskContext with all inputs resolved according
// to the plans. Shared by local execution and the centralized-mode
// worker path.
func (e *executor) assembleTask(taskName string, point geom.Point, args, futArgs []float64, plans []fieldPlan) (*TaskContext, error) {
	aborted := e.ctx.rs.aborted.Load()
	nreq := 0
	for _, pl := range plans {
		if pl.reqIdx+1 > nreq {
			nreq = pl.reqIdx + 1
		}
	}
	tc := &TaskContext{
		Point:      point,
		Args:       args,
		FutureArgs: futArgs,
		Shard:      e.ctx.shard,
		regions:    make([]*PhysRegion, nreq),
	}
	for _, pl := range plans {
		pr := tc.regions[pl.reqIdx]
		if pr == nil {
			pr = &PhysRegion{
				priv:   pl.priv,
				redOp:  pl.redOp,
				fields: make(map[string]*instance.Instance),
			}
			tc.regions[pl.reqIdx] = pr
		}
		var inst *instance.Instance
		switch pl.priv {
		case Reduce:
			inst = instance.NewFilled(pl.rect, pl.redOp.Identity())
		default:
			inst = instance.New(pl.rect)
			if !aborted && pl.priv.reads() {
				if err := e.assemble(inst, pl.sources); err != nil {
					return nil, err
				}
			}
		}
		pr.rect = pl.rect
		pr.fields[pl.fieldName] = inst
	}
	return tc, nil
}

// publishPlans installs every written field as a new version.
func (e *executor) publishPlans(tc *TaskContext, seq uint64, point geom.Point, plans []fieldPlan) {
	for _, pl := range plans {
		if pl.priv == ReadOnly {
			continue
		}
		inst := tc.regions[pl.reqIdx].fields[pl.fieldName]
		e.store.publish(verKey{Seq: seq, Point: point, Root: pl.root, Field: pl.field}, inst)
	}
}

// assemble initializes an instance from its resolved source pieces, in
// source order (reductions folded right after their piece), so outputs
// are bit-identical whatever order the data arrived in. Remote pieces
// were requested before the task started (pullGather); assembling only
// waits for their batches.
func (e *executor) assemble(inst *instance.Instance, sources []sourcePiece) error {
	for _, src := range sources {
		if src.fill {
			inst.Fill(src.rect, src.fillVal)
		} else {
			vals, err := e.fetch.resolve(src.key, src.owner, src.rect, src.slot)
			if err != nil {
				return err
			}
			inst.Apply(src.rect, vals)
		}
		for _, red := range src.reds {
			vals, err := e.fetch.resolve(red.key, red.owner, red.rect, red.slot)
			if err != nil {
				return err
			}
			inst.FoldApply(red.op, red.rect, vals)
		}
	}
	return nil
}

// TaskContext is the world a task body sees: its launch point, scalar
// and future arguments, and the physical regions its requirements
// mapped to.
type TaskContext struct {
	// Point is this task's point in the launch domain.
	Point geom.Point
	// Args are the launch's scalar arguments.
	Args []float64
	// FutureArgs are the resolved values of the launch's futures.
	FutureArgs []float64
	// Shard is the executing shard (diagnostics only).
	Shard int

	regions []*PhysRegion
}

// Region returns the physical region of requirement i.
func (tc *TaskContext) Region(i int) *PhysRegion { return tc.regions[i] }

// NumRegions returns how many requirements were mapped.
func (tc *TaskContext) NumRegions() int { return len(tc.regions) }

// PhysRegion is the mapped data of one region requirement.
type PhysRegion struct {
	rect   geom.Rect
	priv   Privilege
	redOp  instance.ReduceOp
	fields map[string]*instance.Instance
}

// Rect returns the rectangle this task may touch.
func (pr *PhysRegion) Rect() geom.Rect { return pr.rect }

// Only returns the accessor of a single-field requirement; it panics
// if the requirement mapped zero or several fields.
func (pr *PhysRegion) Only() *Accessor {
	if len(pr.fields) != 1 {
		panic(fmt.Sprintf("core: Only on requirement with %d fields", len(pr.fields)))
	}
	for _, inst := range pr.fields {
		return &Accessor{inst: inst, priv: pr.priv, redOp: pr.redOp}
	}
	return nil
}

// Field returns the accessor for a field.
func (pr *PhysRegion) Field(name string) *Accessor {
	inst := pr.fields[name]
	if inst == nil {
		panic(fmt.Sprintf("core: task accessed undeclared field %q", name))
	}
	return &Accessor{inst: inst, priv: pr.priv, redOp: pr.redOp}
}

// Accessor reads and writes one field of a physical region with
// privilege checking.
type Accessor struct {
	inst  *instance.Instance
	priv  Privilege
	redOp instance.ReduceOp
}

// Rect returns the accessor's rectangle.
func (a *Accessor) Rect() geom.Rect { return a.inst.Rect }

// At reads the value at p.
func (a *Accessor) At(p geom.Point) float64 {
	if a.priv == WriteDiscard || a.priv == Reduce {
		panic("core: read through " + a.priv.String() + " privilege")
	}
	return a.inst.At(p)
}

// Set writes the value at p.
func (a *Accessor) Set(p geom.Point, v float64) {
	if !a.priv.writes() {
		panic("core: write through " + a.priv.String() + " privilege")
	}
	a.inst.Set(p, v)
}

// Fold folds a reduction contribution at p.
func (a *Accessor) Fold(p geom.Point, v float64) {
	if a.priv != Reduce {
		panic("core: Fold through " + a.priv.String() + " privilege")
	}
	a.inst.Set(p, a.redOp.Fold(a.inst.At(p), v))
}

// Data exposes the raw row-major values (hot loops). Mutating it is
// only legal under a writing privilege.
func (a *Accessor) Data() []float64 { return a.inst.Data }
