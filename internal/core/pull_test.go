package core

import (
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"godcr/internal/cluster"
	"godcr/internal/geom"
	"godcr/internal/instance"
	"godcr/internal/testutil"
)

// The batched pull protocol (store.go): grouping and dedup in the
// gather, exact frame counts end to end, and the failure edges — stale
// attempts, malformed replies, aborts and out-of-order publication.

// pullRig is a runtime whose shards' fetchers are driven by hand: no
// program runs, the test plays the fine stage (gather, send) and the
// tasks (resolve).
type pullRig struct {
	rt *Runtime
}

func newPullRig(t *testing.T, shards int) *pullRig {
	t.Helper()
	testutil.CheckGoroutines(t)
	rt := NewRuntime(Config{Shards: shards})
	t.Cleanup(rt.Shutdown)
	return &pullRig{rt: rt}
}

// fetcher builds shard's fetcher (and store) under the given attempt.
func (r *pullRig) fetcher(shard int, attempt uint64) (*fetcher, *store) {
	r.rt.salt.Store(attempt)
	st := newStore()
	return newFetcher(newContext(r.rt, shard), st), st
}

func key(seq uint64, point int64) verKey {
	return verKey{Seq: seq, Point: geom.Pt1(point), Root: 1, Field: 0}
}

// filled returns an instance over rect holding lo, lo+1, ... scaled.
func filled(rect geom.Rect, scale float64) *instance.Instance {
	inst := instance.New(rect)
	for i := range inst.Data {
		inst.Data[i] = scale * float64(rect.Lo[0]+int64(i))
	}
	return inst
}

// resolveAsync plays a waiting task: it resolves one gathered piece on
// its own goroutine and reports the outcome.
type resolved struct {
	vals []float64
	err  error
}

func resolveAsync(f *fetcher, sp sourcePiece) <-chan resolved {
	ch := make(chan resolved, 1)
	go func() {
		vals, err := f.resolve(sp.key, sp.owner, sp.rect, sp.slot)
		ch <- resolved{vals, err}
	}()
	return ch
}

func await(t *testing.T, ch <-chan resolved) resolved {
	t.Helper()
	select {
	case r := <-ch:
		return r
	case <-time.After(5 * time.Second):
		t.Fatal("a task waiting on a pull batch was never released")
		return resolved{}
	}
}

// TestPullGatherGroupsByOwner: a piece and the reductions folded onto it
// share one batch when they come from one owner, identical pieces wanted
// twice collapse to one entry, and local pieces and fills get no slot.
func TestPullGatherGroupsByOwner(t *testing.T) {
	rig := newPullRig(t, 3)
	f, _ := rig.fetcher(0, 1)
	srcs := []sourcePiece{
		{rect: geom.R1(0, 3), fill: true, fillVal: 1,
			reds: []redPull{{rect: geom.R1(0, 1), key: key(4, 2), owner: 2, op: instance.ReduceAdd}}},
		{rect: geom.R1(4, 7), key: key(3, 1), owner: 1,
			reds: []redPull{
				{rect: geom.R1(4, 5), key: key(4, 1), owner: 1, op: instance.ReduceAdd},
				{rect: geom.R1(6, 7), key: key(4, 0), owner: 0, op: instance.ReduceAdd},
			}},
		{rect: geom.R1(8, 9), key: key(3, 0), owner: 0},
	}
	again := []sourcePiece{{rect: geom.R1(4, 7), key: key(3, 1), owner: 1}}
	g := f.gather()
	g.add(srcs)
	g.add(again)
	if g.pieces != 4 {
		t.Fatalf("gather counted %d remote pieces, want 4 (duplicates included)", g.pieces)
	}
	b1, b2 := g.byOwner[1], g.byOwner[2]
	if g.byOwner[0] != nil || b1 == nil || b2 == nil {
		t.Fatalf("batches by owner = %v, want none for self and one each for shards 1 and 2", g.byOwner)
	}
	if len(b1.items) != 2 || len(b2.items) != 1 {
		t.Fatalf("batch sizes %d/%d, want 2 (piece + its reduction, duplicate collapsed) and 1", len(b1.items), len(b2.items))
	}
	if srcs[1].slot.batch != b1 || srcs[1].reds[0].slot.batch != b1 {
		t.Fatal("a piece and its reduction from the same owner landed in different batches")
	}
	if again[0].slot != srcs[1].slot {
		t.Fatal("an identical piece wanted twice did not share one slot")
	}
	if srcs[0].slot.batch != nil || srcs[2].slot.batch != nil || srcs[1].reds[1].slot.batch != nil {
		t.Fatal("a fill or a local piece was given a pull slot")
	}
}

// steadyCost is what one added program step costs, exactly.
type steadyCost struct {
	messages uint64 // Stats.Messages
	pulls    uint64 // Stats.RemotePulls
	fenced   uint64 // operations that ran a cross-shard fence barrier
}

// steadyStep runs build(steps) at two step counts and returns the
// counter growth per added step, which must be a whole number.
func steadyStep(t *testing.T, cfg Config, register func(*Runtime), build func(steps int) Program) steadyCost {
	t.Helper()
	const a, b = 3, 7
	run := func(steps int) steadyCost {
		rt := runProgram(t, cfg, func(rt *Runtime) { rt.EnableAnalysisLog(); register(rt) }, build(steps))
		c := steadyCost{messages: rt.Stats().Messages, pulls: rt.Stats().RemotePulls}
		for _, rec := range rt.AnalysisLog() {
			if len(rec.Fences) > 0 {
				c.fenced++
			}
		}
		return c
	}
	ca, cb := run(a), run(b)
	per := func(name string, x, y uint64) uint64 {
		if (y-x)%(b-a) != 0 {
			t.Fatalf("%s grew by %d over %d steps: not a whole number per step", name, y-x, b-a)
		}
		return (y - x) / (b - a)
	}
	return steadyCost{
		messages: per("messages", ca.messages, cb.messages),
		pulls:    per("remote pulls", ca.pulls, cb.pulls),
		fenced:   per("fenced ops", ca.fenced, cb.fenced),
	}
}

// TestPullFrameCounts pins the wire cost of a steady iteration: two
// frames (request, reply) per (launch, owner) a shard pulls from, plus
// the fence barriers — while RemotePulls keeps counting pieces.
func TestPullFrameCounts(t *testing.T) {
	const shards = 4
	barrier := uint64(2 * (shards - 1)) // reduce-then-broadcast tree
	cfg := Config{Shards: shards}

	t.Run("stencil", func(t *testing.T) {
		// The benchmark's shape: 32 tiles dealt cyclically, every tile's
		// halo reaching one cell into each neighbour.
		const tiles = 32
		var pieces, owners uint64
		for s := 0; s < shards; s++ {
			from := map[int]bool{}
			for i := s; i < tiles; i += shards {
				for _, nb := range []int{i - 1, i + 1} {
					if nb >= 0 && nb < tiles {
						pieces++
						from[nb%shards] = true
					}
				}
			}
			owners += uint64(len(from))
		}
		got := steadyStep(t, cfg, registerStencilTasks, func(steps int) Program {
			return stencil1DProgram(tiles*16, tiles, steps, 1.0, func(_, _ []float64) error { return nil })
		})
		if want := 2*owners + got.fenced*barrier; got.messages != want {
			t.Errorf("%d messages per step, want %d (2 × %d owner pairs + %d fences × %d)",
				got.messages, want, owners, got.fenced, barrier)
		}
		if got.pulls != pieces || pieces != 62 {
			t.Errorf("%d remote pulls per step, want %d pieces (62 in the benchmark's shape)", got.pulls, pieces)
		}
	})

	t.Run("circuit", func(t *testing.T) {
		// Every update_v point reads its tile of charge: a fill with one
		// reduction per charge_up point folded on top. The contributions
		// of one owner's points share a batch.
		const tiles = 8
		var sums sumCell
		got := steadyStep(t, cfg, registerCircuitTasks, func(steps int) Program {
			return circuitProgram(tiles*4, tiles, steps, &sums, func([]float64) error { return nil })
		})
		pieces := uint64(tiles * (tiles - tiles/shards))
		owners := uint64(shards * (shards - 1))
		// One more barrier-shaped collective per step: the FutureMap fold.
		if want := 2*owners + (got.fenced+1)*barrier; got.messages != want {
			t.Errorf("%d messages per step, want %d (2 × %d owner pairs + (%d fences + 1 fold) × %d)",
				got.messages, want, owners, got.fenced, barrier)
		}
		if got.pulls != pieces {
			t.Errorf("%d remote pulls per step, want %d pieces", got.pulls, pieces)
		}
	})

	t.Run("detach", func(t *testing.T) {
		// Written through 16 tiles, flushed through 8: every flushed piece
		// is two tiles, both remote when the flusher owns an odd piece
		// (tiles 2c, 2c+1 vs owner c mod 4). A shard's pieces share one
		// batch per owner, as a launch's points do.
		const fine, coarse = 16, 8
		dir := t.TempDir()
		paths := make([]string, coarse)
		for i := range paths {
			paths[i] = filepath.Join(dir, fmt.Sprintf("out%d.dat", i))
		}
		var pieces, owners uint64
		for s := 0; s < shards; s++ {
			from := map[int]bool{}
			for c := s; c < coarse; c += shards {
				for _, tile := range []int{2 * c, 2*c + 1} {
					if tile%shards != s {
						pieces++
						from[tile%shards] = true
					}
				}
			}
			owners += uint64(len(from))
		}
		register := func(rt *Runtime) {
			rt.RegisterTask("touch", func(tc *TaskContext) (float64, error) {
				a := tc.Region(0).Only()
				a.Rect().Each(func(p geom.Point) bool { a.Set(p, float64(p[0])); return true })
				return 0, nil
			})
		}
		got := steadyStep(t, cfg, register, func(steps int) Program {
			return func(ctx *Context) error {
				r := ctx.CreateRegion(geom.R1(0, fine*2-1), "x")
				written, flushed := ctx.PartitionEqual(r, fine), ctx.PartitionEqual(r, coarse)
				for s := 0; s < steps; s++ {
					ctx.IndexLaunch(Launch{Task: "touch", Domain: geom.R1(0, fine-1),
						Reqs: []RegionReq{{Part: written, Priv: WriteDiscard, Fields: []string{"x"}}}})
					ctx.DetachPartition(flushed, "x", paths)
				}
				ctx.ExecutionFence()
				return nil
			}
		})
		if want := 2*owners + got.fenced*barrier; got.messages != want {
			t.Errorf("%d messages per step, want %d (2 × %d owner pairs + %d fences × %d)",
				got.messages, want, owners, got.fenced, barrier)
		}
		if got.pulls != pieces {
			t.Errorf("%d remote pulls per step, want %d pieces", got.pulls, pieces)
		}
	})
}

// TestStaleReplyRejected: a reply that outlives its attempt must not
// fill a batch of a later one, even when the attempts are 256 apart and
// both number their batches from 1.
func TestStaleReplyRejected(t *testing.T) {
	rig := newPullRig(t, 2)
	_, serverStore := rig.fetcher(1, 1)
	first, _ := rig.fetcher(0, 1)
	old := []sourcePiece{{rect: geom.R1(0, 3), key: key(2, 1), owner: 1}}
	first.pull(old) // the owner parks: key(2,1) is unpublished

	second, _ := rig.fetcher(0, 1+256)
	cur := []sourcePiece{{rect: geom.R1(0, 3), key: key(3, 1), owner: 1}}
	second.pull(cur)

	// The first attempt's reply leaves now, long after its attempt.
	serverStore.publish(key(2, 1), filled(geom.R1(0, 3), 1))
	deadline := time.Now().Add(5 * time.Second)
	for rig.rt.Stats().StaleReplies == 0 {
		if time.Now().After(deadline) {
			t.Fatal("the late reply was never counted as stale")
		}
		time.Sleep(time.Millisecond)
	}
	if cur[0].slot.batch.ready.HasTriggered() {
		t.Fatal("a reply from attempt 1 filled a batch of attempt 257")
	}
	if err := rig.rt.Err(); err != nil {
		t.Fatalf("a stale reply must be dropped, not abort the run: %v", err)
	}

	serverStore.publish(key(3, 1), filled(geom.R1(0, 3), 2))
	r := await(t, resolveAsync(second, cur[0]))
	if r.err != nil || len(r.vals) != 4 || r.vals[3] != 6 {
		t.Fatalf("live batch resolved to %v, %v; want the second version's values", r.vals, r.err)
	}
}

// TestMalformedBatchAborts: a reply that does not match the request it
// answers aborts the run with a *PullError; it neither panics nor leaves
// the waiting task hanging.
func TestMalformedBatchAborts(t *testing.T) {
	for _, tc := range []struct {
		name string
		resp pullResp
	}{
		{"item count", pullResp{Batch: 1, Items: 1, Vals: make([]float64, 6)}},
		{"too few values", pullResp{Batch: 1, Items: 2, Vals: make([]float64, 5)}},
		{"too many values", pullResp{Batch: 1, Items: 2, Vals: make([]float64, 7)}},
		{"unknown batch", pullResp{Batch: 99, Items: 2, Vals: make([]float64, 6)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rig := newPullRig(t, 2)
			// Shard 1 runs no fetcher: the request queues unanswered and
			// the test forges the reply.
			f, _ := rig.fetcher(0, 7)
			srcs := []sourcePiece{
				{rect: geom.R1(0, 3), key: key(2, 1), owner: 1},
				{rect: geom.R1(8, 9), key: key(2, 3), owner: 1},
			}
			f.pull(srcs)
			waiting := resolveAsync(f, srcs[0])

			tc.resp.Attempt = 7
			if err := rig.rt.node(1).Send(0, pullReplyTag, tc.resp); err != nil {
				t.Fatal(err)
			}
			if r := await(t, waiting); r.err == nil {
				t.Fatalf("the waiting task got %v from a malformed reply", r.vals)
			}
			var pe *PullError
			if err := rig.rt.Err(); !errors.As(err, &pe) {
				t.Fatalf("run error %v, want a *PullError", err)
			}
			if pe.Shard != 0 || pe.Peer != 1 || pe.Batch != tc.resp.Batch {
				t.Fatalf("PullError %+v does not name shard 0, peer 1, batch %d", pe, tc.resp.Batch)
			}
		})
	}
}

// TestAbortReleasesOutstandingBatch: an abort while a batch is parked at
// its owner releases every task waiting on it and the owner's waiter
// (newPullRig checks that no goroutine is left).
func TestAbortReleasesOutstandingBatch(t *testing.T) {
	rig := newPullRig(t, 2)
	rig.fetcher(1, 1) // serves, but key(2,1) never publishes
	f, _ := rig.fetcher(0, 1)
	srcs := []sourcePiece{
		{rect: geom.R1(0, 3), key: key(2, 1), owner: 1},
		{rect: geom.R1(4, 5), key: key(2, 1), owner: 1},
	}
	f.pull(srcs)
	var waiting []<-chan resolved
	for i := 0; i < 8; i++ {
		waiting = append(waiting, resolveAsync(f, srcs[i%2]))
	}
	cause := errors.New("test abort")
	f.ctx.abort(cause)
	for _, ch := range waiting {
		if r := await(t, ch); !errors.Is(r.err, cause) {
			t.Fatalf("a released task returned %v, %v; want the abort cause", r.vals, r.err)
		}
	}
}

// TestJobCloseReleasesOutstandingBatch: closing a scoped job mid-attempt
// poisons only its job namespace; the tasks waiting on a batch must be
// released with it, as they were when they sat in a job-view receive.
func TestJobCloseReleasesOutstandingBatch(t *testing.T) {
	testutil.CheckGoroutines(t)
	h := NewHost(Config{Shards: 2})
	defer h.Shutdown()
	rig := &pullRig{rt: h.NewJob(1)}
	f, _ := rig.fetcher(0, 1) // shard 1 runs no fetcher: nobody answers
	srcs := []sourcePiece{{rect: geom.R1(0, 3), key: key(2, 1), owner: 1}}
	f.pull(srcs)
	waiting := resolveAsync(f, srcs[0])
	rig.rt.Shutdown()
	if r := await(t, waiting); !errors.Is(r.err, cluster.ErrInterrupted) {
		t.Fatalf("the released task returned %v, %v; want the job's interrupt", r.vals, r.err)
	}
}

// TestPeerAbortReleasesBatchWaiters: two runtimes over TCP loopback under
// the default Config (no OpDeadline, no heartbeats). Shard 1's producer
// task fails late; by then shard 0 has issued everything, its tasks wait
// on a batch shard 1 will never answer and its stages sit in quiesce —
// nothing on shard 0 is in a receive when the peer's interrupt arrives.
// Both Executes must return the failure; neither may hang.
func TestPeerAbortReleasesBatchWaiters(t *testing.T) {
	defer testutil.CheckGoroutines(t)
	const shards, tiles = 2, 4
	boom := errors.New("boom")
	trs := loopbackTransports(t, shards, nil)
	type result struct {
		shard int
		err   error
	}
	done := make(chan result, shards)
	for i := 0; i < shards; i++ {
		rt := NewRuntime(Config{Shards: shards, Transport: trs[i]})
		defer rt.Shutdown()
		rt.RegisterTask("slow_fail", func(tc *TaskContext) (float64, error) {
			if tc.Point[0]%shards == 1 {
				time.Sleep(100 * time.Millisecond)
				return 0, boom
			}
			return 0, nil
		})
		rt.RegisterTask("read", func(tc *TaskContext) (float64, error) { return 0, nil })
		go func(i int) {
			done <- result{i, rt.Execute(func(ctx *Context) error {
				r := ctx.CreateRegion(geom.R1(0, tiles*4-1), "a")
				owned := ctx.PartitionEqual(r, tiles)
				dom := geom.R1(0, tiles-1)
				ctx.IndexLaunch(Launch{Task: "slow_fail", Domain: dom,
					Reqs: []RegionReq{{Part: owned, Priv: WriteDiscard, Fields: []string{"a"}}}})
				ctx.IndexLaunch(Launch{Task: "read", Domain: dom,
					Reqs: []RegionReq{{Part: owned, Proj: projNext{tiles}, Priv: ReadOnly, Fields: []string{"a"}}}})
				return nil
			})}
		}(i)
	}
	for range [shards]struct{}{} {
		select {
		case r := <-done:
			if r.err == nil || !strings.Contains(r.err.Error(), "boom") {
				t.Errorf("shard %d returned %v, want shard 1's task failure", r.shard, r.err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("Execute hung after a peer runtime aborted")
		}
	}
}

// TestBatchAwaitsOutOfOrderPublication: a batch naming versions of two
// producer ops is answered once, after the last of them publishes,
// whichever order they publish in, with the values in request order.
func TestBatchAwaitsOutOfOrderPublication(t *testing.T) {
	rig := newPullRig(t, 2)
	_, serverStore := rig.fetcher(1, 1)
	f, _ := rig.fetcher(0, 1)
	srcs := []sourcePiece{
		{rect: geom.R1(0, 1), key: key(3, 1), owner: 1},
		{rect: geom.R1(2, 3), key: key(5, 1), owner: 1},
	}
	f.pull(srcs)
	b := srcs[0].slot.batch
	if srcs[1].slot.batch != b {
		t.Fatal("two pieces from one owner were not batched together")
	}
	serverStore.publish(key(5, 1), filled(geom.R1(0, 7), 10)) // the later op first
	time.Sleep(10 * time.Millisecond)
	if b.ready.HasTriggered() {
		t.Fatal("the batch was answered before its earlier version published")
	}
	serverStore.publish(key(3, 1), filled(geom.R1(0, 7), 1))
	early, late := await(t, resolveAsync(f, srcs[0])), await(t, resolveAsync(f, srcs[1]))
	if early.err != nil || late.err != nil {
		t.Fatalf("resolve: %v, %v", early.err, late.err)
	}
	if fmt.Sprint(early.vals, late.vals) != fmt.Sprint([]float64{0, 1}, []float64{20, 30}) {
		t.Fatalf("pieces resolved to %v and %v; want [0 1] of op 3 and [20 30] of op 5", early.vals, late.vals)
	}
	if msgs := rig.rt.Stats().Messages; msgs != 2 {
		t.Fatalf("%d messages for one batch, want one request and one reply", msgs)
	}
}

// TestWatchdogSeesUnansweredBatch: tasks wait for batches on events, not
// in receives. Shard 1's producer outlasts the deadline, so shard 0's
// reader waits on an unanswered batch while both fine stages sit in the
// execution fence's quiesce: no shard is in a receive. The watchdog must
// still call the stall, naming the batch and the owner that owes it.
func TestWatchdogSeesUnansweredBatch(t *testing.T) {
	testutil.CheckGoroutines(t)
	const deadline = 150 * time.Millisecond
	rt := NewRuntime(Config{Shards: 2, OpDeadline: deadline})
	defer rt.Shutdown()
	rt.RegisterTask("slow", func(tc *TaskContext) (float64, error) {
		if tc.Point[0] == 1 {
			time.Sleep(4 * deadline)
		}
		return 0, nil
	})
	rt.RegisterTask("read", func(*TaskContext) (float64, error) { return 0, nil })
	err := rt.Execute(func(ctx *Context) error {
		r := ctx.CreateRegion(geom.R1(0, 7), "a")
		owned := ctx.PartitionEqual(r, 2)
		dom := geom.R1(0, 1)
		ctx.IndexLaunch(Launch{Task: "slow", Domain: dom,
			Reqs: []RegionReq{{Part: owned, Priv: WriteDiscard, Fields: []string{"a"}}}})
		ctx.IndexLaunch(Launch{Task: "read", Domain: dom,
			Reqs: []RegionReq{{Part: owned, Proj: projNext{2}, Priv: ReadOnly, Fields: []string{"a"}}}})
		ctx.ExecutionFence()
		return nil
	})
	var stall *StallError
	if !errors.As(err, &stall) {
		t.Fatalf("Execute returned %v, want a *StallError", err)
	}
	if s0 := stall.Shards[0]; !s0.Blocked || s0.BlockedOn != "data pull batch from shard 1" {
		t.Fatalf("shard 0 = %+v; want it blocked on a pull batch from shard 1", s0)
	}
	if s1 := stall.Shards[1]; s1.Blocked {
		t.Fatalf("shard 1 = %+v; it waits on nothing", s1)
	}
}

// projNext reads the tile after the point's own, wrapping around.
type projNext struct{ tiles int64 }

func (p projNext) Name() string { return fmt.Sprintf("next%d", p.tiles) }
func (p projNext) Color(_ geom.Rect, pt geom.Point) geom.Point {
	return geom.Pt1((pt[0] + 1) % p.tiles)
}

// TestPartialReplayBatches crashes a shard under Config.PartialRestart
// in a program whose every "shift" task reads exactly one remote piece.
// In the attempt that completes, the pieces pulled must then equal the
// shift bodies that ran (plus the closing inline reads): a replay-skipped
// point asks for nothing, and the rejoiner's batches are answered from
// the survivors' retained stores — the output stays bit-identical.
func TestPartialReplayBatches(t *testing.T) {
	const shards, tiles, steps = 4, 8, 12
	var bodies atomic.Uint64
	register := func(rt *Runtime) {
		rt.RegisterTask("seed", func(tc *TaskContext) (float64, error) {
			a := tc.Region(0).Only()
			a.Rect().Each(func(p geom.Point) bool { a.Set(p, float64(p[0])); return true })
			return 0, nil
		})
		rt.RegisterTask("shift", func(tc *TaskContext) (float64, error) {
			bodies.Add(1)
			dst, src := tc.Region(0).Only(), tc.Region(1).Only()
			sum := 0.0
			src.Rect().Each(func(p geom.Point) bool { sum += src.At(p); return true })
			dst.Rect().Each(func(p geom.Point) bool { dst.Set(p, sum+float64(p[0])); return true })
			return sum, nil
		})
	}
	build := func(out *vecCell) Program {
		return func(ctx *Context) error {
			r := ctx.CreateRegion(geom.R1(0, tiles*4-1), "a", "b")
			owned := ctx.PartitionEqual(r, tiles)
			dom := geom.R1(0, tiles-1)
			ctx.IndexLaunch(Launch{Task: "seed", Domain: dom,
				Reqs: []RegionReq{{Part: owned, Priv: WriteDiscard, Fields: []string{"a"}}}})
			from, to := "a", "b"
			for s := 0; s < steps; s++ {
				ctx.IndexLaunch(Launch{Task: "shift", Domain: dom, Reqs: []RegionReq{
					{Part: owned, Priv: WriteDiscard, Fields: []string{to}},
					{Part: owned, Proj: projNext{tiles}, Priv: ReadOnly, Fields: []string{from}},
				}})
				from, to = to, from
			}
			return out.record(append(ctx.InlineRead(r, "a"), ctx.InlineRead(r, "b")...))
		}
	}

	var base vecCell
	brt := runProgram(t, Config{Shards: shards, SafetyChecks: true}, register, build(&base))
	if got := bodies.Load(); got != tiles*steps {
		t.Fatalf("baseline ran %d shift bodies, want %d", got, tiles*steps)
	}
	inlinePulls := brt.Stats().RemotePulls - tiles*steps
	bodies.Store(0)

	testutil.CheckGoroutines(t)
	rt := NewRuntime(Config{
		Shards:          shards,
		SafetyChecks:    true,
		WireEncode:      true,
		Codec:           cluster.CodecBinary,
		PartialRestart:  true,
		CheckpointEvery: 4,
		HeartbeatEvery:  3 * time.Millisecond,
		HeartbeatPhi:    12,
		OpDeadline:      2 * time.Second,
		Faults: &cluster.FaultPlan{
			Stalls: []cluster.StallWindow{{Node: 2, AfterSends: 24, Crash: true}},
		},
	})
	defer rt.Shutdown()
	register(rt)
	// The counters at the last restart decision: everything after it
	// belongs to the attempt that completes.
	var mu sync.Mutex
	var pullsBefore, bodiesBefore uint64
	var out vecCell
	err := rt.RunSupervised(build(&out), SupervisorPolicy{
		MaxRestarts: 6,
		Backoff:     time.Millisecond,
		OnEvent: func(SupervisorEvent) {
			mu.Lock()
			pullsBefore, bodiesBefore = rt.Stats().RemotePulls, bodies.Load()
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatalf("RunSupervised: %v", err)
	}
	st := rt.Stats()
	if st.PartialRestarts == 0 || st.ReplaySkips == 0 {
		t.Fatalf("the crash did not exercise a partial replay window: %+v", st)
	}
	mu.Lock()
	pulls, ran := st.RemotePulls-pullsBefore, bodies.Load()-bodiesBefore
	mu.Unlock()
	if pulls != ran+inlinePulls {
		t.Fatalf("the completing attempt pulled %d pieces for %d shift bodies + %d inline pieces: replay-skipped points must ask for nothing",
			pulls, ran, inlinePulls)
	}
	if ran >= tiles*steps {
		t.Fatalf("the completing attempt re-ran all %d shift bodies; survivors skipped nothing", ran)
	}
	got, want := out.get(), base.get()
	if len(got) != len(want) {
		t.Fatalf("recovered run has %d outputs, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("output[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	if rt.ControlHash() != brt.ControlHash() {
		t.Fatalf("control hash %x, want %x", rt.ControlHash(), brt.ControlHash())
	}
}
