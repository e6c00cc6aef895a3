package main

import (
	"fmt"
	"math"
	"time"

	"godcr"
	"godcr/internal/stats"
)

// spans are the benchmark's own timers around its calls into the API
// (traced runs only). They reuse the runtime's lock-free timer tree, so
// a span costs what stats.span_ns reports. API-call spans are recorded
// on shard 0 alone — every shard issues the same calls — while task
// bodies are timed wherever they run.
type spans struct {
	tree                     *stats.Tree
	launch, fence, get, body *stats.Timer
}

func newSpans(traced bool) *spans {
	tree := stats.NewDisabled("bench")
	if traced {
		tree = stats.New("bench")
	}
	return &spans{
		tree:   tree,
		launch: tree.Timer("launch_call"),
		fence:  tree.Timer("fence_drain"),
		get:    tree.Timer("future_get"),
		body:   tree.Timer("task_body"),
	}
}

// start opens a span on the lead shard (0 elsewhere and when untraced;
// Timer.Stop discards a zero mark).
func (s *spans) start(lead bool) int64 {
	if !lead {
		return 0
	}
	return s.launch.Start()
}

// wrapBody times a task body.
func (s *spans) wrapBody(fn godcr.TaskFn) godcr.TaskFn {
	if !s.tree.Enabled() {
		return fn
	}
	return func(tc *godcr.TaskContext) (float64, error) {
		t := s.body.Start()
		v, err := fn(tc)
		s.body.Stop(t)
		return v, err
	}
}

// windowClock is what shard 0 records while the program runs. Stamp 0
// is taken after the warm-up windows' closing fence, stamp i after
// timed window i. Only shard 0's program goroutine writes it, and the
// harness reads it after Execute returns.
type windowClock struct {
	fleet  *fleet
	traced bool
	// final is the index of the last stamp (the number of timed windows).
	final  int
	stamps []time.Time
	// tasksFirst/tasksEnd are the cluster-wide executed point-task
	// counts at the first and last stamp: read right after a fence, when
	// no point task is in flight.
	tasksFirst, tasksEnd uint64
	// first/last are the full counter readings bracketing the timed
	// region (traced runs only). Both are taken outside it: a reading
	// stops the world for ReadMemStats.
	first, last counters
}

func (c *windowClock) stamp() {
	switch len(c.stamps) {
	case 0:
		c.tasksFirst = c.fleet.pointTasks()
		if c.traced {
			c.first = c.fleet.counters()
		}
		c.stamps = append(c.stamps, time.Now())
	case c.final:
		c.stamps = append(c.stamps, time.Now())
		c.tasksEnd = c.fleet.pointTasks()
		if c.traced {
			c.last = c.fleet.counters()
		}
	default:
		c.stamps = append(c.stamps, time.Now())
	}
}

// steadyRun is everything one windowed Execute yields.
type steadyRun struct {
	Plan   windowPlan
	Shards int
	// Setup is construction → first timed stamp: transports, runtimes,
	// task registration, region/partition creation, init and warm-up.
	Setup time.Duration
	// Windows are the timed window durations; Timed is their sum.
	Windows []time.Duration
	Timed   time.Duration
	// Tasks is the number of point tasks executed in the timed region.
	Tasks             uint64
	Execute, Shutdown time.Duration
	// Failures lists every correctness violation found so far.
	Failures []string
	// Out is shard 0's InlineRead of the final field, FutSum the running
	// total of the circuit's reduced futures, CtlHash runtime 0's
	// control-determinism digest.
	Out     []float64
	FutSum  float64
	CtlHash [2]uint64
	// first/last bracket the timed region (traced runs only).
	first, last counters
	spans       *stats.Snapshot
}

// iterTimes returns the per-iteration time of every window, in µs.
func (r *steadyRun) iterTimes() []float64 {
	out := make([]float64, len(r.Windows))
	for i, w := range r.Windows {
		out[i] = float64(w.Nanoseconds()) / 1e3 / float64(r.Plan.Iters)
	}
	return out
}

// steadyOpts tune one run beyond the workload's fixed shape.
type steadyOpts struct {
	// Shards/TCP override the workload's backend (companion and
	// reference runs of the same program); zero Shards keeps it.
	Shards int
	TCP    bool
	Traced bool
}

// runSteady builds a fleet, runs the workload's windowed program with
// the given plan, and tears the fleet down. Outputs are checked by
// verifySteady.
func runSteady(w *workload, seed uint64, plan windowPlan, o steadyOpts) (*steadyRun, error) {
	if plan.Warmup < 1 || plan.Windows < 1 || plan.Iters < 1 {
		return nil, fmt.Errorf("bad window plan %+v", plan)
	}
	shards, tcp := w.Shards, w.TCP
	if o.Shards > 0 {
		shards, tcp = o.Shards, o.TCP
	}
	res := &steadyRun{Plan: plan, Shards: shards}
	sp := newSpans(o.Traced)
	start := time.Now()
	f, err := newFleet(shards, tcp, godcr.Config{DisableTimers: !o.Traced}, nil)
	if err != nil {
		return nil, err
	}
	clk := &windowClock{fleet: f, traced: o.Traced, final: plan.Windows}
	var prog godcr.Program
	switch w.Kind {
	case kindStencil:
		in := genStencil(w, seed)
		f.register(func(r registrar) { registerStencil(r, in, sp.wrapBody) })
		prog = stencilProgram(in, plan, clk, sp, &res.Out)
	case kindCircuit:
		in := genCircuit(w, seed)
		f.register(func(r registrar) { registerCircuit(r, in, sp.wrapBody) })
		prog = circuitProgram(in, plan, clk, sp, &res.Out, &res.FutSum)
	default:
		f.shutdown()
		return nil, fmt.Errorf("workload %s is not a steady-state workload", w.Name)
	}

	t0 := time.Now()
	err = f.run(func(rt *godcr.Runtime) error { return rt.Execute(prog) })
	res.Execute = time.Since(t0)
	if err == nil && f.controlHashSplit() {
		res.Failures = append(res.Failures, "ControlHash differs across the runtimes of one run")
	}
	res.CtlHash = f.rts[0].ControlHash()
	t0 = time.Now()
	f.shutdown()
	res.Shutdown = time.Since(t0)
	if err != nil {
		return nil, fmt.Errorf("%s: execute: %w", w.Name, err)
	}
	if len(clk.stamps) != plan.Windows+1 {
		return nil, fmt.Errorf("%s: %d stamps for %d windows", w.Name, len(clk.stamps), plan.Windows)
	}
	res.Setup = clk.stamps[0].Sub(start)
	res.Windows = make([]time.Duration, plan.Windows)
	for i := range res.Windows {
		res.Windows[i] = clk.stamps[i+1].Sub(clk.stamps[i])
	}
	res.Timed = clk.stamps[plan.Windows].Sub(clk.stamps[0])
	res.Tasks = clk.tasksEnd - clk.tasksFirst
	res.first, res.last = clk.first, clk.last
	res.spans = sp.tree.Snapshot()
	return res, nil
}

// verifySteady checks a run's outputs and appends every violation to
// run.Failures. The stencil is compared with the plain sequential
// reference; the circuit with a single-shard in-process run of the same
// seed and plan (field, reduced-future total and ControlHash).
func verifySteady(w *workload, seed uint64, run *steadyRun) error {
	switch w.Kind {
	case kindStencil:
		want := stencilReference(genStencil(w, seed), run.Plan.totalIters())
		if got, ref := checksum(run.Out), checksum(want); got != ref {
			run.Failures = append(run.Failures,
				fmt.Sprintf("stencil output checksum %016x != sequential reference %016x", got, ref))
		}
	case kindCircuit:
		ref, err := runSteady(w, seed, run.Plan, steadyOpts{Shards: 1})
		if err != nil {
			return fmt.Errorf("circuit reference run: %w", err)
		}
		if got, want := checksum(run.Out), checksum(ref.Out); got != want {
			run.Failures = append(run.Failures,
				fmt.Sprintf("circuit voltage checksum %016x != single-shard run %016x", got, want))
		}
		if math.Float64bits(run.FutSum) != math.Float64bits(ref.FutSum) {
			run.Failures = append(run.Failures,
				fmt.Sprintf("circuit reduced-future total %v != single-shard run %v", run.FutSum, ref.FutSum))
		}
		if run.CtlHash != ref.CtlHash {
			run.Failures = append(run.Failures, "circuit ControlHash differs from the single-shard run")
		}
	}
	return nil
}
