package main

import (
	"fmt"
	"os"
	"time"

	"godcr"
)

// measureLayers is the traced run: timers on, the benchmark's own spans
// around its calls into the API, companion runs of the same program on
// the other backends, and the layer micro-suite's rows. It yields every
// per-layer metric; rows that do not apply to the workload read 0.
//
// micro runs (or returns) the layer micro-suite; it is called after the
// workload's own runs so its allocations stay out of diag.peak_rss_mb.
func measureLayers(w *workload, seed uint64, sz sizing, micro func() ([]microRow, error)) (*outcome, error) {
	o := &outcome{Metrics: make(map[string]metric)}
	for _, d := range perLayer() {
		o.Metrics[d.Name] = metric{Unit: d.Unit}
	}
	var wire wireModel
	var err error
	if w.Kind == kindRecover {
		err = recoverLayers(w, seed, sz, o)
	} else {
		wire, err = steadyLayers(w, seed, sz, o)
	}
	if err != nil {
		return nil, err
	}
	rows, err := micro()
	if err != nil {
		return nil, err
	}
	med := make(map[string]float64, len(rows))
	for _, r := range rows {
		med[r.Name] = r.Med
		o.set(microDefs, r.Name, r.Med)
		if r.Name != "core.spill.bytes" {
			o.Metrics[r.Name+".min"] = metric{Value: r.Min, Unit: r.Unit}
			o.Metrics[r.Name+".p90"] = metric{Value: r.P90, Unit: r.Unit}
		}
	}
	// Reconciliation of the micro rows against the wire's measured cost:
	// a shard's pulls are serial, the shards' overlap, and every inserted
	// fence is one barrier.
	if wire.extraUs > 0 {
		model := wire.pullsPerShardIter*med["cluster.tcp.rtt_us"] + wire.fencesPerIter*med["collective.barrier_us_tcp4"]
		o.layer("recon.wire_ratio", model/wire.extraUs)
	}
	// The reconciliation rows are flagged where they are expected to
	// close: the wire model on TCP workloads, the analysis share on a
	// single shard (with more, a shard analyses 1/N and waits for the rest).
	flag := func(name string) {
		if v := o.Metrics[name].Value; v < 0.5 || v > 2 {
			o.Detail.Flags = append(o.Detail.Flags, fmt.Sprintf("%s = %.2f is outside [0.5, 2]", name, v))
		}
	}
	if wire.extraUs > 0 {
		flag("recon.wire_ratio")
	}
	if w.Shards == 1 {
		flag("recon.analysis_ratio")
	}
	return o, nil
}

func (o *outcome) layer(name string, v float64) { o.set(layerDefs, name, v) }

// per divides, reading 0 where the denominator is (a row that does not
// apply to the workload).
func per(total, n float64) float64 {
	if n == 0 {
		return 0
	}
	return total / n
}

// tracedRegion is a traced stretch of execution with the counter
// readings that bracket it.
type tracedRegion struct {
	first, last counters
	spans       *godcr.TimerSnapshot
	// iters is the number of program iterations issued in the region,
	// wall its duration, execute the whole Execute/RunSupervised call the
	// spans cover.
	iters         float64
	shards        int
	wall, execute time.Duration
}

// wireModel is what recon.wire_ratio needs from a TCP workload's runs:
// the per-iteration time the wire adds over the in-process backend at
// the same shard count, and the counts the micro rows are weighed by.
type wireModel struct {
	extraUs, pullsPerShardIter, fencesPerIter float64
}

// regionRows are the quantities the reconciliation rows reuse.
type regionRows struct {
	analysisUsPerIter, pullsPerIter, fencesPerIter float64
}

// counterRows derives the span and counter rows of a traced region.
func (o *outcome) counterRows(r tracedRegion) regionRows {
	shards := float64(r.shards)
	stage := func(path string) (us, count float64) {
		ns, n := timerDelta(r.first.timers, r.last.timers, path)
		return float64(ns) / 1e3, float64(n)
	}
	span := func(name string) (us, count float64) {
		if n := r.spans.Find(name); n != nil {
			return float64(n.SelfNs) / 1e3, float64(n.Count)
		}
		return 0, 0
	}
	delta := func(f func(c *counters) uint64) float64 { return float64(f(&r.last) - f(&r.first)) }
	points := delta(func(c *counters) uint64 { return c.core.PointTasks })
	pulls := delta(func(c *counters) uint64 { return c.core.RemotePulls })
	local := delta(func(c *counters) uint64 { return c.core.LocalResolves })
	// Every shard makes (and counts) the same coarse decisions.
	fencesIn := delta(func(c *counters) uint64 { return c.core.FencesInserted }) / shards
	fencesOut := delta(func(c *counters) uint64 { return c.core.FencesElided }) / shards

	launchUs, launches := span("launch_call")
	fenceUs, fences := span("fence_drain")
	getUs, gets := span("future_get")
	bodyUs, bodies := span("task_body")
	o.layer("bench.launch_call_us", per(launchUs, launches))
	o.layer("bench.fence_drain_us", per(fenceUs, fences))
	o.layer("bench.future_get_us", per(getUs, gets))
	o.layer("bench.task_body_us", per(bodyUs, bodies))
	// Body spans cover the whole call (init and warm-up too), so the
	// share is taken over it, on the cores the run had.
	o.layer("bench.body_core_share", bodyUs/1e6/(r.execute.Seconds()*float64(gomaxprocs())))
	o.layer("bench.execute_s", r.execute.Seconds())

	coarseUs, coarseOps := stage("coarse/analysis")
	fineUs, _ := stage("fine/analysis")
	waitUs, _ := stage("fine/fence_wait")
	pointUs, pointN := stage("execute/point")
	pullUs, _ := stage("execute/pull_wire")
	collUs, _ := stage("collective")
	o.layer("core.coarse.us_per_op", per(coarseUs, coarseOps))
	o.layer("core.fine.us_per_point", per(fineUs, points))
	o.layer("core.fine.fence_wait_share", waitUs/(shards*float64(r.wall.Microseconds())))
	o.layer("core.exec.point_us_per_task", per(pointUs, pointN))
	o.layer("core.exec.pull_wire_us_per_iter", pullUs/shards/r.iters)
	o.layer("collective.us_per_iter", collUs/shards/r.iters)
	o.layer("core.fences_inserted_per_iter", fencesIn/r.iters)
	o.layer("core.fences_elided_per_iter", fencesOut/r.iters)
	o.layer("core.remote_pulls_per_iter", pulls/r.iters)
	o.layer("core.pull_local_ratio", per(local, local+pulls))
	o.layer("cluster.msgs_per_iter", delta(func(c *counters) uint64 { return c.core.Messages })/r.iters)
	o.layer("cluster.bytes_per_iter", delta(func(c *counters) uint64 { return c.core.Bytes })/r.iters)
	o.layer("cluster.tcp.frames_per_iter", delta(func(c *counters) uint64 { return c.wire.FramesOut })/r.iters)
	o.layer("cluster.piggy_ack_ratio", per(
		delta(func(c *counters) uint64 { return c.tr.PiggyAcks }),
		delta(func(c *counters) uint64 { return c.tr.Acks })))
	o.layer("cluster.retransmits", float64(r.last.tr.Retransmits))
	o.layer("cluster.corrupt_frames", float64(r.last.wire.CorruptFrames))
	o.layer("cluster.reconnects", float64(r.last.wire.Reconnects))
	o.layer("core.allocs_per_iter", float64(r.last.mallocs-r.first.mallocs)/r.iters)
	o.layer("core.gc_pause_ms", float64((r.last.gcPause-r.first.gcPause).Microseconds())/1e3)
	return regionRows{
		analysisUsPerIter: (coarseUs + fineUs) / shards / r.iters,
		pullsPerIter:      pulls / r.iters,
		fencesPerIter:     fencesIn / r.iters,
	}
}

// steadyLayers runs the untraced/traced pairs and companions of a
// windowed workload and derives its layer rows.
func steadyLayers(w *workload, seed uint64, sz sizing, o *outcome) (wireModel, error) {
	var wire wireModel
	_, est, err := probeSteady(w, seed, sizing{Probes: 1, ProbeWindows: sz.ProbeWindows}, o)
	if err != nil {
		return wire, err
	}
	// A traced run is six short segments; each needs only a median, so
	// its floor is a sixth of the timed run's (a tenth for companions).
	segment := func(share float64, floor int, opts steadyOpts) (*steadyRun, error) {
		plan := windowPlan{Warmup: w.Warmup, Iters: w.Iters,
			Windows: windowsFor(sz.Seconds*share, median(est), w.Iters, floor)}
		run, err := runSteady(w, seed, plan, opts)
		if err != nil {
			return nil, err
		}
		// The circuit's reference is a run as long as the segment, so
		// only its traced segments are verified; the stencil's is cheap.
		if w.Kind == kindStencil || opts.Traced {
			if err := verifySteady(w, seed, run); err != nil {
				return nil, err
			}
		}
		o.check(run.Failures)
		return run, nil
	}
	floorAB, floorCompanion := (sz.MinWindows+5)/6, (sz.MinWindows+9)/10
	// Untraced and traced segments alternate (A B A B) so drift on a
	// shared box biases both sides alike.
	var plain, traced []float64
	var tr *steadyRun
	for rep := 0; rep < 2; rep++ {
		a, err := segment(0.10, floorAB, steadyOpts{})
		if err != nil {
			return wire, err
		}
		plain = append(plain, a.iterTimes()...)
		if tr, err = segment(0.15, floorAB, steadyOpts{Traced: true}); err != nil {
			return wire, err
		}
		traced = append(traced, tr.iterTimes()...)
	}
	o.layer("trace_overhead_pct", 100*(median(traced)-median(plain))/median(plain))
	o.Detail.Plan, o.Detail.Samples = tr.Plan, len(traced)
	if err := o.peakRSS(); err != nil {
		return wire, err
	}

	// Companions: the same program on one in-process shard (the
	// denominator of the replication ratio) and, for a TCP workload, on
	// the in-process backend at the same shard count (what the wire adds).
	o.layer("core.replication_ratio", 1)
	if w.Shards > 1 {
		c, err := segment(0.06, floorCompanion, steadyOpts{Shards: 1})
		if err != nil {
			return wire, err
		}
		o.layer("core.replication_ratio", median(plain)/median(c.iterTimes()))
	}
	if w.TCP {
		c, err := segment(0.06, floorCompanion, steadyOpts{Shards: w.Shards})
		if err != nil {
			return wire, err
		}
		wire.extraUs = median(plain) - median(c.iterTimes())
	}

	rows := o.counterRows(tracedRegion{
		first: tr.first, last: tr.last, spans: tr.spans,
		iters: float64(tr.Plan.Windows * tr.Plan.Iters), shards: tr.Shards,
		wall: tr.Timed, execute: tr.Execute,
	})
	o.layer("bench.shutdown_s", tr.Shutdown.Seconds())
	// Do the stage timers add up to what the iteration shows? Printed and
	// flagged, never gated.
	o.layer("recon.analysis_ratio", rows.analysisUsPerIter/median(traced))
	wire.pullsPerShardIter = rows.pullsPerIter / float64(tr.Shards)
	wire.fencesPerIter = rows.fencesPerIter
	return wire, nil
}

// peakRSS records the process's high-water resident set so far.
func (o *outcome) peakRSS() error {
	rss, err := peakRSSMB()
	if err == nil {
		o.layer("diag.peak_rss_mb", rss)
	}
	return err
}

// recoverLayers runs traced recovery cycles under both restart scopes
// and derives the supervisor rows.
func recoverLayers(w *workload, seed uint64, sz sizing, o *outcome) error {
	cycles := 3
	if sz.Quick {
		cycles = 1
	}
	ms := func(d time.Duration) float64 { return float64(d.Microseconds()) / 1e3 }
	var full, partial, restarts, waits []float64
	var tr *cycleResult
	unconverged := 0
	for n := 0; n < cycles; n++ {
		kill := genKill(w, seed, n)
		c, err := runCycle(w, seed, &kill, sz.WorkDir, false, true)
		if err != nil {
			return err
		}
		o.check(c.Failures)
		full = append(full, c.Recover.Seconds())
		restarts = append(restarts, float64(c.Restarts))
		waits = append(waits, float64(c.DeadlineWaits))
		tr = c
		// The same cycle under PartialRestart is a diagnostic row: a
		// cycle that does not converge is counted and reported, not held
		// against the workload (whose recovery path is the full restart).
		if c, err = runCycle(w, seed, &kill, sz.WorkDir, true, true); err != nil {
			return err
		}
		if len(c.Failures) > 0 {
			unconverged++
			fmt.Fprintf(os.Stderr, "bench: partial-restart cycle %d did not converge: %s\n", n, c.Failures[0])
			continue
		}
		partial = append(partial, ms(c.Recover))
	}
	o.layer("diag.recover_s_p50", median(full))
	if len(partial) > 0 {
		o.layer("core.supervisor.recover_partial_ms", median(partial))
	}
	o.layer("core.supervisor.partial_unconverged", float64(unconverged))
	o.layer("core.supervisor.restarts", median(restarts))
	o.layer("core.supervisor.deadline_waits", median(waits))
	recUs, _ := timerDelta(tr.first.timers, tr.last.timers, "supervisor/recovery")
	o.layer("core.supervisor.recovery_ms", float64(recUs)/1e6/float64(w.Shards))
	o.Detail.Plan, o.Detail.Samples = recoverPlan, len(full)

	// Tracing overhead on the fault-free supervised pass: a killed cycle
	// is dominated by detection and backoff, not by anything a timer
	// could slow.
	var plain, traced []float64
	for rep := 0; rep < cycles; rep++ {
		for _, t := range []bool{false, true} {
			c, err := runCycle(w, seed, nil, sz.WorkDir, false, t)
			if err != nil {
				return err
			}
			o.check(c.Failures)
			if t {
				traced = append(traced, c.Cycle.Seconds())
			} else {
				plain = append(plain, c.Cycle.Seconds())
			}
		}
	}
	o.layer("trace_overhead_pct", 100*(median(traced)-median(plain))/median(plain))
	o.layer("core.replication_ratio", 1)
	if err := o.peakRSS(); err != nil {
		return err
	}

	// Whole-cycle totals of the last full-restart cycle per program
	// iteration: replayed iterations inflate them, which is the point.
	o.counterRows(tracedRegion{
		first: tr.first, last: tr.last, spans: tr.spans,
		iters: recoverSteps, shards: w.Shards, wall: tr.Cycle, execute: tr.Cycle,
	})
	return nil
}
