package main

import (
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"godcr"
)

// The recovery workload: a supervised stencil over TCP loopback whose
// seed-chosen victim shard is torn down abruptly (no goodbye, like a
// SIGKILL) once it has spilled a checkpoint at the seed-chosen
// frontier, then reborn on the same address and checkpoint directory.
// One such run is a cycle; a benchmark run repeats cycles.

const (
	recoverSteps = 150
	// maxKillFrontier bounds the seed-chosen kill frontier to the first
	// part of the run (init + 2 launches per step ≈ 300 ops), so the
	// victim always dies with most of the program still ahead of it.
	maxKillFrontier = 120
)

// recoverPlan is the recovery program's schedule: recoverSteps
// iterations with one fence in the middle and one at the end.
var recoverPlan = windowPlan{Warmup: 1, Windows: 1, Iters: recoverSteps / 2}

// cycleResult is one supervised run.
type cycleResult struct {
	// Setup is the time to the first task body: checkpoint directories,
	// transports, runtimes, task registration, and the supervised run's
	// own start-up (dial, epoch rendezvous, detector, pipeline). Cycle is
	// RunSupervised start → last shard complete; Recover is kill → last
	// shard complete (0 without a kill).
	Setup, Cycle, Recover time.Duration
	// Tasks is the number of point tasks the program launches.
	Tasks uint64
	// Restarts counts supervisor restart decisions across all runtimes;
	// DeadlineWaits those whose failed attempt ended in a watchdog
	// StallError — it waited out OpDeadline — rather than a detector
	// conviction or a peer's abort.
	Restarts, DeadlineWaits int
	PartialRestarts         uint64
	Failures                []string
	// first/last are the counter readings at fleet construction and at
	// the end of the cycle (traced cycles only).
	first, last counters
	spans       *godcr.TimerSnapshot
}

// runCycle runs one supervised stencil, killing and reviving kill's
// victim mid-run; a nil kill is the fault-free supervised run.
func runCycle(w *workload, seed uint64, kill *killPlan, workDir string, partial, traced bool) (*cycleResult, error) {
	res := &cycleResult{}
	in := genStencil(w, seed)
	start := time.Now()
	dirs := make([]string, w.Shards)
	for i := range dirs {
		d, err := os.MkdirTemp(workDir, "ckpt-*")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(d)
		dirs[i] = d
	}
	cfg := godcr.Config{
		CheckpointEvery: 4,
		HeartbeatEvery:  5 * time.Millisecond,
		OpDeadline:      2 * time.Second,
		PartialRestart:  partial,
		DisableTimers:   !traced,
	}
	perShard := func(shard int, c *godcr.Config) { c.CheckpointDir = dirs[shard] }
	f, err := newFleet(w.Shards, true, cfg, perShard)
	if err != nil {
		return nil, err
	}
	defer f.shutdown()
	if traced {
		res.first = f.counters()
	}
	sp := newSpans(traced)
	var firstTask atomic.Int64 // ns since start; 0 until a body has run
	wrap := func(fn godcr.TaskFn) godcr.TaskFn {
		fn = sp.wrapBody(fn)
		return func(tc *godcr.TaskContext) (float64, error) {
			if firstTask.Load() == 0 {
				firstTask.CompareAndSwap(0, int64(time.Since(start)))
			}
			return fn(tc)
		}
	}
	f.register(func(r registrar) { registerStencil(r, in, wrap) })

	var out []float64
	prog := stencilProgram(in, recoverPlan, nil, sp, &out)
	var restarts, deadlineWaits atomic.Int64
	// Restart storms on the full path resolve within a dozen attempts; a
	// partial-restart cycle that does not converge never does, so it gets
	// a smaller budget to fail faster.
	maxRestarts := 16
	if partial {
		maxRestarts = 8
	}
	// The backoff cap stays below the detector's conviction window
	// (≈370 ms at HeartbeatEvery=5ms): a process sleeping between
	// attempts for longer is convicted as dead by its peers and the
	// restart round never converges.
	pol := godcr.SupervisorPolicy{
		MaxRestarts: maxRestarts, Backoff: 5 * time.Millisecond, BackoffCap: 40 * time.Millisecond, JitterSeed: seed,
		OnEvent: func(ev godcr.SupervisorEvent) {
			restarts.Add(1)
			var stall *godcr.StallError
			if errors.As(ev.Err, &stall) {
				deadlineWaits.Add(1)
			}
		}}

	errs := make([]error, w.Shards)
	var wg sync.WaitGroup
	supervise := func(shard int, rt *godcr.Runtime) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[shard] = rt.RunSupervised(prog, pol)
		}()
	}
	begin := time.Now()
	victimDone := make(chan struct{})
	for i, rt := range f.rts {
		if kill != nil && i == kill.Victim {
			go func(rt *godcr.Runtime) {
				defer close(victimDone)
				_ = rt.RunSupervised(prog, pol) // dies mid-run; its error is the kill
			}(rt)
			continue
		}
		supervise(i, rt)
	}
	var killed time.Time
	if kill != nil {
		killed, err = f.killWhenSpilled(*kill, dirs[kill.Victim], victimDone)
		if err == nil {
			var reborn *godcr.Runtime
			if reborn, err = f.respawn(kill.Victim, cfg, perShard); err == nil {
				registerStencil(reborn, in, wrap)
				supervise(kill.Victim, reborn)
			}
		}
	}
	if err != nil {
		f.shutdown() // unblock the survivors: nobody is coming back
	}
	wg.Wait()
	if err != nil {
		return nil, err
	}
	done := time.Now()
	res.Cycle = done.Sub(begin)
	if kill != nil {
		res.Recover = done.Sub(killed)
	}
	res.Setup = time.Duration(firstTask.Load())
	res.Restarts = int(restarts.Load())
	res.DeadlineWaits = int(deadlineWaits.Load())
	res.Tasks = uint64(recoverPlan.totalIters()*2+1) * uint64(w.Tiles)

	// A cycle converged only if every shard completed, all runtimes agree
	// on the control digest, and the field is bit-identical to the
	// fault-free sequential program.
	for i, err := range errs {
		if err != nil {
			res.Failures = append(res.Failures, fmt.Sprintf("shard %d: %v", i, err))
		}
	}
	if f.controlHashSplit() {
		res.Failures = append(res.Failures, "ControlHash split after recovery")
	}
	if got, want := checksum(out), checksum(stencilReference(in, recoverPlan.totalIters())); got != want {
		res.Failures = append(res.Failures,
			fmt.Sprintf("recovered output checksum %016x != sequential reference %016x", got, want))
	}
	for _, rt := range f.rts {
		res.PartialRestarts += rt.Stats().PartialRestarts
	}
	if kill != nil && partial && res.PartialRestarts == 0 {
		res.Failures = append(res.Failures, "PartialRestart configured but no partial restart engaged")
	}
	if traced {
		res.last = f.counters()
		res.spans = sp.tree.Snapshot()
	}
	return res, nil
}

// killWhenSpilled waits until the victim's own recorder has spilled a
// cut at the chosen frontier — a mid-run death with a usable on-disk
// resume point — then tears its runtime down and returns the kill time.
func (f *fleet) killWhenSpilled(kill killPlan, dir string, victimDone <-chan struct{}) (time.Time, error) {
	spillBy := time.Now().Add(20 * time.Second)
	var err error
	for {
		if cp, lerr := godcr.LoadCheckpoint(dir); lerr == nil && cp != nil && cp.Frontier >= kill.Frontier {
			break
		}
		if time.Now().After(spillBy) {
			err = fmt.Errorf("victim %d never spilled a checkpoint at frontier %d", kill.Victim, kill.Frontier)
			break
		}
		time.Sleep(200 * time.Microsecond)
	}
	killed := time.Now()
	f.rts[kill.Victim].Shutdown()
	<-victimDone
	return killed, err
}

// respawn rebinds a dead shard's address (the dying transport releases
// it asynchronously) and starts a fresh runtime on it — what a process
// supervisor does for real.
func (f *fleet) respawn(shard int, cfg godcr.Config, perShard func(int, *godcr.Config)) (*godcr.Runtime, error) {
	rebindBy := time.Now().Add(10 * time.Second)
	for {
		ln, err := net.Listen("tcp", f.addrs[shard])
		if err == nil {
			rt, err := f.spawn(shard, ln, cfg, perShard)
			if err == nil {
				f.rts[shard] = rt
			}
			return rt, err
		}
		if time.Now().After(rebindBy) {
			return nil, fmt.Errorf("rebind %s: %w", f.addrs[shard], err)
		}
		time.Sleep(time.Millisecond)
	}
}

// benchWorkDir creates the scratch directory checkpoint spills go to:
// under the working directory, never the system temp dir, so a run
// touches nothing outside its checkout.
func benchWorkDir() (string, error) {
	if err := os.MkdirAll(".work", 0o755); err != nil {
		return "", err
	}
	return filepath.Abs(".work")
}
