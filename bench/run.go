package main

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is what one run of one workload yields: the driver's result
// line (correct/attempted/failed/metrics) plus the detail the suite
// records beside it.
type outcome struct {
	// Attempted counts the program executions whose outputs were
	// checked (probes, timed runs, reference runs, recovery cycles);
	// Failed those that errored or produced a wrong output, a split
	// ControlHash, or a recovery that did not converge bit-identically.
	Attempted, Failed int
	Failures          []string
	Metrics           map[string]metric
	Detail            detail
}

// detail records how the numbers were obtained.
type detail struct {
	Plan windowPlan `json:"plan"`
	// Samples is the number of timed windows (steady workloads) or
	// cycles (recovery) behind the percentiles; SetupSamples the number
	// of set-ups behind setup_s.
	Samples      int `json:"samples"`
	SetupSamples int `json:"setup_samples"`
	// Flags lists diagnostic rows outside their expected range.
	Flags []string `json:"flags,omitempty"`
}

func (o *outcome) check(failures []string) {
	o.Attempted++
	if len(failures) > 0 {
		o.Failed++
		o.Failures = append(o.Failures, failures...)
	}
}

func (o *outcome) set(defs []metricDef, name string, v float64) {
	for _, d := range defs {
		if d.Name == name {
			o.Metrics[name] = metric{Value: v, Unit: d.Unit}
			return
		}
	}
	panic("bench: metric " + name + " is not in the table")
}

// sizing scales a run: how many set-ups and probe windows precede the
// timed region, and the floor on timed windows.
type sizing struct {
	Seconds      float64
	Probes       int
	ProbeWindows int
	MinWindows   int
	MinCycles    int
	Quick        bool
	// WorkDir receives checkpoint spills; it is removed content-wise by
	// the code that fills it.
	WorkDir string
}

func fullSizing(seconds float64, workDir string) sizing {
	return sizing{Seconds: seconds, Probes: 4, ProbeWindows: 2, MinWindows: 100, MinCycles: 2, WorkDir: workDir}
}

// quickSizing is the smoke configuration: every code path, no useful
// numbers.
func quickSizing(workDir string) sizing {
	return sizing{Seconds: 0.2, Probes: 1, ProbeWindows: 2, MinWindows: 4, MinCycles: 1, Quick: true, WorkDir: workDir}
}

// windowsFor sizes the timed region: the number of windows that fill
// `seconds` at the probed per-iteration time, never below the floor
// that keeps ten samples beyond the p90.
func windowsFor(seconds, iterUs float64, iters, floor int) int {
	n := int(seconds * 1e6 / (iterUs * float64(iters)))
	if n < floor {
		n = floor
	}
	return n
}

// peakRSSMB reads the process's high-water resident set (VmHWM).
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// probeSteady runs the short set-up probes: each is a complete set-up
// (its time is a setup_s sample) followed by a few timed windows (the
// per-iteration estimate that sizes the timed region).
func probeSteady(w *workload, seed uint64, sz sizing, o *outcome) (setups, iterUs []float64, err error) {
	plan := windowPlan{Warmup: w.Warmup, Windows: sz.ProbeWindows, Iters: w.Iters}
	for i := 0; i < sz.Probes; i++ {
		run, err := runSteady(w, seed, plan, steadyOpts{})
		if err != nil {
			return nil, nil, err
		}
		if err := verifySteady(w, seed, run); err != nil {
			return nil, nil, err
		}
		o.check(run.Failures)
		setups = append(setups, run.Setup.Seconds())
		iterUs = append(iterUs, run.iterTimes()...)
	}
	return setups, iterUs, nil
}

// timedSamples is what the timed part of an untraced run collected.
type timedSamples struct {
	iterUs, setups []float64
	tasks          uint64
	timed          time.Duration
	plan           windowPlan
}

// measureEndToEnd is the untraced run: timers off, every end-to-end
// metric.
func measureEndToEnd(w *workload, seed uint64, sz sizing) (*outcome, error) {
	o := &outcome{Metrics: make(map[string]metric)}
	collect := steadySamples
	if w.Kind == kindRecover {
		collect = recoverSamples
	}
	s, err := collect(w, seed, sz, o)
	if err != nil {
		return nil, err
	}
	o.set(endToEnd, "iter_us_p50", median(s.iterUs))
	o.set(endToEnd, "iter_us_p90", percentile(s.iterUs, 90))
	o.set(endToEnd, "tasks_per_s", float64(s.tasks)/s.timed.Seconds())
	o.set(endToEnd, "setup_s", median(s.setups))
	o.Detail = detail{Plan: s.plan, Samples: len(s.iterUs), SetupSamples: len(s.setups)}
	return o, nil
}

// steadySamples probes, sizes the timed region and runs it: one sample
// per timed window.
func steadySamples(w *workload, seed uint64, sz sizing, o *outcome) (timedSamples, error) {
	setups, est, err := probeSteady(w, seed, sz, o)
	if err != nil {
		return timedSamples{}, err
	}
	plan := windowPlan{Warmup: w.Warmup, Iters: w.Iters,
		Windows: windowsFor(sz.Seconds, median(est), w.Iters, sz.MinWindows)}
	run, err := runSteady(w, seed, plan, steadyOpts{})
	if err != nil {
		return timedSamples{}, err
	}
	if err := verifySteady(w, seed, run); err != nil {
		return timedSamples{}, err
	}
	o.check(run.Failures)
	return timedSamples{
		iterUs: run.iterTimes(), setups: append(setups, run.Setup.Seconds()),
		tasks: run.Tasks, timed: run.Timed, plan: plan,
	}, nil
}

// recoverSamples times fault-free supervised passes of the fixed
// program, each on a fresh fleet, then runs (and checks) kill cycles. A
// supervised run has no steady state to window — a checkpoint cut copies
// the whole journal, so per-iteration cost grows with run length — and
// kill → recover time is trimodal on this box (README.md), so neither
// can carry a bound.
func recoverSamples(w *workload, seed uint64, sz sizing, o *outcome) (timedSamples, error) {
	s := timedSamples{plan: recoverPlan}
	// The passes fill 70% of the budget, the kill cycles the rest. Both
	// loop on the wall clock — legitimately: between programs, outside
	// any replicated control flow.
	begin := time.Now()
	for n := 0; n < sz.MinWindows/10 || time.Since(begin).Seconds() < 0.7*sz.Seconds; n++ {
		c, err := runCycle(w, seed, nil, sz.WorkDir, false, false)
		if err != nil {
			return s, err
		}
		o.check(c.Failures)
		s.setups = append(s.setups, c.Setup.Seconds())
		s.iterUs = append(s.iterUs, float64(c.Cycle.Microseconds())/recoverSteps)
		s.tasks += c.Tasks
		s.timed += c.Cycle
	}
	begin = time.Now()
	for n := 0; n < sz.MinCycles || time.Since(begin).Seconds() < 0.3*sz.Seconds; n++ {
		kill := genKill(w, seed, n)
		c, err := runCycle(w, seed, &kill, sz.WorkDir, false, false)
		if err != nil {
			return s, err
		}
		o.check(c.Failures)
	}
	return s, nil
}

// gomaxprocs is the parallelism every workload runs at.
func gomaxprocs() int {
	n := runtime.NumCPU()
	if n > 4 {
		n = 4
	}
	return n
}
