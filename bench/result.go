package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"time"
)

// runLine is the last line a single-workload run prints: exactly the
// keys the driver reads.
type runLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// environment records where and how a result was produced.
type environment struct {
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GOGC       string  `json:"gogc"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	LoadAvg    string  `json:"loadavg_at_start"`
	Time       string  `json:"time"`
}

func readEnvironment(seed uint64, seconds float64) environment {
	env := environment{
		Commit: "unknown", GoVersion: runtime.Version(), NProc: runtime.NumCPU(),
		GOMAXPROCS: gomaxprocs(), GOGC: "100", Seed: seed, Seconds: seconds,
		Time: time.Now().UTC().Format(time.RFC3339),
	}
	if v := os.Getenv("GOGC"); v != "" {
		env.GOGC = v
	}
	// Outside a git checkout (the driver's) the commit stays unknown.
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		env.Commit = strings.TrimSpace(string(out))
	}
	if b, err := os.ReadFile("/proc/loadavg"); err == nil {
		env.LoadAvg = strings.Join(strings.Fields(string(b))[:3], " ")
	}
	return env
}

// workloadResult is one workload's rows in a suite result.
type workloadResult struct {
	EndToEnd map[string]metric `json:"end_to_end"`
	PerLayer map[string]metric `json:"per_layer"`
	// FailFrac is failed ÷ attempted over both runs; it must be 0.
	FailFrac  float64  `json:"fail_frac"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Failures  []string `json:"failures,omitempty"`
	// Detail records iteration and sample counts of the untraced run,
	// TracedDetail those of the traced one.
	Detail       detail `json:"detail"`
	TracedDetail detail `json:"traced_detail"`
	// Spread is each end-to-end metric's relative interquartile spread
	// over the runs of an A/A invocation; Runs holds every run's value
	// in execution order (A B A B). Absent from a plain invocation.
	Spread map[string]float64   `json:"spread,omitempty"`
	Runs   map[string][]float64 `json:"runs,omitempty"`
}

// suiteResult is what one invocation of the whole benchmark produces.
type suiteResult struct {
	Env       environment                `json:"env"`
	Workloads map[string]*workloadResult `json:"workloads"`
}

func (r *suiteResult) write(path string) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readSuiteResult(path string) (*suiteResult, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r suiteResult
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// historyFile is the trajectory: one line of end-to-end medians per
// invocation of the whole benchmark, so the perf curve is a file.
const historyFile = "BENCH_history.jsonl"

func (r *suiteResult) appendHistory(path string) error {
	line := struct {
		Env      environment                   `json:"env"`
		EndToEnd map[string]map[string]float64 `json:"end_to_end"`
	}{Env: r.Env, EndToEnd: make(map[string]map[string]float64)}
	for name, w := range r.Workloads {
		row := make(map[string]float64, len(w.EndToEnd))
		for m, v := range w.EndToEnd {
			row[m] = v.Value
		}
		line.EndToEnd[name] = row
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// print renders every metric by name with its unit.
func (r *suiteResult) print(out io.Writer) {
	e := r.Env
	fmt.Fprintf(out, "godcr bench  commit=%s %s nproc=%d GOMAXPROCS=%d GOGC=%s seed=%d seconds=%g load=%q\n",
		e.Commit, e.GoVersion, e.NProc, e.GOMAXPROCS, e.GOGC, e.Seed, e.Seconds, e.LoadAvg)
	for _, w := range workloads {
		res := r.Workloads[w.Name]
		if res == nil {
			continue
		}
		fmt.Fprintf(out, "\n== %s  (%s)\n", w.Name, w.Why)
		fmt.Fprintf(out, "   plan %+v, %d samples, %d set-ups; traced plan %+v, %d samples\n",
			res.Detail.Plan, res.Detail.Samples, res.Detail.SetupSamples, res.TracedDetail.Plan, res.TracedDetail.Samples)
		for _, d := range endToEnd {
			line := fmt.Sprintf("   %-36s %14.4f %-6s", d.Name, res.EndToEnd[d.Name].Value, d.Unit)
			if s, ok := res.Spread[d.Name]; ok {
				line += fmt.Sprintf("  spread %5.1f%% (bound %2.0f%%)", 100*s, 100*d.Bound)
			}
			fmt.Fprintln(out, line)
		}
		fmt.Fprintf(out, "   %-36s %14.4f %-6s (%d failed of %d)\n", "fail_frac", res.FailFrac, "ratio", res.Failed, res.Attempted)
		for _, d := range perLayer() {
			fmt.Fprintf(out, "   %-36s %14.4f %-6s\n", d.Name, res.PerLayer[d.Name].Value, d.Unit)
		}
		for _, f := range res.TracedDetail.Flags {
			fmt.Fprintf(out, "   FLAG %s\n", f)
		}
		for _, f := range res.Failures {
			fmt.Fprintf(out, "   FAIL %s\n", f)
		}
	}
}

// worse reports by what share of old the new value is worse, given the
// metric's direction (negative = better).
func worse(d metricDef, old, new float64) float64 {
	if old == 0 {
		return 0
	}
	if d.Better == "higher" {
		return (old - new) / old
	}
	return (new - old) / old
}

// compare applies the committed bounds to two suite results and prints
// one verdict per end-to-end metric × workload. A pairing whose
// run-to-run spread (recorded by -aa) exceeds the bound is unresolved,
// never "unchanged". It returns the number of regressions.
func compare(out io.Writer, old, new *suiteResult) int {
	regressions := 0
	fmt.Fprintf(out, "%-20s %-12s %14s %14s %8s %8s  %s\n", "workload", "metric", "old", "new", "worse", "spread", "verdict")
	for _, w := range workloads {
		a, b := old.Workloads[w.Name], new.Workloads[w.Name]
		if a == nil || b == nil {
			continue
		}
		for _, d := range endToEnd {
			ov, nv := a.EndToEnd[d.Name].Value, b.EndToEnd[d.Name].Value
			delta := worse(d, ov, nv)
			sp := a.Spread[d.Name]
			if s := b.Spread[d.Name]; s > sp {
				sp = s
			}
			verdict := "unchanged"
			switch {
			case sp > d.Bound:
				verdict = "unresolved"
			case delta > d.Bound:
				verdict = "REGRESSED"
				regressions++
			case delta < -d.Bound:
				verdict = "improved"
			}
			fmt.Fprintf(out, "%-20s %-12s %14.4f %14.4f %+7.1f%% %7.1f%%  %s\n",
				w.Name, d.Name, ov, nv, 100*delta, 100*sp, verdict)
		}
		if b.Failed > a.Failed {
			fmt.Fprintf(out, "%-20s %-12s %14d %14d %8s %8s  %s\n", w.Name, "failed", a.Failed, b.Failed, "", "", "REGRESSED")
			regressions++
		}
	}
	return regressions
}

// mergeAA folds the runs of an A/A invocation (A B A B per workload)
// into one result: each end-to-end metric becomes the median over the
// runs and carries its spread, and the A-vs-B disagreement is checked
// against the metric's own bound. It returns the pairings that
// disagree by more than their bound.
func mergeAA(runs []*workloadResult) (*workloadResult, []string) {
	merged := *runs[len(runs)-1]
	merged.EndToEnd = make(map[string]metric)
	merged.Spread = make(map[string]float64)
	merged.Runs = make(map[string][]float64)
	merged.Attempted, merged.Failed, merged.Failures = 0, 0, nil
	for _, r := range runs {
		merged.Attempted += r.Attempted
		merged.Failed += r.Failed
		merged.Failures = append(merged.Failures, r.Failures...)
	}
	merged.FailFrac = float64(merged.Failed) / float64(merged.Attempted)
	var noisy []string
	for _, d := range endToEnd {
		var all, setA, setB []float64
		for i, r := range runs {
			v := r.EndToEnd[d.Name].Value
			all = append(all, v)
			if i%2 == 0 {
				setA = append(setA, v)
			} else {
				setB = append(setB, v)
			}
		}
		merged.EndToEnd[d.Name] = metric{Value: median(all), Unit: d.Unit}
		merged.Spread[d.Name] = spread(all)
		merged.Runs[d.Name] = all
		if diff := worse(d, median(setA), median(setB)); diff > d.Bound || diff < -d.Bound {
			noisy = append(noisy, fmt.Sprintf("%s: sets A and B differ by %.1f%% (bound %.0f%%)", d.Name, 100*diff, 100*d.Bound))
		}
	}
	sort.Strings(noisy)
	return &merged, noisy
}
