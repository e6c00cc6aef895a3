// Command bench is the repository's benchmark: steady-state time per
// program iteration on six workloads, end to end and layer by layer,
// with correctness checked inside the harness. It drives the public
// godcr API and the internal layer packages from outside; see README.md
// for what each number means and which end-to-end metric it should move.
//
//	go run -C bench .                       every workload, every metric, by name
//	go run -C bench . -aa -out aa.json      two interleaved sets and each metric's spread
//	go run -C bench . -compare old.json new.json
//	go run -C bench . -workload stencil_ctl_mem4 -seed 1 -seconds 10 -trace 0
//
// The last form is one run of one workload (what BENCHMARK.json's
// command invokes); its final stdout line is the run's JSON result.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
)

func main() {
	var (
		workloadName = flag.String("workload", "", "run this one workload and print its JSON result line (default: the whole suite)")
		seed         = flag.Uint64("seed", 1, "workload seed: derives initial field values, circuit tile extents and the kill schedule")
		seconds      = flag.Float64("seconds", runSeconds, "how long one run measures")
		trace        = flag.Int("trace", 0, "single-workload runs: 0 = end-to-end metrics (timers off), 1 = per-layer metrics (traced)")
		quick        = flag.Bool("quick", false, "smoke sizes: every code path, no useful numbers")
		aa           = flag.Bool("aa", false, "A/A noise floor: run two full sets interleaved and record each metric's spread")
		cmp          = flag.Bool("compare", false, "compare two result files (old.json new.json) under the committed bounds")
		out          = flag.String("out", "", "suite runs: also write the result JSON here")
		printSpec    = flag.Bool("manifest", false, "print BENCHMARK.json from the metric and workload tables")
	)
	flag.Parse()
	// The workloads are sized for min(nproc, 4) scheduler threads; before
	// Go 1.25 GOMAXPROCS ignores a container's CPU quota, so pin it.
	runtime.GOMAXPROCS(gomaxprocs())

	switch {
	case *printSpec:
		os.Stdout.Write(manifest())
	case *cmp:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare needs two result files: old.json new.json"))
		}
		old, err := readSuiteResult(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		cur, err := readSuiteResult(flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if n := compare(os.Stdout, old, cur); n > 0 {
			fatal(fmt.Errorf("%d regression(s)", n))
		}
	case *workloadName != "":
		workDir, err := benchWorkDir()
		if err != nil {
			fatal(err)
		}
		sz := fullSizing(*seconds, workDir)
		if *quick {
			sz = quickSizing(workDir)
		}
		if err := runOne(*workloadName, *seed, sz, *trace == 1); err != nil {
			fatal(err)
		}
	default:
		if err := runSuite(*seed, *seconds, *quick, *aa, *out); err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

// detailPrefix marks the line on which a single-workload run prints
// what the suite records beside the result line.
const detailPrefix = "detail: "

// runOne measures one workload once and prints its result line last.
func runOne(name string, seed uint64, sz sizing, traced bool) error {
	w, err := findWorkload(name)
	if err != nil {
		return err
	}
	var o *outcome
	if traced {
		o, err = measureLayers(w, seed, sz, func() ([]microRow, error) { return microSuite(sz.WorkDir, sz.Quick) })
	} else {
		o, err = measureEndToEnd(w, seed, sz)
	}
	if err != nil {
		return err
	}
	for _, f := range o.Failures {
		fmt.Fprintln(os.Stderr, "bench: FAIL:", f)
	}
	info, err := json.Marshal(struct {
		Detail   detail   `json:"detail"`
		Failures []string `json:"failures,omitempty"`
	}{o.Detail, o.Failures})
	if err != nil {
		return err
	}
	line, err := json.Marshal(runLine{Correct: o.Failed == 0, Attempted: o.Attempted, Failed: o.Failed, Metrics: o.Metrics})
	if err != nil {
		return err
	}
	fmt.Printf("%s%s\n%s\n", detailPrefix, info, line)
	if o.Failed > 0 {
		return fmt.Errorf("%s: %d of %d checked executions failed", name, o.Failed, o.Attempted)
	}
	return nil
}

// childResult is what the suite keeps of one child run: the result
// line plus the detail line printed before it.
type childResult struct {
	runLine
	Detail   detail   `json:"detail"`
	Failures []string `json:"failures"`
}

// childRun runs one workload in its own process — a fresh heap,
// GOMAXPROCS pinned — and parses what it prints.
func childRun(name string, seed uint64, seconds float64, quick, traced bool) (*childResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"-workload", name, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", "0"}
	if traced {
		args[len(args)-1] = "1"
	}
	if quick {
		args = append(args, "-quick")
	}
	cmd := exec.Command(exe, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(gomaxprocs()))
	cmd.Stderr = os.Stderr
	// A child that prints a result but exits non-zero found wrong outputs:
	// the failures are in the result, so carry on and report them.
	stdout, runErr := cmd.Output()
	var res childResult
	var last string
	sc := bufio.NewScanner(bytes.NewReader(stdout))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), detailPrefix); ok {
			if err := json.Unmarshal([]byte(rest), &res); err != nil {
				return nil, fmt.Errorf("%s: detail line: %w", name, err)
			}
		}
		last = sc.Text()
	}
	if err := json.Unmarshal([]byte(last), &res.runLine); err != nil {
		if runErr != nil {
			return nil, fmt.Errorf("%s: %w", name, runErr)
		}
		return nil, fmt.Errorf("%s: result line: %w", name, err)
	}
	return &res, nil
}

// runSuite runs every workload — untraced then traced, each in its own
// child process — prints every metric, and appends to the trajectory.
func runSuite(seed uint64, seconds float64, quick, aa bool, outPath string) error {
	res := &suiteResult{Env: readEnvironment(seed, seconds), Workloads: make(map[string]*workloadResult)}
	sets := 1
	if aa {
		sets = 4 // A B A B
	}
	failed := 0
	var noisy []string
	for _, w := range workloads {
		var runs []*workloadResult
		for s := 0; s < sets; s++ {
			fmt.Fprintf(os.Stderr, "bench: %s (set %d of %d)\n", w.Name, s+1, sets)
			r := &workloadResult{}
			e2e, err := childRun(w.Name, seed, seconds, quick, false)
			if err != nil {
				return err
			}
			r.EndToEnd, r.Detail = e2e.Metrics, e2e.Detail
			r.Attempted, r.Failed, r.Failures = e2e.Attempted, e2e.Failed, e2e.Failures
			// One traced run per workload is enough: layer rows carry no
			// bound, so A/A does not repeat them.
			if s == sets-1 {
				lay, err := childRun(w.Name, seed, seconds, quick, true)
				if err != nil {
					return err
				}
				r.PerLayer, r.TracedDetail = lay.Metrics, lay.Detail
				r.Attempted += lay.Attempted
				r.Failed += lay.Failed
				r.Failures = append(r.Failures, lay.Failures...)
			}
			r.FailFrac = float64(r.Failed) / float64(r.Attempted)
			runs = append(runs, r)
		}
		final := runs[0]
		if aa {
			var n []string
			final, n = mergeAA(runs)
			for _, msg := range n {
				noisy = append(noisy, w.Name+": "+msg)
			}
		}
		res.Workloads[w.Name] = final
		failed += final.Failed
	}
	res.print(os.Stdout)
	for _, msg := range noisy {
		fmt.Println("NOISY", msg)
	}
	if outPath != "" {
		if err := res.write(outPath); err != nil {
			return err
		}
	}
	if !quick {
		if err := res.appendHistory(historyFile); err != nil {
			return err
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d checked execution(s) failed", failed)
	}
	if len(noisy) > 0 {
		return fmt.Errorf("A/A: %d end-to-end pairing(s) disagree by more than their bound", len(noisy))
	}
	return nil
}
