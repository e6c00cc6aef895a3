package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"godcr"
)

func TestQuantilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles([...], n=4) on the same data.
	cases := []struct {
		data       []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4}, 1.25, 2.5, 3.75},
		{[]float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}, 27.5, 55, 82.5},
		{[]float64{5, 1, 9, 3, 7}, 2, 5, 8},
	}
	for _, c := range cases {
		got := [3]float64{quantileExclusive(c.data, 0.25), median(c.data), quantileExclusive(c.data, 0.75)}
		want := [3]float64{c.q1, c.q2, c.q3}
		for i := range got {
			if math.Abs(got[i]-want[i]) > 1e-12 {
				t.Errorf("quartiles of %v = %v, want %v", c.data, got, want)
				break
			}
		}
	}
	if s := spread([]float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}); math.Abs(s-1) > 1e-12 {
		t.Errorf("spread = %v, want 1 (IQR 55 over median 55)", s)
	}
	if s := spread([]float64{7}); s != 0 {
		t.Errorf("spread of one sample = %v, want 0", s)
	}
}

func TestPercentileLeavesTenBeyondP90(t *testing.T) {
	v := make([]float64, 100)
	for i := range v {
		v[i] = float64(100 - i) // 100..1, unsorted on purpose
	}
	if p := percentile(v, 90); p != 90 {
		t.Fatalf("p90 of 1..100 = %v, want 90 (ten samples beyond)", p)
	}
	if p := percentile(v, 100); p != 100 {
		t.Fatalf("p100 = %v, want the maximum", p)
	}
	if p := percentile([]float64{3, 1, 2}, 50); p != 2 {
		t.Fatalf("p50 of {1,2,3} = %v, want 2", p)
	}
	if d := summarize([]float64{4, 2, 6}); d.Min != 2 || d.Med != 4 || d.P90 != 6 {
		t.Fatalf("summarize = %+v", d)
	}
}

func TestWindowMath(t *testing.T) {
	if n := windowsFor(10, 1000, 100, 100); n != 100 {
		t.Errorf("10 s of 100 ms windows = %d windows, want 100", n)
	}
	if n := windowsFor(1, 1000, 100, 100); n != 100 {
		t.Errorf("the floor must hold: got %d windows", n)
	}
	if n := windowsFor(10, 500, 50, 100); n != 400 {
		t.Errorf("got %d windows, want 400", n)
	}
	plan := windowPlan{Warmup: 2, Windows: 5, Iters: 10}
	if plan.totalIters() != 70 {
		t.Errorf("totalIters = %d, want 70", plan.totalIters())
	}
	run := steadyRun{Plan: plan, Windows: []time.Duration{10e6, 20e6}}
	if it := run.iterTimes(); it[0] != 1000 || it[1] != 2000 {
		t.Errorf("iterTimes = %v, want [1000 2000] µs", it)
	}
}

func TestMetricAndWorkloadTables(t *testing.T) {
	// The contract's shape: [A-Za-z0-9_.-]+, at most 64, leading alphanumeric.
	names := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	units := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := make(map[string]bool)
	check := func(kind, name string) {
		if !names.MatchString(name) {
			t.Errorf("%s name %q is not [A-Za-z0-9_.-]+ (≤64, leading alphanumeric)", kind, name)
		}
		if seen[name] {
			t.Errorf("%s name %q is used twice", kind, name)
		}
		seen[name] = true
	}
	for _, w := range workloads {
		check("workload", w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if len(workloads) < 2 || len(workloads) > 8 {
		t.Errorf("%d workloads", len(workloads))
	}
	hasSetup := false
	for _, d := range endToEnd {
		check("end-to-end metric", d.Name)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		if d.Name == "setup_s" {
			hasSetup = d.Unit == "s" && d.Better == "lower"
		}
	}
	if !hasSetup {
		t.Error("no setup_s [s, lower] among the end-to-end metrics")
	}
	layers := perLayer()
	if len(layers) > 128 {
		t.Errorf("%d per-layer metrics, at most 128 allowed", len(layers))
	}
	for _, d := range append(append([]metricDef(nil), endToEnd...), layers...) {
		if !units.MatchString(d.Unit) {
			t.Errorf("%s: bad unit %q", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better = %q", d.Name, d.Better)
		}
	}
	for _, d := range layers {
		check("per-layer metric", d.Name)
	}
}

func TestManifestMatchesCommittedFile(t *testing.T) {
	got := manifest()
	var parsed map[string]json.RawMessage
	if err := json.Unmarshal(got, &parsed); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"} {
		if _, ok := parsed[k]; !ok {
			t.Errorf("manifest lacks %q", k)
		}
	}
	if len(parsed) != 6 {
		t.Errorf("manifest has %d keys, want exactly 6", len(parsed))
	}
	if len(got) > 64<<10 {
		t.Errorf("manifest is %d bytes, over 64 KiB", len(got))
	}
	committed, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skip("no BENCHMARK.json beside bench/:", err)
	}
	if !bytes.Equal(committed, got) {
		t.Error("BENCHMARK.json is stale: regenerate it with `go run -C bench . -manifest > BENCHMARK.json`")
	}
}

func TestResultJSONRoundTrip(t *testing.T) {
	line := runLine{Correct: true, Attempted: 5, Failed: 0,
		Metrics: map[string]metric{"iter_us_p50": {Value: 603.9006, Unit: "us"}}}
	b, err := json.Marshal(line)
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(b, &keys); err != nil {
		t.Fatal(err)
	}
	if len(keys) != 4 || keys["correct"] == nil || keys["attempted"] == nil || keys["failed"] == nil || keys["metrics"] == nil {
		t.Fatalf("result line keys = %s, want exactly correct/attempted/failed/metrics", b)
	}
	var back runLine
	if err := json.Unmarshal(b, &back); err != nil || !reflect.DeepEqual(back, line) {
		t.Fatalf("run line did not round-trip: %+v (%v)", back, err)
	}

	res := &suiteResult{
		Env: readEnvironment(3, 10),
		Workloads: map[string]*workloadResult{"stencil_ctl_mem1": {
			EndToEnd:  map[string]metric{"iter_us_p50": {Value: 1.25, Unit: "us"}},
			PerLayer:  map[string]metric{"geom.intersect_ns": {Value: 30, Unit: "ns"}},
			Attempted: 7, Detail: detail{Plan: windowPlan{Warmup: 2, Windows: 100, Iters: 50}, Samples: 100, SetupSamples: 5},
			Spread: map[string]float64{"iter_us_p50": 0.02},
			Runs:   map[string][]float64{"iter_us_p50": {1, 1.5, 1.25, 1.25}},
		}},
	}
	if res.Env.GoVersion == "" || res.Env.NProc < 1 || res.Env.GOMAXPROCS < 1 || res.Env.Seed != 3 {
		t.Errorf("environment record incomplete: %+v", res.Env)
	}
	path := filepath.Join(t.TempDir(), "r.json")
	if err := res.write(path); err != nil {
		t.Fatal(err)
	}
	got, err := readSuiteResult(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, res) {
		t.Fatalf("suite result did not round-trip:\n got %+v\nwant %+v", got, res)
	}
	hist := filepath.Join(t.TempDir(), "h.jsonl")
	for i := 0; i < 2; i++ {
		if err := res.appendHistory(hist); err != nil {
			t.Fatal(err)
		}
	}
	b, err = os.ReadFile(hist)
	if err != nil {
		t.Fatal(err)
	}
	if lines := strings.Split(strings.TrimSpace(string(b)), "\n"); len(lines) != 2 || !strings.Contains(lines[1], `"stencil_ctl_mem1":{"iter_us_p50":1.25}`) {
		t.Fatalf("history = %q", b)
	}
}

func TestSeedDerivesInputs(t *testing.T) {
	for _, name := range []string{"stencil_ctl_mem4", "stencil_big_mem4"} {
		w, err := findWorkload(name)
		if err != nil {
			t.Fatal(err)
		}
		a, b, c := genStencil(w, 1), genStencil(w, 1), genStencil(w, 2)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: same seed gave different stencil inputs", name)
		}
		if reflect.DeepEqual(a.Initial, c.Initial) {
			t.Errorf("%s: different seeds gave the same initial field", name)
		}
		if len(a.Initial) != w.Tiles*w.Cells {
			t.Errorf("%s: %d initial values for %d cells", name, len(a.Initial), w.Tiles*w.Cells)
		}
	}
	w, _ := findWorkload("circuit_red_tcp4")
	a, b, c := genCircuit(w, 1), genCircuit(w, 1), genCircuit(w, 2)
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed gave different circuit inputs")
	}
	if reflect.DeepEqual(a.Lo, c.Lo) && reflect.DeepEqual(a.Hi, c.Hi) {
		t.Error("different seeds gave the same tile extents")
	}
	aliased := false
	for i := 1; i < a.Tiles; i++ {
		if a.Lo[i] <= a.Hi[i-1] {
			aliased = true
		}
		if a.Lo[i] < 0 || a.Hi[i] >= int64(a.Nodes) || a.Lo[i] > a.Hi[i] {
			t.Errorf("tile %d extent [%d,%d] outside the grid", i, a.Lo[i], a.Hi[i])
		}
	}
	if !aliased {
		t.Error("the Reduce partition is not aliased")
	}
	w, _ = findWorkload("recover_kill_tcp4")
	var kills, other []killPlan
	for n := 0; n < 8; n++ {
		k := genKill(w, 1, n)
		if k != genKill(w, 1, n) {
			t.Error("same seed and cycle gave different kills")
		}
		if k.Victim < 1 || k.Victim >= w.Shards || k.Frontier < 1 || k.Frontier > maxKillFrontier {
			t.Errorf("kill %+v out of range", k)
		}
		kills, other = append(kills, k), append(other, genKill(w, 2, n))
	}
	if reflect.DeepEqual(kills, other) {
		t.Error("different seeds gave the same kill schedule")
	}
}

// The checker must reject a wrong task body: same program, same inputs,
// but smooth weights its neighbours wrongly.
func TestCheckerRejectsWrongBody(t *testing.T) {
	w, _ := findWorkload("stencil_ctl_mem4")
	const seed = 1
	in := genStencil(w, seed)
	plan := windowPlan{Warmup: 1, Windows: 1, Iters: 3}
	execute := func(smooth godcr.TaskFn) *steadyRun {
		f, err := newFleet(w.Shards, false, godcr.Config{DisableTimers: true}, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer f.shutdown()
		sp := newSpans(false)
		f.register(func(r registrar) {
			r.RegisterTask("init", func(tc *godcr.TaskContext) (float64, error) {
				x := tc.Region(0).Field("x")
				x.Rect().Each(func(p godcr.Point) bool { x.Set(p, in.Initial[p[0]]); return true })
				return 0, nil
			})
			r.RegisterTask("bump", stencilBump)
			r.RegisterTask("smooth", smooth)
		})
		run := &steadyRun{Plan: plan, Shards: w.Shards}
		clk := &windowClock{fleet: f, final: plan.Windows}
		if err := f.run(func(rt *godcr.Runtime) error { return rt.Execute(stencilProgram(in, plan, clk, sp, &run.Out)) }); err != nil {
			t.Fatal(err)
		}
		if err := verifySteady(w, seed, run); err != nil {
			t.Fatal(err)
		}
		return run
	}
	if good := execute(stencilSmooth); len(good.Failures) != 0 {
		t.Fatalf("the real body was rejected: %v", good.Failures)
	}
	bad := execute(func(tc *godcr.TaskContext) (float64, error) {
		x := tc.Region(0).Field("x")
		g := tc.Region(1).Field("x")
		x.Rect().Each(func(p godcr.Point) bool {
			x.Set(p, 0.5*x.At(p)+0.2500001*(g.At(godcr.Pt1(p[0]-1))+g.At(godcr.Pt1(p[0]+1))))
			return true
		})
		return 0, nil
	})
	if len(bad.Failures) == 0 {
		t.Fatal("a wrong smooth body passed the output check")
	}
}

func TestCompareVerdicts(t *testing.T) {
	mk := func(p50, sp float64) *suiteResult {
		w := &workloadResult{EndToEnd: make(map[string]metric), Attempted: 1}
		for _, d := range endToEnd {
			w.EndToEnd[d.Name] = metric{Value: 100, Unit: d.Unit}
		}
		w.EndToEnd["iter_us_p50"] = metric{Value: p50, Unit: "us"}
		if sp > 0 {
			w.Spread = map[string]float64{"iter_us_p50": sp}
		}
		return &suiteResult{Workloads: map[string]*workloadResult{"stencil_ctl_mem4": w}}
	}
	verdict := func(old, cur *suiteResult) (string, int) {
		var buf bytes.Buffer
		n := compare(&buf, old, cur)
		for _, line := range strings.Split(buf.String(), "\n") {
			if strings.Contains(line, "iter_us_p50") {
				f := strings.Fields(line)
				return f[len(f)-1], n
			}
		}
		t.Fatalf("no iter_us_p50 row in:\n%s", buf.String())
		return "", 0
	}
	for _, c := range []struct {
		old, cur, spread float64
		want             string
		regressions      int
	}{
		{100, 104, 0.02, "unchanged", 0},
		{100, 120, 0.02, "REGRESSED", 1},
		{100, 80, 0.02, "improved", 0},
		{100, 120, 0.30, "unresolved", 0}, // spread wider than the bound: never "unchanged"
		{100, 101, 0.30, "unresolved", 0},
	} {
		if got, n := verdict(mk(c.old, c.spread), mk(c.cur, 0)); got != c.want || n != c.regressions {
			t.Errorf("%v → %v at spread %v: %s (%d regressions), want %s (%d)", c.old, c.cur, c.spread, got, n, c.want, c.regressions)
		}
	}
	// tasks_per_s is better when higher: a drop is the regression.
	d := endToEnd[2]
	if d.Name != "tasks_per_s" || worse(d, 100, 80) <= 0 || worse(d, 100, 120) >= 0 {
		t.Errorf("direction of %s mishandled", d.Name)
	}
}

func TestMergeAA(t *testing.T) {
	run := func(p50 float64) *workloadResult {
		w := &workloadResult{EndToEnd: make(map[string]metric), Attempted: 2}
		for _, d := range endToEnd {
			w.EndToEnd[d.Name] = metric{Value: 50, Unit: d.Unit}
		}
		w.EndToEnd["iter_us_p50"] = metric{Value: p50, Unit: "us"}
		return w
	}
	merged, noisy := mergeAA([]*workloadResult{run(100), run(102), run(101), run(103)})
	if len(noisy) != 0 {
		t.Errorf("sets within 2%% flagged noisy: %v", noisy)
	}
	if merged.EndToEnd["iter_us_p50"].Value != 101.5 || merged.Attempted != 8 || len(merged.Runs["iter_us_p50"]) != 4 {
		t.Errorf("merged = %+v", merged)
	}
	if s := merged.Spread["iter_us_p50"]; s <= 0 || s > 0.05 {
		t.Errorf("spread = %v", s)
	}
	if _, noisy = mergeAA([]*workloadResult{run(100), run(130), run(100), run(130)}); len(noisy) != 1 {
		t.Errorf("a 30%% A/B disagreement was not flagged: %v", noisy)
	}
}

// The -quick smoke: every workload, both run kinds, every metric named.
func TestQuickSmokeAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	sz := quickSizing(t.TempDir())
	rows, err := microSuite(sz.WorkDir, true)
	if err != nil {
		t.Fatal(err)
	}
	micro := func() ([]microRow, error) { return rows, nil } // once for all six
	for i := range workloads {
		w := &workloads[i]
		e2e, err := measureEndToEnd(w, 1, sz)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		lay, err := measureLayers(w, 1, sz, micro)
		if err != nil {
			t.Fatalf("%s traced: %v", w.Name, err)
		}
		for _, o := range []*outcome{e2e, lay} {
			if o.Attempted < 1 || o.Failed != 0 {
				t.Errorf("%s: %d of %d executions failed: %v", w.Name, o.Failed, o.Attempted, o.Failures)
			}
		}
		if len(e2e.Metrics) != len(endToEnd) {
			t.Errorf("%s: %d end-to-end metrics, want %d", w.Name, len(e2e.Metrics), len(endToEnd))
		}
		for _, d := range endToEnd {
			if m, ok := e2e.Metrics[d.Name]; !ok || !(m.Value > 0) || m.Unit != d.Unit {
				t.Errorf("%s: %s = %+v (must be present and never 0)", w.Name, d.Name, m)
			}
		}
		if len(lay.Metrics) != len(perLayer()) {
			t.Errorf("%s: %d per-layer metrics, want %d", w.Name, len(lay.Metrics), len(perLayer()))
		}
		for _, d := range perLayer() {
			if m, ok := lay.Metrics[d.Name]; !ok || m.Unit != d.Unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
				t.Errorf("%s: %s = %+v", w.Name, d.Name, m)
			}
		}
		if w.Shards == 1 && lay.Metrics["core.remote_pulls_per_iter"].Value != 0 {
			t.Errorf("%s: a single shard pulled remotely", w.Name)
		}
	}
}
