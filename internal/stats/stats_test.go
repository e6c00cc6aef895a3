package stats

import (
	"encoding/json"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTimerAccumulates(t *testing.T) {
	tr := New("run")
	tm := tr.Timer("execute/point")
	tm.Add(10 * time.Millisecond)
	tm.Add(30 * time.Millisecond)
	s := tr.Snapshot()
	n := s.Find("execute/point")
	if n == nil {
		t.Fatal("execute/point not found")
	}
	if n.SelfNs != int64(40*time.Millisecond) || n.Count != 2 {
		t.Fatalf("self=%d count=%d, want 40ms/2", n.SelfNs, n.Count)
	}
	if n.AvgNs != int64(20*time.Millisecond) {
		t.Fatalf("avg=%d, want 20ms", n.AvgNs)
	}
	start := tm.Start()
	if start == 0 {
		t.Fatal("enabled timer returned zero start")
	}
	tm.Stop(start)
	if got := tr.Snapshot().Find("execute/point").Count; got != 3 {
		t.Fatalf("count=%d after Start/Stop, want 3", got)
	}
}

func TestDisabledAndNilTimers(t *testing.T) {
	tr := NewDisabled("run")
	tm := tr.Timer("execute/point")
	if tm.Start() != 0 {
		t.Fatal("disabled timer returned a live start")
	}
	tm.Stop(tm.Start())
	tm.Add(time.Second)
	s := tr.Snapshot()
	if s.TotalNs != 0 {
		t.Fatalf("disabled tree accumulated %d ns", s.TotalNs)
	}
	var nilT *Timer
	if nilT.Start() != 0 {
		t.Fatal("nil timer returned a live start")
	}
	nilT.Stop(nilT.Start())
	nilT.Add(time.Second)
}

// childSum returns the sum of a node's children's rolled-up totals.
func childSum(s *Snapshot) int64 {
	var sum int64
	for _, c := range s.Children {
		sum += c.TotalNs
	}
	return sum
}

// checkInvariants walks a snapshot asserting the structural
// invariants: every node's rolled-up total is self + child rollups
// (so child sums never exceed the parent), and nothing is negative.
func checkInvariants(t *testing.T, s *Snapshot) {
	t.Helper()
	if s.TotalNs < 0 || s.SelfNs < 0 || s.Count < 0 {
		t.Fatalf("node %q has negative counters: %+v", s.Name, s)
	}
	if cs := childSum(s); s.TotalNs != s.SelfNs+cs {
		t.Fatalf("node %q: total %d != self %d + children %d", s.Name, s.TotalNs, s.SelfNs, cs)
	}
	if childSum(s) > s.TotalNs {
		t.Fatalf("node %q: child sum %d exceeds parent total %d", s.Name, childSum(s), s.TotalNs)
	}
	for _, c := range s.Children {
		checkInvariants(t, c)
	}
}

// Totals must be non-decreasing across snapshots and the child-sum
// invariant must hold in every snapshot, even while concurrent
// goroutines hammer the timers (run under -race).
func TestMonotonicUnderConcurrency(t *testing.T) {
	tr := New("run")
	paths := []string{
		"coarse/analysis", "fine/fence_wait", "fine/analysis",
		"execute/point", "execute/pull_wire", "collective",
	}
	timers := make([]*Timer, len(paths))
	for i, p := range paths {
		timers[i] = tr.Timer(p)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				tm := timers[rng.Intn(len(timers))]
				tm.Add(time.Duration(rng.Intn(1000)) * time.Nanosecond)
			}
		}(g)
	}
	flat := func(s *Snapshot) map[string]int64 {
		out := map[string]int64{}
		var walk func(prefix string, n *Snapshot)
		walk = func(prefix string, n *Snapshot) {
			path := prefix + "/" + n.Name
			out[path] = n.TotalNs
			for _, c := range n.Children {
				walk(path, c)
			}
		}
		walk("", s)
		return out
	}
	prev := flat(tr.Snapshot())
	for i := 0; i < 50; i++ {
		s := tr.Snapshot()
		checkInvariants(t, s)
		cur := flat(s)
		for path, total := range cur {
			if total < prev[path] {
				t.Fatalf("snapshot %d: %s total went backwards: %d < %d", i, path, total, prev[path])
			}
		}
		prev = cur
	}
	close(stop)
	wg.Wait()
}

// A cross-shard merge must equal the per-path sum of the per-shard
// trees, node for node.
func TestMergeEqualsSum(t *testing.T) {
	paths := []string{
		"coarse/analysis", "fine/fence_wait", "fine/analysis",
		"execute/point", "execute/pull_wire", "collective",
	}
	const shards = 5
	rng := rand.New(rand.NewSource(7))
	snaps := make([]*Snapshot, shards)
	wantTotal := map[string]int64{}
	wantCount := map[string]int64{}
	for s := 0; s < shards; s++ {
		tr := New("run")
		for _, p := range paths {
			tm := tr.Timer(p)
			spans := rng.Intn(20)
			for k := 0; k < spans; k++ {
				d := time.Duration(1+rng.Intn(5000)) * time.Nanosecond
				tm.Add(d)
				wantTotal[p] += int64(d)
				wantCount[p]++
			}
		}
		snaps[s] = tr.Snapshot()
	}
	merged := Merge(snaps...)
	checkInvariants(t, merged)
	for _, p := range paths {
		n := merged.Find(p)
		if n == nil {
			t.Fatalf("merged tree lost %s", p)
		}
		if n.SelfNs != wantTotal[p] || n.Count != wantCount[p] {
			t.Fatalf("%s: merged self=%d count=%d, want %d/%d", p, n.SelfNs, n.Count, wantTotal[p], wantCount[p])
		}
	}
	// Merging must not mutate its inputs.
	again := Merge(snaps...)
	if again.TotalNs != merged.TotalNs {
		t.Fatalf("second merge total %d != first %d", again.TotalNs, merged.TotalNs)
	}
	// Merge of one snapshot is a deep copy, not an alias.
	cp := Merge(snaps[0])
	cp.Children[0].TotalNs = -1
	if snaps[0].Children[0].TotalNs == -1 {
		t.Fatal("Merge aliased its input")
	}
}

func TestReports(t *testing.T) {
	tr := New("run")
	tr.Timer("coarse/analysis").Add(3 * time.Millisecond)
	tr.Timer("execute/point").Add(5 * time.Millisecond)
	s := tr.Snapshot()

	text := s.Tree()
	for _, want := range []string{"run", "coarse", "analysis", "execute", "point"} {
		if !strings.Contains(text, want) {
			t.Fatalf("tree report missing %q:\n%s", want, text)
		}
	}
	csv := s.CSV()
	if !strings.HasPrefix(csv, "path,total_ns,self_ns,count,avg_ns\n") {
		t.Fatalf("csv header wrong:\n%s", csv)
	}
	if !strings.Contains(csv, "run/coarse/analysis,3000000,3000000,1,3000000") {
		t.Fatalf("csv missing coarse row:\n%s", csv)
	}
	var round Snapshot
	if err := json.Unmarshal(s.JSON(), &round); err != nil {
		t.Fatalf("json round-trip: %v", err)
	}
	if round.TotalNs != s.TotalNs || round.Find("execute/point") == nil {
		t.Fatalf("json round-trip lost data: %+v", round)
	}
}
