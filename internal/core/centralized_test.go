package core

import (
	"fmt"
	"strings"
	"testing"

	"godcr/internal/cluster"
	"godcr/internal/geom"
	"godcr/internal/instance"
	"godcr/internal/mapper"
)

// shardTo pins every point of a launch to one shard.
func shardTo(s int) mapper.ShardingFunctor {
	return mapper.FuncSharding{
		Label: fmt.Sprintf("pin%d", s),
		Fn:    func(geom.Rect, geom.Point, int) int { return s },
	}
}

// TestCentralizedStencilMatchesDCR: the no-control-replication
// baseline computes the same answers as DCR (only slower at scale).
func TestCentralizedStencilMatchesDCR(t *testing.T) {
	const ncells, ntiles, nsteps = 64, 4, 4
	wantState, wantFlux := referenceStencil1D(ncells, 1.0, nsteps)
	check := func(state, flux []float64) error {
		for i := range wantState {
			if state[i] != wantState[i] || flux[i] != wantFlux[i] {
				return fmt.Errorf("mismatch at %d: state %v/%v flux %v/%v",
					i, state[i], wantState[i], flux[i], wantFlux[i])
			}
		}
		return nil
	}
	for _, shards := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("nodes=%d", shards), func(t *testing.T) {
			rt := runProgram(t, Config{Shards: shards, Centralized: true}, registerStencilTasks,
				stencil1DProgram(ncells, ntiles, nsteps, 1.0, check))
			s := rt.Stats()
			if s.PointTasks != uint64(ntiles)*3*nsteps {
				t.Fatalf("PointTasks = %d, want %d", s.PointTasks, ntiles*3*nsteps)
			}
		})
	}
}

func TestCentralizedFutures(t *testing.T) {
	register := func(rt *Runtime) {
		rt.RegisterTask("val", func(tc *TaskContext) (float64, error) {
			return float64(tc.Point[0]) + tc.Args[0], nil
		})
		rt.RegisterTask("usefut", func(tc *TaskContext) (float64, error) {
			return tc.FutureArgs[0] * 2, nil
		})
	}
	runProgram(t, Config{Shards: 3, Centralized: true}, register, func(ctx *Context) error {
		r := ctx.CreateRegion(geom.R1(0, 5), "x")
		p := ctx.PartitionEqual(r, 6)
		fm := ctx.IndexLaunch(Launch{Task: "val", Domain: geom.R1(0, 5), Args: []float64{1},
			Reqs: []RegionReq{{Part: p, Priv: ReadOnly, Fields: []string{"x"}}}})
		sum := fm.Reduce(instance.ReduceAdd)
		if got := sum.Get(); got != 21 { // (0..5)+1 each = 15+6
			return fmt.Errorf("reduce = %v, want 21", got)
		}
		f := ctx.SingleLaunch(Launch{Task: "usefut", Futures: []*Future{sum}})
		if got := f.Get(); got != 42 {
			return fmt.Errorf("chained future = %v, want 42", got)
		}
		return nil
	})
}

func TestCentralizedRemoteSingleTask(t *testing.T) {
	register := func(rt *Runtime) {
		rt.RegisterTask("where", func(tc *TaskContext) (float64, error) {
			return float64(tc.Shard), nil
		})
	}
	runProgram(t, Config{Shards: 4, Centralized: true}, register, func(ctx *Context) error {
		// Pin the single task to shard 2 via a custom functor.
		f := ctx.SingleLaunch(Launch{Task: "where", Sharding: shardTo(2)})
		if got := f.Get(); got != 2 {
			return fmt.Errorf("task ran on shard %v, want 2", got)
		}
		return nil
	})
}

func TestCentralizedStatsShowBottleneck(t *testing.T) {
	// The controller analyzes every point: Ops is per-control-stream,
	// so a centralized run records ops once while an equivalent DCR
	// run records them per shard — but PointTasks match.
	run := func(cfg Config) Stats {
		rt := NewRuntime(cfg)
		defer rt.Shutdown()
		registerStencilTasks(rt)
		if err := rt.Execute(stencil1DProgram(32, 4, 2, 0, func(_, _ []float64) error { return nil })); err != nil {
			t.Fatal(err)
		}
		return rt.Stats()
	}
	central := run(Config{Shards: 4, Centralized: true})
	dcr := run(Config{Shards: 4})
	if central.PointTasks != dcr.PointTasks {
		t.Fatalf("point tasks differ: %d vs %d", central.PointTasks, dcr.PointTasks)
	}
	if central.FencesInserted != 0 {
		// Fences are a replicated-analysis concept; the centralized
		// coarse stage still computes dependences but no fences run.
		// (They are recorded for introspection only.)
		t.Logf("centralized fence records: %d (informational)", central.FencesInserted)
	}
}

// TestCentralizedWireEncodeGobPanics: left unset, the codec under
// Centralized WireEncode is the binary one (the parity matrix's
// central+wire row); gob, asked for by name, cannot carry task plans
// and is refused up front.
func TestCentralizedWireEncodeGobPanics(t *testing.T) {
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "requires Codec: cluster.CodecBinary") {
			t.Fatalf("recover() = %v, want the CodecBinary panic", r)
		}
	}()
	NewRuntime(Config{Shards: 2, Centralized: true, WireEncode: true, Codec: cluster.CodecGob})
}
