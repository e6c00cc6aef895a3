package main

import (
	"encoding/binary"
	"hash/fnv"
	"math"

	"godcr"
)

// The two benchmark programs and their task bodies. Both are windowed:
// warm-up windows, then timed windows, each closed by an
// ExecutionFence after which shard 0 stamps the monotonic clock. The
// iteration counts are inputs (never a wall-clock loop): the program
// is control-replicated, so every shard must issue the same calls.

// windowPlan is the iteration schedule of one Execute.
type windowPlan struct {
	Warmup  int `json:"warmup_windows"`
	Windows int `json:"windows"`
	Iters   int `json:"iters_per_window"`
}

// totalIters is the number of program iterations the plan issues.
func (p windowPlan) totalIters() int { return (p.Warmup + p.Windows) * p.Iters }

// registrar is the registration seam of a Runtime.
type registrar interface {
	RegisterTask(name string, fn godcr.TaskFn)
}

// --- stencil ---------------------------------------------------------

// stencilInputs are the generated inputs of a stencil run.
type stencilInputs struct {
	Tiles, CellsPerTile int
	// Initial holds one seed-derived value per cell.
	Initial []float64
}

func (in *stencilInputs) cells() int { return in.Tiles * in.CellsPerTile }

// registerStencil registers init/bump/smooth. wrap decorates every task
// body (the traced run times them; the untraced run passes identity).
func registerStencil(rt registrar, in *stencilInputs, wrap func(godcr.TaskFn) godcr.TaskFn) {
	rt.RegisterTask("init", wrap(func(tc *godcr.TaskContext) (float64, error) {
		x := tc.Region(0).Field("x")
		x.Rect().Each(func(p godcr.Point) bool { x.Set(p, in.Initial[p[0]]); return true })
		return 0, nil
	}))
	rt.RegisterTask("bump", wrap(stencilBump))
	rt.RegisterTask("smooth", wrap(stencilSmooth))
}

func stencilBump(tc *godcr.TaskContext) (float64, error) {
	x := tc.Region(0).Field("x")
	x.Rect().Each(func(p godcr.Point) bool { x.Set(p, x.At(p)+1); return true })
	return 0, nil
}

func stencilSmooth(tc *godcr.TaskContext) (float64, error) {
	x := tc.Region(0).Field("x")
	g := tc.Region(1).Field("x")
	x.Rect().Each(func(p godcr.Point) bool {
		x.Set(p, 0.5*x.At(p)+0.25*(g.At(godcr.Pt1(p[0]-1))+g.At(godcr.Pt1(p[0]+1))))
		return true
	})
	return 0, nil
}

// stencilProgram is the 1-D halo stencil: per iteration one bump launch
// and one smooth launch (interior read-write, ghost read-only). out
// receives shard 0's InlineRead of the final field.
func stencilProgram(in *stencilInputs, plan windowPlan, clk *windowClock, sp *spans, out *[]float64) godcr.Program {
	return func(ctx *godcr.Context) error {
		lead := ctx.ShardID() == 0
		r := ctx.CreateRegion(godcr.R1(0, int64(in.cells())-1), "x")
		owned := ctx.PartitionEqual(r, in.Tiles)
		ghost := ctx.PartitionHalo(owned, 1)
		interior := ctx.PartitionInterior(owned, 1)
		dom := godcr.R1(0, int64(in.Tiles)-1)
		ctx.IndexLaunch(godcr.Launch{Task: "init", Domain: dom,
			Reqs: []godcr.RegionReq{{Part: owned, Priv: godcr.WriteDiscard, Fields: []string{"x"}}}})
		// The launches are built once and reused: Proj is explicit so the
		// runtime never writes a default into the shared requirement slice.
		bump := godcr.Launch{Task: "bump", Domain: dom,
			Reqs: []godcr.RegionReq{{Part: owned, Proj: godcr.Identity, Priv: godcr.ReadWrite, Fields: []string{"x"}}}}
		smooth := godcr.Launch{Task: "smooth", Domain: dom,
			Reqs: []godcr.RegionReq{
				{Part: interior, Proj: godcr.Identity, Priv: godcr.ReadWrite, Fields: []string{"x"}},
				{Part: ghost, Proj: godcr.Identity, Priv: godcr.ReadOnly, Fields: []string{"x"}}}}
		for w := 0; w < plan.Warmup+plan.Windows; w++ {
			for i := 0; i < plan.Iters; i++ {
				t := sp.start(lead)
				ctx.IndexLaunch(bump)
				ctx.IndexLaunch(smooth)
				sp.launch.Stop(t)
			}
			t := sp.start(lead)
			ctx.ExecutionFence()
			sp.fence.Stop(t)
			if lead && clk != nil && w >= plan.Warmup-1 {
				clk.stamp()
			}
		}
		vals := ctx.InlineRead(r, "x")
		if lead {
			*out = vals
		}
		return nil
	}
}

// stencilReference is the plain sequential program: the same float
// operations in the same order, so the runtime's output must match it
// bit for bit at any shard count and on any backend.
func stencilReference(in *stencilInputs, iters int) []float64 {
	x := append([]float64(nil), in.Initial...)
	old := make([]float64, len(x))
	n := len(x)
	for it := 0; it < iters; it++ {
		for i := range x {
			x[i]++
		}
		copy(old, x)
		for i := 1; i < n-1; i++ {
			x[i] = 0.5*old[i] + 0.25*(old[i-1]+old[i+1])
		}
	}
	return x
}

// --- circuit ---------------------------------------------------------

// circuitInputs are the generated inputs of a circuit run.
type circuitInputs struct {
	Nodes, Tiles int
	// Lo/Hi are the inclusive extents of each tile's wire footprint: the
	// tile's own block grown by seed-chosen, unequal amounts into its
	// neighbours, so the Reduce partition is aliased and irregular.
	Lo, Hi []int64
	// Weight is the per-tile charge increment.
	Weight []float64
}

func registerCircuit(rt registrar, in *circuitInputs, wrap func(godcr.TaskFn) godcr.TaskFn) {
	rt.RegisterTask("charge_up", wrap(func(tc *godcr.TaskContext) (float64, error) {
		acc := tc.Region(0).Field("charge")
		w := in.Weight[tc.Point[0]]
		total := 0.0
		acc.Rect().Each(func(p godcr.Point) bool {
			acc.Fold(p, w)
			total += w
			return true
		})
		return total, nil
	}))
	rt.RegisterTask("update_v", wrap(func(tc *godcr.TaskContext) (float64, error) {
		v := tc.Region(0).Field("voltage")
		q := tc.Region(1).Field("charge")
		v.Rect().Each(func(p godcr.Point) bool {
			v.Set(p, v.At(p)+q.At(p))
			return true
		})
		return 0, nil
	}))
}

// circuitProgram: every step folds charge through a Reduce-privilege
// launch on the aliased partition, applies it, and blocks the program
// thread on the launch's reduced future (no run-ahead). sum receives
// the running total of the reduced futures on shard 0.
func circuitProgram(in *circuitInputs, plan windowPlan, clk *windowClock, sp *spans, out *[]float64, sum *float64) godcr.Program {
	return func(ctx *godcr.Context) error {
		lead := ctx.ShardID() == 0
		grid := godcr.R1(0, int64(in.Nodes)-1)
		tiles := godcr.R1(0, int64(in.Tiles)-1)
		nodes := ctx.CreateRegion(grid, "voltage", "charge")
		owned := ctx.PartitionEqual(nodes, in.Tiles)
		rects := make([]godcr.Rect, in.Tiles)
		for i := range rects {
			rects[i] = godcr.R1(in.Lo[i], in.Hi[i])
		}
		wires := ctx.PartitionCustom(nodes, tiles, rects)
		ctx.Fill(nodes, "voltage", 1)
		charge := godcr.Launch{Task: "charge_up", Domain: tiles,
			Reqs: []godcr.RegionReq{{Part: wires, Proj: godcr.Identity, Priv: godcr.Reduce, RedOp: godcr.ReduceAdd, Fields: []string{"charge"}}}}
		update := godcr.Launch{Task: "update_v", Domain: tiles,
			Reqs: []godcr.RegionReq{
				{Part: owned, Proj: godcr.Identity, Priv: godcr.ReadWrite, Fields: []string{"voltage"}},
				{Part: owned, Proj: godcr.Identity, Priv: godcr.ReadOnly, Fields: []string{"charge"}}}}
		total := 0.0
		for w := 0; w < plan.Warmup+plan.Windows; w++ {
			for i := 0; i < plan.Iters; i++ {
				t := sp.start(lead)
				ctx.Fill(nodes, "charge", 0)
				fm := ctx.IndexLaunch(charge)
				ctx.IndexLaunch(update)
				sp.launch.Stop(t)
				t = sp.start(lead)
				total += fm.Reduce(godcr.ReduceAdd).Get()
				sp.get.Stop(t)
			}
			t := sp.start(lead)
			ctx.ExecutionFence()
			sp.fence.Stop(t)
			if lead && clk != nil && w >= plan.Warmup-1 {
				clk.stamp()
			}
		}
		vals := ctx.InlineRead(nodes, "voltage")
		if lead {
			*out = vals
			*sum = total
		}
		return nil
	}
}

// --- output comparison ------------------------------------------------

// checksum folds a field into one order-sensitive 64-bit value (FNV-1a
// over the IEEE bit patterns): equal checksums mean bit-identical
// fields for every practical purpose, and it prints compactly.
func checksum(vals []float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range vals {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	return h.Sum64()
}
