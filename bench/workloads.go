package main

import (
	"fmt"

	"godcr"
)

// kind selects the program a workload runs.
type kind int

const (
	kindStencil kind = iota
	kindCircuit
	kindRecover
)

// workload is one fixed configuration of the benchmark. Everything a
// run's shape depends on is here or derived from the seed; the number
// of timed windows is the only quantity sized from --seconds.
type workload struct {
	Name string
	// Why is the one-line reason the workload exists (BENCHMARK.json
	// repeats it; README.md has the long form).
	Why    string
	Kind   kind
	Shards int
	TCP    bool
	// Tiles × Cells is the problem size (cells per tile; circuit: nodes
	// per tile).
	Tiles, Cells int
	// Iters is the number of program iterations per window — sized so a
	// window lasts 120–150 ms on the reference box: long enough that one
	// scheduling hiccup does not make a p90 sample, short enough that a
	// run holds a hundred of them. Warmup is the number of untimed
	// windows before the first stamp.
	Iters, Warmup int
}

// workloads lists the six configurations in report order. Shards=8 is
// deliberately absent: on a 2-core box it would time the scheduler.
var workloads = []workload{
	{Name: "stencil_ctl_mem1", Kind: kindStencil, Shards: 1, Tiles: 32, Cells: 16, Iters: 200, Warmup: 2,
		Why: "single-shard baseline: no cross-shard fence or wire, so replication/fence/wire changes predict no change"},
	{Name: "stencil_ctl_mem4", Kind: kindStencil, Shards: 4, Tiles: 32, Cells: 16, Iters: 150, Warmup: 2,
		Why: "control-bound at 4 in-process shards: coarse/fine analysis and fence rendezvous do the work"},
	{Name: "stencil_ctl_tcp4", Kind: kindStencil, Shards: 4, TCP: true, Tiles: 32, Cells: 16, Iters: 100, Warmup: 2,
		Why: "same program behind 4 TCP-loopback endpoints: codec, frame flush, pull RTT and tree barrier; mem4 vs tcp4 isolates the wire"},
	{Name: "stencil_big_mem4", Kind: kindStencil, Shards: 4, Tiles: 8, Cells: 32768, Iters: 5, Warmup: 2,
		Why: "compute-bound: point bodies, instance accessors and store copies dominate, control-plane changes predict no change"},
	{Name: "circuit_red_tcp4", Kind: kindCircuit, Shards: 4, TCP: true, Tiles: 8, Cells: 16, Iters: 200, Warmup: 2,
		Why: "Reduce launch on an aliased partition plus a blocking future every step over TCP: unelidable fences, no run-ahead, collective frames"},
	{Name: "recover_kill_tcp4", Kind: kindRecover, Shards: 4, TCP: true, Tiles: 8, Cells: 16,
		Why: "supervised stencil over TCP with a seed-chosen shard killed and reborn each cycle: supervisor, detector, journal/spill, revive barrier"},
}

func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// --- seed → inputs ------------------------------------------------------

// Each generator draws from its own Philox stream keyed by the seed, so
// the same seed always yields the same inputs and the streams of
// different input kinds never overlap.

func genStencil(w *workload, seed uint64) *stencilInputs {
	rng := godcr.NewRNG(seed ^ 0x5731)
	in := &stencilInputs{Tiles: w.Tiles, CellsPerTile: w.Cells}
	in.Initial = make([]float64, in.cells())
	for i := range in.Initial {
		in.Initial[i] = rng.Float64()
	}
	return in
}

func genCircuit(w *workload, seed uint64) *circuitInputs {
	rng := godcr.NewRNG(seed ^ 0xC1C0)
	in := &circuitInputs{Nodes: w.Tiles * w.Cells, Tiles: w.Tiles}
	in.Lo = make([]int64, w.Tiles)
	in.Hi = make([]int64, w.Tiles)
	in.Weight = make([]float64, w.Tiles)
	for t := 0; t < w.Tiles; t++ {
		lo := int64(t * w.Cells)
		hi := lo + int64(w.Cells) - 1
		// Reach up to a full tile into each neighbour, unequally.
		lo -= int64(rng.Intn(w.Cells + 1))
		hi += int64(rng.Intn(w.Cells + 1))
		if lo < 0 {
			lo = 0
		}
		if hi > int64(in.Nodes)-1 {
			hi = int64(in.Nodes) - 1
		}
		in.Lo[t], in.Hi[t] = lo, hi
		in.Weight[t] = 0.125 + rng.Float64()
	}
	return in
}

// killPlan is the recovery workload's fault schedule for one cycle.
type killPlan struct {
	// Victim is the shard torn down (never 0: shard 0 holds the clock).
	Victim int
	// Frontier is the checkpoint frontier the victim must have spilled
	// before it is killed.
	Frontier uint64
}

// genKill draws the fault of one cycle from a stream keyed by (seed,
// cycle), so a run's faults depend on the seed alone however many
// cycles it gets through.
func genKill(w *workload, seed uint64, cycle int) killPlan {
	rng := godcr.NewRNG((seed^0xDEAD)*1000003 + uint64(cycle))
	return killPlan{
		Victim:   1 + rng.Intn(w.Shards-1),
		Frontier: uint64(1 + rng.Intn(maxKillFrontier)),
	}
}
