package core

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"godcr/internal/cluster"
	"godcr/internal/testutil"
)

// Integrity-plane soaks: payload corruption (on both backends) and
// network partitions must be invisible to the application — outputs and
// ControlHash bit-identical to fault-free runs — with the injected
// damage visible in the transport counters.

// TestChaosCorruptSoak runs the stencil under the full chaos plan plus
// payload corruption on the in-process backend. Corruption there is
// corruption-as-loss (exactly what a CRC-verifying receiver turns a
// flipped frame into), recovered by the reliable sublayer.
func TestChaosCorruptSoak(t *testing.T) {
	const ncells, ntiles, nsteps = 64, 4, 5
	wantState, wantFlux := referenceStencil1D(ncells, 1.0, nsteps)
	check := func(state, flux []float64) error {
		for i := range wantState {
			if state[i] != wantState[i] {
				return fmt.Errorf("state[%d] = %v, want %v", i, state[i], wantState[i])
			}
			if flux[i] != wantFlux[i] {
				return fmt.Errorf("flux[%d] = %v, want %v", i, flux[i], wantFlux[i])
			}
		}
		return nil
	}
	for _, seed := range []uint64{1, 2, 3} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			plan := chaosPlan(seed)
			plan.Corrupt = 0.05
			cfg := Config{
				Shards:       4,
				SafetyChecks: true,
				Faults:       plan,
				OpDeadline:   10 * time.Second, // quiet watchdog: must never fire
			}
			rt := runProgram(t, cfg, registerStencilTasks,
				stencil1DProgram(ncells, ntiles, nsteps, 1.0, check))
			st := rt.TransportStats()
			if st.Corrupted == 0 {
				t.Fatalf("corruption plan injected nothing: %+v", st)
			}
			if st.Retransmits == 0 {
				t.Fatalf("corruption recovered without retransmission: %+v", st)
			}
		})
	}
}

// TestTCPCorruptParity runs the parity workloads over real TCP sockets
// with seeded bit-flips injected into outbound frames. The receiver's
// CRC32C check must turn every flip into a loss (counted in
// WireStats.CorruptFrames) that the reliable sublayer recovers, leaving
// outputs and ControlHash bit-identical to the in-process baseline.
func TestTCPCorruptParity(t *testing.T) {
	defer testutil.CheckGoroutines(t)
	const shards = 4
	for _, wl := range parityWorkloads() {
		t.Run(wl.name, func(t *testing.T) {
			var base vecCell
			brt := runProgram(t, Config{Shards: shards, SafetyChecks: true}, wl.register, wl.build(&base))
			wantOut, wantHash := base.get(), brt.ControlHash()

			trs := loopbackTransports(t, shards, cluster.CodecBinary)
			rts := make([]*Runtime, shards)
			outs := make([]*vecCell, shards)
			for i := range rts {
				rts[i] = NewRuntime(Config{
					Shards: shards, SafetyChecks: true, Transport: trs[i],
					Faults:     &cluster.FaultPlan{Seed: uint64(7 + i), Corrupt: 0.02},
					OpDeadline: 20 * time.Second,
				})
				wl.register(rts[i])
				outs[i] = &vecCell{}
			}
			var wg sync.WaitGroup
			errs := make([]error, shards)
			for i := range rts {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					errs[i] = rts[i].Execute(wl.build(outs[i]))
				}(i)
			}
			wg.Wait()

			var corrupt, frames uint64
			for i, rt := range rts {
				if errs[i] != nil {
					t.Fatalf("shard %d over corrupt tcp: %v", i, errs[i])
				}
				if got := rt.ControlHash(); got != wantHash {
					t.Fatalf("shard %d control hash %x, want %x", i, got, wantHash)
				}
				got := outs[i].get()
				if len(got) != len(wantOut) {
					t.Fatalf("shard %d has %d outputs, want %d", i, len(got), len(wantOut))
				}
				for j := range wantOut {
					// Bit-identical, not approximately equal.
					if got[j] != wantOut[j] {
						t.Fatalf("shard %d output[%d] = %v, want %v", i, j, got[j], wantOut[j])
					}
				}
				ws := trs[i].Stats()
				corrupt += ws.CorruptFrames
				frames += ws.FramesIn
				rt.Shutdown()
			}
			if corrupt == 0 {
				t.Fatalf("no frame failed CRC across %d received frames at Corrupt=0.02", frames)
			}
		})
	}
}

// TestPartitionSupervisedConvergence isolates one shard behind a timed
// network partition mid-run: the phi-accrual detector convicts the
// unreachable shard, the supervisor revives and retries, and once the
// window heals the run converges to bit-identical outputs. Partitions
// deliberately survive Advance (the network is broken, not the process),
// so convergence proves the retry loop rides out the whole window.
func TestPartitionSupervisedConvergence(t *testing.T) {
	const ncells, ntiles, nsteps = 64, 4, 6
	wantState, wantFlux := referenceStencil1D(ncells, 1.0, nsteps)
	var refOut outputCell
	wantHash := referenceRun(t, registerStencilTasks,
		stencil1DProgram(ncells, ntiles, nsteps, 1.0, refOut.record))

	for _, seed := range []uint64{1, 2} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			testutil.CheckGoroutines(t)
			const window = 150 * time.Millisecond
			after := 25 + 10*seed // trigger point varies with the seed
			rt := NewRuntime(Config{
				Shards:          4,
				SafetyChecks:    true,
				CheckpointEvery: 8,
				HeartbeatEvery:  3 * time.Millisecond,
				HeartbeatPhi:    12,
				OpDeadline:      2 * time.Second, // watchdog backstop
				Faults: &cluster.FaultPlan{
					// Shard 2 loses every link (two-way) once it has issued
					// `after` sends; the windows heal on their own clock.
					Partitions: []cluster.PartitionWindow{
						{From: 2, To: 0, AfterSends: after, Duration: window},
						{From: 2, To: 1, AfterSends: after, Duration: window},
						{From: 2, To: 3, AfterSends: after, Duration: window},
					},
				},
			})
			defer rt.Shutdown()
			registerStencilTasks(rt)
			var out outputCell
			var events []SupervisorEvent
			err := rt.RunSupervised(
				stencil1DProgram(ncells, ntiles, nsteps, 1.0, out.record),
				SupervisorPolicy{
					MaxRestarts: 10,
					Backoff:     time.Millisecond,
					JitterSeed:  seed,
					OnEvent:     func(e SupervisorEvent) { events = append(events, e) },
				})
			if err != nil {
				t.Fatalf("RunSupervised (partition after %d sends): %v", after, err)
			}
			if rt.TransportStats().PartitionDrops == 0 {
				t.Fatal("partition windows never severed traffic")
			}
			if len(events) == 0 {
				t.Fatal("partitioned run completed without a supervisor restart")
			}
			if err := out.compare(wantState, wantFlux); err != nil {
				t.Fatalf("supervised run diverged from fault-free outputs: %v", err)
			}
			if got := rt.ControlHash(); got != wantHash {
				t.Fatalf("supervised control hash %x, want %x", got, wantHash)
			}
		})
	}
}
