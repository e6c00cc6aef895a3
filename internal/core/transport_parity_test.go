package core

import (
	"fmt"
	"net"
	"sync"
	"testing"

	"godcr/internal/cluster"
	"godcr/internal/testutil"
)

// Transport parity: the determinism-matrix workloads must produce
// bit-identical outputs and ControlHash whether the shards share a
// process (MemTransport) or each live behind a TCP socket on loopback
// — the runtime above the seam cannot tell the backends apart.

// parityWorkload is one (register, build) pair; build returns a fresh
// program recording its output vector into out.
type parityWorkload struct {
	name     string
	register func(rt *Runtime)
	build    func(out *vecCell) Program
}

func parityWorkloads() []parityWorkload {
	return []parityWorkload{
		{
			name:     "stencil",
			register: registerStencilTasks,
			build: func(out *vecCell) Program {
				return stencil1DProgram(64, 8, 5, 1.0, func(state, flux []float64) error {
					return out.record(append(append([]float64(nil), state...), flux...))
				})
			},
		},
		{
			name:     "circuit",
			register: registerCircuitTasks,
			build: func(out *vecCell) Program {
				var sums sumCell
				return circuitProgram(32, 8, 4, &sums, func(voltage []float64) error {
					sum, err := sums.agreed()
					if err != nil {
						return err
					}
					return out.record(append(append([]float64(nil), voltage...), sum))
				})
			},
		},
		{
			name:     "logreg",
			register: registerLogregTasks,
			build: func(out *vecCell) Program {
				return logregProgram(48, 8, 6, out)
			},
		},
	}
}

// loopbackTransports builds one TCPTransport per shard, all on
// 127.0.0.1 with pre-bound :0 listeners (no port races), each encoding
// payloads with codec (nil keeps the backend default, CodecBinary).
func loopbackTransports(t *testing.T, n int, codec cluster.PayloadCodec) []*cluster.TCPTransport {
	t.Helper()
	lns := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	trs := make([]*cluster.TCPTransport, n)
	for i := range trs {
		tr, err := cluster.NewTCPTransport(cluster.TCPOptions{
			Self: cluster.NodeID(i), Addrs: addrs, Listener: lns[i], Codec: codec,
		})
		if err != nil {
			t.Fatalf("transport %d: %v", i, err)
		}
		trs[i] = tr
	}
	return trs
}

// runOverTCP executes the workload as shards distinct runtimes, each
// hosting one shard over its own TCP endpoint — the in-test equivalent
// of shards OS processes — and returns each runtime's recorded output
// and control hash.
func runOverTCP(t *testing.T, wl parityWorkload, shards int, codec cluster.PayloadCodec) ([][]float64, [][2]uint64) {
	t.Helper()
	trs := loopbackTransports(t, shards, codec)
	rts := make([]*Runtime, shards)
	outs := make([]*vecCell, shards)
	for i := range rts {
		rts[i] = NewRuntime(Config{Shards: shards, SafetyChecks: true, Transport: trs[i]})
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
	vals := make([][]float64, shards)
	hashes := make([][2]uint64, shards)
	for i, rt := range rts {
		if errs[i] != nil {
			t.Fatalf("shard %d over tcp: %v", i, errs[i])
		}
		vals[i] = outs[i].get()
		hashes[i] = rt.ControlHash()
		rt.Shutdown()
	}
	return vals, hashes
}

func TestTransportParity(t *testing.T) {
	defer testutil.CheckGoroutines(t)
	for _, wl := range parityWorkloads() {
		t.Run(wl.name, func(t *testing.T) {
			// Baseline: the in-process backend at 4 shards.
			var base vecCell
			rt := runProgram(t, Config{Shards: 4, SafetyChecks: true}, wl.register, wl.build(&base))
			wantOut, wantHash := base.get(), rt.ControlHash()
			if wantHash == ([2]uint64{}) {
				t.Fatal("zero baseline control hash")
			}

			// The backend × codec matrix: the runtime above the seam
			// must be blind to both the transport and the payload
			// encoding. "mem" is the plain in-process fast path;
			// "mem+gob" / "mem+binary" force every payload through the
			// named codec via WireEncode; the tcp rows select the wire
			// codec per endpoint. "central+wire" is the no-replication
			// baseline under WireEncode with the codec left unset.
			backends := []struct {
				name    string
				tcp     bool
				central bool
				codec   cluster.PayloadCodec
			}{
				{name: "mem"},
				{name: "mem+gob", codec: cluster.CodecGob},
				{name: "mem+binary", codec: cluster.CodecBinary},
				{name: "central+wire", central: true},
				{name: "tcp+gob", tcp: true, codec: cluster.CodecGob},
				{name: "tcp+binary", tcp: true, codec: cluster.CodecBinary},
			}
			for _, backend := range backends {
				for _, shards := range []int{2, 4} {
					t.Run(fmt.Sprintf("%s/shards=%d", backend.name, shards), func(t *testing.T) {
						var vals [][]float64
						var hashes [][2]uint64
						if !backend.tcp {
							var out vecCell
							cfg := Config{Shards: shards, SafetyChecks: true, Centralized: backend.central,
								WireEncode: backend.codec != nil || backend.central, Codec: backend.codec}
							rt := runProgram(t, cfg, wl.register, wl.build(&out))
							vals = [][]float64{out.get()}
							hashes = [][2]uint64{rt.ControlHash()}
						} else {
							vals, hashes = runOverTCP(t, wl, shards, backend.codec)
						}
						for i := range vals {
							if hashes[i] != wantHash {
								t.Fatalf("replica %d control hash %x, want %x", i, hashes[i], wantHash)
							}
							if len(vals[i]) != len(wantOut) {
								t.Fatalf("replica %d has %d outputs, want %d", i, len(vals[i]), len(wantOut))
							}
							for j := range wantOut {
								// Bit-identical, not approximately equal.
								if vals[i][j] != wantOut[j] {
									t.Fatalf("replica %d output[%d] = %v, want %v", i, j, vals[i][j], wantOut[j])
								}
							}
						}
					})
				}
			}
		})
	}
}

// TestTransportBytesCounted is the runtime-level half of the byte
// accounting regression: a plain run (no WireEncode) must report
// nonzero transport bytes through Stats.
func TestTransportBytesCounted(t *testing.T) {
	var out vecCell
	rt := runProgram(t, Config{Shards: 4}, registerStencilTasks,
		stencil1DProgram(64, 8, 3, 1.0, func(state, flux []float64) error {
			return out.record(state)
		}))
	if st := rt.Stats(); st.Bytes == 0 {
		t.Fatalf("Stats.Bytes is zero on a plain 4-shard run (messages=%d)", st.Messages)
	}
}

// groupedTransports builds one TCPTransport per process-equivalent,
// each hosting a group of shards behind a single listener
// (TCPOptions.Shards) — the 4-shards-over-2-processes deployment,
// where one process is one failure domain spanning several shards.
func groupedTransports(t *testing.T, groups [][]int) []*cluster.TCPTransport {
	t.Helper()
	total := 0
	for _, g := range groups {
		total += len(g)
	}
	lns := make([]net.Listener, len(groups))
	addrs := make([]string, total)
	for gi, g := range groups {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		lns[gi] = ln
		for _, s := range g {
			addrs[s] = ln.Addr().String()
		}
	}
	trs := make([]*cluster.TCPTransport, len(groups))
	for gi, g := range groups {
		shards := make([]cluster.NodeID, len(g))
		for i, s := range g {
			shards[i] = cluster.NodeID(s)
		}
		tr, err := cluster.NewTCPTransport(cluster.TCPOptions{
			Self: shards[0], Shards: shards, Addrs: addrs, Listener: lns[gi],
		})
		if err != nil {
			t.Fatalf("transport group %d: %v", gi, err)
		}
		trs[gi] = tr
	}
	return trs
}

// TestMultiShardHostingParity runs every parity workload as 4 shards
// over 2 process-equivalents (2 hosted shards each, TCPOptions.Shards)
// and demands outputs and ControlHash bit-identical to both the
// 4-over-4 single-shard-per-process deployment and the in-process
// baseline: shard placement must be invisible to the analysis.
func TestMultiShardHostingParity(t *testing.T) {
	defer testutil.CheckGoroutines(t)
	for _, wl := range parityWorkloads() {
		t.Run(wl.name, func(t *testing.T) {
			var base vecCell
			brt := runProgram(t, Config{Shards: 4, SafetyChecks: true}, wl.register, wl.build(&base))
			wantOut, wantHash := base.get(), brt.ControlHash()
			if wantHash == ([2]uint64{}) {
				t.Fatal("zero baseline control hash")
			}

			flatVals, flatHashes := runOverTCP(t, wl, 4, nil) // 4-over-4, default codec

			groups := [][]int{{0, 1}, {2, 3}} // 4-over-2
			trs := groupedTransports(t, groups)
			rts := make([]*Runtime, len(groups))
			outs := make([]*vecCell, len(groups))
			for i := range rts {
				rts[i] = NewRuntime(Config{Shards: 4, SafetyChecks: true, Transport: trs[i]})
				wl.register(rts[i])
				outs[i] = &vecCell{}
			}
			var wg sync.WaitGroup
			errs := make([]error, len(groups))
			for i := range rts {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					errs[i] = rts[i].Execute(wl.build(outs[i]))
				}(i)
			}
			wg.Wait()

			check := func(label string, vals []float64, hash [2]uint64) {
				t.Helper()
				if hash != wantHash {
					t.Fatalf("%s control hash %x, want %x", label, hash, wantHash)
				}
				if len(vals) != len(wantOut) {
					t.Fatalf("%s has %d outputs, want %d", label, len(vals), len(wantOut))
				}
				for j := range wantOut {
					// Bit-identical, not approximately equal.
					if vals[j] != wantOut[j] {
						t.Fatalf("%s output[%d] = %v, want %v", label, j, vals[j], wantOut[j])
					}
				}
			}
			for i := range flatVals {
				check(fmt.Sprintf("4-over-4 proc %d", i), flatVals[i], flatHashes[i])
			}
			for i, rt := range rts {
				if errs[i] != nil {
					t.Fatalf("4-over-2 proc %d: %v", i, errs[i])
				}
				check(fmt.Sprintf("4-over-2 proc %d (shards %v)", i, groups[i]), outs[i].get(), rt.ControlHash())
				rt.Shutdown()
			}
		})
	}
}
