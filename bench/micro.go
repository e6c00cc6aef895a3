package main

import (
	"fmt"
	"net"
	"os"
	"sync"
	"time"

	"godcr"
	"godcr/internal/cluster"
	"godcr/internal/collective"
	"godcr/internal/dethash"
	"godcr/internal/geom"
	"godcr/internal/instance"
	"godcr/internal/mapper"
	"godcr/internal/region"
	"godcr/internal/stats"
)

// The layer micro-suite: direct timed calls into each package's public
// functions, with payloads sized from the workloads (1 ghost cell on
// the ctl stencil, one 32768-cell tile on the big one). Every row is
// timed in batches and reported as min / median / p90 over the
// batches, so a row carries its own noise floor.

// microRow is one micro-suite result; Unit applies to all three stats.
type microRow struct {
	Name string
	Unit string
	dist
}

// sink defeats dead-code elimination of measured calls.
var sink any

// timeBatches runs fn(ops) for `batches` batches and returns the
// per-operation time of each batch in nanoseconds.
func timeBatches(batches, ops int, fn func(ops int)) []float64 {
	fn(ops) // warm caches and lazy set-up
	out := make([]float64, batches)
	for i := range out {
		t0 := time.Now()
		fn(ops)
		out[i] = float64(time.Since(t0).Nanoseconds()) / float64(ops)
	}
	return out
}

func scale(v []float64, by float64) []float64 {
	out := make([]float64, len(v))
	for i, x := range v {
		out[i] = x * by
	}
	return out
}

// microSuite runs every row. quick shrinks the batch counts (smoke
// tests); workDir receives the spill row's checkpoint files.
func microSuite(workDir string, quick bool) ([]microRow, error) {
	batches := 30
	if quick {
		batches = 5
	}
	var rows []microRow
	add := func(name, unit string, samples []float64) {
		rows = append(rows, microRow{Name: name, Unit: unit, dist: summarize(samples)})
	}

	// cluster: payload codec on pull-response-sized float vectors (a pull
	// response is exactly one AppendFloats body behind a type tag).
	for _, cells := range []int{1, 32768} {
		vals := make([]float64, cells)
		for i := range vals {
			vals[i] = float64(i) * 0.5
		}
		ops := 200000 / (cells + 20)
		if ops < 4 {
			ops = 4
		}
		var buf []byte
		var encErr, decErr error
		add(fmt.Sprintf("cluster.codec.encode_ns_%d", cells), "ns", timeBatches(batches, ops, func(n int) {
			for i := 0; i < n; i++ {
				buf, encErr = cluster.CodecBinary.Append(buf[:0], vals)
			}
		}))
		add(fmt.Sprintf("cluster.codec.decode_ns_%d", cells), "ns", timeBatches(batches, ops, func(n int) {
			for i := 0; i < n; i++ {
				sink, decErr = cluster.CodecBinary.Decode(buf)
			}
		}))
		if encErr != nil || decErr != nil {
			return nil, fmt.Errorf("codec micro: encode %v, decode %v", encErr, decErr)
		}
	}

	// cluster + collective: ping-pong, streaming and collectives on both
	// backends.
	wireRows, err := microWire(batches)
	if err != nil {
		return nil, err
	}
	rows = append(rows, wireRows...)

	// geom: the rectangle intersection under every dependence test. Each
	// result feeds the next call so the loop cannot be hoisted.
	a, b := geom.R1(0, 4095), geom.R1(2048, 8191)
	add("geom.intersect_ns", "ns", timeBatches(batches, 100000, func(n int) {
		for i := 0; i < n; i++ {
			b.Lo = a.Intersect(b).Lo
		}
		sink = b
	}))

	// region: one projection evaluation (the ghost-exchange functor).
	proj := region.OffsetProjection{Delta: geom.Pt1(1)}
	dom := geom.R1(0, 31)
	add("region.project_ns", "ns", timeBatches(batches, 100000, func(n int) {
		p := geom.Pt1(0)
		for i := 0; i < n; i++ {
			p = proj.Color(dom, geom.Pt1(p[0]&15))
		}
		sink = p
	}))

	// mapper: a memoised sharding-assignment lookup.
	memo := mapper.NewMemo()
	memo.Assignment(mapper.Cyclic, dom, 4)
	add("mapper.memo_lookup_ns", "ns", timeBatches(batches, 50000, func(n int) {
		var asg []int
		for i := 0; i < n; i++ {
			asg = memo.Assignment(mapper.Cyclic, dom, 4)
		}
		sink = asg
	}))

	// dethash: hashing one API call into the control digest.
	dig := dethash.New()
	add("dethash.op_ns", "ns", timeBatches(batches, 100000, func(n int) {
		for i := 0; i < n; i++ {
			dig.Op(uint64(i))
		}
	}))
	sink = dig.Sum()

	// instance: one At+Set pair per cell, the accessor path of a body.
	inst := instance.New(geom.R1(0, 32767))
	add("instance.at_set_ns_per_cell", "ns", timeBatches(batches, 4*32768, func(n int) {
		for pass := 0; pass < n/32768; pass++ {
			inst.Rect.Each(func(p geom.Point) bool { inst.Set(p, inst.At(p)+1); return true })
		}
	}))

	// stats: the cost of one span — what every traced number pays.
	tm := stats.New("micro").Timer("span")
	add("stats.span_ns", "ns", timeBatches(batches, 100000, func(n int) {
		for i := 0; i < n; i++ {
			tm.Stop(tm.Start())
		}
	}))

	// core: checkpoint spill write/load of the recovery program's cut.
	spill, err := microSpill(workDir, batches)
	if err != nil {
		return nil, err
	}
	return append(rows, spill...), nil
}

// nodeSet is a small cluster on one backend, every node local to this
// process.
type nodeSet struct {
	nodes []*cluster.Node
	close func()
}

func newMemNodes(n int) *nodeSet {
	c := cluster.New(cluster.Config{Nodes: n})
	p := &nodeSet{close: c.Close}
	for i := 0; i < n; i++ {
		p.nodes = append(p.nodes, c.Node(cluster.NodeID(i)))
	}
	return p
}

func newTCPNodes(n int) (*nodeSet, error) {
	lns := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns[:i] {
				l.Close()
			}
			return nil, err
		}
		lns[i], addrs[i] = ln, ln.Addr().String()
	}
	p := &nodeSet{}
	var clusters []*cluster.Cluster
	p.close = func() {
		for _, c := range clusters {
			c.Close()
		}
	}
	for i := 0; i < n; i++ {
		tr, err := cluster.NewTCPTransport(cluster.TCPOptions{Self: cluster.NodeID(i), Addrs: addrs, Listener: lns[i]})
		if err != nil {
			for _, l := range lns[i:] {
				l.Close()
			}
			p.close()
			return nil, err
		}
		c := cluster.NewWithTransport(cluster.Config{}, tr)
		clusters = append(clusters, c)
		p.nodes = append(p.nodes, c.Node(cluster.NodeID(i)))
	}
	return p, nil
}

// onAll runs fn on every node concurrently and returns the first error.
func (p *nodeSet) onAll(fn func(rank int, n *cluster.Node) error) error {
	errs := make([]error, len(p.nodes))
	var wg sync.WaitGroup
	for i, n := range p.nodes {
		wg.Add(1)
		go func(i int, n *cluster.Node) {
			defer wg.Done()
			errs[i] = fn(i, n)
		}(i, n)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// pingPong times `rounds` request/reply exchanges between nodes 0 and 1
// and returns the mean round trip in ns: tag match, flush and (on TCP)
// the socket both ways.
func (p *nodeSet) pingPong(tag uint64, rounds int) (float64, error) {
	var elapsed time.Duration
	err := p.onAll(func(rank int, n *cluster.Node) error {
		switch rank {
		case 0:
			t0 := time.Now()
			for i := 0; i < rounds; i++ {
				if err := n.Send(1, tag, float64(i)); err != nil {
					return err
				}
				if _, err := n.Recv(tag+1, 1); err != nil {
					return err
				}
			}
			elapsed = time.Since(t0)
		case 1:
			for i := 0; i < rounds; i++ {
				v, err := n.Recv(tag, 0)
				if err != nil {
					return err
				}
				if err := n.Send(0, tag+1, v); err != nil {
					return err
				}
			}
		}
		return nil
	})
	return float64(elapsed.Nanoseconds()) / float64(rounds), err
}

// microWire measures the transport and collective rows.
func microWire(batches int) ([]microRow, error) {
	var rows []microRow
	const rounds = 200
	// Distinct tags per batch keep a batch's stragglers from matching
	// the next one's receives.
	tagOf := func(batch int) uint64 { return uint64(0x4D<<40) + uint64(batch)*4 }

	mem2 := newMemNodes(2)
	var memRTT []float64
	for b := 0; b <= batches; b++ {
		ns, err := mem2.pingPong(tagOf(b), rounds)
		if err != nil {
			mem2.close()
			return nil, fmt.Errorf("mem ping-pong: %w", err)
		}
		if b > 0 { // batch 0 is the warm-up
			memRTT = append(memRTT, ns/1e3)
		}
	}
	mem2.close()
	rows = append(rows, microRow{Name: "cluster.mem.rtt_us", Unit: "us", dist: summarize(memRTT)})

	tcp2, err := newTCPNodes(2)
	if err != nil {
		return nil, fmt.Errorf("tcp nodes: %w", err)
	}
	var tcpRTT, stream []float64
	for b := 0; b <= batches; b++ {
		ns, err := tcp2.pingPong(tagOf(b), rounds)
		if err != nil {
			tcp2.close()
			return nil, fmt.Errorf("tcp ping-pong: %w", err)
		}
		if b > 0 {
			tcpRTT = append(tcpRTT, ns/1e3)
		}
	}
	// Streaming: 16 tile-sized vectors one way, one ack back.
	tile := make([]float64, 32768)
	const burst = 16
	for b := 0; b <= batches; b++ {
		tag := tagOf(batches + 1 + b)
		var elapsed time.Duration
		err := tcp2.onAll(func(rank int, n *cluster.Node) error {
			if rank == 0 {
				t0 := time.Now()
				for i := 0; i < burst; i++ {
					if err := n.Send(1, tag, tile); err != nil {
						return err
					}
				}
				_, err := n.Recv(tag+1, 1)
				elapsed = time.Since(t0)
				return err
			}
			for i := 0; i < burst; i++ {
				if _, err := n.Recv(tag, 0); err != nil {
					return err
				}
			}
			return n.Send(0, tag+1, true)
		})
		if err != nil {
			tcp2.close()
			return nil, fmt.Errorf("tcp stream: %w", err)
		}
		if b > 0 {
			stream = append(stream, float64(burst*len(tile)*8)/1e6/elapsed.Seconds())
		}
	}
	tcp2.close()
	rows = append(rows,
		microRow{Name: "cluster.tcp.rtt_us", Unit: "us", dist: summarize(tcpRTT)},
		microRow{Name: "cluster.tcp.stream_mb_s", Unit: "MB/s", dist: summarize(stream)})

	// Collectives at the workloads' shard count.
	collect := func(p *nodeSet, allreduce bool) ([]float64, error) {
		const calls = 50
		comms := make([]*collective.Comm, len(p.nodes))
		for i, n := range p.nodes {
			comms[i] = collective.New(n, 0xB0)
		}
		var out []float64
		for b := 0; b <= batches; b++ {
			var elapsed time.Duration
			err := p.onAll(func(rank int, _ *cluster.Node) error {
				t0 := time.Now()
				for i := 0; i < calls; i++ {
					var err error
					if allreduce {
						_, err = comms[rank].AllReduceFloat64(float64(rank), func(a, b float64) float64 { return a + b })
					} else {
						err = comms[rank].Barrier()
					}
					if err != nil {
						return err
					}
				}
				if rank == 0 {
					elapsed = time.Since(t0)
				}
				return nil
			})
			if err != nil {
				return nil, err
			}
			if b > 0 {
				out = append(out, float64(elapsed.Nanoseconds())/1e3/calls)
			}
		}
		return out, nil
	}
	mem4 := newMemNodes(4)
	barMem, err := collect(mem4, false)
	mem4.close()
	if err != nil {
		return nil, fmt.Errorf("mem barrier: %w", err)
	}
	tcp4, err := newTCPNodes(4)
	if err != nil {
		return nil, fmt.Errorf("tcp nodes: %w", err)
	}
	barTCP, err := collect(tcp4, false)
	var arTCP []float64
	if err == nil {
		arTCP, err = collect(tcp4, true)
	}
	tcp4.close()
	if err != nil {
		return nil, fmt.Errorf("tcp collectives: %w", err)
	}
	return append(rows,
		microRow{Name: "collective.barrier_us_mem4", Unit: "us", dist: summarize(barMem)},
		microRow{Name: "collective.barrier_us_tcp4", Unit: "us", dist: summarize(barTCP)},
		microRow{Name: "collective.allreduce_us_tcp4", Unit: "us", dist: summarize(arTCP)}), nil
}

// microSpill times writing and loading the checkpoint a journaled run
// of the recovery program cuts (fsync included: it is the cost a
// CheckpointEvery run pays per cut).
func microSpill(workDir string, batches int) ([]microRow, error) {
	w, err := findWorkload("recover_kill_tcp4")
	if err != nil {
		return nil, err
	}
	in := genStencil(w, 1)
	rt := godcr.NewRuntime(godcr.Config{Shards: w.Shards, CheckpointEvery: 4, DisableTimers: true})
	sp := newSpans(false)
	registerStencil(rt, in, sp.wrapBody)
	var out []float64
	err = rt.Execute(stencilProgram(in, windowPlan{Warmup: 1, Windows: 1, Iters: recoverSteps / 2}, nil, sp, &out))
	cp := rt.LatestCheckpoint()
	rt.Shutdown()
	if err != nil || cp == nil {
		return nil, fmt.Errorf("spill micro: journaled run: err=%v checkpoint=%v", err, cp != nil)
	}
	dir, err := os.MkdirTemp(workDir, "spill-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	if batches > 10 {
		batches = 10 // every write fsyncs twice
	}
	var spillErr error
	write := timeBatches(batches, 1, func(int) {
		if err := godcr.WriteCheckpointFile(dir, cp); err != nil {
			spillErr = err
		}
	})
	load := timeBatches(batches, 1, func(int) {
		got, err := godcr.LoadCheckpoint(dir)
		if err != nil || got == nil || got.Frontier != cp.Frontier {
			spillErr = fmt.Errorf("load: %v", err)
		}
	})
	if spillErr != nil {
		return nil, fmt.Errorf("spill micro: %w", spillErr)
	}
	bytes := float64(len(cp.Encode()))
	return []microRow{
		{Name: "core.spill.write_ms", Unit: "ms", dist: summarize(scale(write, 1e-6))},
		{Name: "core.spill.load_ms", Unit: "ms", dist: summarize(scale(load, 1e-6))},
		{Name: "core.spill.bytes", Unit: "count", dist: dist{Min: bytes, Med: bytes, P90: bytes}},
	}, nil
}
