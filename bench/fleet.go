package main

import (
	"fmt"
	"net"
	"runtime"
	"sync"
	"time"

	"godcr"
)

// fleet is the set of runtimes that together run one program: a single
// runtime driving every shard on the in-process backend, or one
// runtime per shard, each behind its own TCP-loopback endpoint (still
// one OS process: the workloads measure the wire path, not exec).
type fleet struct {
	shards int
	rts    []*godcr.Runtime
	addrs  []string
}

// newFleet builds the runtimes. cfg is applied to every runtime with
// Shards/Transport filled in; perShard, when non-nil, specializes the
// config of the runtime driving a shard (checkpoint directories).
func newFleet(shards int, tcp bool, cfg godcr.Config, perShard func(shard int, c *godcr.Config)) (*fleet, error) {
	f := &fleet{shards: shards}
	cfg.Shards = shards
	if !tcp {
		if perShard != nil {
			perShard(0, &cfg)
		}
		f.rts = []*godcr.Runtime{godcr.NewRuntime(cfg)}
		return f, nil
	}
	lns := make([]net.Listener, shards)
	f.addrs = make([]string, shards)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns[:i] {
				l.Close()
			}
			return nil, fmt.Errorf("listen: %w", err)
		}
		lns[i] = ln
		f.addrs[i] = ln.Addr().String()
	}
	f.rts = make([]*godcr.Runtime, shards)
	for i := range f.rts {
		rt, err := f.spawn(i, lns[i], cfg, perShard)
		if err != nil {
			for _, l := range lns[i:] {
				l.Close()
			}
			f.shutdown()
			return nil, err
		}
		f.rts[i] = rt
	}
	return f, nil
}

// spawn builds the runtime of one TCP shard on a bound listener.
func (f *fleet) spawn(shard int, ln net.Listener, cfg godcr.Config, perShard func(int, *godcr.Config)) (*godcr.Runtime, error) {
	tr, err := godcr.NewTCPTransport(godcr.TCPOptions{Self: godcr.NodeID(shard), Addrs: f.addrs, Listener: ln})
	if err != nil {
		ln.Close()
		return nil, fmt.Errorf("tcp transport for shard %d: %w", shard, err)
	}
	cfg.Shards = f.shards
	cfg.Transport = tr
	if perShard != nil {
		perShard(shard, &cfg)
	}
	return godcr.NewRuntime(cfg), nil
}

func (f *fleet) register(reg func(registrar)) {
	for _, rt := range f.rts {
		reg(rt)
	}
}

// run executes fn on every runtime concurrently (each TCP runtime
// blocks on its peers) and returns the first error.
func (f *fleet) run(fn func(rt *godcr.Runtime) error) error {
	errs := make([]error, len(f.rts))
	var wg sync.WaitGroup
	for i, rt := range f.rts {
		wg.Add(1)
		go func(i int, rt *godcr.Runtime) {
			defer wg.Done()
			errs[i] = fn(rt)
		}(i, rt)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("runtime %d: %w", i, err)
		}
	}
	return nil
}

func (f *fleet) shutdown() {
	for _, rt := range f.rts {
		if rt != nil {
			rt.Shutdown()
		}
	}
}

// controlHashSplit reports whether the runtimes of a TCP run disagree
// on the control-determinism digest.
func (f *fleet) controlHashSplit() bool {
	for _, rt := range f.rts[1:] {
		if rt.ControlHash() != f.rts[0].ControlHash() {
			return true
		}
	}
	return false
}

func (f *fleet) pointTasks() uint64 {
	var n uint64
	for _, rt := range f.rts {
		n += rt.Stats().PointTasks
	}
	return n
}

// counters is one reading of everything the program already exposes,
// summed over the fleet's runtimes. Two readings bracket the timed
// region; their difference is what the per-layer rows normalise.
type counters struct {
	core    godcr.Stats
	tr      godcr.TransportStats
	wire    godcr.WireStats
	timers  *godcr.TimerSnapshot
	mallocs uint64
	gcPause time.Duration
}

func (f *fleet) counters() counters {
	var c counters
	snaps := make([]*godcr.TimerSnapshot, 0, len(f.rts))
	for _, rt := range f.rts {
		s := rt.Stats()
		// On the in-process backend every shard makes (and counts) the
		// same coarse decisions; on TCP each runtime counts its own
		// shard's. Either way the fleet total is shards × the program's.
		c.core.FencesInserted += s.FencesInserted
		c.core.FencesElided += s.FencesElided
		c.core.PointTasks += s.PointTasks
		c.core.RemotePulls += s.RemotePulls
		c.core.LocalResolves += s.LocalResolves
		c.core.Messages += s.Messages
		c.core.Bytes += s.Bytes
		t := rt.TransportStats()
		c.tr.Retransmits += t.Retransmits
		c.tr.Acks += t.Acks
		c.tr.PiggyAcks += t.PiggyAcks
		w := rt.Host().WireStats()
		c.wire.FramesOut += w.FramesOut
		c.wire.Reconnects += w.Reconnects
		c.wire.CorruptFrames += w.CorruptFrames
		snaps = append(snaps, rt.TimerSnapshot())
	}
	c.timers = godcr.MergeTimerSnapshots(snaps...)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.mallocs = ms.Mallocs
	c.gcPause = time.Duration(ms.PauseTotalNs)
	return c
}

// timerDelta returns the (total ns, span count) a stage accumulated
// between two readings.
func timerDelta(first, last *godcr.TimerSnapshot, path string) (ns, count int64) {
	if n := last.Find(path); n != nil {
		ns, count = n.SelfNs, n.Count
	}
	if n := first.Find(path); n != nil {
		ns -= n.SelfNs
		count -= n.Count
	}
	return ns, count
}
