package cluster

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"godcr/internal/testutil"
)

// tcpPair builds an n-node loopback machine: n listeners on :0, one
// TCPTransport per node, one Cluster per node (each hosting a single
// local node, exactly like n OS processes would).
func tcpClusters(t *testing.T, n int, cfg Config) []*Cluster {
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
	cs := make([]*Cluster, n)
	for i := range cs {
		tr, err := NewTCPTransport(TCPOptions{Self: NodeID(i), Addrs: addrs, Listener: lns[i]})
		if err != nil {
			t.Fatalf("transport %d: %v", i, err)
		}
		c := cfg
		c.Nodes = n
		cs[i] = NewWithTransport(c, tr)
	}
	t.Cleanup(func() {
		for _, c := range cs {
			c.Close()
		}
	})
	return cs
}

func TestTCPSendRecv(t *testing.T) {
	defer testutil.CheckGoroutines(t)
	cs := tcpClusters(t, 2, Config{})
	if err := cs[0].Node(0).Send(1, 7, "over the wire"); err != nil {
		t.Fatalf("Send: %v", err)
	}
	got, err := cs[1].Node(1).Recv(7, 0)
	if err != nil || got != "over the wire" {
		t.Fatalf("Recv = %v, %v", got, err)
	}
	// And the reverse direction, with a non-string payload.
	if err := cs[1].Node(1).Send(0, 8, []float64{1, 2, 3}); err != nil {
		t.Fatalf("Send back: %v", err)
	}
	back, err := cs[0].Node(0).Recv(8, 1)
	if err != nil {
		t.Fatalf("Recv back: %v", err)
	}
	v, ok := back.([]float64)
	if !ok || len(v) != 3 || v[0] != 1 || v[2] != 3 {
		t.Fatalf("Recv back = %#v", back)
	}
	for i, c := range cs {
		st := c.Stats()
		if st.Bytes == 0 {
			t.Fatalf("cluster %d counted no bytes", i)
		}
		ws := c.Transport().Stats()
		if ws.FramesOut == 0 || ws.FramesIn == 0 {
			t.Fatalf("cluster %d frame counters: %+v", i, ws)
		}
	}
}

func TestTCPFIFOAndHandlers(t *testing.T) {
	defer testutil.CheckGoroutines(t)
	cs := tcpClusters(t, 3, Config{})
	// Per-link FIFO survives the socket hop.
	for i := 0; i < 200; i++ {
		if err := cs[0].Node(0).Send(1, 5, i); err != nil {
			t.Fatalf("Send %d: %v", i, err)
		}
	}
	for i := 0; i < 200; i++ {
		v, err := cs[1].Node(1).Recv(5, 0)
		if err != nil || v != i {
			t.Fatalf("message %d: got %v, %v", i, v, err)
		}
	}
	// Active-message dispatch fires on the receiving process.
	done := make(chan any, 1)
	cs[2].Node(2).Handle(9, func(m Message) { done <- m.Payload })
	if err := cs[0].Node(0).Send(2, 9, "dispatch me"); err != nil {
		t.Fatalf("Send: %v", err)
	}
	select {
	case v := <-done:
		if v != "dispatch me" {
			t.Fatalf("handler got %v", v)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("handler never fired")
	}
}

func TestTCPLateListener(t *testing.T) {
	defer testutil.CheckGoroutines(t)
	// Reserve node 1's port but don't run its transport yet: node 0's
	// dialer must absorb the refusals and deliver once the peer is up.
	lns := make([]net.Listener, 2)
	addrs := make([]string, 2)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	lns[1].Close() // node 1 is "not started yet"

	tr0, err := NewTCPTransport(TCPOptions{Self: 0, Addrs: addrs, Listener: lns[0]})
	if err != nil {
		t.Fatalf("transport 0: %v", err)
	}
	c0 := NewWithTransport(Config{Nodes: 2}, tr0)
	defer c0.Close()
	if err := c0.Node(0).Send(1, 3, "early"); err != nil {
		t.Fatalf("Send: %v", err)
	}
	time.Sleep(20 * time.Millisecond) // let a few dial attempts fail

	ln1, err := net.Listen("tcp", addrs[1])
	if err != nil {
		t.Skipf("port %s reused: %v", addrs[1], err)
	}
	tr1, err := NewTCPTransport(TCPOptions{Self: 1, Addrs: addrs, Listener: ln1})
	if err != nil {
		t.Fatalf("transport 1: %v", err)
	}
	c1 := NewWithTransport(Config{Nodes: 2}, tr1)
	defer c1.Close()
	got, err := c1.Node(1).Recv(3, 0)
	if err != nil || got != "early" {
		t.Fatalf("Recv = %v, %v", got, err)
	}
}

func TestTCPReconnect(t *testing.T) {
	defer testutil.CheckGoroutines(t)
	cs := tcpClusters(t, 2, Config{})
	if err := cs[0].Node(0).Send(1, 1, "first"); err != nil {
		t.Fatalf("Send: %v", err)
	}
	if got, err := cs[1].Node(1).Recv(1, 0); err != nil || got != "first" {
		t.Fatalf("Recv = %v, %v", got, err)
	}
	// Sever every established connection on the receiving side. The
	// sender's next writes hit a dead socket; the link re-dials. Sends
	// are fire-and-forget (a write into the dying socket can be lost),
	// so keep sending distinct seqs until one lands.
	cs[1].Transport().(*TCPTransport).dropConns()
	deadline := time.Now().Add(10 * time.Second)
	landed := false
	for i := 0; !landed && time.Now().Before(deadline); i++ {
		if err := cs[0].Node(0).Send(1, 2, fmt.Sprintf("retry-%d", i)); err != nil {
			t.Fatalf("Send: %v", err)
		}
		if _, ok := cs[1].Node(1).TryRecv(2, 0); ok {
			landed = true
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !landed {
		t.Fatal("no message landed after reconnect")
	}
	if rc := cs[0].Transport().Stats().Reconnects; rc == 0 {
		t.Fatal("sender never counted a reconnect")
	}
}

func TestTCPInterruptPropagates(t *testing.T) {
	defer testutil.CheckGoroutines(t)
	cs := tcpClusters(t, 2, Config{})
	var wg sync.WaitGroup
	wg.Add(1)
	errCh := make(chan error, 1)
	go func() {
		defer wg.Done()
		_, err := cs[1].Node(1).Recv(99, 0) // blocks until the interrupt arrives
		errCh <- err
	}()
	time.Sleep(5 * time.Millisecond)
	cs[0].Interrupt(fmt.Errorf("shard 0 aborting"))
	wg.Wait()
	if err := <-errCh; err == nil {
		t.Fatal("remote Recv survived the interrupt")
	}
	if cs[1].Err() == nil {
		t.Fatal("interrupt did not propagate to the peer process")
	}
}

// TestStatsBytesWithoutWireEncode is the regression for byte
// accounting: frame bytes must be counted on the plain in-process fast
// path too, not only under WireEncode.
func TestStatsBytesWithoutWireEncode(t *testing.T) {
	c := New(Config{Nodes: 2})
	defer c.Close()
	if err := c.Node(0).Send(1, 7, []float64{1, 2, 3, 4}); err != nil {
		t.Fatalf("Send: %v", err)
	}
	if _, err := c.Node(1).Recv(7, 0); err != nil {
		t.Fatalf("Recv: %v", err)
	}
	st := c.Stats()
	if st.Bytes == 0 {
		t.Fatal("Stats.Bytes is zero on a plain in-process run")
	}
	// The hint-based estimate must at least cover the frame header plus
	// the vector body.
	if want := uint64(framePrefixLen + frameHeaderLen + 8 + 8*4); st.Bytes < want {
		t.Fatalf("Stats.Bytes = %d, want >= %d", st.Bytes, want)
	}
}

// waitInterrupted polls until every cluster has observed the interrupt
// (the broadcast crosses real sockets, so propagation is asynchronous).
func waitInterrupted(t *testing.T, cs []*Cluster) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		all := true
		for _, c := range cs {
			if c.Err() == nil {
				all = false
			}
		}
		if all {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("interrupt never propagated to every process")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestTCPReviveBarrier: minting an epoch over TCP (Advance on an
// interrupted transport) runs an acked barrier, not a best-effort
// broadcast. When it returns, every peer process has already adopted
// the new epoch (clearing its interrupt and wiping its dead-epoch
// queues), so traffic sent immediately afterwards flows.
func TestTCPReviveBarrier(t *testing.T) {
	defer testutil.CheckGoroutines(t)
	cs := tcpClusters(t, 3, Config{})
	cs[0].Interrupt(fmt.Errorf("shard down"))
	waitInterrupted(t, cs)

	epoch, err := cs[0].Advance(0)
	if err != nil {
		t.Fatalf("Advance: %v", err)
	}
	if epoch != 1 {
		t.Fatalf("Advance epoch = %d, want 1", epoch)
	}
	// The barrier guarantee: no polling, no settling sleep — by the time
	// Advance returned, every peer is in the new epoch with a clean slate.
	for i, c := range cs {
		if got := c.Epoch(); got != 1 {
			t.Fatalf("cluster %d epoch = %d immediately after the barrier, want 1", i, got)
		}
		if err := c.Err(); err != nil {
			t.Fatalf("cluster %d still interrupted after the barrier: %v", i, err)
		}
	}
	// And post-barrier traffic cannot be destroyed by a late wipe.
	if err := cs[1].Node(1).Send(2, 7, "fresh epoch"); err != nil {
		t.Fatalf("Send: %v", err)
	}
	got, err := cs[2].Node(2).Recv(7, 1)
	if err != nil || got != "fresh epoch" {
		t.Fatalf("Recv = %v, %v", got, err)
	}
}

// TestTCPReviveBarrierTimeout: a peer that never comes back (its
// process is dead and nothing respawned it) bounds the barrier at
// ReviveTimeout with an ErrReviveTimeout the supervisor can classify.
func TestTCPReviveBarrierTimeout(t *testing.T) {
	testutil.CheckGoroutines(t)
	lns := make([]net.Listener, 2)
	addrs := make([]string, 2)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	lns[1].Close() // peer 1 is dead and stays dead
	tr, err := NewTCPTransport(TCPOptions{
		Self: 0, Addrs: addrs, Listener: lns[0],
		RetryBase: 2 * time.Millisecond, RetryCap: 20 * time.Millisecond,
		ReviveTimeout: 300 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("transport: %v", err)
	}
	c := NewWithTransport(Config{Nodes: 2}, tr)
	defer c.Close()
	c.Interrupt(fmt.Errorf("shard down"))

	start := time.Now()
	_, err = c.Advance(0)
	if !errors.Is(err, ErrReviveTimeout) {
		t.Fatalf("Advance = %v, want ErrReviveTimeout", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("barrier took %v, want ~ReviveTimeout", d)
	}
}

// TestTCPEpochSyncRejoin: a fresh process replacing a dead worker
// learns the cluster's current epoch from the SyncEpoch rendezvous
// before running anything — it must not start an attempt in a dead
// epoch just because it was born at epoch 0.
func TestTCPEpochSyncRejoin(t *testing.T) {
	testutil.CheckGoroutines(t)
	lns := make([]net.Listener, 2)
	addrs := make([]string, 2)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	mk := func(i int, ln net.Listener) *Cluster {
		tr, err := NewTCPTransport(TCPOptions{Self: NodeID(i), Addrs: addrs, Listener: ln,
			RetryBase: 2 * time.Millisecond, RetryCap: 20 * time.Millisecond})
		if err != nil {
			t.Fatalf("transport %d: %v", i, err)
		}
		return NewWithTransport(Config{Nodes: 2}, tr)
	}
	c0, c1 := mk(0, lns[0]), mk(1, lns[1])
	defer c0.Close()

	c0.Interrupt(fmt.Errorf("shard down"))
	waitInterrupted(t, []*Cluster{c0, c1})
	if _, err := c0.Advance(0); err != nil {
		t.Fatalf("Advance: %v", err)
	}

	// Process 1 dies and is replaced by a fresh one on the same address.
	c1.Close()
	var ln1 net.Listener
	rebind := time.Now().Add(5 * time.Second)
	for {
		var err error
		if ln1, err = net.Listen("tcp", addrs[1]); err == nil {
			break
		}
		if time.Now().After(rebind) {
			t.Skipf("port %s not rebindable: %v", addrs[1], err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	c1b := mk(1, ln1)
	defer c1b.Close()
	if got := c1b.SyncEpoch(5 * time.Second); got != 1 {
		t.Fatalf("rejoined process synced to epoch %d, want 1", got)
	}
}

// TestTCPCloseDuringDialBackoff is the regression for the stranded
// writer: Close while a writer goroutine sits in dial backoff against
// a down peer must abort the wait promptly instead of holding the
// drain hostage for the full deadline (or the whole backoff).
func TestTCPCloseDuringDialBackoff(t *testing.T) {
	testutil.CheckGoroutines(t)
	lns := make([]net.Listener, 2)
	addrs := make([]string, 2)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	lns[1].Close() // peer 1 is down: every dial fails
	tr, err := NewTCPTransport(TCPOptions{
		Self: 0, Addrs: addrs, Listener: lns[0],
		RetryBase: 30 * time.Second, RetryCap: 30 * time.Second, // park the writer
	})
	if err != nil {
		t.Fatalf("transport: %v", err)
	}
	c := NewWithTransport(Config{Nodes: 2}, tr)
	if err := c.Node(0).Send(1, 1, "never delivered"); err != nil {
		t.Fatalf("Send: %v", err)
	}
	time.Sleep(100 * time.Millisecond) // let the writer fail its dial and enter backoff
	start := time.Now()
	c.Close()
	if d := time.Since(start); d > 1500*time.Millisecond {
		t.Fatalf("Close took %v with a writer parked in dial backoff", d)
	}
}
