package cluster

import (
	"errors"
	"runtime"
	"sync"
	"testing"
)

// TestAdvance pins the epoch-advance primitive over every state a heal
// can find the transport in. The message queued in the epoch in force
// tells a join (its traffic is live and stays) from a mint (the dead
// epoch's traffic is wiped).
func TestAdvance(t *testing.T) {
	queue := func(t *testing.T, c *Cluster) {
		if err := c.Node(0).Send(1, 9, "queued"); err != nil {
			t.Fatalf("Send: %v", err)
		}
	}
	for _, tc := range []struct {
		name  string
		setup func(t *testing.T, c *Cluster)
		want  uint64 // epoch in force after Advance(0)
		kept  bool   // the message queued by setup survives
		err   error
	}{
		{"healthy at seen", func(t *testing.T, c *Cluster) { queue(t, c) }, 0, true, nil},
		// The heal-step race: a peer's revive lands between the failed
		// attempt's interrupt and its heal. The transport is healthy in
		// the peer's epoch, which the heal joins.
		{"healthy past seen", func(t *testing.T, c *Cluster) {
			c.Interrupt(errors.New("shard down"))
			c.Revived(1)
			queue(t, c)
		}, 1, true, nil},
		{"interrupted at seen", func(t *testing.T, c *Cluster) {
			queue(t, c)
			c.Interrupt(errors.New("shard down"))
		}, 1, false, nil},
		{"interrupted past seen", func(t *testing.T, c *Cluster) {
			c.Interrupt(errors.New("shard down"))
			c.Revived(1)
			queue(t, c)
			c.InterruptLocal(errors.New("superseded"))
		}, 1, true, nil},
		{"closed", func(_ *testing.T, c *Cluster) { c.Close() }, 0, false, ErrClosed},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := New(Config{Nodes: 2})
			defer c.Close()
			tc.setup(t, c)
			got, err := c.Advance(0)
			if !errors.Is(err, tc.err) {
				t.Fatalf("Advance(0) error = %v, want %v", err, tc.err)
			}
			if tc.err != nil {
				return
			}
			if got != tc.want || c.Epoch() != tc.want {
				t.Fatalf("Advance(0) = %d (epoch in force %d), want %d", got, c.Epoch(), tc.want)
			}
			if err := c.Err(); err != nil {
				t.Fatalf("still interrupted after Advance: %v", err)
			}
			select {
			case <-c.Done():
				t.Fatal("Done closed after Advance")
			default:
			}
			if _, ok := c.Node(1).TryRecv(9, 0); ok != tc.kept {
				t.Fatalf("queued message survived = %v, want %v", ok, tc.kept)
			}
		})
	}
}

// TestAdvanceRacesRevived runs a peer's revive and the local heal of the
// same interrupt concurrently, round after round: whichever lands first,
// both agree on the successor epoch, the interrupt is clear, and a
// message queued in the successor epoch as soon as it is in force
// survives — the reset ran once, never over the adopted epoch's traffic.
func TestAdvanceRacesRevived(t *testing.T) {
	c := New(Config{Nodes: 2})
	defer c.Close()
	for round := 0; round < 300; round++ {
		e := c.Epoch()
		c.Interrupt(errors.New("shard down"))
		var wg sync.WaitGroup
		var got uint64
		var err error
		wg.Add(3)
		go func() { defer wg.Done(); c.Revived(e + 1) }()
		go func() { defer wg.Done(); got, err = c.Advance(e) }()
		go func() {
			defer wg.Done()
			for c.Epoch() != e+1 || c.Node(0).Send(1, 9, round) != nil {
				runtime.Gosched()
			}
		}()
		wg.Wait()
		if err != nil || got != e+1 {
			t.Fatalf("round %d: Advance(%d) = %d, %v; want %d", round, e, got, err, e+1)
		}
		if c.Epoch() != e+1 || c.Err() != nil {
			t.Fatalf("round %d: epoch %d, interrupt %v; want epoch %d, healthy", round, c.Epoch(), c.Err(), e+1)
		}
		if v, ok := c.Node(1).TryRecv(9, 0); !ok || v != round {
			t.Fatalf("round %d: message queued in epoch %d lost (got %v, %v)", round, e+1, v, ok)
		}
	}
}
