package rpc

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"dirsvc/internal/capability"
	"dirsvc/internal/sim"
)

// TestReplicaRecordLifecycle: whichever way a transaction leaves the
// transport, every in-flight charge it made on a replica — its own, its
// hedge's — is returned, and a replica located again after a dead verdict
// comes back with its latency history and a fresh verdict channel.
func TestReplicaRecordLifecycle(t *testing.T) {
	t.Run("NotHereFailover", func(t *testing.T) {
		f, port, servers := newFixture(t, 2)
		busy, idle := servers[0], servers[1] // busy has no worker yet: NOTHERE
		echoWorkers(t, idle, 1)
		// Keep idle's HEREIS from the client until busy has answered
		// NOTHERE, so that the first pick is busy.
		var notHere atomic.Bool
		idleID := idle.stack.Node().ID()
		f.net.SetDropFilter(func(src, dst sim.NodeID, frame []byte) bool {
			if op, _ := rpcOp(frame); op == opNotHere {
				notHere.Store(true)
			}
			return src == idleID && frame[0] == 4 /* flip HEREIS */ && !notHere.Load()
		})
		if reply, err := f.client.Trans(port, []byte("hi")); err != nil || string(reply) != "echo:hi" {
			t.Fatalf("reply %q, err %v", reply, err)
		}
		if !notHere.Load() {
			t.Fatal("the busy server never answered NOTHERE")
		}
		f.net.SetDropFilter(nil)
		echoWorkers(t, busy, 1)
		assertIdle(t, f.client, port, 2)
	})

	t.Run("DeadVerdict", func(t *testing.T) {
		p := newParkFixture(t, 2)
		before := statOf(p.client, p.port, p.first)
		if before.Samples == 0 {
			t.Fatalf("the preferred replica has no latency sample after warm-up: %+v", before)
		}
		var silent atomic.Bool
		p.net.SetDropFilter(func(src, dst sim.NodeID, frame []byte) bool {
			return silent.Load() && src == p.first
		})
		const n = 6
		errs := make(chan error, n)
		for i := 0; i < n; i++ {
			go func(i int) {
				_, err := p.client.Trans(p.port, []byte(fmt.Sprintf("park-%d", i)))
				errs <- err
			}(i)
		}
		for deadline := time.Now().Add(5 * time.Second); p.parked.Load() < n; {
			if time.Now().After(deadline) {
				t.Fatalf("only %d of %d transactions reached the server", p.parked.Load(), n)
			}
			time.Sleep(time.Millisecond)
		}
		silent.Store(true)
		for i := 0; i < n; i++ {
			if err := <-errs; err != nil {
				t.Fatalf("transaction parked on the silenced server: %v", err)
			}
		}
		if st := p.client.FailoverStats(); st.Verdicts != 1 || st.Released != n-1 {
			t.Fatalf("stats %+v, want one verdict releasing %d transactions", st, n-1)
		}
		silent.Store(false)
		assertIdle(t, p.client, p.port, 2)

		after := statOf(p.client, p.port, p.first)
		if after.Samples < before.Samples || after.SRTT == 0 {
			t.Fatalf("re-located replica %+v lost the latency history %+v", after, before)
		}
		// A transaction there waits on a fresh verdict channel: the old
		// one is closed, and would fail it at once.
		if _, err := p.client.TransTo(context.Background(), p.first, p.port, []byte("after")); err != nil {
			t.Fatalf("transaction to the re-located replica: %v", err)
		}
		if st := p.client.FailoverStats(); st.Verdicts != 1 || st.Released != n-1 {
			t.Fatalf("stats %+v after a transaction to the re-located replica", st)
		}
		assertIdle(t, p.client, p.port, 2)
	})

	t.Run("HedgeWins", func(t *testing.T) {
		f, port, slowID, fastID, stallMS := stallFixture(t)
		stallMS.Store(100)
		seedStat(f.client, port, slowID, time.Millisecond)
		seedStat(f.client, port, fastID, 50*time.Millisecond)
		_, wins0 := f.client.HedgeStats()
		if _, err := f.client.TransRead(port, []byte("hedged")); err != nil {
			t.Fatal(err)
		}
		if _, wins := f.client.HedgeStats(); wins == wins0 {
			t.Fatal("the hedge did not win against the stalled replica")
		}
		stallMS.Store(0)
		assertIdle(t, f.client, port, 2)
	})

	t.Run("HedgeLoses", func(t *testing.T) {
		f, port, slowID, fastID, stallMS := stallFixture(t)
		stallMS.Store(60)
		seedStat(f.client, port, slowID, time.Millisecond)
		seedStat(f.client, port, fastID, 50*time.Millisecond)
		// The hedge's reply is lost, so the stalled primary answers first.
		f.net.SetDropFilter(func(src, dst sim.NodeID, frame []byte) bool {
			op, _ := rpcOp(frame)
			return src == fastID && op == opReply
		})
		sent0, wins0 := f.client.HedgeStats()
		if _, err := f.client.TransRead(port, []byte("hedged")); err != nil {
			t.Fatal(err)
		}
		f.net.SetDropFilter(nil)
		if sent, wins := f.client.HedgeStats(); sent == sent0 || wins != wins0 {
			t.Fatalf("hedges sent %d → %d, won %d → %d: want one sent and lost", sent0, sent, wins0, wins)
		}
		stallMS.Store(0)
		assertIdle(t, f.client, port, 2)
	})

	t.Run("TransTo", func(t *testing.T) {
		f, port, servers := newFixture(t, 2)
		for _, srv := range servers {
			echoWorkers(t, srv, 1)
		}
		assertIdle(t, f.client, port, 2)
		for _, srv := range servers {
			if _, err := f.client.TransTo(context.Background(), srv.stack.Node().ID(), port, []byte("to")); err != nil {
				t.Fatal(err)
			}
		}
		assertIdle(t, f.client, port, 2)
	})

	t.Run("Canceled", func(t *testing.T) {
		p := newParkFixture(t, 2)
		ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
		defer cancel()
		if _, err := p.client.TransCtx(ctx, p.port, []byte("park-canceled")); !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("err %v, want the context's deadline", err)
		}
		assertIdle(t, p.client, p.port, 2)
	})

	t.Run("Subscribe", func(t *testing.T) {
		f, port, servers := newFixture(t, 1)
		addrs := make(chan PushAddr, 1)
		stop := servers[0].ServeFunc(1, func(req *Request) []byte {
			addrs <- req.PushAddr()
			return []byte("subscribed")
		})
		t.Cleanup(func() {
			servers[0].Close()
			stop()
		})
		s, reply, err := f.client.Subscribe(context.Background(), port, []byte("sub"))
		if err != nil || string(reply) != "subscribed" {
			t.Fatalf("reply %q, err %v", reply, err)
		}
		if err := servers[0].Push(<-addrs, []byte("event")); err != nil {
			t.Fatal(err)
		}
		select {
		case m := <-s.Chan():
			if payload, ok := PushPayload(m); !ok || string(payload) != "event" {
				t.Fatalf("push %q, ok %v", payload, ok)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("the push never reached the stream")
		}
		s.Close()
		assertIdle(t, f.client, port, 1)
	})
}

// assertIdle locates port until all n of its servers are cached — a path
// may have evicted one, and ReplicaStats reports cached replicas only —
// then checks that no replica is charged an in-flight request.
func assertIdle(t *testing.T, c *Client, port capability.Port, n int) {
	t.Helper()
	for i := 0; len(c.CachedServers(port)) < n; i++ {
		if i == 100 {
			t.Fatalf("100 locates cached only %v of %d servers", c.CachedServers(port), n)
		}
		c.SetCacheTTL(0) // every pick locates
		if _, err := c.Trans(port, []byte("locate")); err != nil {
			t.Fatal(err)
		}
	}
	for _, rs := range c.ReplicaStats(port) {
		if rs.Inflight != 0 {
			t.Fatalf("replica %v is still charged %d requests: %+v", rs.Server, rs.Inflight, c.ReplicaStats(port))
		}
	}
}

// statOf returns server's entry in c's ReplicaStats for port, or the zero
// ReplicaStat if it is not cached.
func statOf(c *Client, port capability.Port, server sim.NodeID) ReplicaStat {
	for _, rs := range c.ReplicaStats(port) {
		if rs.Server == server {
			return rs
		}
	}
	return ReplicaStat{}
}
