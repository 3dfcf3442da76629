package rpc

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dirsvc/internal/capability"
	"dirsvc/internal/sim"
)

// seedStat plants a deterministic latency sample for one replica, so a
// test controls which server the P2C picker selects and when the hedge
// timer fires, without racing the picker's own sampling.
func seedStat(c *Client, port capability.Port, id sim.NodeID, srtt time.Duration) {
	p := c.peerOf(port, id)
	c.mu.Lock()
	p.srtt = srtt
	p.rttvar = 0
	p.hint = 0
	p.updated = time.Now()
	p.samples = 1
	c.mu.Unlock()
}

// stallFixture builds two echo servers where servers[0]'s handler can be
// stalled on demand, and a client with balancing and hedging on that has
// located (and sampled) both replicas. A locate collects HEREIS answers
// for one 2 ms window, and on a loaded host one answer can miss it: the
// client then caches one replica, has nothing to hedge to, and the hedge
// tests fail for want of a second server. So the fixture locates again
// until both are cached, and keeps that entry for the rest of the test.
func stallFixture(t *testing.T) (f *fixture, port capability.Port, slowID, fastID sim.NodeID, stallMS *atomic.Int64) {
	t.Helper()
	var servers []*Server
	f, port, servers = newFixture(t, 2)
	stallMS = new(atomic.Int64)
	stopSlow := servers[0].ServeFunc(64, func(req *Request) []byte {
		if d := stallMS.Load(); d > 0 {
			time.Sleep(time.Duration(d) * time.Millisecond)
		}
		return append([]byte("echo:"), req.Payload...)
	})
	t.Cleanup(func() {
		servers[0].Close()
		stopSlow()
	})
	echoWorkers(t, servers[1], 4)
	slowID = servers[0].stack.Node().ID()
	fastID = servers[1].stack.Node().ID()

	f.client.SetReadBalance(true)
	f.client.SetHedge(true)
	f.client.SetCacheTTL(time.Hour)
	for i := 0; i < 4 || len(f.client.CachedServers(port)) < 2; i++ {
		if i == 100 {
			t.Fatalf("100 locates cached only %v of two replicas", f.client.CachedServers(port))
		}
		if i >= 4 {
			relocate(f.client, port)
		}
		if _, err := f.client.TransRead(port, []byte(fmt.Sprintf("warm%d", i))); err != nil {
			t.Fatalf("warm read %d: %v", i, err)
		}
	}
	return f, port, slowID, fastID, stallMS
}

// relocate expires c's port-cache entry for port: its next pick locates.
func relocate(c *Client, port capability.Port) {
	c.mu.Lock()
	c.cache[port].recheckAt = time.Time{}
	c.mu.Unlock()
}

// TestHedgedReadWinsOverStalledReplica pins the hedge path end to end:
// with the picker steered onto a stalled replica, the hedge fires after
// the ~p95 delay, the second replica answers, and the transaction
// completes in a fraction of the stall — and the loser's late reply is
// discarded without corrupting the transaction table (subsequent
// transactions still pair request and reply correctly).
func TestHedgedReadWinsOverStalledReplica(t *testing.T) {
	f, port, slowID, fastID, stallMS := stallFixture(t)

	const stall = 250
	stallMS.Store(stall)
	// Steer the picker: the stalled replica looks fastest, so it wins the
	// P2C choice outright, and its tiny SRTT arms an early hedge.
	seedStat(f.client, port, slowID, time.Millisecond)
	seedStat(f.client, port, fastID, 50*time.Millisecond)

	sent0, wins0 := f.client.HedgeStats()
	start := time.Now()
	reply, err := f.client.TransRead(port, []byte("hedged"))
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("hedged read: %v", err)
	}
	if string(reply) != "echo:hedged" {
		t.Fatalf("hedged read reply = %q", reply)
	}
	if elapsed >= stall*time.Millisecond {
		t.Fatalf("hedged read took %v, no faster than the %dms stall", elapsed, stall)
	}
	sent, wins := f.client.HedgeStats()
	if sent <= sent0 {
		t.Fatal("no hedge was sent against the stalled replica")
	}
	if wins <= wins0 {
		t.Fatal("hedge sent but not credited with the win")
	}

	// Let the stalled replica's losing reply land on the closed
	// transaction, then verify the demux still routes correctly.
	stallMS.Store(0)
	time.Sleep((stall + 50) * time.Millisecond)
	for i := 0; i < 20; i++ {
		payload := fmt.Sprintf("after%d", i)
		reply, err := f.client.TransRead(port, []byte(payload))
		if err != nil {
			t.Fatalf("post-hedge read %d: %v", i, err)
		}
		if string(reply) != "echo:"+payload {
			t.Fatalf("post-hedge read %d got %q: late losing reply corrupted the pairing", i, reply)
		}
	}
}

// TestHedgeAcksLoser: a hedged read ends owing its id to both servers it
// reached. The loser's worker is still stalled when the client's next
// request there acknowledges the id, and its late reply must not bring
// the entry back: the loser ends up holding nothing for the transaction.
func TestHedgeAcksLoser(t *testing.T) {
	f, port, slowID, fastID, stallMS := stallFixture(t)
	const stall = 150
	stallMS.Store(stall)
	seedStat(f.client, port, slowID, time.Millisecond)
	seedStat(f.client, port, fastID, 50*time.Millisecond)

	sent0, _ := f.client.HedgeStats()
	if _, err := f.client.TransRead(port, []byte("hedged")); err != nil {
		t.Fatal(err)
	}
	if sent, _ := f.client.HedgeStats(); sent == sent0 {
		t.Fatal("no hedge was sent against the stalled replica")
	}
	f.client.mu.Lock()
	key := dupKey{src: f.stacks[0].Node().ID(), tx: f.client.txid}
	f.client.mu.Unlock()

	stallMS.Store(0)
	if _, err := f.client.TransTo(context.Background(), slowID, port, []byte("next")); err != nil {
		t.Fatal(err)
	}
	// The next frame from the loser is its late reply, sent after it was
	// recorded.
	next := time.Now()
	for deadline := next.Add(5 * time.Second); !f.client.heardSince(slowID, next); {
		if time.Now().After(deadline) {
			t.Fatal("the hedge loser never replied")
		}
		time.Sleep(time.Millisecond)
	}
	loser := f.servers[0]
	loser.mu.Lock()
	_, held := loser.dups.entries[key]
	loser.mu.Unlock()
	if held {
		t.Fatalf("the hedge loser still holds an entry for transaction %d", key.tx)
	}
}

// TestHedgeConcurrentNoCrossContamination drives concurrent unique-
// payload reads through a stalled primary with hedging on: every reply
// must be the echo of its own request. Run with -race, this is the
// concurrency gate for hedge replies racing primary replies in the
// demux.
func TestHedgeConcurrentNoCrossContamination(t *testing.T) {
	f, port, slowID, fastID, stallMS := stallFixture(t)
	stallMS.Store(30)
	seedStat(f.client, port, slowID, time.Millisecond)
	seedStat(f.client, port, fastID, 50*time.Millisecond)

	const goroutines = 4
	const opsEach = 15
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < opsEach; i++ {
				payload := fmt.Sprintf("g%d-i%d", g, i)
				reply, err := f.client.TransRead(port, []byte(payload))
				if err != nil {
					errs <- fmt.Errorf("goroutine %d op %d: %w", g, i, err)
					return
				}
				if string(reply) != "echo:"+payload {
					errs <- fmt.Errorf("goroutine %d op %d: reply %q from another transaction", g, i, reply)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestHedgeRateCap pins the token bucket: against a persistently
// stalled primary, hedges are capped at the burst plus the per-read
// refill — not one per read — so a sick replica cannot double the
// offered load.
func TestHedgeRateCap(t *testing.T) {
	f, port, slowID, fastID, stallMS := stallFixture(t)
	stallMS.Store(40)

	const reads = 40
	sent0, _ := f.client.HedgeStats()
	for i := 0; i < reads; i++ {
		// Re-seed before every read: the stall samples would otherwise
		// steer the picker off the slow replica and end the experiment.
		seedStat(f.client, port, slowID, time.Millisecond)
		seedStat(f.client, port, fastID, 50*time.Millisecond)
		payload := fmt.Sprintf("cap%d", i)
		reply, err := f.client.TransRead(port, []byte(payload))
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if string(reply) != "echo:"+payload {
			t.Fatalf("read %d reply = %q", i, reply)
		}
	}
	sent, _ := f.client.HedgeStats()
	hedges := sent - sent0
	// Deterministic ceiling: burst (hedgeBurst) + hedgeRate per read,
	// plus the warm-up reads' refills.
	refill := float64(reads+4) * hedgeRate
	limit := uint64(hedgeBurst) + uint64(refill) + 1
	if hedges > limit {
		t.Fatalf("%d hedges over %d reads: rate cap (≤%d) not enforced", hedges, reads, limit)
	}
	if hedges < hedgeBurst {
		t.Fatalf("only %d hedges over %d reads against a stalled primary; burst of %d never spent", hedges, reads, hedgeBurst)
	}
}
