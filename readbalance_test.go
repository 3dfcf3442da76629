package faultdir

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"dirsvc/dir"
	"dirsvc/internal/capability"
	"dirsvc/internal/dirclient"
	"dirsvc/internal/dirsvc"
)

// floorKinds are the kinds whose servers can trail each other: group
// replicas each apply the stream at their own pace, and the RPC pair
// makes its second copies lazily.
var floorKinds = []Kind{KindGroup, KindRPC}

// readAt serves reads at server id of shard 0 below the transport.
func readAt(t *testing.T, c *Cluster, id int) func(*dirsvc.Request) *dirsvc.Reply {
	t.Helper()
	m := c.machine(id)
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.read == nil {
		t.Fatalf("no direct reads at server %d of a %v cluster", id, c.Kind)
	}
	return m.read
}

// newFloorFixture boots a cluster of kind with one directory in it.
func newFloorFixture(t *testing.T, kind Kind) (*Cluster, *dirclient.Client, capability.Capability) {
	t.Helper()
	c := newTestCluster(t, kind)
	client, cleanup, err := c.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cleanup)
	work, err := client.CreateDir(bgCtx)
	if err != nil {
		t.Fatalf("CreateDir: %v", err)
	}
	return c, client, work
}

// TestMinSeqBlocksOnLaggingReplica pins the session-consistency floor at
// one specific server: a read stamped with a MinSeq the server has not
// applied yet must block there — not answer from older state — and
// complete as soon as the server's applied sequence number reaches the
// floor. This is exactly the lagging-replica case read balancing
// exposes: the write was acknowledged through one server, the read
// lands on another.
func TestMinSeqBlocksOnLaggingReplica(t *testing.T) {
	for _, kind := range floorKinds {
		t.Run(kind.String(), func(t *testing.T) {
			c, client, work := newFloorFixture(t, kind)

			// Interrogate the last server directly. Wait for the create to
			// finish applying on every server first, so the floor computed
			// below is genuinely in the future — not a commit still in
			// flight to a lagging server.
			n := c.ServersPerShard()
			reads := make([]func(*dirsvc.Request) *dirsvc.Reply, n+1)
			for id := 1; id <= n; id++ {
				reads[id] = readAt(t, c, id)
			}
			list := &dirsvc.Request{Op: dirsvc.OpListDir, Dir: work}
			var applied []uint64
			settle := time.Now().Add(10 * time.Second)
			for {
				applied = applied[:0]
				for id := 1; id <= n; id++ {
					applied = append(applied, reads[id](list).Seq)
				}
				if applied[0] > 0 && slices.Min(applied) == slices.Max(applied) {
					break
				}
				if time.Now().After(settle) {
					t.Fatalf("servers never quiesced: applied = %v", applied)
				}
				time.Sleep(5 * time.Millisecond)
			}
			floor := applied[0] + 1 // the next write's sequence number — not yet applied anywhere

			done := make(chan *dirsvc.Reply, 1)
			go func() {
				done <- reads[n](&dirsvc.Request{Op: dirsvc.OpListDir, Dir: work, MinSeq: floor})
			}()
			select {
			case reply := <-done:
				t.Fatalf("read with MinSeq=%d returned %v before the floor was applied (applied=%d)",
					floor, reply.Status, applied[0])
			case <-time.After(150 * time.Millisecond):
				// Still blocked: the floor is doing its job.
			}

			// Commit the write the floor anticipates; the blocked read must
			// now complete and observe it.
			if err := client.Append(bgCtx, work, "fresh", work, nil); err != nil {
				t.Fatalf("Append: %v", err)
			}
			select {
			case reply := <-done:
				if reply.Status != dirsvc.StatusOK {
					t.Fatalf("unblocked read status = %v, want OK", reply.Status)
				}
				if reply.Seq < floor {
					t.Fatalf("unblocked read stamped Seq=%d, below its own floor %d", reply.Seq, floor)
				}
				found := false
				for _, row := range reply.Rows {
					if row.Name == "fresh" {
						found = true
					}
				}
				if !found {
					t.Fatalf("unblocked read missed the write that released it: rows = %+v", reply.Rows)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("read stayed blocked after the floor was applied")
			}
		})
	}
}

// TestMinSeqUnreachableFloorRefused: a floor the server cannot reach is
// refused (no-majority, prompting client failover) after a bounded wait —
// never answered with data older than the floor.
func TestMinSeqUnreachableFloorRefused(t *testing.T) {
	for _, kind := range floorKinds {
		t.Run(kind.String(), func(t *testing.T) {
			c, _, work := newFloorFixture(t, kind)
			read := readAt(t, c, 1)
			applied := read(&dirsvc.Request{Op: dirsvc.OpListDir, Dir: work}).Seq
			reply := read(&dirsvc.Request{Op: dirsvc.OpListDir, Dir: work, MinSeq: applied + 1000})
			if reply.Status != dirsvc.StatusNoMajority {
				t.Fatalf("unreachable floor: status = %v, want NoMajority (stale data must not leak)", reply.Status)
			}
		})
	}
}

// TestMinSeqParkedReadReleasedOnClose: a read parked on a floor its
// server cannot reach returns as soon as the server shuts down, not when
// the floor wait (one second under the fast model) runs out — a server
// closing must not hold its serving threads for the rest of the wait.
func TestMinSeqParkedReadReleasedOnClose(t *testing.T) {
	for _, kind := range floorKinds {
		t.Run(kind.String(), func(t *testing.T) {
			c, _, work := newFloorFixture(t, kind)
			read := readAt(t, c, 1)
			floor := read(&dirsvc.Request{Op: dirsvc.OpListDir, Dir: work}).Seq + 1000
			done := make(chan *dirsvc.Reply, 1)
			go func() { done <- read(&dirsvc.Request{Op: dirsvc.OpListDir, Dir: work, MinSeq: floor}) }()
			time.Sleep(200 * time.Millisecond) // parked in the floor wait

			start := time.Now()
			c.CrashServer(1)
			select {
			case reply := <-done:
				if reply.Status != dirsvc.StatusNoMajority {
					t.Fatalf("parked read released with %v, want NoMajority", reply.Status)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("parked read never returned after its server closed")
			}
			if took := time.Since(start); took > 500*time.Millisecond {
				t.Fatalf("parked read released %v after its server began closing", took)
			}
		})
	}
}

// TestReadBalanceLoadDistribution is the Fig. 8-style assertion on the
// full stack: with read balancing on, one client's lookups spread across
// all three replicas of the group; with the legacy knob off, they pin to
// the first HEREIS responder — the paper's skew, preserved for the
// Fig. 8 reproduction.
func TestReadBalanceLoadDistribution(t *testing.T) {
	c := newTestCluster(t, KindGroup)
	const lookups = 90

	run := func(balance bool) (perServer map[int]uint64, total uint64) {
		client, cleanup, err := c.NewBalancedClient(dir.CacheOptions{}, balance)
		if err != nil {
			t.Fatal(err)
		}
		defer cleanup()
		work, err := client.CreateDir(bgCtx)
		if err != nil {
			t.Fatalf("CreateDir: %v", err)
		}
		appendWithRetry(t, client, work, "target", work, 30*time.Second)
		before := c.ShardReadCounts(0)
		for i := 0; i < lookups; i++ {
			if _, err := client.Lookup(bgCtx, work, "target"); err != nil {
				t.Fatalf("balance=%v lookup %d: %v", balance, i, err)
			}
		}
		perServer = c.ShardReadCounts(0)
		for id, n := range before {
			perServer[id] -= n
			total += perServer[id]
		}
		return perServer, total
	}

	spread, total := run(true)
	for id := 1; id <= 3; id++ {
		if share := float64(spread[id]) / float64(total); share < 0.15 {
			t.Fatalf("balanced reads skewed: server %d served %.0f%% of %d (%v)",
				id, 100*share, total, spread)
		}
	}

	pinned, total := run(false)
	var top uint64
	for _, n := range pinned {
		if n > top {
			top = n
		}
	}
	if float64(top)/float64(total) < 0.9 {
		t.Fatalf("legacy pinned policy lost its skew: top server served %d of %d (%v)",
			top, total, pinned)
	}
}

// TestTwoClientsSpreadLoad is the multi-client spread regression: two
// *independent* balanced clients — each with its own EWMA tracker, no
// shared state — running lookups concurrently must still end up spread
// across all three replicas. The piggybacked load hints are what makes
// this work: each client sees the queue depth its peer is causing and
// steers away from it, where inflight-only accounting (each client
// counting only its own requests) would let both dogpile one replica.
func TestTwoClientsSpreadLoad(t *testing.T) {
	c := newTestCluster(t, KindGroup)
	const lookupsEach = 60
	const clients = 2

	setup, cleanup, err := c.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup()
	work, err := setup.CreateDir(bgCtx)
	if err != nil {
		t.Fatalf("CreateDir: %v", err)
	}
	appendWithRetry(t, setup, work, "target", work, 30*time.Second)

	before := c.ShardReadCounts(0)
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for n := 0; n < clients; n++ {
		client, cl, err := c.NewBalancedClient(dir.CacheOptions{}, true)
		if err != nil {
			t.Fatal(err)
		}
		defer cl()
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			for i := 0; i < lookupsEach; i++ {
				if _, err := client.Lookup(bgCtx, work, "target"); err != nil {
					errs <- fmt.Errorf("client %d lookup %d: %w", n, i, err)
					return
				}
			}
		}(n)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	perServer := c.ShardReadCounts(0)
	var total uint64
	for id, n := range before {
		perServer[id] -= n
		total += perServer[id]
	}
	for id := 1; id <= 3; id++ {
		if share := float64(perServer[id]) / float64(total); share < 0.15 {
			t.Fatalf("two independent balanced clients skewed: server %d served %.0f%% of %d (%v)",
				id, 100*share, total, perServer)
		}
	}
}

// TestHedgingPreservesSessionFloor pins the interaction between hedged
// reads and the MinSeq session floor: with one replica cut off, reads
// steered onto it are rescued by a hedge to a live replica — and every
// read that succeeds, however it was routed, must observe the client's
// own preceding write. A hedge that reached a lagging replica and let
// it answer below the floor would surface here as ErrNotFound for a
// name the same session just appended.
//
// What makes the hedge fire is a balanced read picked onto the cut-off
// replica while it is still cached, with a latency sample to arm the
// hedge timer. So the warm-up runs until every replica has a sample, and
// the replica cut off is not the client's write target: updates go to
// the first HEREIS responder, and an append sent to the cut-off replica
// would evict it on a dead verdict before any read landed there.
func TestHedgingPreservesSessionFloor(t *testing.T) {
	c := newTestCluster(t, KindGroup)
	client, cleanup, err := c.NewBalancedClient(dir.CacheOptions{}, true)
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup()
	work, err := client.CreateDir(bgCtx)
	if err != nil {
		t.Fatalf("CreateDir: %v", err)
	}
	appendWithRetry(t, client, work, "seed", work, 30*time.Second)
	// Warm the picker until every replica has a latency sample; the hedge
	// timer arms off these.
	for i := 0; ; i++ {
		sampled := 0
		for _, rs := range client.ReplicaStats(0) {
			if rs.Samples > 0 {
				sampled++
			}
		}
		if sampled == c.ServersPerShard() {
			break
		}
		if i == 200 {
			t.Fatalf("warm-up left replicas unsampled: %+v", client.ReplicaStats(0))
		}
		if _, err := client.Lookup(bgCtx, work, "seed"); err != nil {
			t.Fatalf("warm lookup %d: %v", i, err)
		}
	}

	// Cut off one replica other than the write target. The majority keeps
	// committing; reads picked onto the dead replica go unanswered until
	// the hedge fires.
	cut := 2
	if c.machine(cut).dirNode.ID() == client.ReplicaStats(0)[0].Server {
		cut = 3
	}
	c.PartitionShardServers(0, cut)
	defer c.Heal()

	for i := 0; i < 20; i++ {
		name := fmt.Sprintf("w%d", i)
		appendWithRetry(t, client, work, name, work, 30*time.Second)
		deadline := time.Now().Add(15 * time.Second)
		for {
			_, err := client.Lookup(bgCtx, work, name)
			if err == nil {
				break
			}
			if errors.Is(err, dirsvc.ErrNotFound) {
				t.Fatalf("lookup %q: own write invisible — a read answered below the session floor", name)
			}
			if time.Now().After(deadline) {
				t.Fatalf("lookup %q never succeeded: %v", name, err)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	if sent, _ := client.HedgeStats(); sent == 0 {
		t.Fatal("no hedge fired against the partitioned replica; the scenario did not exercise hedging")
	}
}
