package faultdir

import (
	"context"
	"fmt"
	"math"
	"testing"
	"time"

	"dirsvc/internal/capability"
	"dirsvc/internal/dirsvc"
	"dirsvc/internal/group"
	"dirsvc/internal/sim"
)

// replyWait is one RPC reply time-out at zero modelled latency (the
// transport's floor).
const replyWait = 200 * time.Millisecond

// TestRestartedReplicaAppliesItsFirstUpdates restarts a replica that has
// initiated updates in its previous life and sends more through it. Each
// update must be answered and reach every replica within one reply
// time-out, rather than be taken by the sequencer for a retry of one the
// previous life sent and never delivered.
func TestRestartedReplicaAppliesItsFirstUpdates(t *testing.T) {
	c := bootCluster(t, KindGroup, Options{Model: sim.FastModel(), HeartbeatInterval: 50 * time.Millisecond})
	rc, _, err := c.NewRawClient()
	if err != nil {
		t.Fatal(err)
	}
	port := dirsvc.ServicePort(c.Service)
	via := c.machine(1).dirNode.ID()
	// send runs one update at replica 1, which initiates it.
	send := func(ctx context.Context, req *dirsvc.Request) (*dirsvc.Reply, error) {
		raw, err := rc.TransTo(ctx, via, port, req.Encode())
		if err != nil {
			return nil, err
		}
		reply, err := dirsvc.DecodeReply(raw)
		if err != nil {
			return nil, err
		}
		return reply, reply.Status.Err()
	}
	var dir capability.Capability
	if err := retryFor(crashRetryWait, func() error {
		reply, err := send(bgCtx, &dirsvc.Request{Op: dirsvc.OpCreateDir})
		if err == nil {
			dir = reply.Cap
		}
		return err
	}); err != nil {
		t.Fatalf("create: %v", err)
	}
	appendRow := func(ctx context.Context, name string) error {
		_, err := send(ctx, &dirsvc.Request{Op: dirsvc.OpAppendRow, Dir: dir, Name: name, Cap: dir,
			Masks: []capability.Rights{capability.AllRights, capability.AllRights, capability.AllRights}})
		return err
	}
	const updates = 20
	for i := 0; i < updates; i++ {
		if err := appendRow(bgCtx, fmt.Sprintf("before-%d", i)); err != nil {
			t.Fatalf("update %d before the restart: %v", i, err)
		}
	}

	c.CrashServer(1)
	if err := c.RestartServer(1); err != nil {
		t.Fatalf("restart: %v", err)
	}
	for i := 0; i < updates; i++ {
		name := fmt.Sprintf("after-%d", i)
		ctx, cancel := context.WithTimeout(bgCtx, replyWait)
		err := appendRow(ctx, name)
		cancel()
		if err != nil {
			t.Fatalf("update %d through the restarted replica: %v", i, err)
		}
		deadline := time.Now().Add(replyWait)
		for id := 1; id <= c.ServersPerShard(); id++ {
			for !holds(c, id, dir, name) {
				if time.Now().After(deadline) {
					t.Fatalf("update %d missing at replica %d one reply time-out after its reply", i, id)
				}
				time.Sleep(time.Millisecond)
			}
		}
	}
}

// holds reports whether replica id answers a lookup of name in dir.
func holds(c *Cluster, id int, dir capability.Capability, name string) bool {
	m := c.machine(id)
	m.mu.Lock()
	srv := m.core
	m.mu.Unlock()
	if srv == nil {
		return false
	}
	reply := srv.Read(&dirsvc.Request{Op: dirsvc.OpLookupSet, Dir: dir, Set: []dirsvc.SetItem{{Name: name}}})
	return reply.Status == dirsvc.StatusOK && len(reply.Caps) == 1 && !reply.Caps[0].IsZero()
}

// TestSkewedWholeShardRestartConverges crashes all three replicas and
// restarts them in order 3, 2, 1, a gap of k beats apart. Skewed starts
// can create two groups at once; the smaller one must yield and rejoin,
// so every run reaches one full view — three members on each replica,
// none recovering — within 20 beats of its last restart.
func TestSkewedWholeShardRestartConverges(t *testing.T) {
	const beat = testHeartbeat
	c := newTestCluster(t, KindGroup)
	for _, gap := range []time.Duration{0, beat / 2, 3 * beat / 2, 4 * beat, 7 * beat} {
		var worst time.Duration
		for run := 0; run < 5; run++ {
			for id := 1; id <= 3; id++ {
				c.CrashServer(id)
			}
			errs := make(chan error, 3)
			for i, id := range []int{3, 2, 1} {
				if i > 0 {
					time.Sleep(gap)
				}
				go func(id int) { errs <- c.RestartServer(id) }(id)
			}
			last := time.Now()
			for !fullView(c) {
				if time.Since(last) > 10*time.Second {
					t.Fatalf("gap %v, run %d: no full view 10 s after the last restart", gap, run)
				}
				time.Sleep(beat / 5)
			}
			took := time.Since(last)
			worst = max(worst, took)
			if took > 20*beat {
				t.Errorf("gap %v, run %d: full view %v after the last restart, want ≤ %v", gap, run, took, 20*beat)
			}
			for range 3 {
				if err := <-errs; err != nil {
					t.Fatalf("restart: %v", err)
				}
			}
		}
		t.Logf("gap %v: worst %v (%.1f beats) from the last restart to one full view", gap, worst, float64(worst)/float64(beat))
	}
}

// TestFourShardBootWithinTwoBeatsOfOne: shards form their groups on
// ports of their own, side by side, so a four-shard cluster boots within
// two beats of a one-shard one, though shard s's first replica sits on
// node 6s+1. Each size boots three times and keeps its fastest boot, so
// one slow schedule of the host does not decide. Under the race detector
// the boots must still complete, but their times are not the program's,
// so the bound is not checked.
func TestFourShardBootWithinTwoBeatsOfOne(t *testing.T) {
	model := sim.FastModel()
	beat := group.HeartbeatFor(model, group.Config{})
	fastest := func(shards int) time.Duration {
		best := time.Duration(math.MaxInt64)
		for range 3 {
			start := time.Now()
			c, err := New(KindGroupNVRAM, Options{Model: model, Shards: shards})
			took := time.Since(start)
			if err != nil {
				t.Fatalf("New with %d shards: %v", shards, err)
			}
			c.Close()
			best = min(best, took)
		}
		return best
	}
	one, four := fastest(1), fastest(4)
	t.Logf("boot: 1 shard %v, 4 shards %v (beat %v)", one, four, beat)
	if !raceBuild && four > one+2*beat {
		t.Fatalf("4 shards boot in %v, 1 shard in %v: more than two beats (%v) apart", four, one, 2*beat)
	}
}

// fullView reports whether every replica of shard 0 serves in a view of
// all of them.
func fullView(c *Cluster) bool {
	for id := 1; id <= c.ServersPerShard(); id++ {
		st, ok := c.ShardServerStatus(0, id)
		if !ok || st.Recovering || st.Members != c.ServersPerShard() {
			return false
		}
	}
	return true
}
