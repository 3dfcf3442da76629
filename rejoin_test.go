package faultdir

import (
	"context"
	"fmt"
	"testing"
	"time"

	"dirsvc/internal/capability"
	"dirsvc/internal/dirsvc"
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
	c := newSettledCluster(t, KindGroup, Options{Model: sim.FastModel(), HeartbeatInterval: 50 * time.Millisecond})
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
	if err := awaitFullMembership(c); err != nil {
		t.Fatalf("after the restart: %v", err)
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
