package faultdir

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"dirsvc/internal/capability"
	"dirsvc/internal/dirclient"
	"dirsvc/internal/dirsvc"
	"dirsvc/internal/sim"
)

// The engine's group commit: a replica writes its log when an update it
// initiated waits, and every record queued since rides that write, so
// the other replicas log an update lazily. These schedules check the
// durability argument on a live cluster: every acknowledged update is on
// its initiator's disk, every replica's log is a prefix of the one
// stream, and no commit block stops naming a server while a record that
// server could have acknowledged is applied but not on the disk under it
// (the case of a message still queued at the view change is
// TestEngineOrphanIsLoggedAtOnce in internal/core).

// clientPins keeps each registered client host hearing one directory
// server only, so every update the client makes is initiated there.
type clientPins struct {
	mu   sync.Mutex
	only map[sim.NodeID]sim.NodeID // client host → the server host it hears
}

func (p *clientPins) drop(src, dst sim.NodeID, _ []byte) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	want, ok := p.only[dst]
	return ok && src != want
}

// pinnedClient returns a client of c bound to replica id.
func pinnedClient(t *testing.T, c *Cluster, p *clientPins, id int) *dirclient.Client {
	t.Helper()
	cl, cleanup, err := c.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cleanup)
	server := c.machine(id).dirNode.ID()
	p.mu.Lock()
	p.only[lastNodeID(c)] = server
	p.mu.Unlock()
	if _, err := cl.Root(bgCtx); err != nil {
		t.Fatalf("bind to replica %d: %v", id, err)
	}
	if st := cl.ReplicaStats(0); len(st) == 0 || st[0].Server != server {
		t.Fatalf("client not bound to replica %d: %+v", id, st)
	}
	return cl
}

// newGroupCommitCluster boots an engine cluster with two clients, bound
// to replicas 1 and 2; replica 3 has none. Checkpoints are left to the
// test, so every update goes through the log.
func newGroupCommitCluster(t *testing.T) (*Cluster, [2]*dirclient.Client) {
	t.Helper()
	c := bootCluster(t, KindGroup, Options{
		Model:             sim.FastModel(),
		HeartbeatInterval: testHeartbeat,
		IdleFlush:         time.Hour,
		DiskEngine:        true,
	})
	pins := &clientPins{only: make(map[sim.NodeID]sim.NodeID)}
	c.Net.SetDropFilter(pins.drop)
	return c, [2]*dirclient.Client{pinnedClient(t, c, pins, 1), pinnedClient(t, c, pins, 2)}
}

// writeConcurrently has each client create a directory and append rows
// to it, both at once, and returns the directories. Every call is
// acknowledged before it returns.
func writeConcurrently(t *testing.T, clients [2]*dirclient.Client, rows int) [2]capability.Capability {
	t.Helper()
	var dirs [2]capability.Capability
	errs := make(chan error, len(clients))
	for i, cl := range clients {
		go func() {
			d, err := cl.CreateDir(bgCtx)
			if err != nil {
				errs <- err
				return
			}
			dirs[i] = d
			for r := 0; r < rows; r++ {
				if err := cl.Append(bgCtx, d, fmt.Sprintf("row%02d", r), d, nil); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}()
	}
	for range clients {
		if err := <-errs; err != nil {
			t.Fatalf("concurrent writes: %v", err)
		}
	}
	return dirs
}

// requireRows waits until replica id serves a listing of d and checks it
// holds want rows.
func requireRows(t *testing.T, c *Cluster, id int, d capability.Capability, want int) {
	t.Helper()
	read := readAt(t, c, id)
	err := retryFor(crashSettleWait, func() error {
		reply := read(&dirsvc.Request{Op: dirsvc.OpListDir, Dir: d})
		if reply.Status != dirsvc.StatusOK {
			return reply.Status.Err()
		}
		if len(reply.Rows) != want {
			return fmt.Errorf("%d rows, want %d", len(reply.Rows), want)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("replica %d, directory %d: %v", id, d.Object, err)
	}
}

func TestEngineGroupCommitDurability(t *testing.T) {
	if testing.Short() {
		t.Skip("crash schedule: covered by the dedicated durability CI lane")
	}
	const rows = 20

	// Crash every server right after the last acknowledgement: recovery
	// pulls from the highest-seq replica, whose log holds every other
	// replica's as a prefix. Replica 3, which initiates nothing, still
	// logs everything, in fewer writes than there are updates.
	t.Run("WholeClusterCrash", func(t *testing.T) {
		c, clients := newGroupCommitCluster(t)
		before := c.ShardDiskStats(0, 3).SeqWrites
		dirs := writeConcurrently(t, clients, rows)
		updates := 2 * (1 + rows)
		if err := retryFor(time.Second, func() error {
			if st, _ := c.ShardServerStatus(0, 3); st.EngineLog < updates {
				return fmt.Errorf("replica 3 logged %d of %d updates", st.EngineLog, updates)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if writes := c.ShardDiskStats(0, 3).SeqWrites - before; writes >= uint64(updates) {
			t.Fatalf("replica 3 made %d sequential writes for %d updates", writes, updates)
		}

		for id := 1; id <= c.ServersPerShard(); id++ {
			c.CrashServer(id)
		}
		restartShard(t, c, 0)
		for id := 1; id <= c.ServersPerShard(); id++ {
			for _, d := range dirs {
				requireRows(t, c, id, d, rows)
			}
		}
	})

	// Lose the initiator for good: once the survivors' view change has
	// rewritten their commit blocks without replica 1, they crash too and
	// recover as the last set — and must hold replica 1's last ack.
	t.Run("LastSetWithoutInitiator", func(t *testing.T) {
		c, clients := newGroupCommitCluster(t)
		dirs := writeConcurrently(t, clients, rows)
		if err := clients[0].Append(bgCtx, dirs[0], "last", dirs[0], nil); err != nil {
			t.Fatal(err)
		}
		c.CrashServer(1)
		for id := 2; id <= 3; id++ {
			if err := retryFor(crashSettleWait, func() error {
				cb, err := dirsvc.ReadCommitBlock(c.machine(id).admin, c.ServersPerShard())
				if err != nil {
					return err
				}
				if cb.Up[0] || !cb.Up[1] || !cb.Up[2] {
					return fmt.Errorf("replica %d's commit block names %v up", id, cb.UpServers())
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
		}
		c.CrashServer(2)
		c.CrashServer(3)
		errs := make(chan error, 2)
		for id := 2; id <= 3; id++ {
			go func() { errs <- c.RestartServer(id) }()
		}
		for range 2 {
			if err := <-errs; err != nil {
				t.Fatalf("restart without replica 1: %v", err)
			}
		}
		for id := 2; id <= 3; id++ {
			requireRows(t, c, id, dirs[0], rows+1)
			requireRows(t, c, id, dirs[1], rows)
		}
	})
}
