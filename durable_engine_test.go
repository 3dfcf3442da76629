package faultdir

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"dirsvc/dir"
	"dirsvc/internal/dirsvc"
	"dirsvc/internal/sim"
)

// The storage-engine test schedule: whole-cluster crashes of the
// plain-durable deployment with a prepared two-phase transaction (the
// crash window the engine's write-ahead log closes), checkpoint +
// log-suffix recovery and the backup/restore round trip on every backend
// kind.

// newEngineCluster boots a KindGroup deployment with the disk-backed
// storage engine under every replica. The background checkpoint is
// pushed out to an hour so tests control checkpoint timing themselves.
func newEngineCluster(t *testing.T, shards int) *Cluster {
	t.Helper()
	c, err := New(KindGroup, Options{
		Model:             sim.FastModel(),
		HeartbeatInterval: testHeartbeat,
		Shards:            shards,
		Workers:           8,
		IdleFlush:         time.Hour,
		DiskEngine:        true,
	})
	if err != nil {
		t.Fatalf("New(KindGroup, engine): %v", err)
	}
	t.Cleanup(c.Close)
	return c
}

// TestPlainDurableWholeClusterCrashPrepared is the regression test for
// the closed 2PC crash window. Before the storage engine, the plain
// durable deployment kept a prepared transaction's vote only in its
// replicas' RAM: a simultaneous whole-shard crash forgot the vote, and
// a decision the resolver had already exposed could be contradicted.
// With Options.DiskEngine every prepare and decide reaches the
// write-ahead log before the reply, so here the ENTIRE CLUSTER — every
// replica of both shards — crashes with the transaction prepared, and
// after reboot the outcome must still settle exactly once:
//
//   - NoDecision: no decision was ordered before the crash. The
//     resolver's logged prepare carries the whole plan, so after the
//     reboot its takeover drives the transaction to a decision, which
//     the other shard learns from the resolver.
//   - AfterPartialCommit: the resolver shard committed its half; the
//     restarted participant must find its own prepare in the log,
//     re-stage the transaction, and learn the commit from the
//     resolver's logged decision.
func TestPlainDurableWholeClusterCrashPrepared(t *testing.T) {
	if testing.Short() {
		t.Skip("crash schedule: covered by the dedicated durability CI lane")
	}
	cases := []struct {
		name      string
		stage     dirsvc.TxStage
		committed bool // the outcome is fixed before the crash
	}{
		{"NoDecision", dirsvc.TxAfterPrepare, false},
		{"AfterPartialCommit", dirsvc.TxAfterResolverDecide, true},
	}
	for _, sc := range cases {
		t.Run(sc.name, func(t *testing.T) {
			c := newEngineCluster(t, 2)
			f := newTxFixture(t, c, "wholecluster")

			crashed := make(chan (<-chan struct{}), 1)
			var once sync.Once
			c.SetTxHook(func(_, _ int, s dirsvc.TxStage) (halt bool) {
				if s == sc.stage {
					once.Do(func() {
						done := make(chan struct{})
						go func() {
							defer close(done)
							for shard := 0; shard < c.Shards(); shard++ {
								<-crashAsync(c, shard, allServers(c)...)
							}
						}()
						crashed <- done
						halt = true
					})
				}
				return halt
			})
			err := f.applyFor(crashRetryWait)
			c.SetTxHook(nil)
			awaitCrash(t, crashed)

			// Reboot the whole cluster concurrently, as a power cycle
			// would: every replica's recovery replays its checkpoint +
			// log suffix, then waits for its shard's majority.
			errs := make(chan error, c.Shards()*c.ServersPerShard())
			for shard := 0; shard < c.Shards(); shard++ {
				for id := 1; id <= c.ServersPerShard(); id++ {
					go func(shard, id int) { errs <- c.RestartShardServer(shard, id) }(shard, id)
				}
			}
			for i := 0; i < cap(errs); i++ {
				if err := <-errs; err != nil {
					t.Fatalf("whole-cluster reboot: %v", err)
				}
			}
			if committed := f.assertAtomic(t, err); sc.committed && !committed {
				t.Fatal("a commit in the resolver's stream was lost")
			}
		})
	}
}

// TestEngineRecoveryFromCheckpointAndSuffix proves restart recovery is
// checkpoint + log-suffix replay. In an engine deployment the object
// table and Bullet store are never written on the update path — the
// engine partition is the ONLY durable copy — so a shard whose history
// far exceeds any in-memory replay budget still recovers entirely from
// the last checkpoint plus the short log tail behind it.
func TestEngineRecoveryFromCheckpointAndSuffix(t *testing.T) {
	c := newEngineCluster(t, 1)
	client, cleanup, err := c.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup()
	d, err := client.CreateDir(bgCtx)
	if err != nil {
		t.Fatal(err)
	}

	// History in three strata: rows before the checkpoint (recovered
	// from the checkpoint image alone), the checkpoint cut, rows after
	// it (recovered from the log suffix).
	for i := 0; i < 30; i++ {
		if err := client.Append(bgCtx, d, fmt.Sprintf("ckpt%02d", i), d, nil); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if err := c.CheckpointShard(0); err != nil {
		t.Fatalf("CheckpointShard: %v", err)
	}
	for i := 0; i < 10; i++ {
		if err := client.Append(bgCtx, d, fmt.Sprintf("tail%02d", i), d, nil); err != nil {
			t.Fatalf("tail append %d: %v", i, err)
		}
	}

	for id := 1; id <= c.ServersPerShard(); id++ {
		c.CrashShardServer(0, id)
	}
	restartShard(t, c, 0)

	// Every row from both strata survived the reboot.
	rows, err := client.List(bgCtx, d, 0)
	if err != nil {
		t.Fatalf("List after reboot: %v", err)
	}
	if len(rows) != 40 {
		t.Fatalf("rows after reboot = %d, want 40", len(rows))
	}
	// Recovery seals with a fresh checkpoint, so the next reboot starts
	// from a truncated log again.
	for id := 1; id <= c.ServersPerShard(); id++ {
		if st := c.machine(id).core.Status(); st.CheckpointSeq == 0 {
			t.Fatalf("replica %d recovered without sealing a checkpoint: %+v", id, st)
		}
	}
	// And the service keeps taking writes.
	if err := client.Append(bgCtx, d, "after-reboot", d, nil); err != nil {
		t.Fatalf("append after reboot: %v", err)
	}
}

// TestBackupRestoreRoundTrip runs the portable-snapshot cycle on every
// backend kind: capture a shard, diverge the live state (new row, a
// deletion), restore the snapshot, and check the shard is bit-for-bit
// back at the capture point — resurrected row included — and still
// accepts new work.
func TestBackupRestoreRoundTrip(t *testing.T) {
	for _, kind := range []Kind{KindGroup, KindGroupNVRAM, KindRPC, KindLocal} {
		t.Run(kind.String(), func(t *testing.T) {
			c := newTestCluster(t, kind)
			client, cleanup, err := c.NewClient()
			if err != nil {
				t.Fatal(err)
			}
			defer cleanup()
			root, err := client.Root(bgCtx)
			if err != nil {
				t.Fatal(err)
			}
			d, err := client.CreateDir(bgCtx)
			if err != nil {
				t.Fatal(err)
			}
			if err := client.Append(bgCtx, root, "alpha", d, nil); err != nil {
				t.Fatal(err)
			}
			if err := client.Append(bgCtx, d, "leaf", d, nil); err != nil {
				t.Fatal(err)
			}

			snap, err := client.Backup(bgCtx, 0)
			if err != nil {
				t.Fatalf("Backup: %v", err)
			}
			if len(snap) == 0 {
				t.Fatal("Backup returned an empty snapshot")
			}

			// Diverge past the capture point.
			if err := client.Delete(bgCtx, root, "alpha"); err != nil {
				t.Fatal(err)
			}
			if err := client.Append(bgCtx, root, "beta", d, nil); err != nil {
				t.Fatal(err)
			}

			if err := client.RestoreShard(bgCtx, 0, snap); err != nil {
				t.Fatalf("RestoreShard: %v", err)
			}

			// Back at the capture point: alpha resurrected, beta gone.
			got, err := client.Lookup(bgCtx, root, "alpha")
			if err != nil {
				t.Fatalf("Lookup alpha after restore: %v", err)
			}
			if got != d {
				t.Fatalf("alpha = %v, want %v", got, d)
			}
			if _, err := client.Lookup(bgCtx, root, "beta"); !errors.Is(err, dirsvc.ErrNotFound) {
				t.Fatalf("Lookup beta after restore: %v, want ErrNotFound", err)
			}
			rows, err := client.List(bgCtx, d, 0)
			if err != nil {
				t.Fatalf("List restored dir: %v", err)
			}
			if len(rows) != 1 || rows[0].Name != "leaf" {
				t.Fatalf("restored dir rows = %+v, want [leaf]", rows)
			}
			// The restored shard accepts new updates. (Its counters are
			// already past the snapshot's; the jump over them is
			// TestBackupRestoreIntoFreshDeployment's.)
			if err := client.Append(bgCtx, root, "gamma", d, nil); err != nil {
				t.Fatalf("Append after restore: %v", err)
			}
			if _, err := client.Lookup(bgCtx, root, "gamma"); err != nil {
				t.Fatalf("Lookup gamma: %v", err)
			}
		})
	}
}

// TestBackupRestoreIntoFreshDeployment restores a backup into a fresh
// deployment of the same kind, on every kind. The fresh shard's own
// sequence numbers trail the backup's, so the first update afterwards
// commits above every number the backup carries only if the restore
// moved the shard's number past them.
func TestBackupRestoreIntoFreshDeployment(t *testing.T) {
	for _, kind := range []Kind{KindGroup, KindGroupNVRAM, KindRPC, KindLocal} {
		t.Run(kind.String(), func(t *testing.T) {
			src := newTestCluster(t, kind)
			client, cleanup, err := src.NewClient()
			if err != nil {
				t.Fatal(err)
			}
			defer cleanup()
			d, err := client.CreateDir(bgCtx)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 29; i++ {
				if err := client.Append(bgCtx, d, fmt.Sprintf("r%02d", i), d, nil); err != nil {
					t.Fatalf("append %d: %v", i, err)
				}
			}
			blob, err := client.Backup(bgCtx, 0)
			if err != nil {
				t.Fatalf("Backup: %v", err)
			}
			snap, err := dirsvc.DecodeSnapshot(blob)
			if err != nil {
				t.Fatal(err)
			}

			dst := newTestCluster(t, kind)
			fresh, cleanup2, err := dst.NewClient()
			if err != nil {
				t.Fatal(err)
			}
			defer cleanup2()
			if err := fresh.RestoreShard(bgCtx, 0, blob); err != nil {
				t.Fatalf("RestoreShard: %v", err)
			}
			if _, err := fresh.CreateDir(bgCtx); err != nil {
				t.Fatalf("CreateDir after restore: %v", err)
			}
			if got, backed := fresh.SessionFloor(0), snap.MaxSeq(); got <= backed {
				t.Fatalf("first update after the restore committed at %d, not above the backup's %d", got, backed)
			}
		})
	}
}

// TestBackupRestoreSurvivesRestart restores a snapshot into a group
// deployment and reboots the whole shard: the restored state — not the
// diverged one — must come back, proving the restore reached the
// durable layer (the engine checkpoint cut by OpRestoreShard).
func TestBackupRestoreSurvivesRestart(t *testing.T) {
	c := newEngineCluster(t, 1)
	client, cleanup, err := c.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup()
	root, err := client.Root(bgCtx)
	if err != nil {
		t.Fatal(err)
	}
	d, err := client.CreateDir(bgCtx)
	if err != nil {
		t.Fatal(err)
	}
	if err := client.Append(bgCtx, root, "keep", d, nil); err != nil {
		t.Fatal(err)
	}
	snap, err := client.Backup(bgCtx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := client.Append(bgCtx, root, "discard", d, nil); err != nil {
		t.Fatal(err)
	}
	if err := client.RestoreShard(bgCtx, 0, snap); err != nil {
		t.Fatal(err)
	}

	for id := 1; id <= c.ServersPerShard(); id++ {
		c.CrashShardServer(0, id)
	}
	restartShard(t, c, 0)

	if _, err := client.Lookup(bgCtx, root, "keep"); err != nil {
		t.Fatalf("Lookup keep after restore+reboot: %v", err)
	}
	if _, err := client.Lookup(bgCtx, root, "discard"); !errors.Is(err, dirsvc.ErrNotFound) {
		t.Fatalf("Lookup discard after restore+reboot: %v, want ErrNotFound", err)
	}
}

// TestOutcomeRecordsReplayAsOutcomes drives dirsvc.Applier.Replay from
// its caller, a restarted replica's checkpoint + log-suffix load. The
// write-ahead log past the checkpoint holds two decide records whose
// transactions are staged nowhere: a retried commit (the checkpoint
// already carries its effects) and the abort of a transaction nobody
// prepared. Neither may apply as an update; both must
// leave the outcome answerable on every replica after a whole-cluster
// crash.
func TestOutcomeRecordsReplayAsOutcomes(t *testing.T) {
	c := newEngineCluster(t, 1)
	client, cleanup, err := c.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup()
	d, err := client.CreateDir(bgCtx)
	if err != nil {
		t.Fatal(err)
	}
	send := rawSender(t, c)
	decide := func(id dirsvc.TxID, commit bool) {
		send(0, &dirsvc.Request{Op: dirsvc.OpDecide, Blob: dirsvc.EncodeDecide(&dirsvc.Decide{ID: id, Commit: commit})})
	}
	committed, ghost := dirsvc.NewTxID(), dirsvc.NewTxID()
	masks := []dir.Rights{dir.AllRights, dir.AllRights, dir.AllRights}
	send(0, &dirsvc.Request{Op: dirsvc.OpPrepare, Blob: dirsvc.EncodePrepare(&dirsvc.Prepare{
		ID: committed, Participants: []int{0},
		Steps: dirsvc.EncodeBatchSteps([]*dirsvc.Request{
			{Op: dirsvc.OpAppendRow, Dir: d, Name: "tx", Cap: d, Masks: masks},
		}),
	})})
	decide(committed, true)
	if err := c.CheckpointShard(0); err != nil {
		t.Fatal(err)
	}
	decide(committed, true)
	decide(ghost, false)

	check := func(who string, read func(*dirsvc.Request) *dirsvc.Reply) {
		t.Helper()
		for id, want := range map[dirsvc.TxID]dirsvc.TxState{committed: dirsvc.TxCommitted, ghost: dirsvc.TxAborted} {
			var reply *dirsvc.Reply
			if err := retryFor(crashRetryWait, func() error {
				reply = read(&dirsvc.Request{Op: dirsvc.OpTxQuery, Blob: id[:]})
				return reply.Status.Err()
			}); err != nil {
				t.Fatalf("%s: decision query: %v", who, err)
			}
			if len(reply.Blob) != 1 || dirsvc.TxState(reply.Blob[0]) != want {
				t.Errorf("%s answers %v for transaction %v, want %v", who, reply.Blob, id, want)
			}
		}
		if reply := read(&dirsvc.Request{Op: dirsvc.OpListDir, Dir: d}); reply.Status != dirsvc.StatusOK || len(reply.Rows) != 1 {
			t.Errorf("%s lists %d rows (%v), want the committed one", who, len(reply.Rows), reply.Status)
		}
	}

	crashAndRestartAll(t, c)
	for id := 1; id <= c.ServersPerShard(); id++ {
		check(fmt.Sprintf("restarted server %d", id), c.machine(id).core.Read)
	}
}
