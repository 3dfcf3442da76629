package faultdir

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"dirsvc/dir"
	"dirsvc/internal/dirclient"
	"dirsvc/internal/dirsvc"
	"dirsvc/internal/sim"
)

// The crash-at-every-step schedule for cross-shard two-phase commit:
// each test kills the coordinator and/or participant replicas at one
// step of the protocol — before prepare, after prepare / before decide,
// after the resolver's partial commit — and asserts all-or-nothing
// visibility once the survivors (plus restarted or force-recovered
// replicas) resolve the transaction. The NVRAM kind additionally proves
// a whole-shard crash reinstates the in-doubt transaction from the
// logged prepare record through the Fig. 6 recovery path.

// crashTxTimeout is the presumed-abort horizon for the crash schedules.
const crashTxTimeout = 300 * time.Millisecond

// Crash-schedule deadlines. Generous on purpose: every test here is
// skipped under -short (the quick tier-1 lane) and runs only in the
// dedicated race-enabled CI lanes, where the simulated cluster can be an
// order of magnitude slower than a native run — a tight deadline there
// is a flake, not a failure.
const (
	crashSettleWait = 60 * time.Second
	crashRetryWait  = 45 * time.Second
)

func newCrashCluster(t *testing.T, kind Kind, shards int) *Cluster {
	t.Helper()
	c, err := New(kind, Options{
		Model:             sim.FastModel(),
		HeartbeatInterval: testHeartbeat,
		Shards:            shards,
		Workers:           8,
		TxAbortTimeout:    crashTxTimeout,
		IdleFlush:         time.Hour, // no background NVRAM flush: crash points stay deterministic
	})
	if err != nil {
		t.Fatalf("New(%v, shards=%d): %v", kind, shards, err)
	}
	t.Cleanup(c.Close)
	return c
}

// txFixture is one cross-shard transaction under fault injection: a
// coordinator client with a hook, one directory per shard, and an
// independent probe client for visibility checks.
type txFixture struct {
	c           *Cluster
	coordinator *dirclient.Client
	probe       *dirclient.Client
	dirs        []dir.Capability
	name        string
}

func newTxFixture(t *testing.T, c *Cluster, name string) *txFixture {
	t.Helper()
	coord, cleanup1, err := c.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cleanup1)
	probe, cleanup2, err := c.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cleanup2)
	f := &txFixture{c: c, coordinator: coord, probe: probe, name: name}
	for s := 0; s < c.Shards(); s++ {
		d, err := createOn(coord, s)
		if err != nil {
			t.Fatalf("create working dir on shard %d: %v", s, err)
		}
		f.dirs = append(f.dirs, d)
	}
	return f
}

// createOn creates a directory on one shard, riding out boot churn.
func createOn(client *dirclient.Client, shard int) (dir.Capability, error) {
	var d dir.Capability
	err := retryFor(crashRetryWait, func() error {
		var cerr error
		d, cerr = client.CreateDirOn(bgCtx, shard)
		return cerr
	})
	return d, err
}

// retryFor retries op on any error until it succeeds or the deadline
// passes.
func retryFor(d time.Duration, op func() error) error {
	deadline := time.Now().Add(d)
	for {
		err := op()
		if err == nil {
			return nil
		}
		if time.Now().After(deadline) {
			return err
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// batch builds the fixture's spanning batch: one append per shard.
func (f *txFixture) batch() *dir.Batch {
	b := dir.NewBatch()
	for _, d := range f.dirs {
		b.Append(d, f.name, d, nil)
	}
	return b
}

// assertSettles polls every shard through the probe until the
// transaction's row settles to the expected outcome — and asserts that
// no successful read ever exposes the other outcome on any shard once
// the prepare round finished: a shard either refuses the read (lock
// held, no majority) or shows exactly the settled state, never a
// partially applied batch.
func (f *txFixture) assertSettles(t *testing.T, committed bool) {
	t.Helper()
	deadline := time.Now().Add(crashSettleWait)
	for s, d := range f.dirs {
		for {
			caps, err := f.probe.LookupSet(bgCtx, d, []string{f.name})
			if err == nil {
				if caps[0].IsZero() == !committed {
					break // settled to the expected outcome
				}
				if committed {
					// A successful read showed the row missing: legal only
					// while the transaction can still be undecided here —
					// i.e. never after this shard committed. Keep polling,
					// but a shard can never go back: once present, present.
				} else {
					t.Fatalf("shard %d exposed a step of an aborted transaction", s)
				}
			}
			if time.Now().After(deadline) {
				t.Fatalf("shard %d never settled (committed=%v): last caps=%v err=%v", s, committed, caps, err)
			}
			time.Sleep(25 * time.Millisecond)
		}
	}
	// All-or-nothing is stable: a second pass over every shard agrees.
	for s, d := range f.dirs {
		if err := retryFor(crashRetryWait, func() error {
			caps, err := f.probe.LookupSet(bgCtx, d, []string{f.name})
			if err != nil {
				return err
			}
			if caps[0].IsZero() == committed {
				return fmt.Errorf("shard %d flapped to the opposite outcome", s)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	// Locks released: every shard accepts new updates.
	for s, d := range f.dirs {
		if err := retryFor(crashRetryWait, func() error {
			return f.probe.Append(bgCtx, d, f.name+"-after", d, nil)
		}); err != nil {
			t.Fatalf("shard %d still wedged after resolution: %v", s, err)
		}
	}
}

// TestTwoPhaseParticipantMinorityCrash crashes one replica of the
// non-resolver shard at each step of the protocol; the shard's
// remaining majority carries the transaction through in every case.
func TestTwoPhaseParticipantMinorityCrash(t *testing.T) {
	if testing.Short() {
		t.Skip("crash schedule: covered by the dedicated 2PC CI lane")
	}
	steps := []struct {
		name  string
		stage dirclient.TxStage // crash fires when this stage is reached; 0 = before Apply
	}{
		{"BeforePrepare", 0},
		{"WhilePrepared", dirclient.TxAfterPrepare},
		{"AfterPartialCommit", dirclient.TxAfterResolverDecide},
	}
	for i, sc := range steps {
		t.Run(sc.name, func(t *testing.T) {
			c := newCrashCluster(t, KindGroup, 2)
			f := newTxFixture(t, c, fmt.Sprintf("minority%d", i))
			crashed := false
			if sc.stage == 0 {
				c.CrashShardServer(1, 2)
				crashed = true
			} else {
				f.coordinator.SetTxHook(func(s dirclient.TxStage) error {
					if s == sc.stage && !crashed {
						crashed = true
						c.CrashShardServer(1, 2)
					}
					return nil
				})
			}
			err := retryFor(crashRetryWait, func() error {
				_, aerr := f.coordinator.Apply(bgCtx, f.batch())
				return aerr
			})
			f.coordinator.SetTxHook(nil)
			if err != nil {
				t.Fatalf("Apply with minority crash: %v", err)
			}
			if !crashed {
				t.Fatal("crash hook never fired")
			}
			f.assertSettles(t, true)

			// The crashed replica rejoins and serves the committed state.
			if err := c.RestartShardServer(1, 2); err != nil {
				t.Fatalf("restart: %v", err)
			}
		})
	}
}

// TestTwoPhaseWholeShardCrashPrepared is the Fig. 6 reinstatement test:
// the whole non-resolver shard (all replicas) crashes while the
// transaction is prepared. With the coordinator dead too, the restarted
// shard must replay the NVRAM-logged prepare record, re-stage the
// transaction, and resolve it by querying the resolver — commit when
// the resolver ratified it before the crash, abort otherwise.
func TestTwoPhaseWholeShardCrashPrepared(t *testing.T) {
	if testing.Short() {
		t.Skip("crash schedule: covered by the dedicated 2PC CI lane")
	}
	cases := []struct {
		name      string
		stage     dirclient.TxStage
		committed bool
	}{
		// Coordinator dies after prepare, before any decide: the
		// resolver presumes abort; the restarted shard learns the abort.
		{"NoDecision", dirclient.TxAfterPrepare, false},
		// The resolver ratified the commit but the other shard crashed
		// before its decide arrived: the restarted shard must find the
		// commit through the decision query — the in-doubt vote survives
		// the whole-shard crash in the NVRAM log.
		{"AfterPartialCommit", dirclient.TxAfterResolverDecide, true},
	}
	for _, sc := range cases {
		t.Run(sc.name, func(t *testing.T) {
			c := newCrashCluster(t, KindGroupNVRAM, 2)
			f := newTxFixture(t, c, "wholeshard")

			f.coordinator.SetTxHook(func(s dirclient.TxStage) error {
				if s == sc.stage {
					for id := 1; id <= c.ServersPerShard(); id++ {
						c.CrashShardServer(1, id)
					}
					return dirclient.ErrTxHalt
				}
				return nil
			})
			_, err := f.coordinator.Apply(bgCtx, f.batch())
			f.coordinator.SetTxHook(nil)
			if !errors.Is(err, dirclient.ErrTxHalt) {
				t.Fatalf("halted Apply: err = %v, want ErrTxHalt", err)
			}

			// Restart the whole shard — concurrently, as a real reboot
			// would: each replica's Fig. 6 recovery blocks until a
			// majority reassembles. Recovery replays the NVRAM prepare
			// records and the resolution loop finishes the job.
			restartShard(t, c, 1)
			f.assertSettles(t, sc.committed)
		})
	}
}

// TestTwoPhaseForceRecoverShard loses a majority of the non-resolver
// shard while the transaction is prepared, with the coordinator dead
// after the resolver's partial commit. The surviving replica cannot
// assemble a majority; after the administrator's ForceRecoverShard it
// serves alone — still holding the prepared transaction — queries the
// resolver, and completes the commit.
func TestTwoPhaseForceRecoverShard(t *testing.T) {
	if testing.Short() {
		t.Skip("crash schedule: covered by the dedicated 2PC CI lane")
	}
	c := newCrashCluster(t, KindGroup, 2)
	f := newTxFixture(t, c, "forced")

	f.coordinator.SetTxHook(func(s dirclient.TxStage) error {
		if s == dirclient.TxAfterResolverDecide {
			// Majority of shard 1 gone; replica 3 survives, in doubt.
			c.CrashShardServer(1, 1)
			c.CrashShardServer(1, 2)
			return dirclient.ErrTxHalt
		}
		return nil
	})
	_, err := f.coordinator.Apply(bgCtx, f.batch())
	f.coordinator.SetTxHook(nil)
	if !errors.Is(err, dirclient.ErrTxHalt) {
		t.Fatalf("halted Apply: err = %v, want ErrTxHalt", err)
	}

	if err := c.ForceRecoverShard(1, 3); err != nil {
		t.Fatalf("ForceRecoverShard: %v", err)
	}
	f.assertSettles(t, true)
}

// TestTwoPhaseResolverWholeShardAbort crashes the RESOLVER shard whole
// while both shards are prepared and the coordinator is dead: no
// decision was ever ratified, so after the restart the resolver
// presumes abort and the other shard follows — nothing may surface on
// either shard.
func TestTwoPhaseResolverWholeShardAbort(t *testing.T) {
	if testing.Short() {
		t.Skip("crash schedule: covered by the dedicated 2PC CI lane")
	}
	c := newCrashCluster(t, KindGroupNVRAM, 2)
	f := newTxFixture(t, c, "resolverdown")

	f.coordinator.SetTxHook(func(s dirclient.TxStage) error {
		if s == dirclient.TxAfterPrepare {
			for id := 1; id <= c.ServersPerShard(); id++ {
				c.CrashShardServer(0, id)
			}
			return dirclient.ErrTxHalt
		}
		return nil
	})
	_, err := f.coordinator.Apply(bgCtx, f.batch())
	f.coordinator.SetTxHook(nil)
	if !errors.Is(err, dirclient.ErrTxHalt) {
		t.Fatalf("halted Apply: err = %v, want ErrTxHalt", err)
	}

	restartShard(t, c, 0)
	f.assertSettles(t, false)
}

// TestTwoPhaseCrashDuringLockWait parks a plain update in the resolver
// shard's lock-wait queue — behind a prepared transaction whose
// coordinator has died — then crashes a replica of that shard while the
// waiter is parked. The waiter must come back within a bound: either
// admitted once the presumed-abort releases the locks, or refused with
// a conflict-classified error — never a hang. Reads of the locked
// directory (Applier.WaitUnlocked path) must keep flowing throughout,
// and the orphaned transaction still settles to a clean abort.
func TestTwoPhaseCrashDuringLockWait(t *testing.T) {
	if testing.Short() {
		t.Skip("crash schedule: covered by the dedicated 2PC CI lane")
	}
	c := newCrashCluster(t, KindGroup, 2)
	f := newTxFixture(t, c, "lockwait")

	// Leave the transaction prepared on both shards, coordinator dead:
	// the resolver (shard 0) holds locks on f.dirs[0] until its
	// presumed-abort timer fires.
	f.coordinator.SetTxHook(func(s dirclient.TxStage) error {
		if s == dirclient.TxAfterPrepare {
			return dirclient.ErrTxHalt
		}
		return nil
	})
	_, err := f.coordinator.Apply(bgCtx, f.batch())
	f.coordinator.SetTxHook(nil)
	if !errors.Is(err, dirclient.ErrTxHalt) {
		t.Fatalf("halted Apply: err = %v, want ErrTxHalt", err)
	}

	// An independent client's update to the locked directory parks in
	// the lock-wait queue on whichever shard-0 server initiates it.
	writeDone := make(chan error, 1)
	go func() {
		writeDone <- f.probe.Append(bgCtx, f.dirs[0], "parked", f.dirs[0], nil)
	}()

	// Reads must not be wedged behind the parked writer.
	readerDone := make(chan error, 1)
	go func() {
		for i := 0; i < 20; i++ {
			if err := retryFor(crashRetryWait, func() error {
				_, rerr := f.probe.LookupSet(bgCtx, f.dirs[0], []string{"absent"})
				return rerr
			}); err != nil {
				readerDone <- fmt.Errorf("read %d during lock wait: %w", i, err)
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
		readerDone <- nil
	}()

	// Crash one replica of the waiter's shard mid-wait. The majority
	// carries on; if the waiter was parked there, its RPC fails over.
	time.Sleep(50 * time.Millisecond)
	c.CrashShardServer(0, 2)

	select {
	case werr := <-writeDone:
		if werr != nil && !errors.Is(werr, dirsvc.ErrConflict) {
			t.Fatalf("parked writer returned %v, want success or a conflict-classified refusal", werr)
		}
		if werr != nil {
			// Refused at the deadline: the queue is a fast path, the
			// retry contract is intact — the write must land on retry.
			if err := retryFor(crashRetryWait, func() error {
				return f.probe.Append(bgCtx, f.dirs[0], "parked", f.dirs[0], nil)
			}); err != nil {
				t.Fatalf("retried write after lock-wait refusal: %v", err)
			}
		}
	case <-time.After(crashSettleWait):
		t.Fatal("writer parked in the lock-wait queue hung past every deadline")
	}
	if err := <-readerDone; err != nil {
		t.Fatal(err)
	}

	// No decision ever existed: the transaction settles to abort and
	// both shards accept new work.
	f.assertSettles(t, false)
}

// TestTwoPhaseRPCStateTransfer proves the RPC kind's peer sync carries
// the two-phase-commit state: a cross-shard transaction commits while
// one server of the resolver pair is down; that server restarts (syncing
// a snapshot from its peer), the peer then crashes, and the restarted
// server — now the resolver shard's only voice — must still answer the
// decision query with "committed". A sync of images alone would answer
// "unknown", which an orphaned participant reads as presumed abort. The
// transaction is driven at the wire level so the test knows its id, and
// under the default presumed-abort horizon: with one server of the pair
// down every update first waits out the peer RPC, and a 300 ms horizon
// would let the shards' resolvers race the coordinator.
func TestTwoPhaseRPCStateTransfer(t *testing.T) {
	if testing.Short() {
		t.Skip("crash schedule: covered by the dedicated 2PC CI lane")
	}
	c, err := New(KindRPC, Options{Model: sim.FastModel(), Shards: 2, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	f := newTxFixture(t, c, "xfer")
	send := rawSender(t, c)

	c.CrashShardServer(0, 2)
	id := dirsvc.NewTxID()
	masks := []dir.Rights{dir.AllRights, dir.AllRights, dir.AllRights}
	for s, d := range f.dirs {
		send(s, &dirsvc.Request{Op: dirsvc.OpPrepare, Blob: dirsvc.EncodePrepare(&dirsvc.Prepare{
			ID: id, Resolver: 0, Participants: []int{0, 1},
			Steps: dirsvc.EncodeBatchSteps([]*dirsvc.Request{
				{Op: dirsvc.OpAppendRow, Dir: d, Name: f.name, Cap: d, Masks: masks},
			}),
		})})
	}
	for s := range f.dirs {
		send(s, &dirsvc.Request{Op: dirsvc.OpDecide, Blob: dirsvc.EncodeDecide(&dirsvc.Decide{ID: id, Commit: true})})
	}
	f.assertSettles(t, true)

	if err := c.RestartShardServer(0, 2); err != nil {
		t.Fatalf("restart: %v", err)
	}
	c.CrashShardServer(0, 1)
	reply := send(0, &dirsvc.Request{Op: dirsvc.OpTxQuery, Blob: id[:]})
	if len(reply.Blob) != 1 || dirsvc.TxState(reply.Blob[0]) != dirsvc.TxCommitted {
		t.Fatalf("restarted resolver answers %v for a committed transaction, want %v",
			reply.Blob, dirsvc.TxCommitted)
	}
}

// rawSender returns a function that drives one request at the wire level
// against a shard's service port until it is answered OK — for tests that
// have to know a transaction's id or send what no client would.
func rawSender(t *testing.T, c *Cluster) func(shard int, req *dirsvc.Request) *dirsvc.Reply {
	t.Helper()
	rc, _, err := c.NewRawClient()
	if err != nil {
		t.Fatal(err)
	}
	return func(shard int, req *dirsvc.Request) (reply *dirsvc.Reply) {
		t.Helper()
		port := dirsvc.ServicePort(dirsvc.ShardService(c.Service, shard, c.Shards()))
		if err := retryFor(crashRetryWait, func() error {
			raw, err := rc.Trans(port, req.Encode())
			if err != nil {
				return err
			}
			if reply, err = dirsvc.DecodeReply(raw); err != nil {
				return err
			}
			return reply.Status.Err()
		}); err != nil {
			t.Fatalf("%v on shard %d: %v", req.Op, shard, err)
		}
		return reply
	}
}

// restartShard reboots every replica of one shard concurrently (each
// one's recovery waits for a majority of the others).
func restartShard(t testing.TB, c *Cluster, shard int) {
	t.Helper()
	errs := make(chan error, c.ServersPerShard())
	for id := 1; id <= c.ServersPerShard(); id++ {
		go func(id int) { errs <- c.RestartShardServer(shard, id) }(id)
	}
	for i := 0; i < c.ServersPerShard(); i++ {
		if err := <-errs; err != nil {
			t.Fatalf("restart shard %d: %v", shard, err)
		}
	}
}
