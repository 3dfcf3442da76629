package faultdir

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dirsvc/dir"
	"dirsvc/internal/dirclient"
	"dirsvc/internal/dirsvc"
	"dirsvc/internal/sim"
)

// The crash-at-every-step schedule for cross-shard two-phase commit,
// which the resolver shard (the lowest participant) coordinates: each
// test crashes the resolver's initiating replica, participant replicas
// or whole shards at one stage of the protocol (Cluster.SetTxHook) and
// asserts all-or-nothing visibility once the survivors, plus restarted
// or force-recovered replicas, settle the transaction. The NVRAM kind
// additionally proves a whole-shard crash reinstates the in-doubt
// transaction from the logged prepare record through the Fig. 6
// recovery path.

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
		IdleFlush:         time.Hour, // no background NVRAM flush: crash points stay deterministic
	})
	if err != nil {
		t.Fatalf("New(%v, shards=%d): %v", kind, shards, err)
	}
	t.Cleanup(c.Close)
	return c
}

// txFixture is one cross-shard transaction under fault injection: the
// client that sends it, one directory per shard, and an independent
// probe client for visibility checks.
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

// applyFor sends the fixture's batch with a deadline: a coordinator a
// hook halted without crashing its server never answers.
func (f *txFixture) applyFor(d time.Duration) error {
	ctx, cancel := context.WithTimeout(bgCtx, d)
	defer cancel()
	_, err := f.coordinator.Apply(ctx, f.batch())
	return err
}

// crashAsync crashes servers ids of one shard on another goroutine and
// returns a channel closed once they are down. A transaction hook runs
// inside a server, and a server's shutdown waits for its hooks, so a
// hook crashing its own server must do it this way, and halt.
func crashAsync(c *Cluster, shard int, ids ...int) <-chan struct{} {
	done := make(chan struct{})
	go func() {
		defer close(done)
		for _, id := range ids {
			c.CrashShardServer(shard, id)
		}
	}()
	return done
}

// awaitCrash waits for the crash a hook started (crashAsync) to finish.
func awaitCrash(t *testing.T, crashed <-chan (<-chan struct{})) {
	t.Helper()
	select {
	case done := <-crashed:
		<-done
	default:
		t.Fatal("crash hook never fired")
	}
}

// allServers lists the server ids of one shard.
func allServers(c *Cluster) []int {
	ids := make([]int, c.ServersPerShard())
	for i := range ids {
		ids[i] = i + 1
	}
	return ids
}

// assertAtomic waits for the transaction to settle and asserts it is
// all-or-nothing and agrees with what Apply returned. The outcome is
// read at the resolver (shard 0), which prepares first and decides: a
// read there succeeds once its lock is gone — decided, or never
// prepared anywhere, which nothing left running can change once Apply
// has returned. It returns the outcome.
func (f *txFixture) assertAtomic(t *testing.T, applyErr error) bool {
	t.Helper()
	var committed bool
	if err := retryFor(crashSettleWait, func() error {
		caps, err := f.probe.LookupSet(bgCtx, f.dirs[0], []string{f.name})
		if err == nil {
			committed = !caps[0].IsZero()
		}
		return err
	}); err != nil {
		t.Fatalf("resolver shard never settled: %v", err)
	}
	if applyErr == nil && !committed {
		t.Fatal("Apply returned nil, but the resolver shard did not commit")
	}
	f.assertSettles(t, committed)
	return committed
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
// non-resolver shard at each stage of the protocol; the shard's
// remaining majority carries the transaction through in every case.
func TestTwoPhaseParticipantMinorityCrash(t *testing.T) {
	if testing.Short() {
		t.Skip("crash schedule: covered by the dedicated 2PC CI lane")
	}
	steps := []struct {
		name  string
		stage dirsvc.TxStage // crash fires when this stage is reached; 0 = before Apply
	}{
		{"BeforePrepare", 0},
		{"WhilePrepared", dirsvc.TxAfterPrepare},
		{"AfterPartialCommit", dirsvc.TxAfterResolverDecide},
	}
	for i, sc := range steps {
		t.Run(sc.name, func(t *testing.T) {
			c := newCrashCluster(t, KindGroup, 2)
			f := newTxFixture(t, c, fmt.Sprintf("minority%d", i))
			crashed := make(chan struct{})
			if sc.stage == 0 {
				c.CrashShardServer(1, 2)
				close(crashed)
			} else {
				var once sync.Once
				c.SetTxHook(func(_, _ int, s dirsvc.TxStage) bool {
					if s == sc.stage {
						once.Do(func() {
							c.CrashShardServer(1, 2)
							close(crashed)
						})
					}
					return false
				})
			}
			err := retryFor(crashRetryWait, func() error {
				_, aerr := f.coordinator.Apply(bgCtx, f.batch())
				return aerr
			})
			c.SetTxHook(nil)
			if err != nil {
				t.Fatalf("Apply with minority crash: %v", err)
			}
			select {
			case <-crashed:
			default:
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

// TestTwoPhaseResolverInitiatorCrash crashes the resolver replica that
// received the transaction — its initiating replica — at every stage of
// the protocol, on every group kind, and separately lets the client go
// away once it has sent the batch. The client's transport re-sends the
// request to another replica of the resolver, which finishes the
// transaction: the repeated prepare votes again, and a decision already
// in the stream holds. Whatever the outcome, it is all-or-nothing, and
// no lock outlives it.
func TestTwoPhaseResolverInitiatorCrash(t *testing.T) {
	if testing.Short() {
		t.Skip("crash schedule: covered by the dedicated 2PC CI lane")
	}
	stages := []struct {
		name  string
		stage dirsvc.TxStage
	}{
		{"BeforePrepare", dirsvc.TxBeforePrepare},
		{"AfterResolverPrepare", dirsvc.TxAfterResolverPrepare},
		{"AfterPrepare", dirsvc.TxAfterPrepare},
		{"AfterResolverDecide", dirsvc.TxAfterResolverDecide},
	}
	for _, kind := range []Kind{KindGroup, KindGroupNVRAM, KindRPC} {
		for _, sc := range stages {
			t.Run(kind.String()+"/"+sc.name, func(t *testing.T) {
				c := newCrashCluster(t, kind, 2)
				f := newTxFixture(t, c, "initiator")
				crashed := make(chan (<-chan struct{}), 1)
				var once sync.Once
				c.SetTxHook(func(shard, server int, s dirsvc.TxStage) (halt bool) {
					if s == sc.stage {
						once.Do(func() { crashed <- crashAsync(c, shard, server); halt = true })
					}
					return halt
				})
				err := f.applyFor(crashRetryWait)
				c.SetTxHook(nil)
				awaitCrash(t, crashed)
				committed := f.assertAtomic(t, err)
				if sc.stage == dirsvc.TxAfterResolverDecide && !committed {
					t.Fatal("a commit in the resolver's stream was lost")
				}
			})
		}
	}
	t.Run("ClientGoneAfterSending", func(t *testing.T) {
		c := newCrashCluster(t, KindGroup, 2)
		f := newTxFixture(t, c, "orphan")
		gone, cleanup, err := c.NewClient()
		if err != nil {
			t.Fatal(err)
		}
		f.coordinator = gone
		var once sync.Once
		c.SetTxHook(func(_, _ int, s dirsvc.TxStage) bool {
			if s == dirsvc.TxAfterResolverPrepare {
				once.Do(cleanup)
			}
			return false
		})
		err = f.applyFor(crashRetryWait)
		c.SetTxHook(nil)
		if err == nil {
			t.Fatal("Apply answered a client that was closed")
		}
		f.assertSettles(t, true)
	})
}

// TestTwoPhaseSlowResolverPrepare replays the schedule that split a
// batch under the client-coordinated commit: one server of resolver
// shard 0 is down before Apply, so shard 0's prepare is slow — on the
// RPC kind every update there first waits out the dead peer's intention
// RPC, on the NVRAM kind the group first has to notice the crash. Shard 1
// used to prepare at once, find no record at the resolver when it asked,
// presume abort, and lose the row shard 0 then committed. Now shard 1 is
// prepared only after the resolver's prepare is in the resolver's
// stream, and asks about it only at or past that point.
func TestTwoPhaseSlowResolverPrepare(t *testing.T) {
	if testing.Short() {
		t.Skip("crash schedule: covered by the dedicated 2PC CI lane")
	}
	for _, kind := range []Kind{KindRPC, KindGroupNVRAM} {
		t.Run(kind.String(), func(t *testing.T) {
			// Half the paper's latencies and a 100 ms heartbeat: the crash
			// takes the transport and the group hundreds of milliseconds
			// to notice.
			c, err := New(kind, Options{Model: sim.ScaledPaperModel(0.5), HeartbeatInterval: 100 * time.Millisecond, Shards: 2, Workers: 8, IdleFlush: time.Hour})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(c.Close)
			f := newTxFixture(t, c, "slow")
			c.CrashShardServer(0, 2)
			_, err = f.coordinator.Apply(bgCtx, f.batch())
			f.assertAtomic(t, err)
		})
	}
}

// TestTwoPhaseWholeShardCrashPrepared is the Fig. 6 reinstatement test:
// the whole non-resolver shard (all replicas) crashes while the
// transaction is prepared, and the resolver's initiating replica halts
// with it. The restarted shard must replay the NVRAM-logged prepare
// record, re-stage the transaction, and settle it by asking the
// resolver — whose takeover drives the transaction to a decision when
// none was ordered yet.
func TestTwoPhaseWholeShardCrashPrepared(t *testing.T) {
	if testing.Short() {
		t.Skip("crash schedule: covered by the dedicated 2PC CI lane")
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
			c := newCrashCluster(t, KindGroupNVRAM, 2)
			f := newTxFixture(t, c, "wholeshard")
			var once sync.Once
			c.SetTxHook(func(_, _ int, s dirsvc.TxStage) (halt bool) {
				if s == sc.stage {
					once.Do(func() {
						for _, id := range allServers(c) {
							c.CrashShardServer(1, id)
						}
						halt = true
					})
				}
				return halt
			})
			err := f.applyFor(2 * time.Second)
			c.SetTxHook(nil)

			// Restart the whole shard — concurrently, as a real reboot
			// would: each replica's Fig. 6 recovery blocks until a
			// majority reassembles, then replays the NVRAM prepare records.
			restartShard(t, c, 1)
			if committed := f.assertAtomic(t, err); sc.committed && !committed {
				t.Fatal("a commit in the resolver's stream was lost")
			}
		})
	}
}

// TestTwoPhaseForceRecoverShard loses a majority of the non-resolver
// shard while the transaction is prepared, with the resolver's
// initiating replica halted after its commit. The surviving replica
// cannot assemble a majority; after the administrator's
// ForceRecoverShard it serves alone — still holding the prepared
// transaction — asks the resolver, and completes the commit.
func TestTwoPhaseForceRecoverShard(t *testing.T) {
	if testing.Short() {
		t.Skip("crash schedule: covered by the dedicated 2PC CI lane")
	}
	c := newCrashCluster(t, KindGroup, 2)
	f := newTxFixture(t, c, "forced")

	var once sync.Once
	c.SetTxHook(func(_, _ int, s dirsvc.TxStage) (halt bool) {
		if s == dirsvc.TxAfterResolverDecide {
			once.Do(func() {
				// Majority of shard 1 gone; replica 3 survives, in doubt.
				c.CrashShardServer(1, 1)
				c.CrashShardServer(1, 2)
				halt = true
			})
		}
		return halt
	})
	// Another replica of the resolver may answer the client's re-sent
	// request meanwhile; shard 1 learns the outcome either way.
	_ = f.applyFor(2 * time.Second)
	c.SetTxHook(nil)

	if err := c.ForceRecoverShard(1, 3); err != nil {
		t.Fatalf("ForceRecoverShard: %v", err)
	}
	f.assertSettles(t, true)
}

// TestTwoPhaseResolverWholeShardAbort crashes the RESOLVER shard whole
// while both shards are prepared, no decision is ordered and the client
// is gone. The NVRAM log reinstates the resolver's prepare, which does
// not carry the plan, so after the restart the resolver's takeover
// orders abort and the other shard follows — nothing may surface on
// either shard.
func TestTwoPhaseResolverWholeShardAbort(t *testing.T) {
	if testing.Short() {
		t.Skip("crash schedule: covered by the dedicated 2PC CI lane")
	}
	c := newCrashCluster(t, KindGroupNVRAM, 2)
	f := newTxFixture(t, c, "resolverdown")

	crashed := make(chan (<-chan struct{}), 1)
	var once sync.Once
	c.SetTxHook(func(_, _ int, s dirsvc.TxStage) (halt bool) {
		if s == dirsvc.TxAfterPrepare {
			once.Do(func() { crashed <- crashAsync(c, 0, allServers(c)...); halt = true })
		}
		return halt
	})
	// The client gives up while the shard is down: nobody re-sends the plan.
	_ = f.applyFor(time.Second)
	c.SetTxHook(nil)
	awaitCrash(t, crashed)

	restartShard(t, c, 0)
	f.assertSettles(t, false)
}

// TestTwoPhaseCrashDuringLockWait parks a plain update in the resolver
// shard's lock wait — behind a prepared transaction whose
// initiating replica halted — then crashes a replica of that shard while
// the waiter is parked. The waiter must come back within a bound: either
// admitted once the takeover settles the transaction and releases the
// locks, or refused with a conflict-classified error — never a hang.
// Reads of the locked directory, which wait in the same bounded lock
// wait, must keep flowing throughout, and the transaction still settles
// all-or-nothing.
func TestTwoPhaseCrashDuringLockWait(t *testing.T) {
	if testing.Short() {
		t.Skip("crash schedule: covered by the dedicated 2PC CI lane")
	}
	c := newCrashCluster(t, KindGroup, 2)
	f := newTxFixture(t, c, "lockwait")

	// Leave the transaction prepared on both shards, its initiator
	// halted: the resolver (shard 0) holds locks on f.dirs[0] until its
	// takeover settles the transaction.
	var once sync.Once
	c.SetTxHook(func(_, _ int, s dirsvc.TxStage) (halt bool) {
		if s == dirsvc.TxAfterPrepare {
			once.Do(func() { halt = true })
		}
		return halt
	})
	err := f.applyFor(time.Second)
	c.SetTxHook(nil)

	// An independent client's update to the locked directory parks in
	// the lock wait on whichever shard-0 server initiates it.
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
			// Refused at the deadline: the wait is a fast path, the
			// retry contract is intact — the write must land on retry.
			if err := retryFor(crashRetryWait, func() error {
				return f.probe.Append(bgCtx, f.dirs[0], "parked", f.dirs[0], nil)
			}); err != nil {
				t.Fatalf("retried write after lock-wait refusal: %v", err)
			}
		}
	case <-time.After(crashSettleWait):
		t.Fatal("writer parked in the lock wait hung past every deadline")
	}
	if err := <-readerDone; err != nil {
		t.Fatal(err)
	}

	// The takeover drove the transaction to a decision; both shards
	// agree on it and accept new work.
	f.assertAtomic(t, err)
}

// TestTwoPhaseRPCStateTransfer proves the RPC kind's peer sync carries
// the two-phase-commit state: a cross-shard transaction commits while
// one server of the resolver pair is down; that server restarts (syncing
// a snapshot from its peer), the peer then crashes, and the restarted
// server — now the resolver shard's only voice — must still answer the
// decision query with "committed". A sync of images alone would answer
// "unknown", which a participant in doubt reads as presumed abort. The
// transaction is driven at the wire level so the test knows its id.
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
	var resolverSeq uint64 // the participant's floor: where the resolver prepared
	for s, d := range f.dirs {
		vote := send(s, &dirsvc.Request{Op: dirsvc.OpPrepare, Blob: dirsvc.EncodePrepare(&dirsvc.Prepare{
			ID: id, ResolverSeq: resolverSeq, Participants: []int{0, 1},
			Steps: dirsvc.EncodeBatchSteps([]*dirsvc.Request{
				{Op: dirsvc.OpAppendRow, Dir: d, Name: f.name, Cap: d, Masks: masks},
			}),
		})})
		resolverSeq = vote.Seq
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

// TestTwoPhaseCoordinatorsHoldNoInitiator holds more cross-shard
// transactions than the resolver shard has initiator threads at the
// point where their coordinators wait on the other shard — the wait a
// slow or unreachable participant imposes. Every one of them must get
// that far, and the resolver must meanwhile serve a single-shard update
// within its lock wait: a coordinator runs off the initiator threads.
func TestTwoPhaseCoordinatorsHoldNoInitiator(t *testing.T) {
	if testing.Short() {
		t.Skip("crash schedule: covered by the dedicated 2PC CI lane")
	}
	const workers = 2
	c, err := New(KindGroup, Options{Model: sim.FastModel(), Shards: 2, Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	txs := make([]*txFixture, workers*c.ServersPerShard()+2)
	for i := range txs {
		txs[i] = newTxFixture(t, c, fmt.Sprintf("held%d", i))
	}
	free, err := createOn(txs[0].probe, 0)
	if err != nil {
		t.Fatal(err)
	}

	var held atomic.Int32 // coordinators waiting on the other shard
	release := make(chan struct{})
	c.SetTxHook(func(_, _ int, s dirsvc.TxStage) bool {
		if s == dirsvc.TxAfterResolverPrepare {
			held.Add(1)
			<-release
		}
		return false
	})
	errs := make([]error, len(txs))
	var sent sync.WaitGroup
	for i, f := range txs {
		sent.Add(1)
		go func() {
			defer sent.Done()
			errs[i] = f.applyFor(crashRetryWait)
		}()
	}
	for deadline := time.Now().Add(crashSettleWait); int(held.Load()) < len(txs); time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			close(release)
			t.Fatalf("%d of %d coordinators reached the other shard", held.Load(), len(txs))
		}
	}

	ctx, cancel := context.WithTimeout(bgCtx, time.Second)
	err = txs[0].probe.Append(ctx, free, "single", free, nil)
	cancel()
	close(release)
	c.SetTxHook(nil)
	if err != nil {
		t.Fatalf("single-shard update with %d transactions held: %v", len(txs), err)
	}
	sent.Wait()
	for i, f := range txs {
		f.assertAtomic(t, errs[i])
	}
}

// TestTwoPhaseReadPileUpLeavesDecideAThread holds a cross-shard
// transaction prepared and piles reads of its locked shard-1 directory
// onto that shard, twice as many as its replicas have initiator threads.
// Reads count against the lock-wait budget of workers−1 slots, so each
// replica keeps a thread for the decide that releases them: once the
// coordinator goes on, the decide settles shard 1 within a quarter of
// the lock wait. Were every thread parked in a read, each replica would
// answer the decide NOTHERE until the readers' lock wait ran out.
func TestTwoPhaseReadPileUpLeavesDecideAThread(t *testing.T) {
	if testing.Short() {
		t.Skip("crash schedule: covered by the dedicated 2PC CI lane")
	}
	const workers = 2
	c, err := New(KindGroup, Options{Model: sim.FastModel(), Shards: 2, Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	f := newTxFixture(t, c, "piled")
	fronts := make([]*dirsvc.FrontEnd, c.ServersPerShard())
	for i := range fronts {
		m := c.shardMachine(1, i+1)
		m.mu.Lock()
		fronts[i] = m.front
		m.mu.Unlock()
	}
	lockWait := fronts[0].LockWait
	locked := func() bool {
		for _, fe := range fronts {
			if fe.Applier.Locked(f.dirs[1].Object) {
				return true
			}
		}
		return false
	}

	var held atomic.Bool
	release := make(chan struct{})
	c.SetTxHook(func(_, _ int, s dirsvc.TxStage) bool {
		if s == dirsvc.TxAfterPrepare {
			held.Store(true)
			<-release
		}
		return false
	})
	applied := make(chan error, 1)
	go func() { applied <- f.applyFor(crashRetryWait) }()
	for deadline := time.Now().Add(crashSettleWait); !held.Load(); time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			close(release)
			t.Fatal("the transaction never prepared")
		}
	}
	if !locked() {
		close(release)
		t.Fatal("shard 1 holds no lock on the prepared directory")
	}

	rc, _, err := c.NewRawClient()
	if err != nil {
		close(release)
		t.Fatal(err)
	}
	port := dirsvc.ServicePort(dirsvc.ShardService(c.Service, 1, c.Shards()))
	read := (&dirsvc.Request{Op: dirsvc.OpLookupSet, Dir: f.dirs[1], Set: []dirsvc.SetItem{{Name: f.name}}}).Encode()
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for i := 0; i < 2*workers*c.ServersPerShard(); i++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_, _ = rc.Trans(port, read)
				time.Sleep(2 * time.Millisecond)
			}
		}()
	}
	// Let the readers reach every replica and park there; no count of
	// parked readers is visible from here, so this waits a tenth of
	// their lock wait.
	time.Sleep(lockWait / 10)

	start := time.Now()
	close(release)
	for locked() && time.Since(start) < 2*lockWait {
		time.Sleep(time.Millisecond)
	}
	settled, still := time.Since(start), locked()
	t.Logf("shard 1 locked for %v after the coordinator went on (lock wait %v)", settled.Round(time.Millisecond), lockWait)
	close(stop)
	readers.Wait()
	c.SetTxHook(nil)
	if still || settled > lockWait/4 {
		t.Fatalf("the decide had not settled shard 1 %v after the coordinator went on (still locked: %v), want within %v (a quarter of the lock wait)",
			settled.Round(time.Millisecond), still, lockWait/4)
	}
	f.assertAtomic(t, <-applied)
}
