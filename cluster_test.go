package faultdir

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"dirsvc/dir"
	"dirsvc/internal/capability"
	"dirsvc/internal/dirclient"
	"dirsvc/internal/dirsvc"
	"dirsvc/internal/sim"
	"dirsvc/internal/vdisk"
)

// bgCtx is the unbounded context used where no deadline applies.
var bgCtx = context.Background()

const testHeartbeat = 15 * time.Millisecond

func testOptions() Options {
	return Options{
		Model:             sim.FastModel(),
		HeartbeatInterval: testHeartbeat,
	}
}

func newTestCluster(t *testing.T, kind Kind) *Cluster {
	t.Helper()
	return bootCluster(t, kind, testOptions())
}

// bootCluster boots a cluster the test closes at its end.
func bootCluster(tb testing.TB, kind Kind, opts Options) *Cluster {
	tb.Helper()
	c, err := New(kind, opts)
	if err != nil {
		tb.Fatalf("New(%v): %v", kind, err)
	}
	tb.Cleanup(c.Close)
	return c
}

func TestAllKindsBasicOperations(t *testing.T) {
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
				t.Fatalf("Root: %v", err)
			}
			dir, err := client.CreateDir(bgCtx)
			if err != nil {
				t.Fatalf("CreateDir: %v", err)
			}
			if err := client.Append(bgCtx, root, "projects", dir, nil); err != nil {
				t.Fatalf("Append: %v", err)
			}
			got, err := client.Lookup(bgCtx, root, "projects")
			if err != nil {
				t.Fatalf("Lookup: %v", err)
			}
			if got != dir {
				t.Fatalf("Lookup = %v, want %v", got, dir)
			}
			rows, err := client.List(bgCtx, root, 0)
			if err != nil {
				t.Fatalf("List: %v", err)
			}
			if len(rows) != 1 || rows[0].Name != "projects" {
				t.Fatalf("List = %+v", rows)
			}
			if err := client.Delete(bgCtx, root, "projects"); err != nil {
				t.Fatalf("Delete: %v", err)
			}
			if _, err := client.Lookup(bgCtx, root, "projects"); !errors.Is(err, dirsvc.ErrNotFound) {
				t.Fatalf("Lookup after delete: %v", err)
			}
			if err := client.DeleteDir(bgCtx, dir); err != nil {
				t.Fatalf("DeleteDir: %v", err)
			}
		})
	}
}

func TestAppendDuplicateNameRejected(t *testing.T) {
	c := newTestCluster(t, KindGroup)
	client, cleanup, err := c.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup()
	root, _ := client.Root(bgCtx)
	target, err := client.CreateDir(bgCtx)
	if err != nil {
		t.Fatal(err)
	}
	if err := client.Append(bgCtx, root, "dup", target, nil); err != nil {
		t.Fatal(err)
	}
	if err := client.Append(bgCtx, root, "dup", target, nil); !errors.Is(err, dirsvc.ErrExists) {
		t.Fatalf("second append: %v, want ErrExists", err)
	}
}

func TestCapabilityRightsEnforced(t *testing.T) {
	c := newTestCluster(t, KindGroup)
	client, cleanup, err := c.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup()
	root, _ := client.Root(bgCtx)
	dir, err := client.CreateDir(bgCtx)
	if err != nil {
		t.Fatal(err)
	}
	if err := client.Append(bgCtx, root, "d", dir, nil); err != nil {
		t.Fatal(err)
	}
	readOnly, err := capability.Restrict(dir, capability.RightRead)
	if err != nil {
		t.Fatal(err)
	}
	// Read allowed, write refused.
	if _, err := client.List(bgCtx, readOnly, 0); err != nil {
		t.Fatalf("List with read-only cap: %v", err)
	}
	if err := client.Append(bgCtx, readOnly, "x", dir, nil); !errors.Is(err, capability.ErrNoRights) {
		t.Fatalf("Append with read-only cap: %v", err)
	}
	forged := dir
	forged.Check = capability.Check{1, 1, 1, 1, 1, 1}
	if _, err := client.List(bgCtx, forged, 0); !errors.Is(err, capability.ErrBadCapability) {
		t.Fatalf("List with forged cap: %v", err)
	}
}

// TestReadYourWritesAcrossServers is the §3.1 scenario: a client deletes
// a directory entry through one server and immediately reads through
// another; the read must observe the delete. We force distinct servers
// by using two clients whose port caches pick different replicas.
func TestReadYourWritesAcrossServers(t *testing.T) {
	for _, kind := range []Kind{KindGroup, KindGroupNVRAM} {
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
			dir, err := client.CreateDir(bgCtx)
			if err != nil {
				t.Fatal(err)
			}
			// Hammer the same name through alternating operations; each
			// read must see the immediately preceding write regardless
			// of which server the port cache picked.
			for i := 0; i < 25; i++ {
				name := fmt.Sprintf("f%d", i)
				if err := client.Append(bgCtx, root, name, dir, nil); err != nil {
					t.Fatalf("append %d: %v", i, err)
				}
				if _, err := client.Lookup(bgCtx, root, name); err != nil {
					t.Fatalf("lookup %d after append: %v", i, err)
				}
				if err := client.Delete(bgCtx, root, name); err != nil {
					t.Fatalf("delete %d: %v", i, err)
				}
				if _, err := client.Lookup(bgCtx, root, name); !errors.Is(err, dirsvc.ErrNotFound) {
					t.Fatalf("lookup %d after delete: %v (stale read)", i, err)
				}
			}
		})
	}
}

func TestGroupSurvivesOneServerCrash(t *testing.T) {
	c := newTestCluster(t, KindGroup)
	client, cleanup, err := c.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup()
	root, _ := client.Root(bgCtx)
	dir, err := client.CreateDir(bgCtx)
	if err != nil {
		t.Fatal(err)
	}
	if err := client.Append(bgCtx, root, "before-crash", dir, nil); err != nil {
		t.Fatal(err)
	}

	c.CrashServer(2)

	// The two survivors form a majority: service continues. The client
	// may need to fail over (NOTHERE / timeouts), hence the retry loop.
	deadline := time.Now().Add(30 * time.Second)
	for {
		if err := client.Append(bgCtx, root, "after-crash", dir, nil); err == nil {
			break
		} else if time.Now().After(deadline) {
			t.Fatalf("append never succeeded after crash: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if _, err := client.Lookup(bgCtx, root, "before-crash"); err != nil {
		t.Fatalf("pre-crash data lost: %v", err)
	}
	if _, err := client.Lookup(bgCtx, root, "after-crash"); err != nil {
		t.Fatalf("post-crash write lost: %v", err)
	}
}

// TestBoundClientFailoverBounded: a read-only client loses the replica it
// is bound to with thirty lookups on their way there. The transport gives
// the replica up once, for all of them, after three unanswered probes —
// not once per lookup after three reply time-outs (9 s at this scale) —
// so every lookup is answered by a survivor within 1.5 s: detection, the
// survivors' group reset and one locate.
func TestBoundClientFailoverBounded(t *testing.T) {
	// A thread per lookup: a NOTHERE would move the client by itself.
	c := bootCluster(t, KindGroup, Options{Model: sim.ScaledPaperModel(0.2), DiskEngine: true, Workers: 32})
	writer, cleanupW, err := c.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	defer cleanupW()
	reader, cleanupR, err := c.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	defer cleanupR()

	const lookups = 30
	parent, err := writer.CreateDir(bgCtx)
	if err != nil {
		t.Fatal(err)
	}
	targets := make([]capability.Capability, lookups)
	for i := range targets {
		targets[i] = capability.Capability{Port: parent.Port, Object: uint32(1000 + i), Rights: capability.AllRights}
		if err := writer.Append(bgCtx, parent, fmt.Sprintf("n%d", i), targets[i], nil); err != nil {
			t.Fatal(err)
		}
	}
	for i := range targets { // binds the reader and samples its replica's round trip
		if err := retryFor(5*time.Second, func() error {
			_, err := reader.Lookup(bgCtx, parent, fmt.Sprintf("n%d", i))
			return err
		}); err != nil {
			t.Fatalf("warm lookup %d: %v", i, err)
		}
	}
	bound := 0
	for id := 1; id <= c.ServersPerShard(); id++ {
		if c.shardMachine(0, id).dirNode.ID() == reader.ReplicaStats(0)[0].Server {
			bound = id
		}
	}
	if bound == 0 {
		t.Fatalf("reader is bound to no replica: %+v", reader.ReplicaStats(0))
	}

	c.CrashServer(bound)
	const limit = 1500 * time.Millisecond
	type result struct {
		got  capability.Capability
		err  error
		took time.Duration
	}
	results := make([]result, lookups)
	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r, start := &results[i], time.Now()
			// A survivor refuses reads until the group has reset.
			r.err = retryFor(limit, func() (err error) {
				r.got, err = reader.Lookup(bgCtx, parent, fmt.Sprintf("n%d", i))
				return err
			})
			r.took = time.Since(start)
		}(i)
	}
	wg.Wait()
	var slowest time.Duration
	for i, r := range results {
		slowest = max(slowest, r.took)
		switch {
		case r.err != nil:
			t.Errorf("lookup %d failed after %v: %v", i, r.took, r.err)
		case r.got != targets[i]:
			t.Errorf("lookup %d returned %v, want %v", i, r.got, targets[i])
		case r.took > limit:
			t.Errorf("lookup %d took %v, want ≤ %v", i, r.took, limit)
		}
	}
	fo := reader.FailoverStats()
	t.Logf("slowest lookup %v; failure detection %+v", slowest, fo)
	if fo.Verdicts != 1 {
		t.Errorf("%d dead verdicts, want one for the one dead replica", fo.Verdicts)
	}
}

func TestGroupRecoveryAfterRestart(t *testing.T) {
	c := newTestCluster(t, KindGroup)
	client, cleanup, err := c.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup()
	root, _ := client.Root(bgCtx)
	dir, err := client.CreateDir(bgCtx)
	if err != nil {
		t.Fatal(err)
	}
	if err := client.Append(bgCtx, root, "f1", dir, nil); err != nil {
		t.Fatal(err)
	}

	c.CrashServer(3)

	// Write while server 3 is down: it misses this update.
	appendWithRetry(t, client, root, "f2", dir, 30*time.Second)

	// Restart: recovery must fetch the missed update from the majority.
	if err := c.RestartServer(3); err != nil {
		t.Fatalf("RestartServer: %v", err)
	}

	// All three servers must now answer lookups for both entries; we
	// poll the service until server 3's copy is consistent (verified by
	// sheer repetition across the port-cache heuristic).
	deadline := time.Now().Add(30 * time.Second)
	for i := 0; ; i++ {
		_, err1 := client.Lookup(bgCtx, root, "f1")
		_, err2 := client.Lookup(bgCtx, root, "f2")
		if err1 == nil && err2 == nil && i > 20 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("recovered service inconsistent: f1=%v f2=%v", err1, err2)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestMinorityPartitionRefusesReads is the §3.1 partition argument: a
// server cut off from the majority must refuse even read requests,
// because the majority may delete directories it still holds.
func TestMinorityPartitionRefusesReads(t *testing.T) {
	c := newTestCluster(t, KindGroup)
	client, cleanup, err := c.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup()
	root, _ := client.Root(bgCtx)
	dir, err := client.CreateDir(bgCtx)
	if err != nil {
		t.Fatal(err)
	}
	if err := client.Append(bgCtx, root, "foo", dir, nil); err != nil {
		t.Fatal(err)
	}

	// Cut server 3 off; the client stays with the majority side.
	c.PartitionServers(3)

	// The majority side keeps serving after its reset settles.
	appendWithRetry(t, client, root, "bar", dir, 30*time.Second)

	// A client on the minority side must be refused.
	minClient, minCleanup, err := c.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	defer minCleanup()
	// Place the new client's host on the minority side.
	c.Net.Partition(
		[]sim.NodeID{c.machine(3).dirNode.ID(), c.machine(3).bulletNode.ID(), lastNodeID(c)},
		otherNodes(c, 3),
	)
	deadline := time.Now().Add(30 * time.Second)
	for {
		_, err := minClient.List(bgCtx, root, 0)
		if errors.Is(err, dirsvc.ErrNoMajority) {
			break // refused, as required
		}
		if time.Now().After(deadline) {
			t.Fatalf("minority server answered a read (err=%v), want refusal", err)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// After healing, the whole service reunites and serves everything.
	c.Heal()
	deadline = time.Now().Add(60 * time.Second)
	for {
		_, e1 := client.Lookup(bgCtx, root, "foo")
		_, e2 := client.Lookup(bgCtx, root, "bar")
		if e1 == nil && e2 == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("service did not reunite: foo=%v bar=%v", e1, e2)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// nvramFlushMark is the ¾ point of the NVRAM region, past which a server
// flushes its log to disk.
const nvramFlushMark = vdisk.DefaultNVRAMSize * 3 / 4

// newNVRAMCluster boots the NVRAM kind with the idle flush off, so only a
// full log ever reaches the disk. New returns once all three replicas
// are in the group: one that joins late — or is expelled and rejoins —
// pulls its state onto its disk and starts an empty log. The heartbeat
// is 50 ms because unpaced writers saturate a small host, and the 15 ms
// floor then declares a starved replica dead after 90 ms
// (bench/README.md, "Heartbeat floor").
func newNVRAMCluster(t *testing.T) *Cluster {
	t.Helper()
	return bootCluster(t, KindGroupNVRAM, Options{
		Model:             sim.FastModel(),
		HeartbeatInterval: 50 * time.Millisecond,
		IdleFlush:         time.Hour,
	})
}

// nvramUsed returns the NVRAM log fill of replica id.
func nvramUsed(t *testing.T, c *Cluster, id int) int {
	t.Helper()
	st, ok := c.ShardServerStatus(0, id)
	if !ok {
		t.Fatalf("server %d has no status", id)
	}
	return st.NVRAMUsed
}

// crashAndRestartAll takes every replica down at once and boots them all
// again: what comes back is what the NVRAM logs and the disks hold.
func crashAndRestartAll(t testing.TB, c *Cluster) {
	t.Helper()
	for id := 1; id <= c.ServersPerShard(); id++ {
		c.CrashServer(id)
	}
	restartShard(t, c, 0)
}

// listNames lists dir once the restarted service answers.
func listNames(t *testing.T, client *dirclient.Client, dir capability.Capability) map[string]bool {
	t.Helper()
	names := make(map[string]bool)
	err := retryFor(30*time.Second, func() error {
		rows, err := client.List(bgCtx, dir, 0)
		for _, row := range rows {
			names[row.Name] = true
		}
		return err
	})
	if err != nil {
		t.Fatalf("list after restart: %v", err)
	}
	return names
}

// diskWrites returns each replica's count of disk writes so far.
func diskWrites(c *Cluster) (writes [3]uint64) {
	for id := 1; id <= 3; id++ {
		s := c.DiskStats(id)
		writes[id-1] = s.Writes + s.SeqWrites
	}
	return writes
}

// TestNVRAMTmpFileOptimization: append+delete pairs cost NO disk writes
// at any server (the paper's /tmp optimization), however many of them —
// the log takes the cancelled records' space back instead of flushing,
// and carries the one long-lived record logged first through every
// compaction.
func TestNVRAMTmpFileOptimization(t *testing.T) {
	c := newNVRAMCluster(t)
	client, cleanup, err := c.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup()
	root, _ := client.Root(bgCtx)
	dir, err := client.CreateDir(bgCtx)
	if err != nil {
		t.Fatal(err)
	}
	if err := client.Append(bgCtx, root, "tmpdir", dir, nil); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)

	before := diskWrites(c)
	const writers, pairs = 2, 1000
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		go func(w int) {
			wc, wcleanup, err := c.NewClient()
			if err != nil {
				errs <- err
				return
			}
			defer wcleanup()
			for i := 0; i < pairs; i++ {
				name := fmt.Sprintf("tmp%d-%d", w, i)
				if err := wc.Append(bgCtx, dir, name, root, nil); err != nil {
					errs <- fmt.Errorf("writer %d append %d: %w", w, i, err)
					return
				}
				if err := wc.Delete(bgCtx, dir, name); err != nil {
					errs <- fmt.Errorf("writer %d delete %d: %w", w, i, err)
					return
				}
				for id := 1; id <= 3; id++ {
					if st, _ := c.ShardServerStatus(0, id); st.NVRAMUsed > nvramFlushMark {
						errs <- fmt.Errorf("server %d: NVRAM log at %d bytes, flush mark is %d", id, st.NVRAMUsed, nvramFlushMark)
						return
					}
				}
			}
			errs <- nil
		}(w)
	}
	for w := 0; w < writers; w++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if after := diskWrites(c); after != before {
		t.Fatalf("disk writes per server went %v → %v over cancelled pairs, want no change", before, after)
	}
	if _, err := client.Lookup(bgCtx, root, "tmpdir"); err != nil {
		t.Fatalf("long-lived entry after %d pairs: %v", writers*pairs, err)
	}
}

func TestNVRAMSurvivesCrash(t *testing.T) {
	c := newNVRAMCluster(t)
	client, cleanup, err := c.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup()
	root, _ := client.Root(bgCtx)
	dir, err := client.CreateDir(bgCtx)
	if err != nil {
		t.Fatal(err)
	}
	if err := client.Append(bgCtx, root, "logged-only", dir, nil); err != nil {
		t.Fatal(err)
	}

	// Crash and restart server 1 before any flush: its directory state
	// must be rebuilt from NVRAM (or pulled from peers).
	c.CrashServer(1)
	if err := c.RestartServer(1); err != nil {
		t.Fatalf("restart: %v", err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		if _, err := client.Lookup(bgCtx, root, "logged-only"); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("entry lost after NVRAM crash-recovery")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestNVRAMSurvivesCrashAfterCompaction crashes all three replicas right
// after their logs compacted: nothing is on disk, so every live row —
// logged before the compaction, moved by it, or appended behind it — must
// come back from the compacted NVRAM images, and no cancelled one may.
func TestNVRAMSurvivesCrashAfterCompaction(t *testing.T) {
	c := newNVRAMCluster(t)
	client, cleanup, err := c.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup()
	dir, err := client.CreateDir(bgCtx)
	if err != nil {
		t.Fatal(err)
	}
	before := diskWrites(c)
	want := make(map[string]bool)
	for i := 0; i < 10; i++ {
		name := fmt.Sprintf("keep%d", i)
		if err := client.Append(bgCtx, dir, name, dir, nil); err != nil {
			t.Fatal(err)
		}
		want[name] = true
	}

	// Cancelled pairs until every replica's log has shrunk once. The
	// replicas apply one stream, so they compact at the same record; the
	// acknowledgement only says the initiator has.
	var last [3]int
	var compacted [3]bool
	for i := 0; !(compacted[0] && compacted[1] && compacted[2]); i++ {
		if i == 1000 {
			t.Fatalf("no compaction in %d pairs: log fill %v", i, last)
		}
		name := fmt.Sprintf("tmp%d", i)
		if err := client.Append(bgCtx, dir, name, dir, nil); err != nil {
			t.Fatal(err)
		}
		if err := client.Delete(bgCtx, dir, name); err != nil {
			t.Fatal(err)
		}
		for id := 1; id <= 3; id++ {
			used := nvramUsed(t, c, id)
			if used < last[id-1] {
				compacted[id-1] = true
			}
			last[id-1] = used
		}
	}
	if err := client.Append(bgCtx, dir, "behind-compaction", dir, nil); err != nil {
		t.Fatal(err)
	}
	want["behind-compaction"] = true
	if after := diskWrites(c); after != before {
		t.Fatalf("disk writes per server went %v → %v: the rows would not be coming from NVRAM", before, after)
	}

	crashAndRestartAll(t, c)
	if got := listNames(t, client, dir); !reflect.DeepEqual(got, want) {
		t.Fatalf("rows after whole-cluster crash:\n got %v\nwant %v", got, want)
	}
}

// TestNVRAMOversizedBatchSurvivesCrash: an update whose record does not
// fit in what is left of the log must be flushed through to disk before
// it is acknowledged. Applied in RAM only and skipped by the log, it
// would vanish in a whole-cluster crash while later, smaller records —
// and the log's maxSeq — survive it.
func TestNVRAMOversizedBatchSurvivesCrash(t *testing.T) {
	c := newNVRAMCluster(t)
	client, cleanup, err := c.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup()
	d, err := client.CreateDir(bgCtx)
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[string]bool)
	for i := 0; nvramUsed(t, c, 1) < vdisk.DefaultNVRAMSize*7/10; i++ {
		name := fmt.Sprintf("fill%03d", i)
		if err := client.Append(bgCtx, d, name, d, nil); err != nil {
			t.Fatal(err)
		}
		want[name] = true
	}
	batch := dir.NewBatch()
	for i := 0; i < 100; i++ {
		name := fmt.Sprintf("batch%03d", i)
		batch.Append(d, name, d, nil)
		want[name] = true
	}
	if _, err := client.Apply(bgCtx, batch); err != nil {
		t.Fatalf("100-step batch: %v", err)
	}
	if err := client.Append(bgCtx, d, "after-batch", d, nil); err != nil {
		t.Fatal(err)
	}
	want["after-batch"] = true

	crashAndRestartAll(t, c)
	if got := listNames(t, client, d); !reflect.DeepEqual(got, want) {
		t.Fatalf("%d rows after whole-cluster crash, want %d (100 of them from the batch)", len(got), len(want))
	}
}

// TestNVRAMOversizedPrepareSurvivesCrash is the cross-shard counterpart:
// a prepare whose record does not fit even the cleared log must be
// refused. Its record is the only durable trace of the staged steps, so
// an acknowledged vote without one would vanish in a whole-cluster crash
// while the other shard kept its half of the committed batch.
func TestNVRAMOversizedPrepareSurvivesCrash(t *testing.T) {
	c := newCrashCluster(t, KindGroupNVRAM, 2)
	f := newTxFixture(t, c, "small")
	batch := dir.NewBatch()
	batch.Append(f.dirs[0], f.name, f.dirs[0], nil)
	names := []map[string]bool{{f.name: true}, {}}
	for i := 0; i < 100; i++ {
		name := fmt.Sprintf("%03d-%s", i, strings.Repeat("x", 240))
		batch.Append(f.dirs[1], name, f.dirs[1], nil)
		names[1][name] = true
	}
	_, err := f.coordinator.Apply(bgCtx, batch)
	committed := err == nil
	t.Logf("Apply: %v", err)

	for shard := range names {
		for id := 1; id <= c.ServersPerShard(); id++ {
			c.CrashShardServer(shard, id)
		}
	}
	for shard := range names {
		restartShard(t, c, shard)
	}
	for shard, want := range names {
		if !committed {
			want = map[string]bool{}
		}
		if err := retryFor(crashSettleWait, func() error {
			if got := listNames(t, f.probe, f.dirs[shard]); !reflect.DeepEqual(got, want) {
				return fmt.Errorf("%d of %d rows", len(got), len(want))
			}
			return nil
		}); err != nil {
			t.Fatalf("shard %d after whole-cluster crash (batch committed %v): %v", shard, committed, err)
		}
	}
}

func TestRPCServiceSurvivesPeerCrashDegraded(t *testing.T) {
	c := newTestCluster(t, KindRPC)
	client, cleanup, err := c.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup()
	root, _ := client.Root(bgCtx)
	dir, err := client.CreateDir(bgCtx)
	if err != nil {
		t.Fatal(err)
	}
	if err := client.Append(bgCtx, root, "pre", dir, nil); err != nil {
		t.Fatal(err)
	}
	c.CrashServer(2)
	// The RPC service continues alone (degraded, §1 semantics).
	appendWithRetry(t, client, root, "post", dir, 30*time.Second)
	if _, err := client.Lookup(bgCtx, root, "post"); err != nil {
		t.Fatalf("lookup after degraded append: %v", err)
	}
}

// TestRPCUpdateSeesPeersAcknowledgedCreate: server X acknowledges a
// create once its own copy is made and its intention is stored at Y,
// which makes its copy in the background. An update from a second client
// that lands on Y right after must see the create, so Y makes the copies
// of the intentions it stored before its own apply. Without that, about
// one round in six to two in three found no directory here.
func TestRPCUpdateSeesPeersAcknowledgedCreate(t *testing.T) {
	c := newTestCluster(t, KindRPC)
	x, y := c.machine(1), c.machine(2)
	for round := range 100 {
		created := x.front.Update(&dirsvc.Request{Op: dirsvc.OpCreateDir})
		if created.Status != dirsvc.StatusOK {
			t.Fatalf("round %d: create at X: %v", round, created.Status.Err())
		}
		reply := y.front.Update(&dirsvc.Request{
			Op: dirsvc.OpAppendRow, Dir: created.Cap, Name: "second", Cap: created.Cap,
			Masks: []capability.Rights{capability.AllRights, capability.AllRights, capability.AllRights},
		})
		if reply.Status != dirsvc.StatusOK {
			t.Fatalf("round %d: append at Y right after X acknowledged the create: %v", round, reply.Status.Err())
		}
	}
}

func TestGroupNoMajorityRefusesUpdates(t *testing.T) {
	c := newTestCluster(t, KindGroup)
	client, cleanup, err := c.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup()
	root, _ := client.Root(bgCtx)
	dir, err := client.CreateDir(bgCtx)
	if err != nil {
		t.Fatal(err)
	}
	// Crash two of three servers: no majority anywhere.
	c.CrashServer(2)
	c.CrashServer(3)
	deadline := time.Now().Add(30 * time.Second)
	for {
		err := client.Append(bgCtx, root, "nope", dir, nil)
		if errors.Is(err, dirsvc.ErrNoMajority) {
			return // refused, as required
		}
		if err == nil {
			t.Fatal("update accepted without a majority")
		}
		if time.Now().After(deadline) {
			t.Fatalf("last error: %v, want ErrNoMajority", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// appendWithRetry retries an append until the service accepts it — used
// right after crashes and partitions, while resets and client failover
// are still settling.
func appendWithRetry(t *testing.T, client *dirclient.Client, parent capability.Capability, name string, target capability.Capability, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		err := client.Append(bgCtx, parent, name, target, nil)
		if err == nil {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("append %q never succeeded: %v", name, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func lastNodeID(c *Cluster) sim.NodeID {
	nodes := c.Net.Nodes()
	return nodes[len(nodes)-1].ID()
}

func otherNodes(c *Cluster, excludeServer int) []sim.NodeID {
	m := c.machine(excludeServer)
	skip := map[sim.NodeID]bool{
		m.dirNode.ID():    true,
		m.bulletNode.ID(): true,
		lastNodeID(c):     true,
	}
	var out []sim.NodeID
	for _, nd := range c.Net.Nodes() {
		if !skip[nd.ID()] {
			out = append(out, nd.ID())
		}
	}
	return out
}

// TestImprovementAllowsStayedUpRecovery reproduces the §3.2 scenario:
// servers 1,2,3 up; 3 crashes; {1,2} rebuild; 2 crashes. Server 1 never
// failed. When 3 restarts, plain Skeen refuses ({1,3} does not cover the
// last set {1,2}), but the paper's improvement allows recovery because
// the stayed-up server 1 holds the highest sequence number.
func TestImprovementAllowsStayedUpRecovery(t *testing.T) {
	c := newTestCluster(t, KindGroup)
	client, cleanup, err := c.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup()
	root, _ := client.Root(bgCtx)
	dir, err := client.CreateDir(bgCtx)
	if err != nil {
		t.Fatal(err)
	}
	if err := client.Append(bgCtx, root, "f1", dir, nil); err != nil {
		t.Fatal(err)
	}

	c.CrashServer(3)
	// {1,2} rebuild and perform another update so their config vectors
	// read 110 and their seqnos exceed server 3's.
	appendWithRetry(t, client, root, "f2", dir, 30*time.Second)

	c.CrashServer(2)
	// Server 1 alone: minority, refuses service, but stays up.
	// Restart 3: with the improvement, {1,3} must recover.
	if err := c.RestartServer(3); err != nil {
		t.Fatalf("restart 3: %v", err)
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		_, e1 := client.Lookup(bgCtx, root, "f1")
		_, e2 := client.Lookup(bgCtx, root, "f2")
		if e1 == nil && e2 == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("{1,3} did not recover via the improvement: f1=%v f2=%v", e1, e2)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestStrictSkeenRefusesWithoutLastServer is the §3.2 counterpart with
// the improvement disabled: {1,3} must keep refusing service because
// server 2 may have performed the latest update. (Here server 1 crashed
// too, so the improvement would not apply either; the strict rule is
// what keeps the pair down.)
func TestStrictSkeenRefusesWithoutLastServer(t *testing.T) {
	c, err := New(KindGroup, Options{
		Model:              sim.FastModel(),
		HeartbeatInterval:  testHeartbeat,
		DisableImprovement: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	client, cleanup, err := c.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup()
	root, _ := client.Root(bgCtx)
	dir, err := client.CreateDir(bgCtx)
	if err != nil {
		t.Fatal(err)
	}
	if err := client.Append(bgCtx, root, "f1", dir, nil); err != nil {
		t.Fatal(err)
	}

	// 3 crashes; {1,2} rebuild (vectors 110) and update.
	c.CrashServer(3)
	appendWithRetry(t, client, root, "f2", dir, 30*time.Second)
	// 1 and 2 crash; restart 1 and 3. Their union {1,3} does not cover
	// the last set {1,2}: strict Skeen must refuse to serve. Recovery
	// blocks until it succeeds, so the restarts run asynchronously.
	c.CrashServer(1)
	c.CrashServer(2)
	restartErrs := make(chan error, 2)
	go func() { restartErrs <- c.RestartServer(1) }()
	go func() { restartErrs <- c.RestartServer(3) }()
	// Give recovery ample time; every read must keep failing.
	time.Sleep(2 * time.Second)
	if _, err := client.Lookup(bgCtx, root, "f1"); err == nil {
		t.Fatal("{1,3} served a read although server 2 may hold the latest update")
	}

	// Restart 2: now the last set is covered and service resumes with
	// the latest data.
	if err := c.RestartServer(2); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := <-restartErrs; err != nil {
			t.Fatalf("async restart: %v", err)
		}
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		_, e1 := client.Lookup(bgCtx, root, "f1")
		_, e2 := client.Lookup(bgCtx, root, "f2")
		if e1 == nil && e2 == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("service did not resume after server 2 returned: f1=%v f2=%v", e1, e2)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestSimultaneousRestartSyncsFromHighest: server 3 misses an update;
// then servers 1 and 2 also crash; all three restart together. The
// recovering servers must compare disk-derived sequence numbers and pull
// from whichever survivor is ahead — a fresh process's in-memory counter
// says nothing (regression test for the exchange advertising logic).
func TestSimultaneousRestartSyncsFromHighest(t *testing.T) {
	c := newTestCluster(t, KindGroup)
	client, cleanup, err := c.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup()
	root, _ := client.Root(bgCtx)
	dir, err := client.CreateDir(bgCtx)
	if err != nil {
		t.Fatal(err)
	}
	if err := client.Append(bgCtx, root, "f1", dir, nil); err != nil {
		t.Fatal(err)
	}
	c.CrashServer(3)
	appendWithRetry(t, client, root, "f2", dir, 30*time.Second) // 3 misses this
	c.CrashServer(1)
	c.CrashServer(2)

	restartErrs := make(chan error, 3)
	for id := 1; id <= 3; id++ {
		go func(id int) { restartErrs <- c.RestartServer(id) }(id)
	}
	for i := 0; i < 3; i++ {
		if err := <-restartErrs; err != nil {
			t.Fatalf("restart: %v", err)
		}
	}
	// Every server must now hold both entries; hammer lookups so the
	// port cache visits all three.
	deadline := time.Now().Add(60 * time.Second)
	for i := 0; ; i++ {
		_, e1 := client.Lookup(bgCtx, root, "f1")
		_, e2 := client.Lookup(bgCtx, root, "f2")
		if e1 == nil && e2 == nil && i > 30 {
			return
		}
		if e1 != nil || e2 != nil {
			i = 0 // a stale replica answered: keep hammering
		}
		if time.Now().After(deadline) {
			t.Fatalf("stale state after simultaneous restart: f1=%v f2=%v", e1, e2)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestForceRecoverEscapeHatch covers the §3.1 administrator escape: with
// two of three servers gone for good, the survivor normally refuses all
// requests; after ForceRecover it serves alone.
func TestForceRecoverEscapeHatch(t *testing.T) {
	c := newTestCluster(t, KindGroup)
	client, cleanup, err := c.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup()
	root, _ := client.Root(bgCtx)
	dir, err := client.CreateDir(bgCtx)
	if err != nil {
		t.Fatal(err)
	}
	if err := client.Append(bgCtx, root, "precious", dir, nil); err != nil {
		t.Fatal(err)
	}
	// Two head crashes: servers 2 and 3 are gone forever.
	c.CrashServer(2)
	c.CrashServer(3)

	// Without the escape, the survivor refuses.
	deadline := time.Now().Add(30 * time.Second)
	for {
		_, err := client.Lookup(bgCtx, root, "precious")
		if errors.Is(err, dirsvc.ErrNoMajority) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("survivor answered without a majority: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The administrator forces it up.
	if err := c.ForceRecover(1); err != nil {
		t.Fatal(err)
	}
	deadline = time.Now().Add(30 * time.Second)
	for {
		if _, err := client.Lookup(bgCtx, root, "precious"); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("forced server never served")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := client.Append(bgCtx, root, "post-force", dir, nil); err != nil {
		t.Fatalf("forced server refused an update: %v", err)
	}
}

// TestDirectoryDeletionSurvivesFullRestart exercises the reason the
// commit block carries a sequence number (§3, Fig. 4): when a directory
// is deleted, its per-directory record disappears, so the deletion must
// be remembered in the commit block — otherwise recovery after a full
// restart could resurrect it from a stale replica.
func TestDirectoryDeletionSurvivesFullRestart(t *testing.T) {
	c := newTestCluster(t, KindGroup)
	client, cleanup, err := c.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup()
	root, _ := client.Root(bgCtx)
	dir, err := client.CreateDir(bgCtx)
	if err != nil {
		t.Fatal(err)
	}
	if err := client.Append(bgCtx, root, "doomed", dir, nil); err != nil {
		t.Fatal(err)
	}
	if err := client.Delete(bgCtx, root, "doomed"); err != nil {
		t.Fatal(err)
	}
	if err := client.DeleteDir(bgCtx, dir); err != nil {
		t.Fatal(err)
	}

	// Full service restart.
	for id := 1; id <= 3; id++ {
		c.CrashServer(id)
	}
	restartErrs := make(chan error, 3)
	for id := 1; id <= 3; id++ {
		go func(id int) { restartErrs <- c.RestartServer(id) }(id)
	}
	for i := 0; i < 3; i++ {
		if err := <-restartErrs; err != nil {
			t.Fatalf("restart: %v", err)
		}
	}
	// The deleted directory must stay deleted at every replica.
	deadline := time.Now().Add(30 * time.Second)
	for i := 0; ; i++ {
		_, err := client.List(bgCtx, dir, 0)
		if errors.Is(err, dirsvc.ErrNotFound) || errors.Is(err, capability.ErrBadCapability) {
			if i > 20 {
				return
			}
		} else if err == nil {
			t.Fatal("deleted directory resurrected after full restart")
		} else {
			i = 0 // transient (recovery still settling)
		}
		if time.Now().After(deadline) {
			t.Fatalf("service never settled: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestColumnVisibilityEndToEnd covers the protection-domain columns of
// §2: a capability restricted to read rights sees rows through the
// "other" column's masks, with hidden rows filtered out.
func TestColumnVisibilityEndToEnd(t *testing.T) {
	c := newTestCluster(t, KindGroup)
	client, cleanup, err := c.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup()
	dir, err := client.CreateDir(bgCtx) // columns: owner, group, other
	if err != nil {
		t.Fatal(err)
	}
	target, err := client.CreateDir(bgCtx)
	if err != nil {
		t.Fatal(err)
	}
	// "public" is visible to everyone read-only; "secret" has no rights
	// in the third column and must be invisible there.
	if err := client.Append(bgCtx, dir, "public", target,
		[]capability.Rights{capability.AllRights, capability.RightRead, capability.RightRead}); err != nil {
		t.Fatal(err)
	}
	if err := client.Append(bgCtx, dir, "secret", target,
		[]capability.Rights{capability.AllRights, capability.AllRights, 0}); err != nil {
		t.Fatal(err)
	}

	// Owner column: both rows, full rights on "secret".
	rows, err := client.List(bgCtx, dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("owner sees %d rows, want 2", len(rows))
	}
	// Third column: only "public", and its capability is restricted.
	rows, err = client.List(bgCtx, dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0].Name != "public" {
		t.Fatalf("other column sees %+v, want only public", rows)
	}
	if rows[0].Cap.Rights != capability.RightRead {
		t.Fatalf("other column rights = %v, want read-only", rows[0].Cap.Rights)
	}
}
