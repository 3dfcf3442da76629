// Benchmarks regenerating every table and figure of the paper's
// evaluation (§4), the ablations listed in ARCHITECTURE.md ("Simulated
// hardware: calibration and ablations"), and the five scaling scenarios
// of this repo's own additions (shard write scaling, cross-shard
// batches with and without contention, the hot-shard split, whole-shard
// recovery). All run under sim.PaperModel, whose latencies are
// calibrated to the paper's hardware (Sun3/60s, 10 Mbit/s Ethernet,
// Wren IV disks), so the reported milliseconds are directly comparable
// to the paper's:
//
//	Fig. 7 append-delete: group 184 ms, rpc 192 ms, nfs 87 ms, nvram 27 ms
//	Fig. 7 tmp file:      group 215 ms, rpc 277 ms, nfs 111 ms, nvram 52 ms
//	Fig. 7 lookup:        ≈5 ms everywhere
//	Fig. 8 lookup plateau: group ≈652/s, rpc ≈520/s
//	Fig. 9 update plateau: group ≈5 pairs/s, rpc ≈5, nvram ≈45
//
// These are single, unpinned runs with no spread: figures to read, not
// to gate on. The gated benchmark is bench/ (BENCHMARK.json).
package faultdir

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"

	"dirsvc/dir"
	"dirsvc/internal/bullet"
	"dirsvc/internal/capability"
	"dirsvc/internal/dirclient"
	"dirsvc/internal/dirsvc"
	"dirsvc/internal/flip"
	"dirsvc/internal/group"
	"dirsvc/internal/rpc"
	"dirsvc/internal/sim"
	"dirsvc/internal/vdisk"
)

// benchKinds are the four columns of Fig. 7.
var benchKinds = []struct {
	name string
	kind Kind
}{
	{"group", KindGroup},
	{"rpc", KindRPC},
	{"nfs", KindLocal},
	{"group_nvram", KindGroupNVRAM},
}

// paperCluster boots a cluster on the paper's hardware. New returns once
// every replica has recovered into its shard's one group.
func paperCluster(b *testing.B, kind Kind, opts Options) *Cluster {
	b.Helper()
	opts.Model = sim.PaperModel()
	return bootCluster(b, kind, opts)
}

// benchClients creates n clients; Cluster.Close releases them.
func benchClients(b *testing.B, c *Cluster, n int) []*dirclient.Client {
	b.Helper()
	clients := make([]*dirclient.Client, n)
	for i := range clients {
		var err error
		if clients[i], _, err = c.NewClient(); err != nil {
			b.Fatal(err)
		}
	}
	return clients
}

// benchDir creates a working directory homed on the given shard.
func benchDir(b *testing.B, client *dirclient.Client, shard int) capability.Capability {
	b.Helper()
	var d capability.Capability
	if err := retryTransient(func() (err error) {
		d, err = client.CreateDirOn(bgCtx, shard)
		return err
	}); err != nil {
		b.Fatalf("create working dir on shard %d: %v", shard, err)
	}
	return d
}

// seededDir is benchDir plus one row under the given name.
func seededDir(b *testing.B, client *dirclient.Client, shard int, name string) capability.Capability {
	b.Helper()
	d := benchDir(b, client, shard)
	if err := retryTransient(func() error { return client.Append(bgCtx, d, name, d, nil) }); err != nil {
		b.Fatal(err)
	}
	return d
}

// retryTransient retries an operation through overload churn: under
// heavy write load every server thread is busy, so clients bounce
// between NOTHERE evictions and timeouts exactly as Amoeba clients did —
// and, like the Amoeba kernel, they simply try again.
func retryTransient(op func() error) error {
	var err error
	for attempt := 0; attempt < 60; attempt++ {
		err = op()
		if err == nil || !(errors.Is(err, rpc.ErrTimeout) || errors.Is(err, rpc.ErrNoServer) ||
			errors.Is(err, dirsvc.ErrConflict) || errors.Is(err, dirsvc.ErrNoMajority)) {
			return err
		}
		time.Sleep(time.Duration(attempt+1) * 5 * time.Millisecond)
	}
	return err
}

// pairOp appends a name to a directory and deletes it again — the
// paper's unit of update work.
func pairOp(client *dirclient.Client, d capability.Capability, name string) error {
	if err := retryTransient(func() error { return client.Append(bgCtx, d, name, d, nil) }); err != nil {
		return fmt.Errorf("append: %w", err)
	}
	if err := retryTransient(func() error { return client.Delete(bgCtx, d, name) }); err != nil {
		return fmt.Errorf("delete: %w", err)
	}
	return nil
}

// lookupOp is one directory lookup.
func lookupOp(client *dirclient.Client, d capability.Capability, name string) error {
	return retryTransient(func() error {
		_, err := client.Lookup(bgCtx, d, name)
		return err
	})
}

// loopStats is what one closedLoop run measured: the rate (ops/s) of a
// windowed run or the mean (ms per op) of a counted one, and the
// per-op latency percentiles.
type loopStats struct {
	headline, p50MS, p99MS float64
}

// report emits the run as benchmark metrics, the headline under the
// given name ("pairs/s", "ms/pair").
func (s loopStats) report(b *testing.B, metric string) {
	b.ReportMetric(s.headline, metric)
	b.ReportMetric(s.p50MS, "p50-ms")
	b.ReportMetric(s.p99MS, "p99-ms")
}

// window returns a channel closed after b.N measurement windows of d.
func window(b *testing.B, d time.Duration) <-chan struct{} {
	stop := make(chan struct{})
	time.AfterFunc(time.Duration(b.N)*d, func() { close(stop) })
	return stop
}

// closedLoop is the one measurement loop of this file: `workers`
// goroutines each call op(worker, i) back to back, i = 0, 1, …, until
// stop is closed — or exactly b.N times each when stop is nil (the
// single-client latency rows). Every call is timed; an error from any
// worker fails the benchmark.
func closedLoop(b *testing.B, workers int, stop <-chan struct{}, op func(worker, i int) error) loopStats {
	b.Helper()
	lats := make([][]time.Duration, workers)
	errs := make(chan error, workers)
	var wg sync.WaitGroup
	b.ResetTimer()
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; stop != nil || i < b.N; i++ {
				select {
				case <-stop:
					return
				default:
				}
				opStart := time.Now()
				if err := op(w, i); err != nil {
					errs <- err
					return
				}
				lats[w] = append(lats[w], time.Since(opStart))
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	b.StopTimer()
	close(errs)
	if err := <-errs; err != nil {
		b.Fatal(err)
	}
	var all []time.Duration
	for _, l := range lats {
		all = append(all, l...)
	}
	if len(all) == 0 {
		b.Fatal("no operation completed")
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	headline := float64(len(all)) / elapsed.Seconds()
	if stop == nil {
		headline = ms(elapsed) / float64(b.N)
	}
	return loopStats{headline, ms(all[(len(all)-1)/2]), ms(all[(len(all)-1)*99/100])}
}

// benchAppendDelete is Fig. 7 row 1 on one cluster: the time to append
// a (name, capability) pair to a directory and delete it again. One op
// is one pair, as in the paper.
func benchAppendDelete(b *testing.B, kind Kind, opts Options) {
	client := benchClients(b, paperCluster(b, kind, opts), 1)[0]
	d := benchDir(b, client, 0)
	if err := pairOp(client, d, "warm"); err != nil { // locate, caches
		b.Fatal(err)
	}
	closedLoop(b, 1, nil, func(_, i int) error {
		return pairOp(client, d, fmt.Sprintf("tmp%04d", i))
	}).report(b, "ms/pair")
}

// BenchmarkFig7AppendDelete regenerates Fig. 7 row 1.
func BenchmarkFig7AppendDelete(b *testing.B) {
	for _, k := range benchKinds {
		b.Run(k.name, func(b *testing.B) { benchAppendDelete(b, k.kind, Options{}) })
	}
}

// BenchmarkFig7TmpFile regenerates Fig. 7 row 2: create a 4-byte file,
// register it with the directory service, look it up, read it back, and
// delete the name — the compiler temporary-file cycle.
func BenchmarkFig7TmpFile(b *testing.B) {
	for _, k := range benchKinds {
		b.Run(k.name, func(b *testing.B) {
			c := paperCluster(b, k.kind, Options{})
			client := benchClients(b, c, 1)[0]
			d := benchDir(b, client, 0)
			files := c.NewFileClient(client)
			cycle := func(_, i int) error {
				name := fmt.Sprintf("t%04d", i)
				fcap, err := files.Create([]byte{1, 2, 3, 4})
				if err != nil {
					return fmt.Errorf("create file: %w", err)
				}
				if err := client.Append(bgCtx, d, name, fcap, nil); err != nil {
					return fmt.Errorf("register: %w", err)
				}
				got, err := client.Lookup(bgCtx, d, name)
				if err != nil {
					return fmt.Errorf("lookup: %w", err)
				}
				if _, err := files.Read(got); err != nil {
					return fmt.Errorf("read file: %w", err)
				}
				if err := client.Delete(bgCtx, d, name); err != nil {
					return fmt.Errorf("delete name: %w", err)
				}
				return files.Delete(fcap)
			}
			if err := cycle(0, -1); err != nil { // warm
				b.Fatal(err)
			}
			closedLoop(b, 1, nil, cycle).report(b, "ms/cycle")
		})
	}
}

// BenchmarkFig7Lookup regenerates Fig. 7 row 3: a cached directory
// lookup (≈5 ms in every implementation).
func BenchmarkFig7Lookup(b *testing.B) {
	for _, k := range benchKinds {
		b.Run(k.name, func(b *testing.B) {
			client := benchClients(b, paperCluster(b, k.kind, Options{}), 1)[0]
			d := seededDir(b, client, 0, "target")
			if err := lookupOp(client, d, "target"); err != nil { // warm
				b.Fatal(err)
			}
			closedLoop(b, 1, nil, func(_, _ int) error { return lookupOp(client, d, "target") }).report(b, "ms/lookup")
		})
	}
}

// fig8Kinds are the three series of Fig. 8 / Fig. 9.
var fig8Kinds = []struct {
	name string
	kind Kind
}{
	{"group", KindGroup},
	{"group_nvram", KindGroupNVRAM},
	{"rpc", KindRPC},
}

// BenchmarkFig8LookupThroughput regenerates Fig. 8: total lookups per
// second for 1–7 clients. Server selection runs through the port-cache
// heuristic, so low client counts show the paper's uneven distribution.
// clients=7 on group_nvram is the abstract's 627 lookups/s.
func BenchmarkFig8LookupThroughput(b *testing.B) {
	for _, k := range fig8Kinds {
		for n := 1; n <= 7; n += 2 {
			b.Run(fmt.Sprintf("%s/clients=%d", k.name, n), func(b *testing.B) {
				c := paperCluster(b, k.kind, Options{})
				d := seededDir(b, benchClients(b, c, 1)[0], 0, "target")
				clients := benchClients(b, c, n)
				closedLoop(b, n, window(b, 1500*time.Millisecond), func(w, _ int) error {
					return lookupOp(clients[w], d, "target")
				}).report(b, "lookups/s")
			})
		}
	}
}

// BenchmarkFig9UpdateThroughput regenerates Fig. 9: append-delete pairs
// per second on one shared directory for 1–7 clients (write throughput
// is twice this, as both halves of a pair are writes). clients=7 on
// group_nvram is the abstract's 88 updates/s.
func BenchmarkFig9UpdateThroughput(b *testing.B) {
	for _, k := range fig8Kinds {
		for n := 1; n <= 7; n += 2 {
			b.Run(fmt.Sprintf("%s/clients=%d", k.name, n), func(b *testing.B) {
				clients := benchClients(b, paperCluster(b, k.kind, Options{}), n)
				d := benchDir(b, clients[0], 0)
				closedLoop(b, n, window(b, 2*time.Second), func(w, i int) error {
					return pairOp(clients[w], d, fmt.Sprintf("c%dn%d", w, i))
				}).report(b, "pairs/s")
			})
		}
	}
}

// BenchmarkMix98Reads drives the production workload shape of §2 — 98%
// of directory operations are reads — against the group and RPC
// services. This is the regime both designs optimize for; the gap
// between them here is much smaller than under pure writes.
func BenchmarkMix98Reads(b *testing.B) {
	for _, k := range fig8Kinds {
		b.Run(k.name, func(b *testing.B) {
			c := paperCluster(b, k.kind, Options{})
			d := seededDir(b, benchClients(b, c, 1)[0], 0, "target")
			clients := benchClients(b, c, 4)
			closedLoop(b, 4, window(b, 1500*time.Millisecond), func(w, i int) error {
				if i%100 < 98 {
					return lookupOp(clients[w], d, "target")
				}
				return pairOp(clients[w], d, fmt.Sprintf("w%dj%d", w, i))
			}).report(b, "ops/s")
		})
	}
}

// BenchmarkShardWriteScaling measures aggregate write throughput at
// G ∈ {1, 2, 4} replica groups: twelve clients drive append-delete
// pairs, client i against its own directory on shard i mod G. Each
// shard is an independent instance of the paper's protocol, so the
// global write bottleneck — one totally-ordered broadcast stream —
// multiplies by G. G=1 is twelve independent directories on one group.
func BenchmarkShardWriteScaling(b *testing.B) {
	for _, g := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("shards=%d", g), func(b *testing.B) {
			clients := benchClients(b, paperCluster(b, KindGroupNVRAM, Options{Shards: g}), 12)
			dirs := make([]capability.Capability, len(clients))
			for i, client := range clients {
				dirs[i] = benchDir(b, client, i%g)
			}
			closedLoop(b, len(clients), window(b, 2*time.Second), func(w, i int) error {
				return pairOp(clients[w], dirs[w], fmt.Sprintf("c%dn%d", w, i))
			}).report(b, "pairs/s")
		})
	}
}

// benchBatches measures sustained 8-step atomic batches on two shards:
// "single" keeps each client's batch on one shard (the one-broadcast
// fast path), "cross" spreads its steps over both and commits through
// the client's two-phase protocol — the price of distributed atomicity.
// Uncontended, every client works in directories of its own; contended,
// all clients name the same directory per shard, so prepares collide on
// its object lock and park in the server-side lock wait. The
// window spans several NVRAM flush cycles, each of which stalls a shard
// for 0.7–1.2 s at paper scale, so that a run's rate does not hang on
// whether one or two flushes fell inside it.
func benchBatches(b *testing.B, contended bool) {
	const shards, steps, nclients = 2, 8, 12
	for _, mode := range []string{"single", "cross"} {
		b.Run(mode, func(b *testing.B) {
			clients := benchClients(b, paperCluster(b, KindGroupNVRAM, Options{Shards: shards}), nclients)
			dirsets := make([][]capability.Capability, nclients)
			for i, client := range clients {
				switch {
				case contended && i > 0:
					dirsets[i] = dirsets[0]
				case mode == "single":
					dirsets[i] = []capability.Capability{benchDir(b, client, i%shards)}
				default:
					for s := 0; s < shards; s++ {
						dirsets[i] = append(dirsets[i], benchDir(b, client, s))
					}
				}
			}
			closedLoop(b, nclients, window(b, 8*time.Second), func(w, i int) error {
				batch := dir.NewBatch()
				for k := 0; k < steps; k++ {
					d := dirsets[w][k%len(dirsets[w])]
					name := fmt.Sprintf("b%dk%d", w, k)
					if i%2 == 0 {
						batch.Append(d, name, d, nil)
					} else {
						batch.Delete(d, name)
					}
				}
				return retryTransient(func() error {
					_, err := clients[w].Apply(bgCtx, batch)
					return err
				})
			}).report(b, "batches/s")
		})
	}
}

// BenchmarkCrossShardBatch is benchBatches without contention.
func BenchmarkCrossShardBatch(b *testing.B) { benchBatches(b, false) }

// BenchmarkCrossShardBatchContended is benchBatches on shared
// directories.
func BenchmarkCrossShardBatchContended(b *testing.B) { benchBatches(b, true) }

// shardReads sums every replica's served-read counter per shard.
func shardReads(c *Cluster) []uint64 {
	out := make([]uint64, c.Shards())
	for s := range out {
		for _, n := range c.ShardReadCounts(s) {
			out[s] += n
		}
	}
	return out
}

// BenchmarkHotShardSplit splits a hot shard under live read traffic.
// The deployment boots one active shard and one reserve; 24 directories
// land on the active one and twelve readers look them up for the whole
// run. After one window the coordinator polls SplitIfHot until the
// piggybacked load hints cross the threshold and the online split runs —
// epoch bump, per-object copy-and-flip migration, seal, stub drop — then
// the readers get a second window. Reported: the readers' rate and
// latency over the whole run, the split's duration, and the share of all
// reads the original shard served in the window before and after.
func BenchmarkHotShardSplit(b *testing.B) {
	const (
		ndirs, readers = 24, 12
		win            = 1500 * time.Millisecond
		hot            = 8 // one request queued on one replica in three
	)
	c := paperCluster(b, KindGroup, Options{Shards: 2, ActiveShards: 1, ReadBalance: true, Workers: 16})
	coord := benchClients(b, c, 1)[0]
	dirs := make([]capability.Capability, ndirs)
	for i := range dirs {
		dirs[i] = seededDir(b, coord, 0, "row")
	}
	sweep := func() error {
		for _, d := range dirs {
			if err := lookupOp(coord, d, "row"); err != nil {
				return err
			}
		}
		return nil
	}

	// hotShare is shard 0's fraction of the reads served since `from`.
	hotShare := func(from []uint64) float64 {
		to := shardReads(c)
		return float64(to[0]-from[0]) / float64(to[0]-from[0]+to[1]-from[1])
	}
	var (
		before, after float64
		splitTime     time.Duration
	)
	coordinate := func() error {
		base := shardReads(c)
		time.Sleep(win)
		before = hotShare(base)
		deadline := time.Now().Add(20 * time.Second)
		for split := false; !split; {
			// The sweep is what samples the hints SplitIfHot decides on.
			if err := sweep(); err != nil {
				return err
			}
			splitStart := time.Now()
			var err error
			if split, _, err = coord.SplitIfHot(bgCtx, hot); err != nil {
				return fmt.Errorf("split: %w", err)
			}
			splitTime = time.Since(splitStart)
			if !split && time.Now().After(deadline) {
				return fmt.Errorf("shard never hot: load hints %v under %d readers", coord.LoadHints(), readers)
			}
		}
		base = shardReads(c)
		time.Sleep(win)
		after = hotShare(base)
		return nil
	}
	clients := benchClients(b, c, readers)
	stop := make(chan struct{})
	splitErr := make(chan error, 1)
	go func() {
		defer close(stop)
		splitErr <- coordinate()
	}()
	stats := closedLoop(b, readers, stop, func(w, i int) error {
		return lookupOp(clients[w], dirs[(w+i*7)%ndirs], "row")
	})
	if err := <-splitErr; err != nil {
		b.Fatal(err)
	}
	if err := sweep(); err != nil { // every directory still resolves, through its new home
		b.Fatalf("after split: %v", err)
	}
	stats.report(b, "lookups/s")
	b.ReportMetric(float64(splitTime)/float64(time.Millisecond), "split-ms")
	b.ReportMetric(before, "hot-share-before")
	b.ReportMetric(after, "hot-share-after")
}

// BenchmarkShardRecovery crashes every replica of a populated shard and
// times the concurrent whole-shard reboot — each replica loads its local
// durable state, the group reassembles, and the servers start serving —
// under the three durability layouts: plain write-through (object table
// + Bullet images), the storage engine replaying its full write-ahead
// log, and the engine installing a fresh checkpoint with an empty
// suffix. One op is one crash + reboot; recovery seals what it replayed
// into a checkpoint, so engine_full_log means what it says at
// -benchtime 1x only.
func BenchmarkShardRecovery(b *testing.B) {
	const ndirs = 40
	// The engine log is sized so the full-log run really replays every
	// record instead of tripping the inline checkpoint fallback, and the
	// background checkpoint is off so the two engine variants stay
	// distinct.
	engine := Options{Workers: 8, DiskBlocks: 16384, DiskEngine: true, EngineBlocks: 4096, IdleFlush: time.Hour}
	for _, v := range []struct {
		name       string
		opts       Options
		checkpoint bool
	}{
		{"write_through", Options{Workers: 8}, false},
		{"engine_full_log", engine, false},
		{"engine_checkpoint", engine, true},
	} {
		b.Run(v.name, func(b *testing.B) {
			c := paperCluster(b, KindGroup, v.opts)
			client := benchClients(b, c, 1)[0]
			for i := 0; i < ndirs; i++ {
				seededDir(b, client, 0, "payload")
			}
			if v.checkpoint {
				if err := c.CheckpointShard(0); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				crashAndRestartAll(b, c)
			}
			b.ReportMetric(float64(b.Elapsed())/float64(time.Millisecond)/float64(b.N), "ms/recovery")
		})
	}
}

// benchSend times SendToGroup with resilience degree r in a triplicated
// group, from a member that is not the sequencer (full message count).
func benchSend(b *testing.B, r int) {
	net := sim.NewNetwork(sim.PaperModel(), 1)
	cfg := group.Config{Port: capability.PortFromString("bench-group"), Resilience: r}
	var stacks []*flip.Stack
	var members []*group.Member
	b.Cleanup(func() {
		for _, m := range members {
			m.Close()
		}
		for _, s := range stacks {
			s.Close()
		}
	})
	for i := 0; i < 3; i++ {
		stacks = append(stacks, flip.NewStack(net.AddNode("m")))
		var m *group.Member
		var err error
		if i == 0 {
			m, err = group.Create(stacks[i], cfg)
		} else {
			m, err = group.Join(stacks[i], cfg, 10*time.Second)
		}
		if err != nil {
			b.Fatal(err)
		}
		members = append(members, m)
	}
	payload := make([]byte, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := members[1].Send(payload); err != nil {
			b.Fatal(err)
		}
	}
}

// benchEcho boots an RPC echo server and a client with a warm port
// cache on a two-node network.
func benchEcho(b *testing.B) (*rpc.Client, capability.Port) {
	net := sim.NewNetwork(sim.PaperModel(), 1)
	port := capability.PortFromString("bench-rpc")
	clientStack := flip.NewStack(net.AddNode("client"))
	client, err := rpc.NewClient(clientStack)
	if err != nil {
		b.Fatal(err)
	}
	serverStack := flip.NewStack(net.AddNode("server"))
	srv, err := rpc.NewServer(serverStack, port)
	if err != nil {
		b.Fatal(err)
	}
	stop := srv.ServeFunc(2, func(req *rpc.Request) []byte { return req.Payload })
	b.Cleanup(func() {
		srv.Close()
		stop()
		clientStack.Close()
		serverStack.Close()
	})
	if _, err := client.Trans(port, nil); err != nil { // warm locate
		b.Fatal(err)
	}
	return client, port
}

// BenchmarkAblationResilience measures SendToGroup latency for r = 0, 1,
// 2 in a triplicated group — the §1 performance/fault-tolerance
// trade-off ("By setting r, the programmer can trade performance against
// fault tolerance").
func BenchmarkAblationResilience(b *testing.B) {
	for r := 0; r <= 2; r++ {
		b.Run(fmt.Sprintf("r=%d", r), func(b *testing.B) { benchSend(b, r) })
	}
}

// BenchmarkAblationGroupVsNRpcs compares one SendToGroup(r=2) against a
// k-fold sequence of point-to-point RPCs — the paper's §3.1 argument
// that a triplicated RPC service would pay 4 RPCs where the group
// service pays one multicast exchange.
func BenchmarkAblationGroupVsNRpcs(b *testing.B) {
	b.Run("group_send_r2", func(b *testing.B) { benchSend(b, 2) })
	for k := 1; k <= 4; k++ {
		b.Run(fmt.Sprintf("rpcs=%d", k), func(b *testing.B) {
			client, port := benchEcho(b)
			payload := make([]byte, 64)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := 0; j < k; j++ {
					if _, err := client.Trans(port, payload); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkAblationNVRAMSize sweeps the NVRAM capacity (the paper used
// 24 KB; Baker et al. [32] report that small NVRAM absorbs most writes).
// Larger logs absorb more update bursts before a flush stalls them.
func BenchmarkAblationNVRAMSize(b *testing.B) {
	for _, kb := range []int{4, 24, 96} {
		b.Run(fmt.Sprintf("kb=%d", kb), func(b *testing.B) {
			benchAppendDelete(b, KindGroupNVRAM, Options{NVRAMSize: kb * 1024})
		})
	}
}

// BenchmarkAblationMessageVsDisk quantifies §3.1's cost claim: "the cost
// of sending a message is an order of magnitude less than the cost of a
// disk operation".
func BenchmarkAblationMessageVsDisk(b *testing.B) {
	b.Run("message", func(b *testing.B) {
		net := sim.NewNetwork(sim.PaperModel(), 1)
		a := net.AddNode("a")
		c := net.AddNode("b")
		sa := flip.NewStack(a)
		sb := flip.NewStack(c)
		port := capability.PortFromString("msg")
		l, err := sb.Register(port)
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { sa.Close(); sb.Close() })
		payload := make([]byte, 64)
		// Per-frame costs are sub-millisecond and accumulate as sleep
		// debt, so measure batches and report the per-message average.
		const batch = 500
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			start := time.Now()
			for j := 0; j < batch; j++ {
				if err := sa.Send(c.ID(), port, payload); err != nil {
					b.Fatal(err)
				}
				if _, ok := l.Recv(); !ok {
					b.Fatal("listener closed")
				}
			}
			b.ReportMetric(float64(time.Since(start))/batch/1e6, "ms/msg")
		}
	})
	b.Run("disk_op", func(b *testing.B) {
		disk := vdisk.New(sim.PaperModel(), 64)
		payload := make([]byte, vdisk.BlockSize)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := disk.WriteBlock(i%64, payload); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSubstrates microbenchmarks the building blocks at paper scale
// (sanity anchors for the calibration table in ARCHITECTURE.md,
// "Simulated hardware: calibration and ablations").
func BenchmarkSubstrates(b *testing.B) {
	b.Run("rpc_null", func(b *testing.B) {
		client, port := benchEcho(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := client.Trans(port, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("bullet_create_512B", func(b *testing.B) {
		model := sim.PaperModel()
		disk := vdisk.New(model, 1<<14)
		store, err := bullet.NewStore(capability.PortFromString("bench-bullet"), disk)
		if err != nil {
			b.Fatal(err)
		}
		data := make([]byte, 512)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := store.Create(data); err != nil {
				b.Fatal(err)
			}
		}
	})
}
