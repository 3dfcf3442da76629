// Package harness drives the paper's evaluation (§4): the single-client
// latency experiments of Fig. 7, the multi-client throughput sweeps of
// Figs. 8 and 9, and the ablation experiments called out in
// ARCHITECTURE.md ("Simulated hardware: calibration and ablations").
// It measures wall-clock time, which — under sim.PaperModel — is the
// calibrated simulated time of the 1993 hardware, so results are
// directly comparable with the paper's tables.
package harness

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	faultdir "dirsvc"

	"dirsvc/dir"
	"dirsvc/internal/capability"
	"dirsvc/internal/dirclient"
	"dirsvc/internal/dirsvc"
	"dirsvc/internal/rpc"
)

// bgCtx is the unbounded context used where no deadline applies.
var bgCtx = context.Background()

// Latencies holds one Fig. 7 cell set for one service kind.
type Latencies struct {
	Kind         faultdir.Kind
	AppendDelete time.Duration // append+delete pair (Fig. 7 row 1)
	TmpFile      time.Duration // tmp-file cycle (Fig. 7 row 2)
	Lookup       time.Duration // directory lookup (Fig. 7 row 3)
}

// setupBench prepares a client, the root and a working directory.
func setupBench(c *faultdir.Cluster) (*dirclient.Client, func(), capability.Capability, capability.Capability, error) {
	client, cleanup, err := c.NewClient()
	if err != nil {
		return nil, nil, capability.Capability{}, capability.Capability{}, err
	}
	root, err := client.Root(bgCtx)
	if err != nil {
		cleanup()
		return nil, nil, capability.Capability{}, capability.Capability{}, err
	}
	dir, err := client.CreateDir(bgCtx)
	if err != nil {
		cleanup()
		return nil, nil, capability.Capability{}, capability.Capability{}, err
	}
	return client, cleanup, root, dir, nil
}

// MeasureAppendDelete times append+delete pairs on a directory — the
// paper's first experiment ("appending and deleting a name for a
// temporary file").
func MeasureAppendDelete(c *faultdir.Cluster, pairs int) (time.Duration, error) {
	client, cleanup, _, dir, err := setupBench(c)
	if err != nil {
		return 0, err
	}
	defer cleanup()
	// Warm-up pair: locate, caches.
	if err := pairOp(client, dir, "warm"); err != nil {
		return 0, err
	}
	start := time.Now()
	for i := 0; i < pairs; i++ {
		if err := pairOp(client, dir, fmt.Sprintf("tmp%04d", i)); err != nil {
			return 0, err
		}
	}
	return time.Since(start) / time.Duration(pairs), nil
}

func pairOp(client *dirclient.Client, dir capability.Capability, name string) error {
	if err := retryTransient(func() error { return client.Append(bgCtx, dir, name, dir, nil) }); err != nil {
		return fmt.Errorf("append: %w", err)
	}
	if err := retryTransient(func() error { return client.Delete(bgCtx, dir, name) }); err != nil {
		return fmt.Errorf("delete: %w", err)
	}
	return nil
}

// retryTransient retries an operation through overload churn: under
// heavy write load every server thread is busy, so clients bounce
// between NOTHERE evictions and timeouts exactly as Amoeba clients did —
// and, like the Amoeba kernel, they simply try again.
func retryTransient(op func() error) error {
	var err error
	for attempt := 0; attempt < 60; attempt++ {
		err = op()
		switch {
		case err == nil:
			return nil
		case errors.Is(err, rpc.ErrTimeout), errors.Is(err, rpc.ErrNoServer),
			errors.Is(err, dirsvc.ErrConflict), errors.Is(err, dirsvc.ErrNoMajority):
			time.Sleep(time.Duration(attempt+1) * 5 * time.Millisecond)
		default:
			return err
		}
	}
	return err
}

// MeasureTmpFile times the paper's second experiment: create a 4-byte
// file, register its capability, look the name up, read the file back,
// and delete the name — the life of a compiler temporary.
func MeasureTmpFile(c *faultdir.Cluster, iterations int) (time.Duration, error) {
	client, cleanup, _, dir, err := setupBench(c)
	if err != nil {
		return 0, err
	}
	defer cleanup()
	files := c.NewFileClient(client)

	run := func(name string) error {
		fcap, err := files.Create([]byte{1, 2, 3, 4})
		if err != nil {
			return fmt.Errorf("create file: %w", err)
		}
		if err := client.Append(bgCtx, dir, name, fcap, nil); err != nil {
			return fmt.Errorf("register: %w", err)
		}
		got, err := client.Lookup(bgCtx, dir, name)
		if err != nil {
			return fmt.Errorf("lookup: %w", err)
		}
		if _, err := files.Read(got); err != nil {
			return fmt.Errorf("read file: %w", err)
		}
		if err := client.Delete(bgCtx, dir, name); err != nil {
			return fmt.Errorf("delete name: %w", err)
		}
		return files.Delete(fcap)
	}
	if err := run("warm"); err != nil {
		return 0, err
	}
	start := time.Now()
	for i := 0; i < iterations; i++ {
		if err := run(fmt.Sprintf("t%04d", i)); err != nil {
			return 0, err
		}
	}
	return time.Since(start) / time.Duration(iterations), nil
}

// MeasureLookup times cached directory lookups — the paper's third
// experiment (5–6 ms across all implementations).
func MeasureLookup(c *faultdir.Cluster, lookups int) (time.Duration, error) {
	client, cleanup, _, dir, err := setupBench(c)
	if err != nil {
		return 0, err
	}
	defer cleanup()
	if err := client.Append(bgCtx, dir, "target", dir, nil); err != nil {
		return 0, err
	}
	if _, err := client.Lookup(bgCtx, dir, "target"); err != nil { // warm
		return 0, err
	}
	start := time.Now()
	for i := 0; i < lookups; i++ {
		if _, err := client.Lookup(bgCtx, dir, "target"); err != nil {
			return 0, err
		}
	}
	return time.Since(start) / time.Duration(lookups), nil
}

// Throughput is one point of Fig. 8 / Fig. 9, with per-operation latency
// percentiles over the measurement window.
type Throughput struct {
	Clients   int
	OpsPerSec float64
	// P50, P99 and P999 are the median, 99th- and 99.9th-percentile
	// per-operation latencies (an operation is whatever the experiment
	// counts: a lookup, an append-delete pair, one mixed-workload op).
	// P999 equals the window maximum when fewer than 1000 samples were
	// recorded — read it as "extreme tail", not a calibrated quantile.
	P50, P99, P999 time.Duration
}

// latSamples accumulates per-operation durations across worker
// goroutines; each goroutine appends to its own slot, so recording is
// contention-free.
type latSamples [][]time.Duration

func newLatSamples(workers int) latSamples { return make(latSamples, workers) }

func (l latSamples) add(worker int, d time.Duration) { l[worker] = append(l[worker], d) }

// percentiles merges and sorts every worker's samples and returns the
// p50, p99 and p99.9 latencies (zero when nothing was recorded).
func (l latSamples) percentiles() (p50, p99, p999 time.Duration) {
	var all []time.Duration
	for _, s := range l {
		all = append(all, s...)
	}
	if len(all) == 0 {
		return 0, 0, 0
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	at := func(p float64) time.Duration {
		i := int(p * float64(len(all)-1))
		return all[i]
	}
	return at(0.50), at(0.99), at(0.999)
}

// MeasureLookupThroughput reproduces Fig. 8: n clients issue
// back-to-back lookups for the window; the result is total lookups per
// second. Server selection runs through the port-cache heuristic, so low
// client counts show the paper's uneven distribution.
func MeasureLookupThroughput(c *faultdir.Cluster, clients int, window time.Duration) (Throughput, error) {
	client0, cleanup0, _, dir, err := setupBench(c)
	if err != nil {
		return Throughput{}, err
	}
	defer cleanup0()
	if err := client0.Append(bgCtx, dir, "target", dir, nil); err != nil {
		return Throughput{}, err
	}

	counts := make([]int, clients)
	lats := newLatSamples(clients)
	errs := make(chan error, clients)
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(window)
	for i := 0; i < clients; i++ {
		client, cleanup, err := c.NewClient()
		if err != nil {
			return Throughput{}, err
		}
		defer cleanup()
		wg.Add(1)
		go func(i int, client *dirclient.Client) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				opStart := time.Now()
				err := retryTransient(func() error {
					_, lerr := client.Lookup(bgCtx, dir, "target")
					return lerr
				})
				if err != nil {
					errs <- err
					return
				}
				lats.add(i, time.Since(opStart))
				counts[i]++
			}
		}(i, client)
	}
	wg.Wait()
	elapsed := time.Since(start)
	close(errs)
	if err := <-errs; err != nil {
		return Throughput{}, err
	}
	total := 0
	for _, n := range counts {
		total += n
	}
	p50, p99, p999 := lats.percentiles()
	return Throughput{Clients: clients, OpsPerSec: float64(total) / elapsed.Seconds(), P50: p50, P99: p99, P999: p999}, nil
}

// measurePairThroughput runs n concurrent clients, each issuing
// back-to-back append-delete pairs against the working directory dirFor
// assigns it, for one measurement window. The result is total pairs per
// second.
func measurePairThroughput(c *faultdir.Cluster, clients int, window time.Duration, dirFor func(i int, client *dirclient.Client) (capability.Capability, error)) (Throughput, error) {
	workers := make([]*dirclient.Client, clients)
	dirs := make([]capability.Capability, clients)
	for i := 0; i < clients; i++ {
		client, cleanup, err := c.NewClient()
		if err != nil {
			return Throughput{}, err
		}
		defer cleanup()
		workers[i] = client
		if dirs[i], err = dirFor(i, client); err != nil {
			return Throughput{}, err
		}
	}

	counts := make([]int, clients)
	lats := newLatSamples(clients)
	errs := make(chan error, clients)
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(window)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int, client *dirclient.Client, dir capability.Capability) {
			defer wg.Done()
			for j := 0; time.Now().Before(deadline); j++ {
				opStart := time.Now()
				if err := pairOp(client, dir, fmt.Sprintf("c%dn%d", i, j)); err != nil {
					errs <- err
					return
				}
				lats.add(i, time.Since(opStart))
				counts[i]++
			}
		}(i, workers[i], dirs[i])
	}
	wg.Wait()
	elapsed := time.Since(start)
	close(errs)
	if err := <-errs; err != nil {
		return Throughput{}, err
	}
	total := 0
	for _, n := range counts {
		total += n
	}
	p50, p99, p999 := lats.percentiles()
	return Throughput{Clients: clients, OpsPerSec: float64(total) / elapsed.Seconds(), P50: p50, P99: p99, P999: p999}, nil
}

// MeasureUpdateThroughput reproduces Fig. 9: n clients issue
// append-delete pairs against one shared directory; the result is pairs
// per second (the paper notes actual write throughput is twice this).
func MeasureUpdateThroughput(c *faultdir.Cluster, clients int, window time.Duration) (Throughput, error) {
	_, cleanup0, _, dir, err := setupBench(c)
	if err != nil {
		return Throughput{}, err
	}
	defer cleanup0()
	return measurePairThroughput(c, clients, window,
		func(int, *dirclient.Client) (capability.Capability, error) { return dir, nil })
}

// MeasureShardedUpdateThroughput measures aggregate write throughput
// with per-client working directories: client i's directory is placed on
// shard i mod G, so the offered write load spreads across every replica
// group. With G=1 this degenerates to independent directories on the
// single group — the baseline the shard experiment compares against.
// The result is append-delete pairs per second summed over all clients.
func MeasureShardedUpdateThroughput(c *faultdir.Cluster, clients int, window time.Duration) (Throughput, error) {
	shards := c.Shards()
	return measurePairThroughput(c, clients, window,
		func(i int, client *dirclient.Client) (capability.Capability, error) {
			var d capability.Capability
			if err := retryTransient(func() error {
				var cerr error
				d, cerr = client.CreateDirOn(bgCtx, i%shards)
				return cerr
			}); err != nil {
				return capability.Capability{}, fmt.Errorf("create working dir on shard %d: %w", i%shards, err)
			}
			return d, nil
		})
}

// MeasureMixedWorkload drives the workload shape the paper reports from
// three weeks of production use (§2): 98% of operations are reads. It
// returns the sustained operations per second for the given read
// fraction — the regime both services optimize for, and the regime the
// client read cache (Options.ClientCache) is built to exploit: with the
// cache on, repeat lookups of the hot name are served locally and only
// the write traffic still pays RPC round-trips. Aggregate hit counters
// are available afterwards from Cluster.CacheStats.
func MeasureMixedWorkload(c *faultdir.Cluster, clients int, readPct int, window time.Duration) (Throughput, error) {
	client0, cleanup0, _, dir, err := setupBench(c)
	if err != nil {
		return Throughput{}, err
	}
	defer cleanup0()
	if err := client0.Append(bgCtx, dir, "hot", dir, nil); err != nil {
		return Throughput{}, err
	}

	counts := make([]int, clients)
	lats := newLatSamples(clients)
	errs := make(chan error, clients)
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(window)
	for i := 0; i < clients; i++ {
		client, cleanup, err := c.NewClient()
		if err != nil {
			return Throughput{}, err
		}
		defer cleanup()
		wg.Add(1)
		go func(i int, client *dirclient.Client) {
			defer wg.Done()
			for j := 0; time.Now().Before(deadline); j++ {
				opStart := time.Now()
				if j%100 < readPct {
					err := retryTransient(func() error {
						_, lerr := client.Lookup(bgCtx, dir, "hot")
						return lerr
					})
					if err != nil {
						errs <- err
						return
					}
				} else {
					name := fmt.Sprintf("w%dj%d", i, j)
					if err := pairOp(client, dir, name); err != nil {
						errs <- err
						return
					}
				}
				lats.add(i, time.Since(opStart))
				counts[i]++
			}
		}(i, client)
	}
	wg.Wait()
	elapsed := time.Since(start)
	close(errs)
	if err := <-errs; err != nil {
		return Throughput{}, err
	}
	total := 0
	for _, n := range counts {
		total += n
	}
	p50, p99, p999 := lats.percentiles()
	return Throughput{Clients: clients, OpsPerSec: float64(total) / elapsed.Seconds(), P50: p50, P99: p99, P999: p999}, nil
}

// ReadScale is one point of the read-scaling experiment: aggregate
// lookup throughput with latency percentiles, plus how the reads
// distributed over the replicas of shard 0 (group kinds).
type ReadScale struct {
	Throughput
	// Goroutines is how many concurrent goroutines each client ran.
	Goroutines int
	// PerServerReads maps replica id to reads served during the window.
	PerServerReads map[int]uint64
}

// MeasureReadScale measures the read path under concurrency: `clients`
// independent clients, each driving `goroutines` concurrent goroutines
// of back-to-back lookups of one hot name, for the window. Whether the
// reads pin to one replica (the paper's §4.2 heuristic) or spread across
// all of them follows the cluster's Options.ReadBalance; with the
// concurrent RPC transport, one client's goroutines issue overlapping
// transactions instead of serializing on a per-client lock. The result
// is total lookups per second, p50/p99 lookup latency, and the
// per-replica read counts accumulated during the window.
func MeasureReadScale(c *faultdir.Cluster, clients, goroutines int, window time.Duration) (ReadScale, error) {
	client0, cleanup0, _, dir, err := setupBench(c)
	if err != nil {
		return ReadScale{}, err
	}
	defer cleanup0()
	if err := client0.Append(bgCtx, dir, "target", dir, nil); err != nil {
		return ReadScale{}, err
	}
	before := c.ShardReadCounts(0)

	workers := clients * goroutines
	counts := make([]int, workers)
	lats := newLatSamples(workers)
	errs := make(chan error, workers)
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(window)
	for i := 0; i < clients; i++ {
		client, cleanup, err := c.NewClient()
		if err != nil {
			return ReadScale{}, err
		}
		defer cleanup()
		for g := 0; g < goroutines; g++ {
			w := i*goroutines + g
			wg.Add(1)
			go func(w int, client *dirclient.Client) {
				defer wg.Done()
				for time.Now().Before(deadline) {
					opStart := time.Now()
					err := retryTransient(func() error {
						_, lerr := client.Lookup(bgCtx, dir, "target")
						return lerr
					})
					if err != nil {
						errs <- err
						return
					}
					lats.add(w, time.Since(opStart))
					counts[w]++
				}
			}(w, client)
		}
	}
	wg.Wait()
	elapsed := time.Since(start)
	close(errs)
	if err := <-errs; err != nil {
		return ReadScale{}, err
	}
	total := 0
	for _, n := range counts {
		total += n
	}
	perServer := c.ShardReadCounts(0)
	for id, n := range before {
		perServer[id] -= n
	}
	p50, p99, p999 := lats.percentiles()
	return ReadScale{
		Throughput: Throughput{
			Clients:   clients,
			OpsPerSec: float64(total) / elapsed.Seconds(),
			P50:       p50,
			P99:       p99,
			P999:      p999,
		},
		Goroutines:     goroutines,
		PerServerReads: perServer,
	}, nil
}

// MeasureBatchCommitRate measures sustained atomic-batch throughput:
// `clients` concurrent clients each apply back-to-back `steps`-step
// batches for the window. With cross=false every client's batch stays
// on one shard (the one-broadcast fast path); with cross=true each
// batch spreads its steps over every shard and commits through the
// client's two-phase protocol. The result counts whole batches per
// second, with per-batch latency percentiles — the price of distributed
// atomicity versus the fast path.
func MeasureBatchCommitRate(c *faultdir.Cluster, clients, steps int, cross bool, window time.Duration) (Throughput, error) {
	shards := c.Shards()
	workers := make([]*dirclient.Client, clients)
	dirsets := make([][]capability.Capability, clients)
	for i := 0; i < clients; i++ {
		client, cleanup, err := c.NewClient()
		if err != nil {
			return Throughput{}, err
		}
		defer cleanup()
		workers[i] = client
		homes := []int{i % shards}
		if cross {
			homes = homes[:0]
			for s := 0; s < shards; s++ {
				homes = append(homes, s)
			}
		}
		for _, home := range homes {
			var d capability.Capability
			if err := retryTransient(func() error {
				var cerr error
				d, cerr = client.CreateDirOn(bgCtx, home)
				return cerr
			}); err != nil {
				return Throughput{}, fmt.Errorf("create working dir on shard %d: %w", home, err)
			}
			dirsets[i] = append(dirsets[i], d)
		}
	}

	counts := make([]int, clients)
	lats := newLatSamples(clients)
	errs := make(chan error, clients)
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(window)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int, client *dirclient.Client, dirs []capability.Capability) {
			defer wg.Done()
			for j := 0; time.Now().Before(deadline); j++ {
				b := dir.NewBatch()
				for k := 0; k < steps; k++ {
					d := dirs[k%len(dirs)]
					name := fmt.Sprintf("b%dk%d", i, k)
					if j%2 == 0 {
						b.Append(d, name, d, nil)
					} else {
						b.Delete(d, name)
					}
				}
				opStart := time.Now()
				if err := retryTransient(func() error {
					_, aerr := client.Apply(bgCtx, b)
					return aerr
				}); err != nil {
					errs <- err
					return
				}
				lats.add(i, time.Since(opStart))
				counts[i]++
			}
		}(i, workers[i], dirsets[i])
	}
	wg.Wait()
	elapsed := time.Since(start)
	close(errs)
	if err := <-errs; err != nil {
		return Throughput{}, err
	}
	total := 0
	for _, n := range counts {
		total += n
	}
	p50, p99, p999 := lats.percentiles()
	return Throughput{Clients: clients, OpsPerSec: float64(total) / elapsed.Seconds(), P50: p50, P99: p99, P999: p999}, nil
}

// TailLatency is the result of the tail-latency experiment
// (MeasureTailLatency): the read-side percentiles of a saturated mixed
// workload, the hedged-read counters accumulated by the readers, and —
// on sharded deployments — a deliberately contended cross-shard
// two-phase batch leg.
type TailLatency struct {
	// Read pools only the readers' lookup latencies: the write traffic
	// that saturates the replicas is load, not signal.
	Read Throughput
	// HedgesSent and HedgeWins count hedged reads issued by the readers
	// and the transactions the hedge won, summed over all readers.
	HedgesSent, HedgeWins uint64
	// Cross is the contended cross-shard batch leg: every client's
	// batches span the same per-shard directories, so two-phase prepares
	// collide on object locks and conflicting writers sit in the
	// server-side lock-wait queue instead of retrying. Zero-valued when
	// the deployment has a single shard.
	Cross Throughput
}

// MeasureTailLatency is the tail-latency campaign's experiment. Leg 1:
// `readers` clients issue back-to-back lookups of one hot name while
// two background writers hammer append-delete pairs into the same
// directory — the regime where a naive picker dogpiles the replica that
// is busy applying writes and the p99 blows up. Only read latencies are
// pooled. Leg 2 (sharded deployments): four clients apply back-to-back
// batches spanning one shared directory per shard, so every commit is a
// conflicting two-phase transaction; the pooled per-batch latencies
// show what the lock-wait queue does to the xbatch tail.
func MeasureTailLatency(c *faultdir.Cluster, readers int, window time.Duration) (TailLatency, error) {
	client0, cleanup0, _, hot, err := setupBench(c)
	if err != nil {
		return TailLatency{}, err
	}
	defer cleanup0()
	if err := client0.Append(bgCtx, hot, "target", hot, nil); err != nil {
		return TailLatency{}, err
	}

	const writers = 2
	readClients := make([]*dirclient.Client, readers)
	counts := make([]int, readers)
	lats := newLatSamples(readers)
	errs := make(chan error, readers+writers)
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(window)
	for i := 0; i < writers; i++ {
		client, cleanup, err := c.NewClient()
		if err != nil {
			return TailLatency{}, err
		}
		defer cleanup()
		wg.Add(1)
		go func(i int, client *dirclient.Client) {
			defer wg.Done()
			for j := 0; time.Now().Before(deadline); j++ {
				if err := pairOp(client, hot, fmt.Sprintf("w%dj%d", i, j)); err != nil {
					errs <- fmt.Errorf("background writer: %w", err)
					return
				}
			}
		}(i, client)
	}
	for i := 0; i < readers; i++ {
		client, cleanup, err := c.NewClient()
		if err != nil {
			return TailLatency{}, err
		}
		defer cleanup()
		readClients[i] = client
		wg.Add(1)
		go func(i int, client *dirclient.Client) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				opStart := time.Now()
				err := retryTransient(func() error {
					_, lerr := client.Lookup(bgCtx, hot, "target")
					return lerr
				})
				if err != nil {
					errs <- err
					return
				}
				lats.add(i, time.Since(opStart))
				counts[i]++
			}
		}(i, client)
	}
	wg.Wait()
	elapsed := time.Since(start)
	close(errs)
	if err := <-errs; err != nil {
		return TailLatency{}, err
	}
	total := 0
	for _, n := range counts {
		total += n
	}
	res := TailLatency{}
	res.Read.Clients = readers
	res.Read.OpsPerSec = float64(total) / elapsed.Seconds()
	res.Read.P50, res.Read.P99, res.Read.P999 = lats.percentiles()
	for _, client := range readClients {
		sent, wins := client.HedgeStats()
		res.HedgesSent += sent
		res.HedgeWins += wins
	}
	if c.Shards() > 1 {
		if res.Cross, err = measureContendedCross(c, window); err != nil {
			return TailLatency{}, err
		}
	}
	return res, nil
}

// measureContendedCross is MeasureTailLatency's second leg: every
// client's batches name the same shared directory on every shard, so
// concurrent two-phase prepares conflict on the directory object locks
// by construction.
func measureContendedCross(c *faultdir.Cluster, window time.Duration) (Throughput, error) {
	const clients = 4
	shards := c.Shards()
	setup, cleanup0, err := c.NewClient()
	if err != nil {
		return Throughput{}, err
	}
	defer cleanup0()
	shared := make([]capability.Capability, shards)
	for s := 0; s < shards; s++ {
		if err := retryTransient(func() error {
			var cerr error
			shared[s], cerr = setup.CreateDirOn(bgCtx, s)
			return cerr
		}); err != nil {
			return Throughput{}, fmt.Errorf("create shared dir on shard %d: %w", s, err)
		}
	}

	counts := make([]int, clients)
	lats := newLatSamples(clients)
	errs := make(chan error, clients)
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(window)
	for i := 0; i < clients; i++ {
		client, cleanup, err := c.NewClient()
		if err != nil {
			return Throughput{}, err
		}
		defer cleanup()
		wg.Add(1)
		go func(i int, client *dirclient.Client) {
			defer wg.Done()
			for j := 0; time.Now().Before(deadline); j++ {
				b := dir.NewBatch()
				for s, d := range shared {
					name := fmt.Sprintf("c%ds%d", i, s)
					if j%2 == 0 {
						b.Append(d, name, d, nil)
					} else {
						b.Delete(d, name)
					}
				}
				opStart := time.Now()
				if err := retryTransient(func() error {
					_, aerr := client.Apply(bgCtx, b)
					return aerr
				}); err != nil {
					errs <- fmt.Errorf("contended batch: %w", err)
					return
				}
				lats.add(i, time.Since(opStart))
				counts[i]++
			}
		}(i, client)
	}
	wg.Wait()
	elapsed := time.Since(start)
	close(errs)
	if err := <-errs; err != nil {
		return Throughput{}, err
	}
	total := 0
	for _, n := range counts {
		total += n
	}
	p50, p99, p999 := lats.percentiles()
	return Throughput{Clients: clients, OpsPerSec: float64(total) / elapsed.Seconds(), P50: p50, P99: p99, P999: p999}, nil
}

// BatchCost is one side of the batch-amortization measurement: what B
// updates cost in group broadcasts and wall-clock time.
type BatchCost struct {
	Broadcasts uint64
	Elapsed    time.Duration
}

// MeasureBatchAmortization issues B updates twice against a group
// cluster: as sequential single operations (B broadcasts) and as one
// atomic batch (one broadcast), returning both costs.
func MeasureBatchAmortization(c *faultdir.Cluster, b int) (singles, batched BatchCost, err error) {
	client, cleanup, _, work, err := setupBench(c)
	if err != nil {
		return BatchCost{}, BatchCost{}, err
	}
	defer cleanup()

	base := c.GroupSends()
	start := time.Now()
	for i := 0; i < b; i++ {
		name := fmt.Sprintf("amort%04d", i)
		if err := retryTransient(func() error { return client.Append(bgCtx, work, name, work, nil) }); err != nil {
			return BatchCost{}, BatchCost{}, fmt.Errorf("single append: %w", err)
		}
	}
	singles = BatchCost{Broadcasts: c.GroupSends() - base, Elapsed: time.Since(start)}

	batch := dir.NewBatch()
	for i := 0; i < b; i++ {
		batch.Delete(work, fmt.Sprintf("amort%04d", i))
	}
	base = c.GroupSends()
	start = time.Now()
	if err := retryTransient(func() error {
		_, aerr := client.Apply(bgCtx, batch)
		return aerr
	}); err != nil {
		return BatchCost{}, BatchCost{}, fmt.Errorf("batch apply: %w", err)
	}
	batched = BatchCost{Broadcasts: c.GroupSends() - base, Elapsed: time.Since(start)}
	return singles, batched, nil
}

// RenderFig7 formats measured latencies next to the paper's numbers.
func RenderFig7(rows []Latencies) string {
	paper := map[faultdir.Kind][3]int{ // ms, from Fig. 7
		faultdir.KindGroup:      {184, 215, 5},
		faultdir.KindRPC:        {192, 277, 5},
		faultdir.KindLocal:      {87, 111, 6},
		faultdir.KindGroupNVRAM: {27, 52, 5},
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-28s %-14s %-14s %-14s\n", "Operation (ms)", "measured", "paper", "ratio")
	for _, r := range rows {
		p := paper[r.Kind]
		cells := []struct {
			name     string
			measured time.Duration
			paperMS  int
		}{
			{"Append-delete", r.AppendDelete, p[0]},
			{"Tmp file", r.TmpFile, p[1]},
			{"Directory lookup", r.Lookup, p[2]},
		}
		for _, cell := range cells {
			ms := float64(cell.measured) / float64(time.Millisecond)
			fmt.Fprintf(&b, "%-28s %-14.1f %-14d %-14.2f\n",
				fmt.Sprintf("%s [%s]", cell.name, r.Kind), ms, cell.paperMS, ms/float64(cell.paperMS))
		}
	}
	return b.String()
}

// RenderSeries formats a throughput sweep as an ASCII series.
func RenderSeries(title, unit string, series map[string][]Throughput) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s (%s)\n", title, unit)
	fmt.Fprintf(&b, "%-16s", "clients")
	var maxLen int
	for _, pts := range series {
		if len(pts) > maxLen {
			maxLen = len(pts)
		}
	}
	names := make([]string, 0, len(series))
	for name := range series {
		names = append(names, name)
	}
	sortStrings(names)
	for _, name := range names {
		fmt.Fprintf(&b, "%-16s", name)
	}
	b.WriteByte('\n')
	for i := 0; i < maxLen; i++ {
		wrote := false
		for _, name := range names {
			pts := series[name]
			if i < len(pts) {
				if !wrote {
					fmt.Fprintf(&b, "%-16d", pts[i].Clients)
					wrote = true
				}
				fmt.Fprintf(&b, "%-16.1f", pts[i].OpsPerSec)
			} else {
				fmt.Fprintf(&b, "%-16s", "-")
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// WatchCoherence is one measured mode of the cache-coherence
// experiment: an otherwise idle working set under a foreign writer,
// with invalidation either pulled (noticed on the client's next
// contact) or pushed (delivered over the lease channel).
type WatchCoherence struct {
	Push bool
	// IdleHits and IdleMisses count the re-reads of the idle working
	// set after each foreign write; IdleHitRate is their ratio. Pull
	// invalidation cannot explain a foreign Seq advance, so it drops the
	// whole shard and the idle set re-fills needlessly; pushed
	// invalidation drops exactly the touched object.
	IdleHits, IdleMisses uint64
	IdleHitRate          float64
	// StaleHotReads counts hot-directory reads that missed the newest
	// committed row. The push mode reads after the invalidation is
	// delivered, so it must observe zero.
	StaleHotReads int
	Writes        int
	// DeliverP50 and DeliverP99 are write-to-delivery latencies: from
	// issuing the foreign append to the Watch event arriving at the
	// idle client (push mode only).
	DeliverP50, DeliverP99 time.Duration
}

// MeasureWatchCoherence runs the idle-client coherence experiment: a
// reader caches one hot and idleDirs idle directories, then a separate
// writer commits `writes` appends to the hot one. After every write the
// reader re-reads the hot directory (checking freshness) and sweeps the
// idle set (counting hits). In push mode the reader holds a Watch
// stream on the hot directory and reads only after the write's event
// arrives — the coherence the lease protocol promises; in pull mode it
// reads immediately, seeing exactly what the paper's Seq-high-water
// client sees.
func MeasureWatchCoherence(c *faultdir.Cluster, push bool, idleDirs, writes int) (WatchCoherence, error) {
	reader, readerDone, err := c.NewCachedClient(dir.CacheOptions{Enabled: true, Leases: push})
	if err != nil {
		return WatchCoherence{}, err
	}
	defer readerDone()
	writer, writerDone, err := c.NewCachedClient(dir.CacheOptions{})
	if err != nil {
		return WatchCoherence{}, err
	}
	defer writerDone()

	root, err := reader.Root(bgCtx)
	if err != nil {
		return WatchCoherence{}, err
	}
	hot, err := reader.CreateDir(bgCtx)
	if err != nil {
		return WatchCoherence{}, err
	}
	if err := reader.Append(bgCtx, root, "hot", hot, nil); err != nil {
		return WatchCoherence{}, err
	}
	// The reader's own scratch directory: one append per round keeps the
	// client minimally active, the way a real idle-ish client is. In pull
	// mode that contact is what reveals the foreign commits — as an
	// unexplained Seq jump that drops the whole shard's cache.
	scratch, err := reader.CreateDir(bgCtx)
	if err != nil {
		return WatchCoherence{}, err
	}
	idle := make([]capability.Capability, idleDirs)
	for i := range idle {
		if idle[i], err = reader.CreateDir(bgCtx); err != nil {
			return WatchCoherence{}, err
		}
	}

	var stream <-chan dir.Event
	if push {
		// The Watch stream doubles as the delivery-latency probe and —
		// because Watch blocks until the lease is established — as the
		// guarantee that pushes cover everything the writer commits below.
		ctx, cancel := context.WithCancel(bgCtx)
		defer cancel()
		if stream, err = reader.Watch(ctx, hot); err != nil {
			return WatchCoherence{}, err
		}
	}

	// Warm the working set: one List per directory fills the cache.
	if _, err := reader.List(bgCtx, hot, 0); err != nil {
		return WatchCoherence{}, err
	}
	for _, d := range idle {
		if _, err := reader.List(bgCtx, d, 0); err != nil {
			return WatchCoherence{}, err
		}
	}

	res := WatchCoherence{Push: push, Writes: writes}
	lats := newLatSamples(1)
	for i := 0; i < writes; i++ {
		issued := time.Now()
		err := retryTransient(func() error {
			return writer.Append(bgCtx, hot, fmt.Sprintf("w%04d", i), hot, nil)
		})
		if err != nil {
			return WatchCoherence{}, fmt.Errorf("foreign append %d: %w", i, err)
		}
		if push {
			// Wait for the write's invalidation to reach this client.
			deadline := time.NewTimer(30 * time.Second)
			waiting := true
			for waiting {
				select {
				case ev, ok := <-stream:
					if !ok {
						deadline.Stop()
						return WatchCoherence{}, fmt.Errorf("watch stream closed")
					}
					if ev.Type == dir.EventUpdate || ev.Type == dir.EventResync {
						lats.add(0, time.Since(issued))
						waiting = false
					}
				case <-deadline.C:
					return WatchCoherence{}, fmt.Errorf("no event for write %d", i)
				}
			}
			deadline.Stop()
		}
		rows, err := reader.List(bgCtx, hot, 0)
		if err != nil {
			return WatchCoherence{}, fmt.Errorf("hot read %d: %w", i, err)
		}
		if len(rows) < i+1 {
			res.StaleHotReads++
		}
		err = retryTransient(func() error {
			return reader.Append(bgCtx, scratch, fmt.Sprintf("p%04d", i), scratch, nil)
		})
		if err != nil {
			return WatchCoherence{}, fmt.Errorf("own append %d: %w", i, err)
		}
		// Nothing about the idle set changed; re-reading it should be
		// free. Count what the cache actually does.
		pre := reader.CacheStats()
		for _, d := range idle {
			if _, err := reader.List(bgCtx, d, 0); err != nil {
				return WatchCoherence{}, fmt.Errorf("idle read %d: %w", i, err)
			}
		}
		post := reader.CacheStats()
		res.IdleHits += post.Hits - pre.Hits
		res.IdleMisses += post.Misses - pre.Misses
	}
	if total := res.IdleHits + res.IdleMisses; total > 0 {
		res.IdleHitRate = float64(res.IdleHits) / float64(total)
	}
	res.DeliverP50, res.DeliverP99, _ = lats.percentiles()
	return res, nil
}
