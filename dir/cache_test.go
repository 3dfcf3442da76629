// Tests for the client read cache: local hits without network traffic,
// read-your-writes through invalidation, the documented cross-client
// staleness bound, and the fill/invalidate race under -race.
package dir_test

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	faultdir "dirsvc"

	"dirsvc/dir"
	"dirsvc/internal/rpc"
	"dirsvc/internal/sim"
)

// cachedOpts enables the cache with the default bound.
var cachedOpts = dir.CacheOptions{Enabled: true}

// TestCacheServesRepeatReadsLocally pins the point of the cache: after
// one miss, repeat Lookups and Lists cost no network frames at all. The
// unreplicated kind keeps the network silent apart from client RPCs
// (the group kinds heartbeat continuously), so the frame counter
// isolates exactly the read traffic.
func TestCacheServesRepeatReadsLocally(t *testing.T) {
	c, client := newCachedCluster(t, faultdir.KindLocal, 1, cachedOpts)
	work := createDirOn(t, client, 0)
	if err := client.Append(bgCtx, work, "hot", work, nil); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if _, err := client.Lookup(bgCtx, work, "hot"); err != nil { // miss, fills
		t.Fatalf("warm Lookup: %v", err)
	}
	if _, err := client.List(bgCtx, work, 0); err != nil { // miss, fills
		t.Fatalf("warm List: %v", err)
	}

	const reads = 200
	frames := quietFrames(c.Net)
	statsBefore := client.CacheStats()
	for i := 0; i < reads; i++ {
		got, err := client.Lookup(bgCtx, work, "hot")
		if err != nil || got != work {
			t.Fatalf("cached Lookup: %v, %v", got, err)
		}
		rows, err := client.List(bgCtx, work, 0)
		if err != nil || len(rows) != 1 || rows[0].Name != "hot" {
			t.Fatalf("cached List: %+v, %v", rows, err)
		}
	}
	if sent := c.Net.Stats().FramesSent - frames; sent != 0 {
		t.Fatalf("%d cached reads sent %d network frames, want 0", 2*reads, sent)
	}
	stats := client.CacheStats()
	if hits := stats.Hits - statsBefore.Hits; hits != 2*reads {
		t.Fatalf("hits = %d, want %d", hits, 2*reads)
	}
}

// quietFrames returns the network's sent-frame count once it has stopped
// moving for longer than an idle client waits before acknowledging its
// last reply in a frame of its own (one rpc probe floor, 50 ms at zero
// scale).
func quietFrames(net *sim.Network) uint64 {
	const quiet = 100 * time.Millisecond
	last, since := net.Stats().FramesSent, time.Now()
	for time.Since(since) < quiet {
		time.Sleep(5 * time.Millisecond)
		if now := net.Stats().FramesSent; now != last {
			last, since = now, time.Now()
		}
	}
	return last
}

// TestCacheReadYourWrites pins the first consistency guarantee: a
// client's own update invalidates its cached reads before the update
// returns, on every kind.
func TestCacheReadYourWrites(t *testing.T) {
	for _, kind := range allKinds {
		t.Run(kind.String(), func(t *testing.T) {
			_, client := newCachedCluster(t, kind, 1, cachedOpts)
			work := createDirOn(t, client, 0)

			// Cache a negative entry, then append: the row must appear.
			if _, err := client.Lookup(bgCtx, work, "row"); !errors.Is(err, dir.ErrNotFound) {
				t.Fatalf("pre-append Lookup: err = %v, want ErrNotFound", err)
			}
			if err := client.Append(bgCtx, work, "row", work, nil); err != nil {
				t.Fatalf("Append: %v", err)
			}
			if got, err := client.Lookup(bgCtx, work, "row"); err != nil || got != work {
				t.Fatalf("post-append Lookup: %v, %v", got, err)
			}

			// Cache rows, then delete: the row must vanish.
			if rows, err := client.List(bgCtx, work, 0); err != nil || len(rows) != 1 {
				t.Fatalf("List: %+v, %v", rows, err)
			}
			if err := client.Delete(bgCtx, work, "row"); err != nil {
				t.Fatalf("Delete: %v", err)
			}
			if rows, err := client.List(bgCtx, work, 0); err != nil || len(rows) != 0 {
				t.Fatalf("post-delete List: %+v, %v", rows, err)
			}
			if _, err := client.Lookup(bgCtx, work, "row"); !errors.Is(err, dir.ErrNotFound) {
				t.Fatalf("post-delete Lookup: err = %v, want ErrNotFound", err)
			}
		})
	}
}

// TestCacheCrossClientStaleness pins the documented staleness bound:
// another client's committed update may be missed while this client is
// silent, but any reply from the shard that proves newer commits —
// including this client's own write to a different directory — drops the
// stale entries.
func TestCacheCrossClientStaleness(t *testing.T) {
	c, reader := newCachedCluster(t, faultdir.KindGroup, 1, cachedOpts)
	writer, cleanup, err := c.NewCachedClient(dir.CacheOptions{})
	if err != nil {
		t.Fatalf("NewCachedClient: %v", err)
	}
	t.Cleanup(cleanup)

	shared := createDirOn(t, reader, 0)
	other := createDirOn(t, reader, 0)
	if rows, err := reader.List(bgCtx, shared, 0); err != nil || len(rows) != 0 {
		t.Fatalf("warm List: %+v, %v", rows, err)
	}

	// A foreign commit the reader has not heard about: its cache may
	// legally serve the old (empty) listing.
	if err := writer.Append(bgCtx, shared, "foreign", shared, nil); err != nil {
		t.Fatalf("foreign Append: %v", err)
	}

	// The reader now commits an update of its own — to a *different*
	// directory on the same shard. The reply's sequence number proves two
	// commits happened while it knew only its own, so the whole shard's
	// entries (including the stale listing) are dropped.
	if err := reader.Append(bgCtx, other, "own", other, nil); err != nil {
		t.Fatalf("own Append: %v", err)
	}
	rows, err := reader.List(bgCtx, shared, 0)
	if err != nil || len(rows) != 1 || rows[0].Name != "foreign" {
		t.Fatalf("List after invalidating reply: %+v, %v — stale row survived", rows, err)
	}
}

// transientErr reports errors that say nothing about cache correctness:
// overload churn (timeouts, NOTHERE evictions) and the no-majority
// windows a group reset opens under load. Callers retry through them —
// exactly as the paper's Amoeba clients did — and assert only on real
// results.
func transientErr(err error) bool {
	return errors.Is(err, dir.ErrNoMajority) || errors.Is(err, dir.ErrConflict) ||
		errors.Is(err, rpc.ErrTimeout) || errors.Is(err, rpc.ErrNoServer)
}

// retryTransient runs op through transient churn (bounded).
func retryTransient(t *testing.T, op func() error) error {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		err := op()
		if err == nil || !transientErr(err) || time.Now().After(deadline) {
			return err
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestCacheInvalidationRace races a writer that keeps advancing the
// shard sequence number against readers that keep hitting the cache, on
// one shared client: after every invalidating reply the writer receives,
// its next read must not see the superseded row. Run under -race this
// also proves the cache's internal synchronization. (Satellite:
// "concurrent writer advances Seq while readers hit the cache; assert no
// stale row survives past the invalidating reply".)
func TestCacheInvalidationRace(t *testing.T) {
	skipShardedInShortLane(t)
	// A laxer heartbeat than the rest of the suite: the spinning readers
	// steal enough CPU that 15ms failure detection false-positives into
	// group resets, and the resulting no-majority churn drowns the test.
	c, err := faultdir.New(faultdir.KindGroupNVRAM, faultdir.Options{
		Model:             sim.FastModel(),
		HeartbeatInterval: 50 * time.Millisecond,
		Shards:            2,
		ClientCache:       cachedOpts,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(c.Close)
	client, cleanup, err := c.NewClient()
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	t.Cleanup(cleanup)

	// One hot directory per shard, constantly read by background readers.
	hot := []dir.Capability{createDirOn(t, client, 0), createDirOn(t, client, 1)}
	for _, h := range hot {
		if err := retryTransient(t, func() error { return client.Append(bgCtx, h, "pinned", h, nil) }); err != nil {
			t.Fatalf("Append pinned: %v", err)
		}
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	// Stop the readers before the cluster tears down, on success and on
	// Fatalf alike — leaked readers would starve every later test's
	// cluster with locate retries.
	defer func() {
		close(stop)
		wg.Wait()
	}()
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			h := hot[r%len(hot)]
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := client.Lookup(bgCtx, h, "pinned"); err != nil {
					if !transientErr(err) {
						t.Errorf("reader: %v", err)
						return
					}
					time.Sleep(time.Millisecond) // back off; don't prolong the churn
				}
				if _, err := client.List(bgCtx, h, 0); err != nil {
					if !transientErr(err) {
						t.Errorf("reader: %v", err)
						return
					}
					time.Sleep(time.Millisecond)
				}
			}
		}(r)
	}

	// The writer cycles rows through the hot directories. Every Append
	// and Delete reply invalidates; the read immediately after each must
	// observe the write — a stale cached row or cached negative would
	// surface here as a wrong result.
	const iters = 40
	for i := 0; i < iters; i++ {
		h := hot[i%len(hot)]
		name := fmt.Sprintf("row%d", i)
		if err := retryTransient(t, func() error { return client.Append(bgCtx, h, name, h, nil) }); err != nil {
			t.Fatalf("Append %s: %v", name, err)
		}
		var got dir.Capability
		if err := retryTransient(t, func() error {
			var lerr error
			got, lerr = client.Lookup(bgCtx, h, name)
			return lerr
		}); err != nil || got != h {
			t.Fatalf("iter %d: lookup after append: %v, %v — cached negative survived the invalidating reply", i, got, err)
		}
		if err := retryTransient(t, func() error { return client.Delete(bgCtx, h, name) }); err != nil {
			t.Fatalf("Delete %s: %v", name, err)
		}
		err := retryTransient(t, func() error {
			_, lerr := client.Lookup(bgCtx, h, name)
			return lerr
		})
		if !errors.Is(err, dir.ErrNotFound) {
			t.Fatalf("iter %d: lookup after delete: err = %v — stale row survived the invalidating reply", i, err)
		}
	}

	stats := client.CacheStats()
	if stats.Hits == 0 || stats.Invalidations == 0 {
		t.Fatalf("race exercised no cache traffic: %+v", stats)
	}
	t.Logf("cache stats: %+v (hit rate %.1f%%)", stats, 100*stats.HitRate())
}
