package dirclient

import (
	"testing"

	"dirsvc/dir"
	"dirsvc/internal/capability"
	"dirsvc/internal/dirdata"
)

// testDirCap mints a distinct directory capability for object obj.
func testDirCap(obj uint32) capability.Capability {
	return capability.Capability{Object: obj, Rights: capability.AllRights, Check: [6]byte{byte(obj), 1, 2, 3, 4, 5}}
}

func newTestCache(maxEntries int) *readCache {
	return newReadCache(2, dir.CacheOptions{Enabled: true, MaxEntries: maxEntries})
}

func TestCacheDisabledIsNil(t *testing.T) {
	rc := newReadCache(4, dir.CacheOptions{})
	if rc != nil {
		t.Fatalf("disabled cache = %v, want nil", rc)
	}
	// Every method must be nil-receiver safe.
	if _, ok := rc.getList(0, testDirCap(1), 0); ok {
		t.Fatal("nil cache returned a hit")
	}
	rc.noteWrite(0, 1, 1)
	rc.noteReply(0, 1)
	rc.fillList(0, 0, testDirCap(1), 0, nil, 1, 1)
	if s := rc.stats(); s != (dir.CacheStats{}) {
		t.Fatalf("nil cache stats = %+v", s)
	}
}

func TestCacheFillAndHit(t *testing.T) {
	rc := newTestCache(0)
	d := testDirCap(3)
	rows := []dirdata.Row{{Name: "a", Cap: d, ColMasks: []capability.Rights{7}}}

	epoch := rc.epochOf(0)
	rc.fillList(0, epoch, d, 0, rows, 5, 5)
	got, ok := rc.getList(0, d, 0)
	if !ok || len(got) != 1 || got[0].Name != "a" {
		t.Fatalf("getList = %+v, %v", got, ok)
	}
	// The hit is a copy: mutating it must not corrupt the cache.
	got[0].Name = "mutated"
	got[0].ColMasks[0] = 0
	again, _ := rc.getList(0, d, 0)
	if again[0].Name != "a" || again[0].ColMasks[0] != 7 {
		t.Fatalf("caller mutation reached the cache: %+v", again)
	}

	// A forged capability (same object, different check) must miss.
	forged := d
	forged.Check[0] ^= 0xFF
	if _, ok := rc.getList(0, forged, 0); ok {
		t.Fatal("forged capability hit the cache")
	}
	// Other shards are independent.
	if _, ok := rc.getList(1, d, 0); ok {
		t.Fatal("entry leaked across shards")
	}
}

func TestCacheNegativeLookup(t *testing.T) {
	rc := newTestCache(0)
	d := testDirCap(3)
	rc.fillLookups(0, rc.epochOf(0), d, []string{"hit", "missing"},
		[]capability.Capability{testDirCap(9), {}}, 4, 4)
	if cp, ok := rc.getLookup(0, d, "hit"); !ok || cp.Object != 9 {
		t.Fatalf("positive entry: %v, %v", cp, ok)
	}
	if cp, ok := rc.getLookup(0, d, "missing"); !ok || !cp.IsZero() {
		t.Fatalf("negative entry: %v, %v", cp, ok)
	}
	if _, ok := rc.getLookup(0, d, "never-seen"); ok {
		t.Fatal("uncached name hit")
	}
}

// TestCacheFineInvalidation: a single own update (seq advances by
// exactly one) drops only the touched object's entries.
func TestCacheFineInvalidation(t *testing.T) {
	rc := newTestCache(0)
	a, b := testDirCap(3), testDirCap(4)
	rc.fillList(0, rc.epochOf(0), a, 0, nil, 1, 2)
	rc.fillList(0, rc.epochOf(0), b, 0, nil, 2, 2)

	rc.noteWrite(0, 3, a.Object) // seq 2 → 3: our own single update to a
	if _, ok := rc.getList(0, a, 0); ok {
		t.Fatal("touched object survived fine invalidation")
	}
	if _, ok := rc.getList(0, b, 0); !ok {
		t.Fatal("untouched object dropped by fine invalidation")
	}
	if s := rc.stats(); s.Invalidations != 1 {
		t.Fatalf("invalidations = %d, want 1", s.Invalidations)
	}
}

// TestCacheCoarseInvalidation: a sequence jump larger than one proves
// foreign commits and drops the whole shard.
func TestCacheCoarseInvalidation(t *testing.T) {
	rc := newTestCache(0)
	a, b := testDirCap(3), testDirCap(4)
	rc.fillList(0, rc.epochOf(0), a, 0, nil, 1, 2)
	rc.fillList(1, rc.epochOf(1), b, 0, nil, 2, 2)

	rc.noteWrite(0, 5, a.Object) // seq 2 → 5: unknown commits in between
	if _, ok := rc.getList(0, a, 0); ok {
		t.Fatal("entry survived coarse invalidation")
	}
	// Shard 1 has its own sequence stream and is untouched.
	if _, ok := rc.getList(1, b, 0); !ok {
		t.Fatal("coarse invalidation crossed shards")
	}

	// A failed read's sequence number also invalidates (noteReply).
	rc.fillList(1, rc.epochOf(1), b, 1, nil, 2, 2)
	rc.noteReply(1, 9)
	if _, ok := rc.getList(1, b, 1); ok {
		t.Fatal("entry survived noteReply invalidation")
	}
}

// TestCacheStaleFillSkipped: a fill whose RPC raced with an invalidation
// must not install (it could be pre-invalidation data), unless its own
// reply advanced the sequence number.
func TestCacheStaleFillSkipped(t *testing.T) {
	rc := newTestCache(0)
	d := testDirCap(3)
	rc.noteReply(0, 10) // high-water 10

	epoch := rc.epochOf(0) // fill snapshot, RPC "in flight"
	rc.noteWrite(0, 11, d.Object)
	rc.fillList(0, epoch, d, 0, []dirdata.Row{{Name: "stale"}}, 9, 10)
	if _, ok := rc.getList(0, d, 0); ok {
		t.Fatal("stale fill installed after an invalidation raced it")
	}

	// Same race, but the reply itself proves it is the freshest data.
	epoch = rc.epochOf(0)
	rc.noteWrite(0, 12, d.Object)
	rc.fillList(0, epoch, d, 0, []dirdata.Row{{Name: "fresh"}}, 13, 13)
	if rows, ok := rc.getList(0, d, 0); !ok || rows[0].Name != "fresh" {
		t.Fatalf("fresh fill skipped: %+v, %v", rows, ok)
	}
}

// TestCacheMonotonicFillSkipped: a read served by a replica lagging
// behind the shard's observed high-water mark is never installed, even
// with no invalidation in between — cached data must stay monotonic.
func TestCacheMonotonicFillSkipped(t *testing.T) {
	rc := newTestCache(0)
	d := testDirCap(3)
	rc.noteReply(0, 10) // heard seq 10 from some replica

	epoch := rc.epochOf(0)
	rc.fillList(0, epoch, d, 0, []dirdata.Row{{Name: "lagging"}}, 8, 9)
	if _, ok := rc.getList(0, d, 0); ok {
		t.Fatal("reply behind the high-water mark was installed")
	}
	// At the mark is fine: same state the client already knows about.
	rc.fillList(0, epoch, d, 0, []dirdata.Row{{Name: "current"}}, 8, 10)
	if rows, ok := rc.getList(0, d, 0); !ok || rows[0].Name != "current" {
		t.Fatalf("at-the-mark fill skipped: %+v, %v", rows, ok)
	}
}

// TestCacheObjSeqGuard: an older in-flight reply never clobbers a newer
// cached result for the same key.
func TestCacheObjSeqGuard(t *testing.T) {
	rc := newTestCache(0)
	d := testDirCap(3)
	epoch := rc.epochOf(0)
	rc.fillList(0, epoch, d, 0, []dirdata.Row{{Name: "new"}}, 7, 7)
	rc.fillList(0, epoch, d, 0, []dirdata.Row{{Name: "old"}}, 5, 6)
	if rows, _ := rc.getList(0, d, 0); len(rows) != 1 || rows[0].Name != "new" {
		t.Fatalf("older reply clobbered newer entry: %+v", rows)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	rc := newTestCache(2)
	a, b, c := testDirCap(3), testDirCap(4), testDirCap(5)
	rc.fillList(0, rc.epochOf(0), a, 0, nil, 1, 1)
	rc.fillList(0, rc.epochOf(0), b, 0, nil, 1, 1)
	rc.getList(0, a, 0) // touch a: b becomes least recently used
	rc.fillList(0, rc.epochOf(0), c, 0, nil, 1, 1)

	if _, ok := rc.getList(0, b, 0); ok {
		t.Fatal("LRU entry survived eviction")
	}
	if _, ok := rc.getList(0, a, 0); !ok {
		t.Fatal("recently used entry evicted")
	}
	if _, ok := rc.getList(0, c, 0); !ok {
		t.Fatal("new entry missing")
	}
	if s := rc.stats(); s.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", s.Evictions)
	}
}

// TestCachedClientEndToEnd drives a cached client against a live
// single-server service: counters move, hits serve stale-free data.
func TestCachedClientEndToEnd(t *testing.T) {
	cached := newServiceWith(t, Options{Cache: dir.CacheOptions{Enabled: true}})
	work, err := cached.CreateDir(bgCtx)
	if err != nil {
		t.Fatalf("CreateDir: %v", err)
	}
	if err := cached.Append(bgCtx, work, "n", work, nil); err != nil {
		t.Fatalf("Append: %v", err)
	}
	for i := 0; i < 3; i++ {
		if got, err := cached.Lookup(bgCtx, work, "n"); err != nil || got != work {
			t.Fatalf("Lookup %d: %v, %v", i, got, err)
		}
	}
	s := cached.CacheStats()
	if s.Misses != 1 || s.Hits != 2 {
		t.Fatalf("stats = %+v, want 1 miss + 2 hits", s)
	}
}
