package faultdir

import (
	"testing"
	"time"

	"dirsvc/internal/capability"
	"dirsvc/internal/dirclient"
	"dirsvc/internal/sim"
)

// warmPath is a settled zero-latency KindGroupNVRAM cluster — the
// mixed-soft workload's configuration in bench/ — with one client that
// has located its replica and one populated directory, so every call
// below is the steady-state request path: client → rpc → flip → front
// end → (group → core apply) → reply. With engine set the cluster is
// KindGroup over the storage engine instead, whose write-ahead run is on
// the update path (the update-wal workload's persistence).
type warmPath struct {
	client *dirclient.Client
	dir    capability.Capability // holds "name" → dir itself
}

func newWarmPath(tb testing.TB, engine bool) *warmPath {
	tb.Helper()
	kind := KindGroupNVRAM
	if engine {
		kind = KindGroup
	}
	c := bootCluster(tb, kind, Options{
		Model:             sim.FastModel(),
		HeartbeatInterval: 50 * time.Millisecond,
		DiskEngine:        engine,
	})
	client, cleanup, err := c.NewClient()
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(cleanup)
	w := &warmPath{client: client}
	if w.dir, err = client.CreateDir(bgCtx); err != nil {
		tb.Fatal(err)
	}
	if err := client.Append(bgCtx, w.dir, "name", w.dir, nil); err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		w.lookup(tb)
		w.pair(tb)
	}
	return w
}

func (w *warmPath) lookup(tb testing.TB) {
	got, err := w.client.Lookup(bgCtx, w.dir, "name")
	if err != nil || got != w.dir {
		tb.Fatalf("Lookup = %v, %v", got, err)
	}
}

func (w *warmPath) pair(tb testing.TB) {
	if err := w.client.Append(bgCtx, w.dir, "tmp", w.dir, nil); err != nil {
		tb.Fatalf("Append: %v", err)
	}
	if err := w.client.Delete(bgCtx, w.dir, "tmp"); err != nil {
		tb.Fatalf("Delete: %v", err)
	}
}

// Allocation ceilings of the warm request path, whole process (client,
// simulated network, three replicas). A warm lookup allocates 4, as this
// commit measured it: its two frames, request and reply (2.08 a lookup
// in flip.newFrame), and the simulator's inbox growing again behind its
// front (2.16 in sim.(*Node).enqueue; ROADMAP 2e) — per-lookup counts
// from BenchmarkLookup with -memprofilerate 1 over 20 000 lookups. The
// server decodes the name in place in the request frame, and the client
// the capability into a buffer it reuses. The pair measured 35: its
// frames (10.6 a pair), the simulated network's queues (21.1, and 2.1 in
// sim.(*Network).Nodes for its broadcasts), and the appended row on each
// of three replicas, its name and masks in one allocation — and 37 over
// the storage engine, whose write-ahead run adds the disk's block image;
// both keep 4 of headroom. (39 over the engine while it padded each
// record of a run to blocks of its own in a fresh image; 6 and 47, 51
// over the engine, while every decode copied its names, the initiator
// allocated a waiter record and a lock-wait target list per update, and
// the client a Caps slice per lookup; 83 and 95 while every apply allocated its result and forked
// into fresh storage, the group thread copied every ORD to the heap and
// the sequencer its acknowledgement record, and the initiator encoded
// its request and the engine its records one by one; 203 before each
// layer appended into one frame buffer and group state stopped being
// copied per request, 111 while an ACK frame followed every reply, 103
// while every decode allocated its message.) A heartbeat landing inside
// the measured window adds a small fraction of an allocation per call,
// which AllocsPerRun's whole-number average drops.
const (
	lookupAllocs     = 4
	pairAllocs       = 39
	pairAllocsEngine = 41
)

// raceBuild is set under the race detector (race_test.go), where
// allocation counts are not the program's.
var raceBuild bool

func TestLookupAllocs(t *testing.T) {
	if raceBuild {
		t.Skip("the race detector makes sync.Pool drop what it is given")
	}
	w := newWarmPath(t, false)
	got := testing.AllocsPerRun(500, func() { w.lookup(t) })
	t.Logf("warm Lookup: %.1f allocs", got)
	if got > lookupAllocs {
		t.Fatalf("warm Lookup allocates %.1f times, want ≤ %d", got, lookupAllocs)
	}
}

func TestPairAllocs(t *testing.T) { testPairAllocs(t, false, pairAllocs) }

func TestPairAllocsEngine(t *testing.T) { testPairAllocs(t, true, pairAllocsEngine) }

func testPairAllocs(t *testing.T, engine bool, ceiling int) {
	if raceBuild {
		t.Skip("the race detector makes sync.Pool drop what it is given")
	}
	w := newWarmPath(t, engine)
	got := testing.AllocsPerRun(200, func() { w.pair(t) })
	t.Logf("warm append-delete pair: %.1f allocs", got)
	if got > float64(ceiling) {
		t.Fatalf("warm append-delete pair allocates %.1f times, want ≤ %d", got, ceiling)
	}
}

// BenchmarkLookup, BenchmarkPair and BenchmarkPairEngine are the guards'
// twins, to run with -benchmem, or -memprofile to find the sites.
func BenchmarkLookup(b *testing.B) {
	w := newWarmPath(b, false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.lookup(b)
	}
}

func BenchmarkPair(b *testing.B) { benchmarkPair(b, false) }

func BenchmarkPairEngine(b *testing.B) { benchmarkPair(b, true) }

func benchmarkPair(b *testing.B, engine bool) {
	w := newWarmPath(b, engine)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.pair(b)
	}
}
