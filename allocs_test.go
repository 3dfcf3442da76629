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
// end → (group → core apply) → reply.
type warmPath struct {
	client *dirclient.Client
	dir    capability.Capability // holds "name" → dir itself
}

func newWarmPath(tb testing.TB) *warmPath {
	tb.Helper()
	c := newSettledCluster(tb, KindGroupNVRAM, Options{
		Model:             sim.FastModel(),
		HeartbeatInterval: 50 * time.Millisecond,
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
// simulated network, three replicas), as this commit measured them (33
// and 203 before each layer appended into one frame buffer and group state
// stopped being copied per request). A heartbeat landing inside the
// measured window adds a small fraction of an allocation per call, which
// AllocsPerRun's whole-number average drops.
const (
	lookupAllocs = 18
	pairAllocs   = 111
)

// raceBuild is set under the race detector (race_test.go), where
// allocation counts are not the program's.
var raceBuild bool

func TestLookupAllocs(t *testing.T) {
	if raceBuild {
		t.Skip("the race detector makes sync.Pool drop what it is given")
	}
	w := newWarmPath(t)
	got := testing.AllocsPerRun(500, func() { w.lookup(t) })
	t.Logf("warm Lookup: %.1f allocs", got)
	if got > lookupAllocs {
		t.Fatalf("warm Lookup allocates %.1f times, want ≤ %d", got, lookupAllocs)
	}
}

func TestPairAllocs(t *testing.T) {
	if raceBuild {
		t.Skip("the race detector makes sync.Pool drop what it is given")
	}
	w := newWarmPath(t)
	got := testing.AllocsPerRun(200, func() { w.pair(t) })
	t.Logf("warm append-delete pair: %.1f allocs", got)
	if got > pairAllocs {
		t.Fatalf("warm append-delete pair allocates %.1f times, want ≤ %d", got, pairAllocs)
	}
}

// BenchmarkLookup and BenchmarkPair are the guards' twins, to run with
// -benchmem, or -memprofile to find the sites.
func BenchmarkLookup(b *testing.B) {
	w := newWarmPath(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.lookup(b)
	}
}

func BenchmarkPair(b *testing.B) {
	w := newWarmPath(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.pair(b)
	}
}
