package rpc

import (
	"testing"
)

// warmEcho returns a null transaction against one echo server that its
// client has located and sampled.
func warmEcho(tb testing.TB) func() error {
	tb.Helper()
	f, port, servers := newFixture(tb, 1)
	stop := servers[0].ServeFunc(1, func(req *Request) []byte { return req.Payload })
	tb.Cleanup(func() {
		servers[0].Close()
		stop()
	})
	payload := []byte("null")
	null := func() error {
		_, err := f.client.Trans(port, payload)
		return err
	}
	for i := 0; i < 16; i++ {
		if err := null(); err != nil {
			tb.Fatal(err)
		}
	}
	return null
}

// BenchmarkNullTrans is the warm three-message exchange at zero modelled
// latency: what the transport itself costs per transaction (ROADMAP 5c).
func BenchmarkNullTrans(b *testing.B) {
	null := warmEcho(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := null(); err != nil {
			b.Fatal(err)
		}
	}
}

// TestNullTransAllocs guards the hot path's allocation count: the
// liveness bookkeeping rides the lock acquisitions, and the probe timer
// and reply channel are recycled. AllocsPerRun counts the whole process —
// client, simulated network, server — so the bound is the full exchange's.
func TestNullTransAllocs(t *testing.T) {
	if raceBuild {
		t.Skip("the race detector makes sync.Pool drop what it is given")
	}
	null := warmEcho(t)
	got := testing.AllocsPerRun(500, func() {
		if err := null(); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("warm null transaction: %.1f allocs", got)
	if got > nullTransAllocs {
		t.Fatalf("warm null transaction allocates %.1f times, want ≤ %d", got, nullTransAllocs)
	}
}

// nullTransAllocs is what this commit measured: the request, reply and
// ACK frames, one buffer each, and the simulated network's queues (15
// before every layer appended into one buffer and the timer and reply
// channel were recycled).
const nullTransAllocs = 6

// raceBuild is set under the race detector (race_test.go), where
// allocation counts are not the program's.
var raceBuild bool
