package group

import (
	"errors"
	"testing"
)

// warmSend returns a Send from the sequencer of three members at
// resilience 2 — the directory service's configuration — after a few
// warm-up sends, with every member consuming the total order.
func warmSend(tb testing.TB) func() error {
	tb.Helper()
	c := newCluster(tb, 3, 2)
	for _, m := range c.members {
		go func(m *Member) {
			for {
				if _, err := m.Receive(); err != nil && !errors.Is(err, ErrGroupFailure) {
					return
				}
			}
		}(m)
	}
	payload := []byte("update")
	send := func() error {
		_, err := c.members[0].Send(payload)
		return err
	}
	for i := 0; i < 16; i++ {
		if err := send(); err != nil {
			tb.Fatal(err)
		}
	}
	return send
}

// BenchmarkSend is one totally-ordered send at r = 2 from the sequencer:
// ORD multicast, two ACCEPTs, local delivery at all three members.
func BenchmarkSend(b *testing.B) {
	send := warmSend(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := send(); err != nil {
			b.Fatal(err)
		}
	}
}

// TestSendAllocs guards that send's allocations, whole process: the
// three frames, the sequencer's ORD and acknowledgement record, each
// member's copy of the ORD it keeps, and the simulated network's queues.
func TestSendAllocs(t *testing.T) {
	if raceBuild {
		t.Skip("the race detector makes sync.Pool drop what it is given")
	}
	send := warmSend(t)
	got := testing.AllocsPerRun(500, func() {
		if err := send(); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("warm send at r = 2: %.1f allocs", got)
	if got > sendAllocs {
		t.Fatalf("warm send at r = 2 allocates %.1f times, want ≤ %d", got, sendAllocs)
	}
}

// sendAllocs is what this commit measured (27 while every message was
// encoded and framed in two buffers, decoded onto the heap, and a send
// made its own timer, channel and acknowledgement map).
const sendAllocs = 12

// raceBuild is set under the race detector (race_test.go), where
// allocation counts are not the program's.
var raceBuild bool
