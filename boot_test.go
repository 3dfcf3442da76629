package faultdir

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dirsvc/internal/capability"
	"dirsvc/internal/dirsvc"
	"dirsvc/internal/group"
	"dirsvc/internal/sim"
	"dirsvc/internal/vdisk"
)

// bootKinds are the group kinds a boot differs on: write-through, the
// NVRAM log and the storage engine.
var bootKinds = []struct {
	name   string
	kind   Kind
	engine bool
}{
	{"group", KindGroup, false},
	{"group+nvram", KindGroupNVRAM, false},
	{"group+engine", KindGroup, true},
}

// TestBootWithinBound: a replica probes for its group and reads its disk
// at once, so a paper-profile boot of one shard costs about the larger
// of the quiet beat (150 ms) and the boot's disk work, plus a recovery
// round and a commit-block write. Serially — disk work, then the quiet
// beat — it took 0.39 s on group+NVRAM and 0.55 s on group+engine. The
// fastest of three boots is checked, as in
// TestFourShardBootWithinTwoBeatsOfOne, and not under -race.
func TestBootWithinBound(t *testing.T) {
	for _, tc := range []struct {
		name   string
		kind   Kind
		engine bool
		bound  time.Duration
	}{
		{"group+nvram", KindGroupNVRAM, false, 300 * time.Millisecond},
		{"group+engine", KindGroup, true, 420 * time.Millisecond},
	} {
		t.Run(tc.name, func(t *testing.T) {
			best := time.Duration(math.MaxInt64)
			for range 3 {
				start := time.Now()
				c, err := New(tc.kind, Options{Model: sim.PaperModel(), DiskEngine: tc.engine})
				took := time.Since(start)
				if err != nil {
					t.Fatal(err)
				}
				c.Close()
				best = min(best, took)
			}
			t.Logf("fastest of three boots %v (bound %v)", best, tc.bound)
			if !raceBuild && best > tc.bound {
				t.Fatalf("fastest boot %v, over the bound %v", best, tc.bound)
			}
		})
	}
}

// bootFixture is a one-shard cluster with a directory the tests update
// through replica 1, below the transport.
type bootFixture struct {
	c    *Cluster
	dir  capability.Capability
	rows int
}

func newBootFixture(t *testing.T, kind Kind, engine bool, model *sim.LatencyModel, beat time.Duration) *bootFixture {
	t.Helper()
	f := &bootFixture{c: bootCluster(t, kind, Options{Model: model, DiskEngine: engine, HeartbeatInterval: beat})}
	reply := f.update(t, &dirsvc.Request{Op: dirsvc.OpCreateDir})
	f.dir = reply.Cap
	return f
}

// update runs req at replica 1, retrying while a view change settles.
func (f *bootFixture) update(t *testing.T, req *dirsvc.Request) *dirsvc.Reply {
	t.Helper()
	var reply *dirsvc.Reply
	if err := retryFor(10*time.Second, func() error {
		if reply = f.c.machine(1).front.Update(req); reply.Status != dirsvc.StatusOK {
			return reply.Status.Err()
		}
		return nil
	}); err != nil {
		t.Fatalf("%v at replica 1: %v", req.Op, err)
	}
	return reply
}

// appendRows adds n rows to the fixture's directory.
func (f *bootFixture) appendRows(t *testing.T, n int) {
	t.Helper()
	for range n {
		f.rows++
		f.update(t, f.appendReq(fmt.Sprintf("row%d", f.rows)))
	}
}

func (f *bootFixture) appendReq(name string) *dirsvc.Request {
	return &dirsvc.Request{
		Op: dirsvc.OpAppendRow, Dir: f.dir, Name: name, Cap: f.dir,
		Masks: []capability.Rights{capability.AllRights, capability.AllRights, capability.AllRights},
	}
}

// members is the view size replica id serves in, or -1 when it does not.
func (f *bootFixture) members(id int) int {
	st, ok := f.c.ShardServerStatus(0, id)
	if !ok || st.Recovering {
		return -1
	}
	return st.Members
}

// awaitView waits until replicas 1 and 2 serve in views of n members.
func (f *bootFixture) awaitView(t *testing.T, n int) {
	t.Helper()
	if err := retryFor(10*time.Second, func() error {
		if a, b := f.members(1), f.members(2); a != n || b != n {
			return fmt.Errorf("replicas 1 and 2 in views of %d and %d members, want %d", a, b, n)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// rowsAt is how many rows replica id lists in the fixture's directory.
func (f *bootFixture) rowsAt(id int) (int, error) {
	m := f.c.machine(id)
	m.mu.Lock()
	read := m.read
	m.mu.Unlock()
	if read == nil {
		return 0, fmt.Errorf("replica %d not serving", id)
	}
	reply := read(&dirsvc.Request{Op: dirsvc.OpListDir, Dir: f.dir})
	if reply.Status != dirsvc.StatusOK {
		return 0, reply.Status.Err()
	}
	return len(reply.Rows), nil
}

// TestBootExchangeNeverBelowLog: a peer's exchange that reaches a
// booting replica before the replica has derived the sequence number its
// stable storage holds is held, not answered with a lower one. Replica 3
// is crashed with every update on its disk and rebooted while a client
// sends exchanges to its recovery port without pause; every answer must
// carry at least the sequence number replica 3 held.
func TestBootExchangeNeverBelowLog(t *testing.T) {
	for _, tc := range bootKinds {
		t.Run(tc.name, func(t *testing.T) {
			// A quarter of the paper's disk times, so the boot's reads take
			// long enough for exchanges to arrive while they run.
			model := sim.ScaledPaperModel(0.25)
			f := newBootFixture(t, tc.kind, tc.engine, model, 0)
			f.appendRows(t, 5)
			beat := group.HeartbeatFor(model, group.Config{})
			time.Sleep(4 * beat) // the engine writes a replica's run within a beat
			st, ok := f.c.ShardServerStatus(0, 3)
			if !ok {
				t.Fatal("replica 3 not serving")
			}
			held := st.AppliedSeq
			f.c.CrashShardServer(0, 3)

			rc, _, err := f.c.NewRawClient()
			if err != nil {
				t.Fatal(err)
			}
			port := dirsvc.RecoveryPort(f.c.shard(0).service, 3)
			req := (&dirsvc.Request{Op: dirsvc.OpExchange, Server: 1}).Encode()
			var (
				stop     atomic.Bool
				answered atomic.Int64
				lowest   atomic.Uint64
				wg       sync.WaitGroup
			)
			lowest.Store(math.MaxUint64)
			for range 2 {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for !stop.Load() {
						raw, err := rc.Trans(port, req)
						if err != nil {
							continue // not serving the port yet
						}
						reply, err := dirsvc.DecodeReply(raw)
						if err != nil || reply.Status != dirsvc.StatusOK {
							continue // a refusal the peer's round retries
						}
						answered.Add(1)
						for low := lowest.Load(); reply.Seq < low && !lowest.CompareAndSwap(low, reply.Seq); low = lowest.Load() {
						}
					}
				}()
			}
			err = f.c.RestartShardServer(0, 3)
			stop.Store(true)
			wg.Wait()
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%d exchanges answered, lowest sequence number %d, replica 3 held %d", answered.Load(), lowest.Load(), held)
			if answered.Load() == 0 {
				t.Fatal("no exchange answered during the boot")
			}
			if low := lowest.Load(); low < held {
				t.Fatalf("an exchange during the boot answered sequence number %d, below the %d replica 3's disk holds", low, held)
			}
		})
	}
}

// cutFlagWrite makes replica 3's disk lose its next commit-block write,
// the recovering flag a boot writes first, and every write after it (a
// power cut). The flag write waits until replica 3 has joined the running
// group (replica 1 serves in a view of three), so the crash falls after
// the join and before the flag is durable. A write that comes before the
// flag — a pulled image written through, a checkpoint — fails the test.
func (f *bootFixture) cutFlagWrite(t *testing.T) {
	m := f.c.machine(3)
	var cut atomic.Bool
	m.disk.SetWriteHook(func(off int, data []byte) int {
		switch {
		case cut.Load():
			return 0
		case off != 0:
			t.Errorf("replica 3 wrote block %d before its recovering flag", off/vdisk.BlockSize)
			return len(data)
		}
		deadline := time.Now().Add(5 * time.Second)
		for f.members(1) != 3 && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if f.members(1) != 3 {
			t.Error("replica 3 had not joined by the time it wrote its recovering flag")
		}
		cut.Store(true)
		return 0
	})
}

// TestBootCrashBeforeRecoveringFlag: a replica that crashes after it
// joined its group but before its recovering flag is durable has
// replayed, pulled and installed nothing, and leaves the group; booted
// again, it serves the majority's state, not the older one on its disk.
func TestBootCrashBeforeRecoveringFlag(t *testing.T) {
	for _, tc := range bootKinds {
		t.Run(tc.name, func(t *testing.T) {
			f := newBootFixture(t, tc.kind, tc.engine, sim.FastModel(), testHeartbeat)
			f.appendRows(t, 3)
			f.c.CrashShardServer(0, 3)
			f.awaitView(t, 2)
			f.appendRows(t, 4) // replica 3 misses these

			f.cutFlagWrite(t)
			if err := f.c.RestartShardServer(0, 3); err == nil {
				t.Fatal("replica 3 booted without its recovering flag on disk")
			} else {
				t.Logf("boot with the flag write cut: %v", err)
			}
			f.awaitView(t, 2)
			f.c.machine(3).disk.SetWriteHook(nil)

			if err := f.c.RestartShardServer(0, 3); err != nil {
				t.Fatal(err)
			}
			rows, err := f.rowsAt(3)
			if err != nil || rows != f.rows {
				t.Fatalf("replica 3 lists %d rows (%v) after its boot, the majority %d", rows, err, f.rows)
			}
		})
	}
}

// TestFailedBootLeavesGroup: a boot that fails after its replica joined
// the group leaves it again at once. The running members' next update
// then completes within two beats, not after the seven beats failure
// detection takes to drop a member that stopped answering, and their
// view is back to two members.
func TestFailedBootLeavesGroup(t *testing.T) {
	const beat = 50 * time.Millisecond
	for _, tc := range bootKinds {
		t.Run(tc.name, func(t *testing.T) {
			f := newBootFixture(t, tc.kind, tc.engine, sim.FastModel(), beat)
			f.appendRows(t, 2)
			f.c.CrashShardServer(0, 3)
			f.awaitView(t, 2)
			f.appendRows(t, 1)

			f.cutFlagWrite(t)
			if err := f.c.RestartShardServer(0, 3); err == nil {
				t.Fatal("replica 3 booted without its recovering flag on disk")
			}
			start := time.Now()
			reply := f.c.machine(1).front.Update(f.appendReq("after"))
			took := time.Since(start)
			t.Logf("update after the failed boot: %v in %v (beat %v)", reply.Status, took, beat)
			if reply.Status != dirsvc.StatusOK {
				t.Fatalf("update after the failed boot: %v", reply.Status.Err())
			}
			if took > 2*beat {
				t.Fatalf("update after the failed boot took %v, over two beats (%v)", took, 2*beat)
			}
			if a, b := f.members(1), f.members(2); a != 2 || b != 2 {
				t.Fatalf("views of %d and %d members after the failed boot, want 2: a silent member stayed", a, b)
			}
		})
	}
}
