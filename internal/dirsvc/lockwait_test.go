package dirsvc

import (
	"errors"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"dirsvc/internal/capability"
)

// waitFor spins until cond() holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// parked reports how many callers wait in AwaitLockFree.
func parked(a *Applier) int {
	a.mu.RLock()
	defer a.mu.RUnlock()
	return a.activeWaiters
}

// waiterRows names each update a lockWaiters entry sends.
var waiterRows atomic.Uint64

// lockWaiters are the two callers of the one lock wait, each through its
// front-end path: a read of dir and an update of dir. Each returns the
// status its caller is answered with.
var lockWaiters = []struct {
	name string
	call func(f *FrontEnd, dir capability.Capability) Status
}{
	{"read", func(f *FrontEnd, dir capability.Capability) Status {
		return f.Read(&Request{Op: OpListDir, Dir: dir}).Status
	}},
	{"update", func(f *FrontEnd, dir capability.Capability) Status {
		name := "row" + strconv.FormatUint(waiterRows.Add(1), 10)
		return f.Update(&Request{Op: OpAppendRow, Dir: dir, Name: name, Cap: dir, Masks: ownerMasks()}).Status
	}},
}

// lockedFront prepares a transaction that locks the root of a front-end
// fixture's shard, and returns the front end, the root and the decide
// that commits the transaction.
func lockedFront(t *testing.T) (*FrontEnd, capability.Capability, *Request) {
	t.Helper()
	f, _ := newFrontFixture(t)
	root, err := f.Applier.RootCap()
	if err != nil {
		t.Fatal(err)
	}
	id := NewTxID()
	prep := &Request{Op: OpPrepare, Blob: EncodePrepare(&Prepare{
		ID: id, Participants: []int{0, 1},
		Steps: EncodeBatchSteps([]*Request{
			{Op: OpAppendRow, Dir: root, Name: "staged", Cap: root, Masks: ownerMasks()},
		}),
	})}
	if reply := f.Update(prep); reply.Status != StatusOK {
		t.Fatalf("prepare: %v", reply.Status)
	}
	return f, root, &Request{Op: OpDecide, Blob: EncodeDecide(&Decide{ID: id, Commit: true})}
}

// decideOn applies decide to f's replica, as its backend would. It
// leaves the fixture's backend alone, which a parked caller uses once
// it is admitted.
func decideOn(t *testing.T, f *FrontEnd, decide *Request) {
	t.Helper()
	if _, err := f.Applier.ApplyUpdate(decide, f.Applier.AppliedSeq()+1, false); err != nil {
		t.Fatalf("decide: %v", err)
	}
}

// TestAwaitLockFreeReleasedByDecide is the core fast-path claim of the
// lock wait: a read or an update parked on a prepared transaction's
// lock is woken by the decide that releases it — no timeout, no retry
// loop.
func TestAwaitLockFreeReleasedByDecide(t *testing.T) {
	for _, w := range lockWaiters {
		t.Run(w.name, func(t *testing.T) {
			f, root, decide := lockedFront(t)
			f.LockWait = 10 * time.Second
			done := make(chan Status, 1)
			go func() { done <- w.call(f, root) }()
			waitFor(t, "waiter to park", func() bool { return parked(f.Applier) == 1 })
			select {
			case st := <-done:
				t.Fatalf("waiter answered %v while the lock was still held", st)
			case <-time.After(50 * time.Millisecond):
			}

			decideOn(t, f, decide)
			select {
			case st := <-done:
				if st != StatusOK {
					t.Fatalf("waiter after decide: %v", st)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("decide did not wake the parked waiter")
			}
			if n := parked(f.Applier); n != 0 {
				t.Fatalf("%d waiters still parked", n)
			}
		})
	}
}

// TestAwaitLockFreeTimeout: a waiter that outlives its deadline gets the
// typed ErrLockWaitTimeout, which still satisfies errors.Is(ErrConflict)
// so existing retry classification is untouched; a read or an update
// that waits it out is answered StatusConflict.
func TestAwaitLockFreeTimeout(t *testing.T) {
	a, _, _, _ := preparedFixture(t)
	root, _ := a.applier.RootCap()
	start := time.Now()
	err := a.applier.AwaitLockFree([]uint32{root.Object}, 60*time.Millisecond)
	if !errors.Is(err, ErrLockWaitTimeout) {
		t.Fatalf("err = %v, want ErrLockWaitTimeout", err)
	}
	if !errors.Is(err, ErrConflict) {
		t.Fatal("ErrLockWaitTimeout must wrap ErrConflict for status mapping")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("timeout took %v", elapsed)
	}

	for _, w := range lockWaiters {
		t.Run(w.name, func(t *testing.T) {
			f, root, _ := lockedFront(t)
			f.LockWait = 60 * time.Millisecond
			start := time.Now()
			if st := w.call(f, root); st != StatusConflict {
				t.Fatalf("status %v, want %v", st, StatusConflict)
			}
			if elapsed := time.Since(start); elapsed < f.LockWait || elapsed > 5*time.Second {
				t.Fatalf("answered after %v, want the lock wait of %v", elapsed, f.LockWait)
			}
			if n := parked(f.Applier); n != 0 {
				t.Fatalf("timed-out waiter left %d parked", n)
			}
		})
	}
}

// TestLockWaitSlotsCap: the slot budget (workers−1 in the servers) is
// one budget for reads and updates. With one slot, whichever kind parks
// first holds it and the other is refused at once; an unlocked object
// needs no slot, so even a budget of none passes it.
func TestLockWaitSlotsCap(t *testing.T) {
	for i, holder := range lockWaiters {
		refused := lockWaiters[1-i]
		t.Run(holder.name+" holds, "+refused.name+" refused", func(t *testing.T) {
			f, root, decide := lockedFront(t)
			f.LockWait = 10 * time.Second
			f.Applier.SetLockWaitSlots(1)
			done := make(chan Status, 1)
			go func() { done <- holder.call(f, root) }()
			waitFor(t, "first waiter to park", func() bool { return parked(f.Applier) == 1 })

			start := time.Now()
			if st := refused.call(f, root); st != StatusConflict {
				t.Fatalf("second waiter: status %v, want %v (slot budget spent)", st, StatusConflict)
			}
			if elapsed := time.Since(start); elapsed > time.Second {
				t.Fatalf("second waiter refused after %v, want at once", elapsed)
			}

			decideOn(t, f, decide)
			if st := <-done; st != StatusOK {
				t.Fatalf("first waiter: %v", st)
			}

			// n ≤ 0 disables waiting; an unlocked object does not wait.
			f.Applier.SetLockWaitSlots(0)
			for _, w := range lockWaiters {
				if st := w.call(f, root); st != StatusOK {
					t.Fatalf("%s of an unlocked object with slots=0: %v", w.name, st)
				}
			}
		})
	}
}

// TestLockWaitFastPathAllocs: with no target locked, the wait costs a
// shared lock and no allocation — on the read path's one-object target
// and on the update path's LockWaitTargets — even while another object
// is locked.
func TestLockWaitFastPathAllocs(t *testing.T) {
	f, _, _, _ := preparedFixture(t)
	const free = 42
	update := &Request{Op: OpAppendRow, Dir: capability.Capability{Object: free}, Name: "x"}
	paths := map[string]func(){
		"read": func() {
			if err := f.applier.AwaitLockFree([]uint32{free}, time.Second); err != nil {
				t.Fatal(err)
			}
		},
		"update": func() {
			var one [1]uint32
			if err := f.applier.AwaitLockFree(LockWaitTargets(one[:0], update, 0), time.Second); err != nil {
				t.Fatal(err)
			}
		},
	}
	for name, path := range paths {
		got := testing.AllocsPerRun(100, path)
		t.Logf("unlocked %s wait: %.1f allocs", name, got)
		if got != 0 {
			t.Errorf("%s: unlocked wait allocates %.1f times, want 0", name, got)
		}
	}
}

// TestLockWaitTargetsResolverOnly pins the deadlock-freedom rule: a
// PREPARE parks only at its resolver shard; everywhere else it must
// fail fast, because it may already hold locks at other shards.
func TestLockWaitTargetsResolverOnly(t *testing.T) {
	root := capability.Capability{Object: 7}
	steps := EncodeBatchSteps([]*Request{
		{Op: OpAppendRow, Dir: root, Name: "a"},
		{Op: OpDeleteRow, Dir: capability.Capability{Object: 9}, Name: "b"},
	})
	prep := &Request{Op: OpPrepare, Blob: EncodePrepare(&Prepare{
		ID: NewTxID(), Participants: []int{1, 3}, Steps: steps,
	})}

	if got := LockWaitTargets(nil, prep, 1); len(got) != 2 || got[0] != 7 || got[1] != 9 {
		t.Fatalf("prepare at resolver shard: targets = %v, want [7 9]", got)
	}
	if got := LockWaitTargets(nil, prep, 3); got != nil {
		t.Fatalf("prepare at non-resolver shard must not park: targets = %v", got)
	}

	// Decide never parks — it is what releases the locks.
	dec := &Request{Op: OpDecide, Blob: EncodeDecide(&Decide{ID: NewTxID(), Commit: true})}
	if got := LockWaitTargets(nil, dec, 1); got != nil {
		t.Fatalf("decide parked behind the locks it releases: %v", got)
	}

	// Plain updates and batches park at any shard: they hold nothing.
	upd := &Request{Op: OpAppendRow, Dir: root, Name: "x"}
	if got := LockWaitTargets(nil, upd, 3); len(got) != 1 || got[0] != 7 {
		t.Fatalf("plain update targets = %v, want [7]", got)
	}
	batch := &Request{Op: OpBatch, Blob: steps}
	if got := LockWaitTargets(nil, batch, 3); len(got) != 2 {
		t.Fatalf("batch targets = %v, want both step objects", got)
	}
	if got := LockWaitTargets(nil, &Request{Op: OpListDir, Dir: root}, 0); got != nil {
		t.Fatalf("read op parked: %v", got)
	}
}
