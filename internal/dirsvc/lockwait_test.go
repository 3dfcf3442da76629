package dirsvc

import (
	"errors"

	"dirsvc/internal/capability"
	"sync"
	"testing"
	"time"
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

// TestAwaitLockFreeReleasedByDecide is the core fast-path claim of the
// lock-wait queue: a waiter parked on a prepared transaction's lock is
// woken by the decide that releases it — no timeout, no retry loop.
func TestAwaitLockFreeReleasedByDecide(t *testing.T) {
	f, id, _, _ := preparedFixture(t)
	root, _ := f.applier.RootCap()

	done := make(chan error, 1)
	go func() {
		done <- f.applier.AwaitLockFree([]uint32{root.Object}, 10*time.Second)
	}()
	waitFor(t, "waiter to queue", func() bool { return f.applier.LockWaiters(root.Object) == 1 })
	select {
	case err := <-done:
		t.Fatalf("waiter returned %v while the lock was still held", err)
	case <-time.After(50 * time.Millisecond):
	}

	decide := &Request{Op: OpDecide, Blob: EncodeDecide(&Decide{ID: id, Commit: true})}
	if _, err := f.applier.ApplyUpdate(decide, 6, true); err != nil {
		t.Fatalf("decide: %v", err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("waiter after decide: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("decide did not wake the parked waiter")
	}
	if n := f.applier.LockWaiters(root.Object); n != 0 {
		t.Fatalf("queue not drained: %d waiters left", n)
	}
}

// TestAwaitLockFreeTimeout: a waiter that outlives its deadline gets the
// typed ErrLockWaitTimeout, which still satisfies errors.Is(ErrConflict)
// so existing retry classification is untouched.
func TestAwaitLockFreeTimeout(t *testing.T) {
	f, _, _, _ := preparedFixture(t)
	root, _ := f.applier.RootCap()

	start := time.Now()
	err := f.applier.AwaitLockFree([]uint32{root.Object}, 60*time.Millisecond)
	if !errors.Is(err, ErrLockWaitTimeout) {
		t.Fatalf("err = %v, want ErrLockWaitTimeout", err)
	}
	if !errors.Is(err, ErrConflict) {
		t.Fatal("ErrLockWaitTimeout must wrap ErrConflict for status mapping")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("timeout took %v", elapsed)
	}
	if n := f.applier.LockWaiters(root.Object); n != 0 {
		t.Fatalf("timed-out waiter left a queue entry: %d", n)
	}
}

// TestAwaitLockFreeFIFO: waiters are admitted in arrival order — the
// queue is fair, not a broadcast stampede. Admission happens under the
// applier lock, when a waiter's ticket heads the queue and it leaves it,
// so a waiter that returns finds no earlier ticket still queued. (The
// order the calls return in is not the promise: two back-to-back
// admissions race to return.)
func TestAwaitLockFreeFIFO(t *testing.T) {
	f, id, _, _ := preparedFixture(t)
	root, _ := f.applier.RootCap()
	a := f.applier

	const waiters = 4
	var tickets [waiters]uint64
	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := a.AwaitLockFree([]uint32{root.Object}, 10*time.Second); err != nil {
				t.Errorf("waiter %d: %v", i, err)
				return
			}
			a.mu.RLock()
			defer a.mu.RUnlock()
			if q := a.waiters[root.Object]; len(q) > 0 && q[0] < tickets[i] {
				t.Errorf("waiter %d (ticket %d) admitted ahead of ticket %d", i, tickets[i], q[0])
			}
		}()
		// Let each waiter queue before starting the next, so arrival
		// order is the ticket order; the decide below publishes tickets.
		waitFor(t, "waiter to queue", func() bool { return a.LockWaiters(root.Object) == i+1 })
		a.mu.RLock()
		tickets[i] = a.waiters[root.Object][i]
		a.mu.RUnlock()
	}

	decide := &Request{Op: OpDecide, Blob: EncodeDecide(&Decide{ID: id, Commit: false})}
	if _, err := a.ApplyUpdate(decide, 6, true); err != nil {
		t.Fatalf("decide: %v", err)
	}
	wg.Wait()
}

// TestAwaitLockFreeFullQueueSheds: the 17th waiter on one object is
// refused immediately with plain ErrConflict — load is shed, workers
// are not stacked without bound.
func TestAwaitLockFreeFullQueueSheds(t *testing.T) {
	f, id, _, _ := preparedFixture(t)
	root, _ := f.applier.RootCap()

	var wg sync.WaitGroup
	for i := 0; i < maxLockWaiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = f.applier.AwaitLockFree([]uint32{root.Object}, 10*time.Second)
		}()
	}
	waitFor(t, "queue to fill", func() bool { return f.applier.LockWaiters(root.Object) == maxLockWaiters })

	start := time.Now()
	err := f.applier.AwaitLockFree([]uint32{root.Object}, 10*time.Second)
	if !errors.Is(err, ErrConflict) || errors.Is(err, ErrLockWaitTimeout) {
		t.Fatalf("overflow waiter err = %v, want immediate plain ErrConflict", err)
	}
	if time.Since(start) > time.Second {
		t.Fatal("overflow waiter blocked instead of refusing immediately")
	}

	decide := &Request{Op: OpDecide, Blob: EncodeDecide(&Decide{ID: id, Commit: true})}
	if _, err := f.applier.ApplyUpdate(decide, 6, true); err != nil {
		t.Fatalf("decide: %v", err)
	}
	wg.Wait()
}

// TestLockWaitSlotsCap: the global slot budget (workers−1 in the
// servers) refuses waiters beyond the cap even when per-object queues
// have room, so a pile-up can never absorb every RPC worker.
func TestLockWaitSlotsCap(t *testing.T) {
	f, id, _, _ := preparedFixture(t)
	root, _ := f.applier.RootCap()
	f.applier.SetLockWaitSlots(1)

	done := make(chan error, 1)
	go func() {
		done <- f.applier.AwaitLockFree([]uint32{root.Object}, 10*time.Second)
	}()
	waitFor(t, "first waiter to queue", func() bool { return f.applier.LockWaiters(root.Object) == 1 })

	if err := f.applier.AwaitLockFree([]uint32{root.Object}, 10*time.Second); !errors.Is(err, ErrConflict) {
		t.Fatalf("second waiter err = %v, want ErrConflict (slot budget spent)", err)
	}

	decide := &Request{Op: OpDecide, Blob: EncodeDecide(&Decide{ID: id, Commit: true})}
	if _, err := f.applier.ApplyUpdate(decide, 6, true); err != nil {
		t.Fatalf("decide: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("first waiter: %v", err)
	}

	// n ≤ 0 disables waiting outright.
	f.applier.SetLockWaitSlots(0)
	if err := f.applier.AwaitLockFree([]uint32{root.Object}, time.Second); err != nil {
		t.Fatalf("unlocked object with slots=0: %v", err)
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

	// Decide never queues — it is what releases the locks.
	dec := &Request{Op: OpDecide, Blob: EncodeDecide(&Decide{ID: NewTxID(), Commit: true})}
	if got := LockWaitTargets(nil, dec, 1); got != nil {
		t.Fatalf("decide queued behind the locks it releases: %v", got)
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
		t.Fatalf("read op queued: %v", got)
	}
}
