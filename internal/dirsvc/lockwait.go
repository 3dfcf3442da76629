package dirsvc

import (
	"fmt"
	"slices"
	"time"
)

// This file implements the one lock wait of the request path: a read or
// an update that meets an object locked by a prepared two-phase
// transaction waits on the *initiating* server until the decide
// releases the lock, instead of bouncing back to its client for a
// retry. A read so sees exactly one side of the batch; an update is
// spared the round trip and backoff of a conflict retry.

// ErrLockWaitTimeout is returned when a caller waited out its deadline
// on an object still locked by a prepared transaction. It wraps
// ErrConflict, so StatusOf maps it to StatusConflict and clients retry
// exactly as before — the wait is purely a fast path.
var ErrLockWaitTimeout = fmt.Errorf("dirsvc: timed out waiting for an object lock: %w", ErrConflict)

// SetLockWaitSlots bounds how many callers may wait in AwaitLockFree at
// once, reads and updates together. Servers pass workers−1 so a
// pile-up on a locked object can never absorb every initiator thread:
// one always stays free to accept the OpDecide that releases the
// locks. n ≤ 0 disables waiting entirely (contention refuses
// immediately); the default is unbounded.
func (a *Applier) SetLockWaitSlots(n int) {
	a.mu.Lock()
	a.waitSlots = max(n, 0)
	a.mu.Unlock()
}

// LockWaitTargets appends to dst, and returns, the objects an update
// request would need unlocked at this shard: the target directory of a
// plain mutation, or every step target of a batch or prepare. OpDecide —
// and anything else that never takes lock conflicts — appends nothing: a
// decide *releases* locks, and parking it behind them would deadlock the
// release. dst is the caller's storage (a single update's one target
// fits in an array on its stack).
//
// A PREPARE parks only at the transaction's resolver shard (its lowest
// participant); everywhere else it appends nothing and a conflicting
// prepare fails fast. Plain updates and batches hold no locks while
// parked, so only prepares can hold-and-wait — and a parked prepare
// then waits at a shard strictly lower than any shard it holds locks
// on, which makes a wait-for cycle (and so distributed deadlock between
// concurrent coordinators) impossible: around any would-be cycle the
// waited-on shard index would have to decrease forever.
func LockWaitTargets(dst []uint32, req *Request, shard int) []uint32 {
	switch req.Op {
	case OpDeleteDir, OpAppendRow, OpChmodRow, OpDeleteRow, OpReplaceSet:
		if req.Dir.Object != 0 {
			return append(dst, req.Dir.Object)
		}
	case OpBatch:
		steps, err := DecodeBatchSteps(req.Blob)
		if err != nil {
			return dst
		}
		return appendStepTargets(dst, steps)
	case OpPrepare:
		p, err := DecodePrepare(req.Blob)
		if err != nil || p.Resolver() != shard {
			return dst
		}
		steps, err := DecodeBatchSteps(p.Steps)
		if err != nil {
			return dst
		}
		return appendStepTargets(dst, steps)
	}
	return dst
}

// appendStepTargets appends the distinct nonzero target objects of a
// batch to dst.
func appendStepTargets(dst []uint32, steps []*Request) []uint32 {
	first := len(dst)
	for _, st := range steps {
		if st.Dir.Object != 0 && !slices.Contains(dst[first:], st.Dir.Object) {
			dst = append(dst, st.Dir.Object)
		}
	}
	return dst
}

// AwaitLockFree returns once none of objs is locked by a prepared
// transaction. With none locked it returns at once, under the shared
// lock and without allocating. Otherwise it takes one of the
// SetLockWaitSlots slots — none free refuses at once with ErrConflict —
// and waits until every one of objs is free, or the timeout passes
// (ErrLockWaitTimeout).
//
// Callers run it on the request path of the *initiating* server, before
// a read executes or an update is proposed to the backend; it must
// never be called from an apply path, which would hold up the ordered
// update stream the releasing OpDecide has to travel.
func (a *Applier) AwaitLockFree(objs []uint32, timeout time.Duration) error {
	a.mu.RLock()
	free := a.lockFreeLocked(objs)
	a.mu.RUnlock()
	if free {
		return nil
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.lockFreeLocked(objs) {
		return nil
	}
	if a.waitSlots >= 0 && a.activeWaiters >= a.waitSlots {
		return ErrConflict
	}
	a.activeWaiters++
	defer func() { a.activeWaiters-- }()
	deadline := time.Now().Add(timeout)
	wake := time.AfterFunc(timeout, func() {
		a.mu.Lock()
		a.txCond.Broadcast()
		a.mu.Unlock()
	})
	defer wake.Stop()
	for !a.lockFreeLocked(objs) {
		if !time.Now().Before(deadline) {
			return ErrLockWaitTimeout
		}
		a.txCond.Wait()
	}
	return nil
}

// lockFreeLocked reports whether no object of objs is locked by a
// prepared transaction. Must hold a.mu (shared suffices).
func (a *Applier) lockFreeLocked(objs []uint32) bool {
	for _, obj := range objs {
		if _, locked := a.locks[obj]; locked {
			return false
		}
	}
	return true
}
