package dirsvc

import (
	"fmt"
	"slices"
	"time"
)

// This file implements the write-side lock-wait queue. Without it, an
// update that hits an object locked by a prepared two-phase transaction
// is refused with ErrConflict and the client retries from scratch —
// every retry a full round-trip plus backoff, the dominant source of
// the cross-shard batch latency tail. Instead, the *initiating* server
// parks the update in a bounded, deadline-aware FIFO queue per object
// and admits it the moment the decision releases the lock. The wait
// happens before the update enters the backend's ordered apply path
// (and never under the applier mutex on that path), so appliers, group
// streams and OpDecide itself are never blocked by waiters.

// ErrLockWaitTimeout is returned when an update waited out its deadline
// on an object still locked by a prepared transaction. It wraps
// ErrConflict, so StatusOf maps it to StatusConflict and clients retry
// exactly as before — the queue is purely a fast path.
var ErrLockWaitTimeout = fmt.Errorf("dirsvc: timed out waiting for an object lock: %w", ErrConflict)

// maxLockWaiters bounds the queue per object; an update arriving at a
// full queue is refused immediately (plain ErrConflict), shedding load
// under pile-ups instead of stacking unbounded blocked workers.
const maxLockWaiters = 16

// SetLockWaitSlots bounds how many callers may be parked in
// AwaitLockFree at once, across all objects. Servers pass workers−1 so
// a lock-wait pile-up can never absorb every RPC worker: one always
// stays free to accept the OpDecide that releases the locks. n ≤ 0
// disables waiting entirely (contention refuses immediately); the
// default is unbounded.
func (a *Applier) SetLockWaitSlots(n int) {
	a.mu.Lock()
	if n < 0 {
		n = 0
	}
	a.waitSlots = n
	a.mu.Unlock()
}

// LockWaitTargets appends to dst, and returns, the objects an update
// request would need unlocked at this shard: the target directory of a
// plain mutation, or every step target of a batch or prepare. OpDecide —
// and anything else that never takes lock conflicts — appends nothing: a
// decide *releases* locks, and queuing it behind them would deadlock the
// release. dst is the caller's storage (a single update's one target
// fits in an array on its stack).
//
// A PREPARE queues only at the transaction's resolver shard (its lowest
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

// AwaitLockFree blocks until none of objs is locked by a prepared
// transaction — honoring per-object FIFO order among waiters — or the
// timeout passes (ErrLockWaitTimeout). A full queue refuses immediately
// with ErrConflict. The entire objs set shares one deadline.
//
// Callers run it on the request path of the *initiating* server, before
// the update is proposed to the backend; it must never be called from
// an apply path, which would hold up the ordered update stream the
// releasing OpDecide has to travel.
func (a *Applier) AwaitLockFree(objs []uint32, timeout time.Duration) error {
	if len(objs) == 0 {
		return nil
	}
	deadline := time.Now().Add(timeout)
	for _, obj := range objs {
		if obj == 0 {
			continue
		}
		if err := a.awaitLockFree(obj, deadline); err != nil {
			return err
		}
	}
	return nil
}

func (a *Applier) awaitLockFree(obj uint32, deadline time.Time) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	// Fast path: unlocked and nobody queued ahead.
	if len(a.waiters[obj]) == 0 && !a.lockedByOtherLocked(obj, TxID{}) {
		return nil
	}
	if len(a.waiters[obj]) >= maxLockWaiters {
		return ErrConflict
	}
	if a.waitSlots >= 0 && a.activeWaiters >= a.waitSlots {
		return ErrConflict
	}
	if a.waiters == nil {
		a.waiters = make(map[uint32][]uint64)
	}
	a.activeWaiters++
	defer func() { a.activeWaiters-- }()
	a.waitTicket++
	ticket := a.waitTicket
	a.waiters[obj] = append(a.waiters[obj], ticket)
	wake := time.AfterFunc(time.Until(deadline), func() {
		a.mu.Lock()
		a.txCond.Broadcast()
		a.mu.Unlock()
	})
	defer wake.Stop()
	defer func() {
		// Leave the queue (success or timeout) and pass the turn on.
		q := a.waiters[obj]
		for i, t := range q {
			if t == ticket {
				a.waiters[obj] = append(q[:i], q[i+1:]...)
				break
			}
		}
		if len(a.waiters[obj]) == 0 {
			delete(a.waiters, obj)
		}
		a.txCond.Broadcast()
	}()
	for {
		if q := a.waiters[obj]; len(q) > 0 && q[0] == ticket && !a.lockedByOtherLocked(obj, TxID{}) {
			return nil
		}
		if !time.Now().Before(deadline) {
			return ErrLockWaitTimeout
		}
		a.txCond.Wait()
	}
}

// LockWaiters reports how many updates are currently queued on obj
// (tests and status).
func (a *Applier) LockWaiters(obj uint32) int {
	a.mu.RLock()
	defer a.mu.RUnlock()
	return len(a.waiters[obj])
}
