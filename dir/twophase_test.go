// Two-phase-commit tests at the public API: the cross-shard lane of the
// conformance matrix, the lock/visibility semantics of a prepared
// transaction, and the halt schedule — the resolver's coordinator
// stopped at every stage of the protocol on every kind, with the
// resolver's takeover left to settle the transaction.
package dir_test

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	faultdir "dirsvc"

	"dirsvc/dir"
	"dirsvc/internal/dirclient"
	"dirsvc/internal/dirsvc"
	"dirsvc/internal/sim"
)

// newTxCluster builds a cluster tuned for two-phase fault injection.
func newTxCluster(t *testing.T, kind faultdir.Kind, shards int, cache dir.CacheOptions, balance bool) (*faultdir.Cluster, *dirclient.Client) {
	t.Helper()
	c, err := faultdir.New(kind, faultdir.Options{
		Model:             sim.FastModel(),
		HeartbeatInterval: 15 * time.Millisecond,
		Shards:            shards,
		Workers:           8,
		ClientCache:       cache,
		ReadBalance:       balance,
		IdleFlush:         time.Hour, // NVRAM flushes only when forced: crash points stay deterministic
	})
	if err != nil {
		t.Fatalf("New(%v, shards=%d): %v", kind, shards, err)
	}
	t.Cleanup(c.Close)
	client, cleanup, err := c.NewClient()
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	t.Cleanup(cleanup)
	return c, client
}

// lookupEventually polls until the lookup under dir/name settles on
// want (present or absent) or the deadline passes; transient errors are
// retried. It returns the last error for diagnostics.
func lookupEventually(client dir.Directory, d dir.Capability, name string, present bool, deadline time.Duration) error {
	var last error
	until := time.Now().Add(deadline)
	for {
		_, err := client.Lookup(bgCtx, d, name)
		switch {
		case err == nil && present:
			return nil
		case errors.Is(err, dir.ErrNotFound) && !present:
			return nil
		case err == nil:
			last = fmt.Errorf("row %q present, want absent", name)
		default:
			last = err
		}
		if time.Now().After(until) {
			return fmt.Errorf("lookup %q never settled (present=%v): %w", name, present, last)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestCrossShardConformance is the cross-shard lane of the conformance
// matrix: every kind commits a spanning batch atomically at shards
// {2,4} × cache {off,on} × read-balance {off,on}, read-your-writes
// holds through the committed batch on every involved shard, and an
// aborted spanning batch leaves no trace anywhere.
func TestCrossShardConformance(t *testing.T) {
	skipShardedInShortLane(t)
	counts := []int{2, 4}
	if *shardsFlag > 1 {
		counts = []int{*shardsFlag}
	}
	for _, shards := range counts {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			for _, cached := range []bool{false, true} {
				t.Run(fmt.Sprintf("cache=%v", cached), func(t *testing.T) {
					for _, balanced := range []bool{false, true} {
						t.Run(fmt.Sprintf("balance=%v", balanced), func(t *testing.T) {
							for _, kind := range allKinds {
								t.Run(kind.String(), func(t *testing.T) {
									_, client := newMatrixCluster(t, kind, shards, dir.CacheOptions{Enabled: cached}, balanced)
									scenarioCrossShardBatch(t, client, shards)
								})
							}
						})
					}
				})
			}
		})
	}
}

// applyRetrying applies a batch, riding out the cross-shard lane's load
// transients: the no-majority windows retryDir covers, plus short-lived
// ErrConflict — a previous attempt's transaction can hold its locks
// until its resolver settles it. A retry can also
// discover its predecessor actually committed (the reply was lost):
// ErrExists after the first attempt reports success with a nil result,
// and the caller verifies through reads. Other sentinel errors (the
// regressions the matrix must catch) pass through on first occurrence.
func applyRetrying(client *dirclient.Client, b *dir.Batch) (*dir.BatchResult, error) {
	attempt := 0
	var res *dir.BatchResult
	err := retryFor2PC(func() error {
		attempt++
		var aerr error
		res, aerr = client.Apply(bgCtx, b)
		return aerr
	})
	if err != nil && attempt > 1 && errors.Is(err, dir.ErrExists) {
		return nil, nil
	}
	return res, err
}

func retryFor2PC(op func() error) error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		err := op()
		retryable := scenarioRetryable(err) || errors.Is(err, dir.ErrConflict)
		if err == nil || !retryable || time.Now().After(deadline) {
			return err
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// lookupRetrying resolves one name, riding out lock-wait conflicts and
// transport churn; ErrNotFound — the signal the scenarios assert on —
// passes through untouched.
func lookupRetrying(client *dirclient.Client, d dir.Capability, name string) (dir.Capability, error) {
	var got dir.Capability
	err := retryFor2PC(func() error {
		var lerr error
		got, lerr = client.Lookup(bgCtx, d, name)
		return lerr
	})
	return got, err
}

func scenarioCrossShardBatch(t *testing.T, client *dirclient.Client, shards int) {
	t.Helper()
	dirs := make([]dir.Capability, shards)
	for s := 0; s < shards; s++ {
		dirs[s] = createDirOn(t, client, s)
	}

	// One batch touching every shard, plus a creation riding along.
	b := dir.NewBatch().CreateDir()
	for s, cap := range dirs {
		b.Append(cap, fmt.Sprintf("x%d", s), cap, nil)
	}
	res, err := applyRetrying(client, b)
	if err != nil {
		t.Fatalf("cross-shard Apply: %v", err)
	}
	if res != nil && (len(res.Results) != shards+1 || res.Results[0].Cap.IsZero()) {
		t.Fatalf("results = %+v", res.Results)
	}
	// Read-your-writes: the same client sees every step, immediately,
	// on every shard — through its cache and balanced reads when those
	// are on.
	for s, cap := range dirs {
		got, err := lookupRetrying(client, cap, fmt.Sprintf("x%d", s))
		if err != nil || got != cap {
			t.Fatalf("read-your-writes on shard %d: %v, %v", s, got, err)
		}
	}

	// An aborted spanning batch (bad step on the last shard) leaves no
	// trace on any shard.
	b = dir.NewBatch()
	for s, cap := range dirs {
		b.Append(cap, fmt.Sprintf("y%d", s), cap, nil)
	}
	b.Delete(dirs[shards-1], "never-existed")
	_, err = applyRetrying(client, b)
	if !errors.Is(err, dir.ErrNotFound) {
		t.Fatalf("aborting Apply: err = %v, want ErrNotFound", err)
	}
	var be *dir.BatchError
	if !errors.As(err, &be) || be.Index != shards {
		t.Fatalf("failing step = %v, want index %d", err, shards)
	}
	for s, cap := range dirs {
		if _, err := lookupRetrying(client, cap, fmt.Sprintf("y%d", s)); !errors.Is(err, dir.ErrNotFound) {
			t.Fatalf("aborted batch leaked on shard %d: %v", s, err)
		}
	}
}

// TestTwoPhaseCoordinatorCrash halts the resolver's coordinator — the
// replica that received the batch — at every stage of the protocol,
// with its server left running, so the client's request goes
// unanswered, and the client gives up before it would re-send it. The
// resolver's takeover settles whatever was prepared on every kind:
// before the decision it holds no plan, so it orders abort; after the
// resolver ordered the commit, the other shard learns it from the
// resolver. Every outcome is all-or-nothing and releases the locks.
func TestTwoPhaseCoordinatorCrash(t *testing.T) {
	skipShardedInShortLane(t)
	const shards = 2
	for _, kind := range allKinds {
		t.Run(kind.String(), func(t *testing.T) {
			c, client := newTxCluster(t, kind, shards, dir.CacheOptions{}, false)
			probeClient, cleanup, err := c.NewClient()
			if err != nil {
				t.Fatal(err)
			}
			defer cleanup()
			probe := retryDir{probeClient}

			stages := []struct {
				name      string
				stage     dirsvc.TxStage
				committed bool // the transaction's eventual outcome
			}{
				{"BeforePrepare", dirsvc.TxBeforePrepare, false},
				{"AfterResolverPrepare", dirsvc.TxAfterResolverPrepare, false},
				{"AfterPrepare", dirsvc.TxAfterPrepare, false},
				{"AfterResolverDecide", dirsvc.TxAfterResolverDecide, true},
			}
			for i, sc := range stages {
				t.Run(sc.name, func(t *testing.T) {
					d0 := createDirOn(t, client, 0)
					d1 := createDirOn(t, client, 1)
					name := fmt.Sprintf("halt%d", i)

					var once sync.Once
					c.SetTxHook(func(_, _ int, stage dirsvc.TxStage) (halt bool) {
						if stage == sc.stage {
							once.Do(func() { halt = true })
						}
						return halt
					})
					ctx, cancel := context.WithTimeout(bgCtx, 500*time.Millisecond)
					_, err := client.Apply(ctx, dir.NewBatch().
						Append(d0, name, d0, nil).
						Append(d1, name, d1, nil))
					cancel()
					if err == nil {
						t.Fatal("Apply answered from a halted coordinator")
					}

					// The shards must settle to the stage's outcome — read
					// through an independent client.
					for s, cap := range []dir.Capability{d0, d1} {
						if err := lookupEventually(probe, cap, name, sc.committed, 30*time.Second); err != nil {
							t.Fatalf("shard %d: %v", s, err)
						}
					}
					c.SetTxHook(nil)
					// The locks are gone: both directories accept updates.
					for _, cap := range []dir.Capability{d0, d1} {
						if err := retryErr(func() error {
							return probe.Append(bgCtx, cap, name+"-after", cap, nil)
						}); err != nil {
							t.Fatalf("post-resolution update: %v", err)
						}
					}
				})
			}
		})
	}
}

// TestTwoPhaseAtomicVisibility is the concurrent-reader proof of
// atomicity: while one client streams cross-shard batches, reader
// goroutines interrogate both shards and assert that observing a
// batch's step on one shard implies observing its step on the other —
// in either read order. The mechanism under test: the resolver commits
// first, and the other shard's objects stay locked (readers held) until
// its own decide applies, so "one shard new, the other old" is never
// observable.
func TestTwoPhaseAtomicVisibility(t *testing.T) {
	skipShardedInShortLane(t)
	c, writer := newTxCluster(t, faultdir.KindGroup, 2, dir.CacheOptions{}, false)
	d0 := createDirOn(t, writer, 0)
	d1 := createDirOn(t, writer, 1)

	const batches = 12
	names := make([]string, batches)
	for j := range names {
		names[j] = fmt.Sprintf("av%02d", j)
	}

	stop := make(chan struct{})
	readerErrs := make(chan error, 4)
	for r := 0; r < 4; r++ {
		reader, cleanup, err := c.NewClient()
		if err != nil {
			t.Fatal(err)
		}
		defer cleanup()
		first, second := d0, d1
		if r%2 == 1 {
			first, second = d1, d0 // half the readers probe in reverse order
		}
		go func(reader *dirclient.Client, first, second dir.Capability) {
			for {
				select {
				case <-stop:
					readerErrs <- nil
					return
				default:
				}
				for _, name := range names {
					a, err := reader.LookupSet(bgCtx, first, []string{name})
					if err != nil {
						continue // lock wait timed out / transient churn: not an observation
					}
					if a[0].IsZero() {
						continue // not committed on the first shard yet
					}
					// Committed on the first shard: the second shard must
					// show it too — its lock held any reader back until its
					// own commit applied.
					b, err := reader.LookupSet(bgCtx, second, []string{name})
					if err != nil {
						continue
					}
					if b[0].IsZero() {
						readerErrs <- fmt.Errorf("partial batch visible: %s on one shard only", name)
						return
					}
				}
			}
		}(reader, first, second)
	}

	for _, name := range names {
		if _, err := applyRetrying(writer, dir.NewBatch().
			Append(d0, name, d0, nil).
			Append(d1, name, d1, nil)); err != nil {
			close(stop)
			t.Fatalf("Apply %s: %v", name, err)
		}
	}
	close(stop)
	for r := 0; r < 4; r++ {
		if err := <-readerErrs; err != nil {
			t.Fatal(err)
		}
	}
}

// TestTwoPhaseLocksAndReaders pins the participant lock semantics at
// the API: while a transaction is prepared, conflicting updates are
// refused, and a reader of a staged directory is held until the
// decision — it then observes the committed batch, never a mix.
func TestTwoPhaseLocksAndReaders(t *testing.T) {
	skipShardedInShortLane(t)
	c, client := newTxCluster(t, faultdir.KindGroup, 2, dir.CacheOptions{}, false)
	other, cleanup, err := c.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup()

	d0 := createDirOn(t, client, 0)
	d1 := createDirOn(t, client, 1)

	// Every coordinator of the transaction — the initiator, and a
	// takeover should the hold outlast Takeover — waits for the release.
	hold := make(chan struct{})
	released := make(chan struct{})
	var once sync.Once
	c.SetTxHook(func(_, _ int, stage dirsvc.TxStage) bool {
		if stage == dirsvc.TxAfterPrepare {
			once.Do(func() { close(released) })
			<-hold
		}
		return false
	})
	defer c.SetTxHook(nil)

	applyDone := make(chan error, 1)
	go func() {
		_, err := client.Apply(bgCtx, dir.NewBatch().
			Append(d0, "locked", d0, nil).
			Append(d1, "locked", d1, nil))
		applyDone <- err
	}()
	<-released

	// Both directories are prepared: a conflicting update is refused.
	// (Transient no-majority churn from the shared -race lane is ridden
	// out; the terminal answer must be the conflict.)
	var conflictErr error
	for until := time.Now().Add(20 * time.Second); ; {
		conflictErr = other.Append(bgCtx, d1, "intruder", d1, nil)
		if !scenarioRetryable(conflictErr) || time.Now().After(until) {
			break
		}
		time.Sleep(25 * time.Millisecond)
	}
	if !errors.Is(conflictErr, dir.ErrConflict) {
		t.Fatalf("conflicting update: err = %v, want ErrConflict", conflictErr)
	}

	// A reader of the staged directory blocks until the decision, then
	// sees the committed row.
	readDone := make(chan error, 1)
	go func() {
		caps, err := other.LookupSet(bgCtx, d1, []string{"locked"})
		if err == nil && caps[0].IsZero() {
			err = fmt.Errorf("reader saw the pre-batch state after the commit")
		}
		readDone <- err
	}()
	select {
	case err := <-readDone:
		t.Fatalf("reader returned while the transaction was prepared: %v", err)
	case <-time.After(100 * time.Millisecond):
	}

	close(hold) // let the coordinator commit
	if err := <-applyDone; err != nil {
		t.Fatalf("Apply: %v", err)
	}
	select {
	case err := <-readDone:
		if err != nil {
			t.Fatalf("blocked reader: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("blocked reader never woke after the commit")
	}
}
