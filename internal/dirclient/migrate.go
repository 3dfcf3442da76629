package dirclient

// This file is the client-side migration coordinator for elastic
// topology: it drives an online shard split (OpSplit at every source,
// then every target), moves each object of the split-off residue class
// with a copy-then-flip protocol (OpMigRead at the source, then a
// two-shard transaction pairing OpMigOut with OpMigIn), and finishes by
// sealing the target (OpSealMigration) and dropping the source's
// forwarding stubs (OpDropStubs).
//
// Every step is idempotent or retryable, so a coordinator that crashes
// anywhere can simply run SplitAndMigrate again: an already-split shard
// answers the split with its current floor, a half-moved object is
// re-copied or skipped (the source answers NotFound once its entry is a
// stub), and seal/drop replay harmlessly. The ordering invariant the
// coordinator maintains — sources split before targets, every object
// moved before the seal, the target sealed before the source drops its
// stubs — is what keeps routing loop-free for clients at any epoch.
//
// The flip itself rides the same two-phase commit as cross-shard
// batches, run by the lower of the two shards, so a migrator that dies
// mid-flip leaves the outcome to that shard exactly like any other
// transaction: either both shards commit (entry becomes a stub at the
// source, image lands at the target) or neither does.

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"dirsvc/dir"
	"dirsvc/internal/capability"
	"dirsvc/internal/dirsvc"
)

// SetMigrateHook installs fn (nil: none), called by MigrateObject between
// the copy and the flip; an error from fn is MigrateObject's.
func (c *Client) SetMigrateHook(fn func() error) { c.migHook.Store(&fn) }

// ShardMap reads one shard's topology snapshot: its shard-map epoch
// state, table occupancy, and the migration work list (owned objects
// homed elsewhere under the current epoch). The client adopts the
// returned epoch into its own routing.
func (c *Client) ShardMap(ctx context.Context, shard int) (*dirsvc.ShardMapInfo, error) {
	if shard < 0 || shard >= len(c.conns) {
		return nil, fmt.Errorf("shard %d out of range: %w", shard, dirsvc.ErrBadRequest)
	}
	var reply dirsvc.Reply
	_, err := c.transRead(ctx, shard, &dirsvc.Request{Op: dirsvc.OpShardMap}, &reply)
	if err != nil {
		return nil, err
	}
	info, err := dirsvc.DecodeShardMapInfo(reply.Blob)
	if err != nil {
		return nil, err
	}
	c.noteEpoch(info.Topo.Epoch)
	return info, nil
}

// Split advances the shard map one epoch: every active shard becomes
// the migration source of its twin (shard + active), and the twins
// activate as targets. Objects do not move yet — the split only fences
// allocation and starts forwarding; CompleteSplit does the moving.
//
// Split is resumable: if any shard reports a split still in progress,
// the in-flight epoch is re-driven instead of starting a new one, and
// shards that already processed it answer idempotently. It returns the
// epoch now in force.
func (c *Client) Split(ctx context.Context) (uint64, error) {
	target, err := c.splitTarget(ctx)
	if err != nil {
		return 0, err
	}
	oldActive := dir.ActiveShards(target-1, c.base, c.total)
	newActive := dir.ActiveShards(target, c.base, c.total)
	if newActive != oldActive*2 {
		return 0, fmt.Errorf("dirclient: no spare shards for epoch %d (%d of %d active): %w",
			target, oldActive, c.total, dirsvc.ErrBadRequest)
	}
	// Sources first: each answers with its moving class's allocation
	// floor, and fences its allocator so no new object can be minted in
	// the class that is leaving.
	floors := make([]uint32, oldActive)
	for s := 0; s < oldActive; s++ {
		var reply dirsvc.Reply
		_, err := c.trans(ctx, s, &dirsvc.Request{Op: dirsvc.OpSplit, Seq: target}, &reply)
		if err != nil {
			return 0, fmt.Errorf("split source %d: %w", s, err)
		}
		floors[s] = uint32(reply.ObjSeq)
	}
	// Then the targets, told their floor: a miss at or below it chases
	// to the source until the seal; numbers below it are never re-minted.
	for s := 0; s < oldActive; s++ {
		t := s + oldActive
		_, err := c.trans(ctx, t, &dirsvc.Request{Op: dirsvc.OpSplit, Seq: target, Column: int(floors[s])}, new(dirsvc.Reply))
		if err != nil {
			return 0, fmt.Errorf("split target %d: %w", t, err)
		}
	}
	c.noteEpoch(target)
	return target, nil
}

// splitTarget picks the epoch Split should drive: the in-flight epoch
// when any shard is still mid-migration (a crashed coordinator left a
// split to finish), else one past the highest epoch any shard holds.
func (c *Client) splitTarget(ctx context.Context) (uint64, error) {
	var maxEpoch uint64
	resume := false
	for s := 0; s < c.total; s++ {
		info, err := c.ShardMap(ctx, s)
		if err != nil {
			return 0, fmt.Errorf("shard map %d: %w", s, err)
		}
		if info.Topo.Epoch > maxEpoch {
			maxEpoch = info.Topo.Epoch
		}
		if info.Topo.MigPhase != dirsvc.MigNone {
			resume = true
		}
	}
	if resume {
		return maxEpoch, nil
	}
	return maxEpoch + 1, nil
}

// CompleteSplit drains the most recent split: moves every object of
// each source shard's departing residue class to its twin, seals each
// target, and drops the sources' forwarding stubs. Idempotent — safe to
// call after a crashed coordinator, or when no split is in progress.
func (c *Client) CompleteSplit(ctx context.Context) error {
	// Learn the authoritative epoch from every shard, not just one: a
	// replica that lags behind a just-committed split would report the
	// old epoch and make this a silent no-op. noteEpoch keeps the max.
	for s := 0; s < c.total; s++ {
		if _, err := c.ShardMap(ctx, s); err != nil {
			return err
		}
	}
	epoch := c.epoch.Load()
	active := dir.ActiveShards(epoch, c.base, c.total)
	if active < 2 {
		return nil
	}
	half := active / 2
	for src := 0; src < half; src++ {
		if err := c.drainSource(ctx, src, src+half, epoch); err != nil {
			return fmt.Errorf("drain shard %d: %w", src, err)
		}
	}
	return nil
}

// drainSource moves every departing object off one split source, then
// seals the target and drops the source's stubs — in that order, so a
// miss in the moving class always has exactly one authoritative answer.
func (c *Client) drainSource(ctx context.Context, src, dst int, epoch uint64) error {
	for round := 0; round < 100; round++ {
		info, err := c.ShardMap(ctx, src)
		if err != nil {
			return err
		}
		if info.Topo.Epoch < epoch {
			// A lagging replica served a pre-split map; taking its word
			// would skip the drain entirely. Wait for the split to reach
			// whoever answers, then look again.
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(time.Duration(round+1) * 5 * time.Millisecond):
			}
			continue
		}
		if info.Topo.MigPhase == dirsvc.MigNone && info.Stubs == 0 && len(info.Moving) == 0 {
			return nil // this source already completed (or never split)
		}
		if len(info.Moving) > 0 {
			for _, obj := range info.Moving {
				if err := c.MigrateObject(ctx, src, dst, obj); err != nil {
					return fmt.Errorf("migrate object %d: %w", obj, err)
				}
			}
			continue // re-snapshot before sealing
		}
		// Every moving object is gone. Seal the target first — misses at
		// or below the floor become authoritative there — then drop the
		// source's stubs (refused, and retried here, if a straggler
		// somehow remains).
		if _, err := c.trans(ctx, dst, &dirsvc.Request{Op: dirsvc.OpSealMigration}, new(dirsvc.Reply)); err != nil {
			return fmt.Errorf("seal target %d: %w", dst, err)
		}
		if _, err := c.trans(ctx, src, &dirsvc.Request{Op: dirsvc.OpDropStubs}, new(dirsvc.Reply)); err != nil {
			if errors.Is(err, dirsvc.ErrConflict) {
				continue
			}
			return fmt.Errorf("drop stubs at %d: %w", src, err)
		}
		return nil
	}
	return fmt.Errorf("source shard %d would not drain: %w", src, dirsvc.ErrConflict)
}

// MigrateObject moves one object from src to dst while the service
// stays live: copy the image at the source, then atomically flip
// ownership with a two-shard transaction, sent like a cross-shard batch
// to the lower of the two shards, which coordinates it — OpMigOut
// replaces the source entry with a forwarding stub if and only if the
// entry still carries the copied sequence number, OpMigIn installs the
// image at the target. A writer racing the flip makes it vote no, and
// the object is re-copied; an object deleted (or already moved)
// mid-flight is skipped.
func (c *Client) MigrateObject(ctx context.Context, src, dst int, obj uint32) error {
	if src == dst || obj == 0 || obj == dirsvc.RootObject {
		return fmt.Errorf("migrate object %d from %d to %d: %w", obj, src, dst, dirsvc.ErrBadRequest)
	}
	var lastErr error
	for attempt := 0; attempt < 8; attempt++ {
		var reply dirsvc.Reply
		_, err := c.transRead(ctx, src, &dirsvc.Request{
			Op:  dirsvc.OpMigRead,
			Dir: capability.Capability{Object: obj},
		}, &reply)
		if errors.Is(err, dirsvc.ErrNotFound) {
			return nil // deleted, or a previous flip already committed
		}
		if err != nil {
			return err
		}
		if hook := c.migHook.Load(); hook != nil && *hook != nil {
			if err := (*hook)(); err != nil {
				return err
			}
		}
		shards := []int{src, dst}
		sort.Ints(shards)
		plan := &txPlan{
			shards: shards,
			steps: map[int][]*dirsvc.Request{
				src: {{Op: dirsvc.OpMigOut, Dir: capability.Capability{Object: obj}, Seq: reply.ObjSeq, Column: dst}},
				dst: {{Op: dirsvc.OpMigIn, Dir: capability.Capability{Object: obj}, Blob: reply.Blob}},
			},
			index: map[int][]int{src: {0}, dst: {1}},
		}
		_, err = c.applyTx(ctx, 2, plan)
		if err == nil {
			return nil
		}
		if ctx.Err() != nil {
			return err
		}
		if errors.Is(err, dirsvc.ErrConflict) || errors.Is(err, dirsvc.ErrNotFound) {
			lastErr = err
			continue // interleaved write (or delete): copy again
		}
		return err
	}
	return fmt.Errorf("object %d kept changing under migration: %w", obj, lastErr)
}

// SplitAndMigrate runs a complete elastic-topology step: split the
// shard map one epoch, then move every departing object, seal, and
// clean up. Resumable end to end; returns the epoch now in force.
func (c *Client) SplitAndMigrate(ctx context.Context) (uint64, error) {
	epoch, err := c.Split(ctx)
	if err != nil {
		return 0, err
	}
	return epoch, c.CompleteSplit(ctx)
}

// LoadHints returns the mean piggybacked load hint (0..255) of each
// active shard's sampled replicas — the signal SplitIfHot rebalances
// on. Shards with no samples yet report zero.
func (c *Client) LoadHints() []float64 {
	active := dir.ActiveShards(c.epoch.Load(), c.base, c.total)
	out := make([]float64, active)
	for s := 0; s < active; s++ {
		var sum float64
		n := 0
		for _, st := range c.ReplicaStats(s) {
			if st.Samples > 0 {
				sum += float64(st.Hint)
				n++
			}
		}
		if n > 0 {
			out[s] = sum / float64(n)
		}
	}
	return out
}

// SplitIfHot runs SplitAndMigrate when any active shard's mean load
// hint reaches hot and spare shards exist to absorb the split. It
// reports whether a split ran and the epoch in force afterwards.
func (c *Client) SplitIfHot(ctx context.Context, hot float64) (bool, uint64, error) {
	peak := 0.0
	for _, h := range c.LoadHints() {
		if h > peak {
			peak = h
		}
	}
	epoch := c.epoch.Load()
	if peak < hot {
		return false, epoch, nil
	}
	active := dir.ActiveShards(epoch, c.base, c.total)
	if dir.ActiveShards(epoch+1, c.base, c.total) != active*2 {
		return false, epoch, nil // no spare shards to split into
	}
	newEpoch, err := c.SplitAndMigrate(ctx)
	if err != nil {
		return false, epoch, err
	}
	return true, newEpoch, nil
}
