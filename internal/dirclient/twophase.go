package dirclient

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"dirsvc/dir"
	"dirsvc/internal/dirsvc"
)

// This file is the coordinator side of cross-shard atomic batches: the
// client splits a batch by home shard, PREPAREs every participant in
// parallel, ratifies the decision at the resolver shard (the lowest
// participant — its totally-ordered stream is the commit point, so a
// coordinator abort racing a participant's presumed-abort timeout
// cannot split the outcome), and propagates COMMIT/ABORT to the rest.
// A coordinator that dies mid-protocol leaves the participants to
// resolve themselves: the resolver presumes abort after a timeout, and
// orphaned peers query the resolver (see core's txResolveLoop).

// TxStage identifies a point in the client-side two-phase commit.
// Fault-injection tests hook these to simulate a coordinator dying at
// every step of the protocol.
type TxStage int

// The hookable coordinator stages, in protocol order.
const (
	// TxBeforePrepare fires before any PREPARE is sent.
	TxBeforePrepare TxStage = iota + 1
	// TxAfterPrepare fires once every participant voted yes, before the
	// decision is sent anywhere.
	TxAfterPrepare
	// TxAfterResolverDecide fires after the resolver shard ratified the
	// commit, before it propagates to the remaining participants.
	TxAfterResolverDecide
	// TxAfterMigCopy fires in the migrator between copying an object's
	// image from the source shard and sending the flip transaction — the
	// window where a crashed migrator must leave both shards untouched.
	TxAfterMigCopy
)

// ErrTxHalt is returned by a transaction hook to abandon the
// coordinator at that stage — simulating a client crash. No aborts are
// sent; the participants' own recovery must resolve the transaction.
var ErrTxHalt = errors.New("dirclient: transaction coordinator halted (fault injection)")

// SetTxHook installs fn, called at each stage of every cross-shard
// two-phase commit this client coordinates. Returning an error stops
// the coordinator there; ErrTxHalt stops it silently (no abort is
// sent), simulating a crash. A nil fn removes the hook.
func (c *Client) SetTxHook(fn func(stage TxStage) error) {
	c.mu.Lock()
	c.txHook = fn
	c.mu.Unlock()
}

func (c *Client) txHookCall(stage TxStage) error {
	c.mu.Lock()
	fn := c.txHook
	c.mu.Unlock()
	if fn == nil {
		return nil
	}
	return fn(stage)
}

// txPlan is one batch split by home shard.
type txPlan struct {
	shards []int                     // sorted participant shards
	steps  map[int][]*dirsvc.Request // per-shard steps, original order
	index  map[int][]int             // per-shard step → original index
}

// planBatch routes every step to its home shard. Steps naming no
// directory (CreateDir) are homed on the lowest participant shard; a
// batch of only such steps has no participants at all and takes the
// single-shard fast path wherever the caller places it.
func (c *Client) planBatch(b *dir.Batch) *txPlan {
	p := &txPlan{steps: make(map[int][]*dirsvc.Request), index: make(map[int][]int)}
	var homeless []int
	all := b.Steps()
	for i, st := range all {
		if st.Dir.Object == 0 {
			homeless = append(homeless, i)
			continue
		}
		s := c.shardOf(st.Dir)
		p.steps[s] = append(p.steps[s], st)
		p.index[s] = append(p.index[s], i)
	}
	for s := range p.steps {
		p.shards = append(p.shards, s)
	}
	sort.Ints(p.shards)
	if len(p.shards) > 0 && len(homeless) > 0 {
		// Creations ride the resolver shard. Order within a batch does
		// not matter for a creation — nothing else in the batch can name
		// the new directory — but the assignment must be deterministic.
		home := p.shards[0]
		for _, i := range homeless {
			p.steps[home] = append(p.steps[home], all[i])
			p.index[home] = append(p.index[home], i)
		}
	}
	return p
}

// applyTwoPhase runs the distributed commit for a batch spanning
// plan.shards (≥ 2).
func (c *Client) applyTwoPhase(ctx context.Context, b *dir.Batch, plan *txPlan) (*dir.BatchResult, error) {
	return c.runTwoPhase(ctx, b.Len(), plan)
}

// runTwoPhase drives the two-phase protocol for an already-routed plan
// of nSteps total steps. The migrator uses this directly with a
// hand-built plan (OpMigOut at the source, OpMigIn at the target).
func (c *Client) runTwoPhase(ctx context.Context, nSteps int, plan *txPlan) (*dir.BatchResult, error) {
	id := dirsvc.NewTxID()
	resolver := plan.shards[0]
	participants := append([]int(nil), plan.shards...)

	if err := c.txHookCall(TxBeforePrepare); err != nil {
		return nil, err
	}

	// Phase 1: PREPARE every participant in parallel. Each shard
	// validates and stages its steps, locks the touched objects, and
	// votes with the staged per-step results.
	type vote struct {
		shard int
		reply *dirsvc.Reply
		err   error
	}
	votes := make(chan vote, len(plan.shards))
	for _, s := range plan.shards {
		go func(s int) {
			req := &dirsvc.Request{Op: dirsvc.OpPrepare, Blob: dirsvc.EncodePrepare(&dirsvc.Prepare{
				ID:           id,
				Resolver:     resolver,
				Participants: participants,
				Steps:        dirsvc.EncodeBatchSteps(plan.steps[s]),
			})}
			reply := new(dirsvc.Reply)
			err := c.transRaw(ctx, s, req, reply)
			votes <- vote{shard: s, reply: reply, err: err}
		}(s)
	}
	prepared := make(map[int]*dirsvc.Reply, len(plan.shards))
	var voteErr error
	for range plan.shards {
		v := <-votes
		switch {
		case v.err != nil:
			if voteErr == nil {
				voteErr = v.err
			}
		case v.reply.Status != dirsvc.StatusOK:
			if voteErr == nil {
				voteErr = c.remapBatchError(v.reply, plan.index[v.shard])
			}
			c.cache.noteReply(v.shard, v.reply.Seq)
		default:
			prepared[v.shard] = v.reply
			// The prepare advanced the shard's stream without changing
			// anything visible: object 0 never keys a cache entry, so this
			// moves the high-water mark without dropping the shard.
			c.cache.noteWrite(v.shard, v.reply.Seq, 0)
		}
	}
	if voteErr != nil {
		c.decideBestEffort(participants, id, false)
		return nil, voteErr
	}

	if err := c.txHookCall(TxAfterPrepare); err != nil {
		if !errors.Is(err, ErrTxHalt) {
			c.decideBestEffort(participants, id, false)
		}
		return nil, err
	}

	// Phase 2a: ratify the commit at the resolver. Its stream totally
	// orders this against any presumed-abort the resolver may race; the
	// transaction is committed — everywhere, eventually — exactly when
	// this apply succeeds.
	commitReply, err := c.decide(ctx, resolver, id, true)
	if err != nil {
		if errors.Is(err, dirsvc.ErrConflict) || errors.Is(err, dirsvc.ErrNotFound) {
			// The resolver resolved it first (presumed abort), or lost the
			// prepared state in a full-shard crash: the transaction cannot
			// commit anywhere. Release the rest.
			c.decideBestEffort(participants, id, false)
			return nil, fmt.Errorf("transaction %v aborted by participant recovery: %w", id, dirsvc.ErrConflict)
		}
		// Outcome unknown (timeout, cancellation): do NOT abort — the
		// resolver may have committed. The participants resolve among
		// themselves via the decision query.
		return nil, err
	}

	if err := c.txHookCall(TxAfterResolverDecide); err != nil {
		return nil, err
	}

	// Phase 2b: propagate the commit. The decision is already durable at
	// the resolver, so propagation runs on a detached context when the
	// caller's died — and a shard we fail to reach learns the outcome
	// from the resolver on its own.
	propCtx, cancel := ctx, func() {}
	if ctx.Err() != nil {
		propCtx, cancel = context.WithTimeout(context.Background(), 10*time.Second)
	}
	defer cancel()
	commitSeqs := map[int]uint64{resolver: commitReply.Seq}
	done := make(chan vote, len(plan.shards))
	others := 0
	for _, s := range plan.shards {
		if s == resolver {
			continue
		}
		others++
		go func(s int) {
			reply, err := c.decide(propCtx, s, id, true)
			done <- vote{shard: s, reply: reply, err: err}
		}(s)
	}
	for i := 0; i < others; i++ {
		v := <-done
		if v.err == nil {
			commitSeqs[v.shard] = v.reply.Seq
		}
	}

	// A shard whose decide we failed to deliver commits later on its
	// own (it learns the outcome from the resolver), so this client's
	// cached entries for it — including negatives the batch supersedes —
	// must go now, commit seq or no commit seq.
	for _, s := range plan.shards {
		if _, ok := commitSeqs[s]; !ok {
			c.cache.dropShard(s)
		}
	}

	// Reassemble per-step results in submission order from the prepare
	// votes (the commit replies carry the identical blobs), and feed the
	// committed objects into the per-shard cache invalidation.
	results := make([]dir.StepResult, nSteps)
	for s, reply := range prepared {
		stepResults, derr := dirsvc.DecodeBatchResults(reply.Blob)
		if derr != nil {
			return nil, derr
		}
		if len(stepResults) != len(plan.index[s]) {
			return nil, dirsvc.ErrBadRequest
		}
		objs := make([]uint32, 0, len(stepResults))
		for j, r := range stepResults {
			results[plan.index[s][j]] = r
			if r.Cap.Object != 0 {
				objs = append(objs, r.Cap.Object)
			}
		}
		for _, st := range plan.steps[s] {
			if st.Dir.Object != 0 {
				objs = append(objs, st.Dir.Object)
			}
		}
		if seq, ok := commitSeqs[s]; ok {
			c.cache.noteWrite(s, seq, objs...)
		}
	}
	return &dir.BatchResult{Seq: commitReply.Seq, Results: results}, nil
}

// decide drives one OpDecide to one shard until it gets an
// authoritative answer. Transient transport trouble and short-lived
// conflicts (the rpc kind refuses an intention while the previous one
// drains) are retried with backoff; a conflict that persists is the
// authoritative "a different decision won".
func (c *Client) decide(ctx context.Context, shard int, id dirsvc.TxID, commit bool) (*dirsvc.Reply, error) {
	req := &dirsvc.Request{
		Op:   dirsvc.OpDecide,
		Blob: dirsvc.EncodeDecide(&dirsvc.Decide{ID: id, Commit: commit}),
	}
	var lastErr error
	conflicts := 0
	for attempt := 0; attempt < 12; attempt++ {
		if attempt > 0 {
			select {
			case <-time.After(time.Duration(attempt) * 5 * time.Millisecond):
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		reply := new(dirsvc.Reply)
		if err := c.transRaw(ctx, shard, req, reply); err != nil {
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			lastErr = err
			continue
		}
		serr := reply.Status.Err()
		switch {
		case serr == nil:
			return reply, nil
		case errors.Is(serr, dirsvc.ErrConflict):
			conflicts++
			if conflicts >= 4 {
				return nil, serr
			}
			lastErr = serr
		case errors.Is(serr, dirsvc.ErrNoMajority):
			lastErr = serr
		default:
			return nil, serr
		}
	}
	return nil, lastErr
}

// decideBestEffort fans an abort (or commit) out to every participant
// without blocking the caller's outcome: failures are fine — presumed
// abort resolves whatever is left.
func (c *Client) decideBestEffort(shards []int, id dirsvc.TxID, commit bool) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	done := make(chan struct{}, len(shards))
	for _, s := range shards {
		go func(s int) {
			defer func() { done <- struct{}{} }()
			_, _ = c.decide(ctx, s, id, commit)
		}(s)
	}
	go func() {
		for range shards {
			<-done
		}
		cancel()
	}()
}

// remapBatchError converts a shard's vote-no reply into the caller's
// error, translating the failing step index from the shard's sub-batch
// back to the submitted batch.
func (c *Client) remapBatchError(reply *dirsvc.Reply, index []int) error {
	serr := reply.Status.Err()
	if idx, ok := dirsvc.DecodeBatchFailIndex(reply.Blob); ok && idx >= 0 && idx < len(index) {
		return &dirsvc.BatchError{Index: index[idx], Err: serr}
	}
	return serr
}
