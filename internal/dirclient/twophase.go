package dirclient

import (
	"context"
	"sort"

	"dirsvc/dir"
	"dirsvc/internal/dirsvc"
)

// This file sends cross-shard atomic batches: the whole plan goes, as one
// OpTx, to the resolver shard — the lowest participant — whose front end
// runs the two-phase commit (dirsvc's coordinator.go).

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

// applyTx sends a plan spanning plan.shards (≥ 2) of nSteps total steps
// to its resolver and notes each shard's commit in the cache and the
// session floors. The migrator uses it directly with a hand-built plan
// (OpMigOut at the source, OpMigIn at the target).
func (c *Client) applyTx(ctx context.Context, nSteps int, plan *txPlan) (*dir.BatchResult, error) {
	resolver := plan.shards[0]
	p := &dirsvc.Prepare{ID: dirsvc.NewTxID(), Participants: plan.shards, Steps: dirsvc.EncodeBatchSteps(plan.steps[resolver])}
	var order []int // plan-wide step k → original index
	for _, s := range plan.shards {
		if s != resolver {
			p.Others = append(p.Others, dirsvc.EncodeBatchSteps(plan.steps[s]))
		}
		order = append(order, plan.index[s]...)
	}
	var reply dirsvc.Reply
	if err := c.transRaw(ctx, resolver, &dirsvc.Request{Op: dirsvc.OpTx, Blob: dirsvc.EncodePrepare(p)}, &reply); err != nil {
		return nil, err
	}
	if serr := c.statusErr(resolver, &reply); serr != nil {
		if k, ok := dirsvc.DecodeBatchFailIndex(reply.Blob); ok && k >= 0 && k < len(order) {
			return nil, &dirsvc.BatchError{Index: order[k], Err: serr}
		}
		return nil, serr
	}
	out, err := dirsvc.DecodeTxOutcome(reply.Blob)
	if err != nil || len(out.Seqs) != len(plan.shards) || len(out.Results) != len(order) {
		return nil, dirsvc.ErrBadRequest
	}
	results := make([]dir.StepResult, nSteps)
	k := 0
	for i, s := range plan.shards {
		var objs []uint32
		for j, st := range plan.steps[s] {
			r := out.Results[k]
			k++
			results[plan.index[s][j]] = r
			if r.Cap.Object != 0 {
				objs = append(objs, r.Cap.Object)
			}
			if st.Dir.Object != 0 {
				objs = append(objs, st.Dir.Object)
			}
		}
		if out.Seqs[i] == 0 {
			// The shard commits when it learns the outcome later: what was
			// cached of it, negatives included, must go now.
			c.cache.dropShard(s)
			continue
		}
		c.noteSeq(s, out.Seqs[i])
		c.cache.noteWrite(s, out.Seqs[i], objs...)
	}
	return &dir.BatchResult{Seq: reply.Seq, Results: results}, nil
}
