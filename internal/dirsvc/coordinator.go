package dirsvc

import (
	"sync"
	"time"

	"dirsvc/internal/rpc"
)

// This file is the coordinator of cross-shard transactions. A client
// sends a spanning batch as one OpTx, carrying the whole plan, to the
// resolver shard — its lowest participant — and the replica that
// receives it orders the resolver's prepare, prepares the other
// participants, orders commit or abort on the resolver's stream,
// propagates the decision, and answers with every shard's step results
// and commit sequence number. Every step can be repeated — a second
// prepare votes again, and the first decision in the stream wins — so
// another resolver replica, given the client's re-sent request, finishes
// what a crashed initiator began, and one taking over an in-doubt
// transaction (txResolveLoop) settles it.

// TxStage names a point of the coordinator's protocol, where
// fault-injection tests crash the initiating replica (SetTxHook).
type TxStage int

// The hookable stages, in protocol order.
const (
	TxBeforePrepare        TxStage = iota + 1 // the request arrived, nothing is ordered
	TxAfterResolverPrepare                    // the resolver's prepare is on its stream
	TxAfterPrepare                            // every participant voted yes, nothing is decided
	TxAfterResolverDecide                     // the decision is on the resolver's stream, not sent on
)

// SetTxHook installs fn, called at each stage of every transaction this
// front end coordinates. When fn returns true the coordinator halts
// there as a crash would: it sends nothing more and answers nobody until
// the front end closes.
func (f *FrontEnd) SetTxHook(fn func(stage TxStage) (halt bool)) { f.txHook.Store(&fn) }

func (f *FrontEnd) halted(stage TxStage) bool {
	if hook := f.txHook.Load(); hook == nil || *hook == nil || !(*hook)(stage) {
		return false
	}
	<-f.stop
	return true
}

// startTx takes a client's OpTx off the initiator thread: a transaction
// waits on the other shards, and a thread it held would be one the
// resolver's own reads and updates lack. It coordinates on a goroutine
// of its own that answers through the deferred RPC; a nil reply means
// the answer is deferred.
func (f *FrontEnd) startTx(rreq *rpc.Request, req *Request) *Reply {
	p, err := DecodePrepare(req.Blob)
	if err != nil || p.Resolver() != f.cfg.Shard || len(p.Others) != len(p.Participants)-1 {
		return status(StatusBadRequest)
	}
	later := rreq.Defer()
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		_ = later.Reply(f.coordinate(p).AppendTo(nil))
	}()
	return nil
}

// coordinate runs transaction p — a client's OpTx, whose Others carry
// the plan, or an in-doubt resolver record the takeover picks up — and
// returns the client's answer. The record the resolver orders leaves
// Others out: only the replica holding the request needs the plan, and
// the NVRAM log re-appends the record at every flush until the
// decision. So a takeover, which has no plan, orders abort — safe, as no
// decision is ordered yet — unless the stream already holds one.
func (f *FrontEnd) coordinate(p *Prepare) *Reply {
	if f.halted(TxBeforePrepare) {
		return status(StatusNoMajority)
	}
	steps := append([][]byte{p.Steps}, p.Others...)
	votes := make([]*Reply, len(p.Participants)) // yes votes, with their staged results
	var no *Reply                                // the first no vote, its step index plan-wide
	// A prepare held here is not re-sent: it would wait on its own locks.
	if votes[0] = f.Applier.voteOf(p.ID); votes[0] == nil {
		record := &Prepare{ID: p.ID, Participants: p.Participants, Steps: p.Steps}
		votes[0] = f.Update(&Request{Op: OpPrepare, Blob: EncodePrepare(record)})
	}
	switch _, decided := f.Applier.decisionOf(p.ID); {
	case decided, votes[0].Status == StatusOK && len(p.Others) == 0:
		// Decided already (a retried request, or a takeover racing the
		// initiator: finish what the stream holds), or the takeover.
		votes[0], no = nil, status(StatusConflict)
	case votes[0].Status != StatusOK:
		return votes[0] // the resolver voted no: nothing is prepared anywhere
	default:
		if f.halted(TxAfterResolverPrepare) {
			return status(StatusNoMajority)
		}
		prep := Prepare{ID: p.ID, ResolverSeq: votes[0].Seq, Participants: p.Participants}
		eachOther(len(steps), func(i int) {
			prep := prep
			prep.Steps = steps[i]
			votes[i] = f.txCall(p.Participants[i], &Request{Op: OpPrepare, Blob: EncodePrepare(&prep)})
		})
		for i, v := range votes {
			if v == nil || v.Status != StatusOK {
				if no == nil {
					no = planWide(steps, i, v)
				}
				votes[i] = nil
			}
		}
		if no == nil && f.halted(TxAfterPrepare) {
			return status(StatusNoMajority)
		}
	}

	// Undecided (no majority): the takeover and the queries settle it.
	d, ok := f.decide(p.ID, no == nil)
	if !ok || f.halted(TxAfterResolverDecide) {
		return status(StatusNoMajority)
	}
	acks := make([]*Reply, len(p.Participants))
	decideReq := &Request{Op: OpDecide, Blob: EncodeDecide(&Decide{ID: p.ID, Commit: d.commit})}
	eachOther(len(p.Participants), func(i int) {
		acks[i] = f.retried(func() *Reply { return f.txCall(p.Participants[i], decideReq) })
	})
	if !d.commit {
		if no == nil { // a replica racing this one ordered the abort
			return status(StatusConflict)
		}
		return no
	}
	out := &TxOutcome{Seqs: make([]uint64, len(steps))}
	for i := range steps {
		blob, seq := d.results, d.seq
		if i > 0 {
			blob, seq = nil, 0
			if ack := acks[i]; ack != nil && ack.Status == StatusOK {
				blob, seq = ack.Blob, ack.Seq
			}
		}
		if votes[i] != nil {
			blob = votes[i].Blob
		}
		results, err := DecodeBatchResults(blob)
		if err != nil { // no answer: the client drops its cache of the shard
			results, seq = make([]BatchStepResult, stepCount(steps[i])), 0
		}
		out.Seqs[i] = seq
		out.Results = append(out.Results, results...)
	}
	return &Reply{Status: StatusOK, Seq: d.seq, Blob: EncodeTxOutcome(out)}
}

// decide orders the decision on the resolver's stream and returns the
// one the stream holds — this one, or the opposite one a racing replica
// ordered first. ok is false when none could be ordered.
func (f *FrontEnd) decide(id TxID, commit bool) (decidedTx, bool) {
	req := &Request{Op: OpDecide, Blob: EncodeDecide(&Decide{ID: id, Commit: commit})}
	f.retried(func() *Reply {
		if _, ok := f.Applier.decisionOf(id); ok {
			return &Reply{Status: StatusOK}
		}
		return f.Update(req)
	})
	return f.Applier.decisionOf(id)
}

// retried repeats send, with backoff, past no answer (nil), a refusal
// for want of a majority and up to three conflicts (the rpc kind refuses
// an intention while the previous one drains); it returns the last answer.
func (f *FrontEnd) retried(send func() *Reply) *Reply {
	var reply *Reply
	conflicts := 0
	for attempt := 0; attempt < 12; attempt++ {
		if attempt > 0 {
			select {
			case <-time.After(time.Duration(attempt) * 5 * time.Millisecond):
			case <-f.stop:
				return reply
			}
		}
		switch reply = send(); {
		case reply == nil, reply.Status == StatusNoMajority:
		case reply.Status == StatusConflict && conflicts < 3:
			conflicts++
		default:
			return reply
		}
	}
	return reply
}

// eachOther runs fn for every participant but the resolver, in parallel.
func eachOther(n int, fn func(i int)) {
	var wg sync.WaitGroup
	for i := 1; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(i)
		}()
	}
	wg.Wait()
}

// txCall sends req to the service of one sibling shard and decodes the
// answer; nil means none came.
func (f *FrontEnd) txCall(shard int, req *Request) *Reply {
	raw, err := f.txRPC.Trans(ServicePort(ShardService(f.cfg.BaseService, shard, f.cfg.Shards)), req.Encode())
	if err != nil {
		return nil
	}
	reply, err := DecodeReply(raw)
	if err != nil {
		return nil
	}
	return reply
}

// outcome asks the resolver how an in-doubt transaction ended, reading at
// the resolver's prepare: "unknown" there means the resolver holds no
// record of it any more, presumed abort; no answer means keep waiting.
func (f *FrontEnd) outcome(tx InDoubtTx) TxState {
	reply := f.txCall(tx.Resolver, &Request{Op: OpTxQuery, Blob: tx.ID[:], MinSeq: tx.ResolverSeq})
	if reply == nil || reply.Status != StatusOK || len(reply.Blob) != 1 {
		return TxPrepared
	}
	if state := TxState(reply.Blob[0]); state != TxUnknown {
		return state
	}
	return TxAborted
}

// planWide turns participant i's no vote (nil: no answer) into the
// client's answer, its failing step index counted across the plan.
func planWide(steps [][]byte, i int, vote *Reply) *Reply {
	if vote == nil {
		return status(StatusNoMajority)
	}
	idx, ok := DecodeBatchFailIndex(vote.Blob)
	if !ok {
		return vote
	}
	for _, blob := range steps[:i] {
		idx += stepCount(blob)
	}
	return &Reply{Status: vote.Status, Seq: vote.Seq, Blob: EncodeBatchFailIndex(idx)}
}

// stepCount returns the number of steps in an EncodeBatchSteps blob.
func stepCount(blob []byte) int {
	steps, _ := DecodeBatchSteps(blob)
	return len(steps)
}

// voteOf returns the yes vote of id's prepare, nil unless it is
// prepared here.
func (a *Applier) voteOf(id TxID) *Reply {
	a.mu.RLock()
	defer a.mu.RUnlock()
	tx, ok := a.prepared[id]
	if !ok {
		return nil
	}
	return &Reply{Status: StatusOK, Seq: tx.seq, Blob: EncodeBatchResults(tx.results)}
}

// decisionOf returns the outcome of id, if one was applied here.
func (a *Applier) decisionOf(id TxID) (decidedTx, bool) {
	a.mu.RLock()
	defer a.mu.RUnlock()
	d, ok := a.decided[id]
	return d, ok
}
