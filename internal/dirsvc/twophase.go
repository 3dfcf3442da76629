package dirsvc

import (
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"sort"
	"time"

	"dirsvc/internal/codec"
	"dirsvc/internal/rpc"
)

// This file holds the two-phase-commit machinery shared by every
// backend: the OpPrepare/OpDecide wire payloads and the prepared-
// transaction table that turns one replica group into a single logical
// 2PC participant. A cross-shard batch is split by the coordinating
// client into one OpPrepare per home shard; each shard stages the steps
// in a batch overlay (nothing visible), locks the touched objects, and
// votes. The coordinator then drives OpDecide(commit|abort); commit
// writes the staged overlay through under the decide's own sequence
// number, abort discards it. Both ops ride the backend's normal update
// path, so the prepared state is replicated (group kinds), mirrored via
// intentions (rpc kind), or trivially local (local kind).

// TxVersion is the wire version of the OpPrepare/OpDecide payloads.
const TxVersion = 1

// TxID names one distributed transaction, minted by the coordinating
// client. Replicas only ever compare it for equality.
type TxID [16]byte

// NewTxID mints a fresh transaction id.
func NewTxID() TxID {
	var id TxID
	if _, err := rand.Read(id[:]); err != nil {
		panic("dirsvc: txid entropy: " + err.Error())
	}
	return id
}

// String implements fmt.Stringer (diagnostics).
func (id TxID) String() string { return hex.EncodeToString(id[:]) }

// Prepare is the decoded OpPrepare payload: the transaction identity,
// the participant set (so an orphaned shard can find its resolver), and
// this shard's slice of the batch.
type Prepare struct {
	ID TxID
	// Resolver is the shard whose replica group ratifies the decision:
	// the coordinator's commit becomes final only when this shard's
	// stream applies it, and in-doubt participants query it.
	Resolver int
	// Participants lists every shard the transaction spans (sorted).
	Participants []int
	// Steps is the EncodeBatchSteps blob of this shard's steps.
	Steps []byte
}

// EncodePrepare serializes a prepare payload.
func EncodePrepare(p *Prepare) []byte {
	b := append(append(make([]byte, 0, 128), TxVersion), p.ID[:]...)
	b = binary.BigEndian.AppendUint32(b, uint32(p.Resolver))
	b = binary.BigEndian.AppendUint16(b, uint16(len(p.Participants)))
	for _, s := range p.Participants {
		b = binary.BigEndian.AppendUint32(b, uint32(s))
	}
	return codec.AppendBytes(b, p.Steps)
}

// DecodePrepare parses an OpPrepare payload.
func DecodePrepare(blob []byte) (*Prepare, error) {
	rd := codec.NewReader(blob)
	if v := rd.U8(); !rd.Failed() && v != TxVersion {
		return nil, fmt.Errorf("unsupported tx version %d: %w", v, ErrBadRequest)
	}
	p := &Prepare{}
	copy(p.ID[:], rd.Take(len(p.ID)))
	p.Resolver = int(rd.U32())
	n := rd.Count16(4)
	if n == 0 || n > 4096 {
		return nil, ErrBadRequest
	}
	for range n {
		p.Participants = append(p.Participants, int(rd.U32()))
	}
	p.Steps = rd.Bytes()
	if !rd.Done() || len(p.Steps) == 0 {
		return nil, ErrBadRequest
	}
	return p, nil
}

// EnsurePrepareSeeds fills the CheckSeed of every create-dir step inside
// an OpPrepare request, re-encoding the payload when anything changed —
// the OpPrepare counterpart of EnsureBatchSeeds, run by the initiating
// server before the prepare is replicated so every replica mints
// identical capabilities (§3.1).
func EnsurePrepareSeeds(req *Request, seed func(step int) []byte) error {
	p, err := DecodePrepare(req.Blob)
	if err != nil {
		return err
	}
	steps, err := DecodeBatchSteps(p.Steps)
	if err != nil {
		return err
	}
	if EnsureBatchSeeds(steps, seed) {
		p.Steps = EncodeBatchSteps(steps)
		req.Blob = EncodePrepare(p)
	}
	return nil
}

// Decide is the decoded OpDecide payload.
type Decide struct {
	ID     TxID
	Commit bool
}

// EncodeDecide serializes a decide payload.
func EncodeDecide(d *Decide) []byte {
	return codec.AppendBool(append(append(make([]byte, 0, 128), TxVersion), d.ID[:]...), d.Commit)
}

// DecodeDecide parses an OpDecide payload.
func DecodeDecide(blob []byte) (*Decide, error) {
	if len(blob) != 1+len(TxID{})+1 {
		return nil, ErrBadRequest
	}
	if blob[0] != TxVersion {
		return nil, fmt.Errorf("unsupported tx version %d: %w", blob[0], ErrBadRequest)
	}
	d := &Decide{}
	copy(d.ID[:], blob[1:1+len(d.ID)])
	d.Commit = blob[1+len(d.ID)] == 1
	return d, nil
}

// TxState is a participant's knowledge of one transaction, answered to
// OpTxQuery (the decision-query read).
type TxState uint8

// Transaction states. TxUnknown from the resolver shard means "presume
// abort": the resolver either never prepared (so the coordinator can
// never have decided commit) or resolved the transaction as an abort
// long enough ago to have forgotten it.
const (
	TxUnknown TxState = iota
	TxPrepared
	TxCommitted
	TxAborted
)

// String implements fmt.Stringer.
func (s TxState) String() string {
	switch s {
	case TxPrepared:
		return "prepared"
	case TxCommitted:
		return "committed"
	case TxAborted:
		return "aborted"
	default:
		return "unknown"
	}
}

// ResolveOrphanTxs performs one round of participant-side coordinator
// recovery over the applier's in-doubt transactions: for each one past
// the presumed-abort horizon, the transaction's resolver shard aborts
// it outright (decide is expected to route through the backend's
// ordinary, totally-ordered update path, so a late client commit loses
// cleanly), and every other shard queries the resolver and applies its
// answer. TxUnknown — "presume abort" — is only acted on after two
// consecutive strikes, so a single answer from an unusually placed
// replica cannot abort a transaction the resolver is about to commit;
// strikes carries that count between rounds and is pruned here.
func ResolveOrphanTxs(
	a *Applier,
	shard, shards int,
	timeout time.Duration,
	strikes map[TxID]int,
	decide func(id TxID, commit bool),
	query func(resolver int, id TxID) TxState,
) {
	inDoubt := a.InDoubtTxs()
	live := make(map[TxID]bool, len(inDoubt))
	for _, tx := range inDoubt {
		live[tx.ID] = true
	}
	for id := range strikes {
		if !live[id] {
			delete(strikes, id)
		}
	}
	for _, tx := range inDoubt {
		if tx.Age < timeout {
			continue
		}
		if tx.Resolver == shard || shards <= 1 {
			decide(tx.ID, false)
			continue
		}
		switch query(tx.Resolver, tx.ID) {
		case TxCommitted:
			delete(strikes, tx.ID)
			decide(tx.ID, true)
		case TxAborted:
			delete(strikes, tx.ID)
			decide(tx.ID, false)
		case TxUnknown:
			// The resolver either never prepared (the coordinator died
			// before reaching it, so no commit can ever have been decided)
			// or resolved an abort long ago. Demand a second opinion a
			// tick later before presuming abort.
			strikes[tx.ID]++
			if strikes[tx.ID] >= 2 {
				delete(strikes, tx.ID)
				decide(tx.ID, false)
			}
		default: // TxPrepared: the resolver's own timeout will settle it
			delete(strikes, tx.ID)
		}
	}
}

// QueryTxState asks one shard of a deployment how a transaction ended
// (the decision query). Unreachable or malformed answers map to
// TxPrepared — "keep waiting" — never to an abort.
func QueryTxState(rc *rpc.Client, baseService string, shards, resolver int, id TxID) TxState {
	if baseService == "" {
		return TxPrepared
	}
	port := ServicePort(ShardService(baseService, resolver, shards))
	req := &Request{Op: OpTxQuery, Blob: id[:]}
	raw, err := rc.Trans(port, req.Encode())
	if err != nil {
		return TxPrepared
	}
	reply, err := DecodeReply(raw)
	if err != nil || reply.Status != StatusOK || len(reply.Blob) != 1 {
		return TxPrepared
	}
	return TxState(reply.Blob[0])
}

// maxDecided bounds the decided-transaction memory per replica; the
// oldest outcomes are forgotten first (presumed abort covers forgotten
// aborts; a forgotten commit is only reachable through the documented
// double-fault window).
const maxDecided = 4096

// preparedTx is one staged, undecided transaction: the validated batch
// overlay, the per-object locks, and everything needed to re-log or
// ship the prepare record during recovery.
type preparedTx struct {
	id           TxID
	req          *Request // the OpPrepare request, allocations pinned (re-log, snapshots)
	seq          uint64   // sequence number the prepare applied under
	resolver     int
	participants []int
	overlay      *overlay
	results      []BatchStepResult
	objs         []uint32 // locked objects (targets plus staged creations)
	preparedAt   time.Time
}

// decidedTx is a remembered outcome, kept so decide retries are
// idempotent and orphaned peers can query the resolution.
type decidedTx struct {
	commit    bool
	seq       uint64
	results   []byte    // encoded BatchStepResults (commit only)
	decidedAt time.Time // when this replica learned the outcome
}

// InDoubtTx is a snapshot of one prepared-but-undecided transaction
// (the resolution loop, NVRAM re-logging).
type InDoubtTx struct {
	ID           TxID
	Req          *Request
	Seq          uint64
	Resolver     int
	Participants []int
	Age          time.Duration
}

// DecidedTx is one remembered outcome (snapshots, NVRAM re-logging).
type DecidedTx struct {
	ID      TxID
	Commit  bool
	Seq     uint64
	Results []byte
}

// InDoubtTxs returns a snapshot of every prepared-but-undecided
// transaction, oldest first.
func (a *Applier) InDoubtTxs() []InDoubtTx {
	a.mu.RLock()
	defer a.mu.RUnlock()
	out := make([]InDoubtTx, 0, len(a.prepared))
	now := time.Now()
	for _, tx := range a.prepared {
		out = append(out, InDoubtTx{
			ID:           tx.id,
			Req:          tx.req,
			Seq:          tx.seq,
			Resolver:     tx.resolver,
			Participants: append([]int(nil), tx.participants...),
			Age:          now.Sub(tx.preparedAt),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Age > out[j].Age })
	return out
}

// RecentDecided returns the newest n remembered outcomes, oldest first,
// skipping outcomes older than maxAge (zero = no age limit). The NVRAM
// re-logging path keeps these durable across flushes so a whole-shard
// crash cannot forget a commit an orphaned peer still has to learn
// about — but only until every orphan must have resolved: past the
// resolver's two-strike horizon a decided outcome is dead weight, and
// re-appending it on every flush forever would grow each flush (and
// recovery replay) without bound on a long-lived shard.
func (a *Applier) RecentDecided(n int, maxAge time.Duration) []DecidedTx {
	a.mu.RLock()
	defer a.mu.RUnlock()
	var out []DecidedTx
	now := time.Now()
	for _, id := range a.decidedOrder {
		d, ok := a.decided[id]
		if !ok {
			continue
		}
		if maxAge > 0 && !d.decidedAt.IsZero() && now.Sub(d.decidedAt) > maxAge {
			continue
		}
		out = append(out, DecidedTx{ID: id, Commit: d.commit, Seq: d.seq, Results: d.results})
	}
	if len(out) > n {
		out = out[len(out)-n:]
	}
	return out
}

// ResetTx discards all transaction state (recovery restart; the caller
// reinstates in-doubt transactions from its recovery log afterwards).
func (a *Applier) ResetTx() {
	a.mu.Lock()
	a.prepared = make(map[TxID]*preparedTx)
	a.locks = make(map[uint32]TxID)
	a.decided = make(map[TxID]decidedTx)
	a.decidedOrder = nil
	a.txCond.Broadcast()
	a.mu.Unlock()
}

// Locked reports whether obj is locked by a prepared transaction.
func (a *Applier) Locked(obj uint32) bool {
	a.mu.RLock()
	defer a.mu.RUnlock()
	_, ok := a.locks[obj]
	return ok
}

// WaitUnlocked blocks until obj is not locked by any prepared
// transaction, or the timeout passes. Read paths use it so a reader
// never observes the pre-batch state of one shard after another shard
// already exposed the committed batch: a prepared object's readers are
// held until the decision, then see exactly one side of it.
func (a *Applier) WaitUnlocked(obj uint32, timeout time.Duration) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	if _, locked := a.locks[obj]; !locked {
		return true
	}
	deadline := time.Now().Add(timeout)
	wake := time.AfterFunc(timeout, func() {
		a.mu.Lock()
		a.txCond.Broadcast()
		a.mu.Unlock()
	})
	defer wake.Stop()
	for {
		if _, locked := a.locks[obj]; !locked {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		a.txCond.Wait()
	}
}

// TxStateOf answers the decision query for one transaction id.
func (a *Applier) TxStateOf(id TxID) (TxState, uint64) {
	a.mu.RLock()
	defer a.mu.RUnlock()
	if _, ok := a.prepared[id]; ok {
		return TxPrepared, 0
	}
	if d, ok := a.decided[id]; ok {
		if d.commit {
			return TxCommitted, d.seq
		}
		return TxAborted, d.seq
	}
	return TxUnknown, 0
}

// rememberDecidedLocked records an outcome, evicting the oldest past
// maxDecided. Must hold a.mu.
func (a *Applier) rememberDecidedLocked(id TxID, d decidedTx) {
	if d.decidedAt.IsZero() {
		d.decidedAt = time.Now()
	}
	if _, ok := a.decided[id]; !ok {
		a.decidedOrder = append(a.decidedOrder, id)
		if len(a.decidedOrder) > maxDecided {
			evict := a.decidedOrder[0]
			a.decidedOrder = a.decidedOrder[1:]
			delete(a.decided, evict)
		}
	}
	a.decided[id] = d
}

// lockedByOther reports whether obj is locked by a transaction other
// than self. The zero TxID (plain updates and batches) conflicts with
// every lock. Must hold a.mu.
func (a *Applier) lockedByOtherLocked(obj uint32, self TxID) bool {
	owner, ok := a.locks[obj]
	return ok && owner != self
}

// applyPrepareLocked stages one transaction's steps: validate into an
// overlay exactly like an atomic batch, but instead of writing through,
// park the overlay in the prepared table and lock the touched objects
// until the decision. Nothing becomes visible and nothing is written to
// disk — durability of the prepared state comes from replication (the
// prepare rides the backend's replicated update path) and, in the NVRAM
// variant, from the logged request. Called with a.mu held.
func (a *Applier) applyPrepareLocked(req *Request, seq uint64, res *ApplyResult) error {
	p, err := DecodePrepare(req.Blob)
	if err != nil {
		return err
	}
	if tx, ok := a.prepared[p.ID]; ok {
		// Duplicate delivery (recovery replay): vote yes again with the
		// originally staged results.
		*res.Reply = Reply{Status: StatusOK, Seq: tx.seq, Blob: EncodeBatchResults(tx.results)}
		return nil
	}
	if _, ok := a.decided[p.ID]; ok {
		return ErrConflict
	}
	steps, err := DecodeBatchSteps(p.Steps)
	if err != nil {
		return err
	}
	ov := &overlay{}
	results := make([]BatchStepResult, len(steps))
	for i, st := range steps {
		if err := a.batchStepLocked(ov, st, seq, p.ID, &results[i]); err != nil {
			return &BatchError{Index: i, Err: err}
		}
	}
	reply := res.Reply
	reply.Blob = EncodeBatchResults(results)
	tx := &preparedTx{
		id: p.ID,
		// The kept request is what a flush re-logs and a snapshot ships: it
		// has to re-stage under whatever topology it meets there. It is a
		// copy: req may be decode scratch its caller reuses.
		req:          PinAllocation(req, reply).Clone(),
		seq:          seq,
		resolver:     p.Resolver,
		participants: append([]int(nil), p.Participants...),
		overlay:      ov,
		results:      results,
		preparedAt:   time.Now(),
	}
	// Every step stages its target, creations included.
	for _, s := range ov.objs {
		tx.objs = append(tx.objs, s.obj)
		a.locks[s.obj] = p.ID
	}
	a.prepared[p.ID] = tx
	return nil
}

// applyDecideLocked resolves a prepared transaction: commit writes the
// staged overlay through under the decide's own sequence number (so the
// touched objects' per-object Seq moves only now — a prepared object
// never advances the visible state); abort discards it. Both release
// the locks and remember the outcome for idempotent retries and orphan
// queries. Called with a.mu held.
func (a *Applier) applyDecideLocked(req *Request, seq uint64, durable bool, res *ApplyResult) error {
	d, err := DecodeDecide(req.Blob)
	if err != nil {
		return err
	}
	if prior, ok := a.decided[d.ID]; ok {
		if d.Commit != prior.commit {
			// A commit racing a presumed abort (or vice versa): first
			// decision in the stream wins, the loser learns it conflicted.
			return ErrConflict
		}
		res.Reply.Seq = prior.seq
		if prior.commit {
			res.Reply.Blob = prior.results
		}
		return nil
	}
	tx, ok := a.prepared[d.ID]
	if !ok {
		if !d.Commit {
			// Presumed abort: aborting a transaction nobody prepared (or
			// one already resolved and forgotten) is a no-op.
			return nil
		}
		return ErrNotFound
	}
	if !d.Commit {
		a.releaseTxLocked(tx)
		a.rememberDecidedLocked(d.ID, decidedTx{commit: false, seq: seq})
		return nil
	}

	// Commit: the staged images were stamped with the prepare's sequence
	// number; restamp with the commit's before writing through.
	for i := range tx.overlay.objs {
		s := &tx.overlay.objs[i]
		s.entry.Seq = seq
		if s.dir != nil {
			s.dir.Seq = seq
		}
		if s.stub != nil {
			s.stub.Seq = seq
		}
	}
	if err := a.commitOverlayLocked(tx.overlay, durable, res); err != nil {
		// Disk trouble: the transaction stays prepared so a decide retry
		// can complete it; nothing partial became visible.
		return err
	}
	res.Reply.Blob = EncodeBatchResults(tx.results)
	a.releaseTxLocked(tx)
	a.rememberDecidedLocked(d.ID, decidedTx{commit: true, seq: seq, results: res.Reply.Blob})
	return nil
}

// releaseTxLocked drops a transaction's locks and prepared record.
// Must hold a.mu.
func (a *Applier) releaseTxLocked(tx *preparedTx) {
	for _, obj := range tx.objs {
		if a.locks[obj] == tx.id {
			delete(a.locks, obj)
		}
	}
	delete(a.prepared, tx.id)
	a.txCond.Broadcast()
}
