package dirsvc

import (
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"sort"
	"time"

	"dirsvc/internal/codec"
)

// This file holds the two-phase-commit machinery shared by every
// backend: the OpPrepare/OpDecide wire payloads and the prepared-
// transaction table that turns one replica group into a single logical
// 2PC participant. The transaction's resolver shard coordinates it
// (coordinator.go); each participant stages its steps in a batch overlay
// (nothing visible), locks the touched objects, and votes. OpDecide
// commit writes the staged overlay through under the decide's own
// sequence number, abort discards it. Both ops ride the backend's normal
// update path, so the prepared state is replicated (group kinds),
// mirrored via intentions (rpc kind), or trivially local (local kind).

// TxVersion is the wire version of the OpPrepare/OpDecide payloads.
const TxVersion = 2

// TxID names one distributed transaction, minted by the client that
// sends it. Replicas only ever compare it for equality.
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

// Prepare is the decoded OpPrepare payload, and that of the OpTx a client
// sends the resolver, which alone carries the whole plan.
type Prepare struct {
	ID TxID
	// ResolverSeq is the sequence number the resolver's prepare applied
	// under (zero in its own record): the floor a participant asks at.
	ResolverSeq uint64
	// Participants lists every shard the transaction spans, sorted; the
	// first is the resolver.
	Participants []int
	// Steps is the EncodeBatchSteps blob of this shard's steps; Others,
	// in an OpTx only, those of the other participants.
	Steps  []byte
	Others [][]byte
}

// Resolver returns the shard that coordinates the transaction.
func (p *Prepare) Resolver() int { return p.Participants[0] }

// EncodePrepare serializes a prepare payload.
func EncodePrepare(p *Prepare) []byte {
	b := append(append(make([]byte, 0, 128), TxVersion), p.ID[:]...)
	b = binary.BigEndian.AppendUint64(b, p.ResolverSeq)
	b = binary.BigEndian.AppendUint16(b, uint16(len(p.Participants)))
	for _, s := range p.Participants {
		b = binary.BigEndian.AppendUint32(b, uint32(s))
	}
	b = binary.BigEndian.AppendUint16(codec.AppendBytes(b, p.Steps), uint16(len(p.Others)))
	for _, o := range p.Others {
		b = codec.AppendBytes(b, o)
	}
	return b
}

// DecodePrepare parses an OpPrepare payload.
func DecodePrepare(blob []byte) (*Prepare, error) {
	rd := codec.NewReader(blob)
	if v := rd.U8(); !rd.Failed() && v != TxVersion {
		return nil, fmt.Errorf("unsupported tx version %d: %w", v, ErrBadRequest)
	}
	p := &Prepare{}
	copy(p.ID[:], rd.Take(len(p.ID)))
	p.ResolverSeq = rd.U64()
	n := rd.Count16(4)
	if n == 0 || n > 4096 {
		return nil, ErrBadRequest
	}
	for range n {
		p.Participants = append(p.Participants, int(rd.U32()))
	}
	p.Steps = rd.Bytes()
	others := rd.Count16(2)
	if others != 0 && others != n-1 {
		return nil, ErrBadRequest
	}
	for range others {
		p.Others = append(p.Others, rd.Bytes())
	}
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

// TxOutcome answers a committed OpTx: each participant's commit
// sequence number (zero while undelivered) and the whole plan's step
// results, in Participants order.
type TxOutcome struct {
	Seqs    []uint64
	Results []BatchStepResult
}

// EncodeTxOutcome serializes a transaction outcome.
func EncodeTxOutcome(o *TxOutcome) []byte {
	b := binary.BigEndian.AppendUint16(make([]byte, 0, 128), uint16(len(o.Seqs)))
	for _, s := range o.Seqs {
		b = binary.BigEndian.AppendUint64(b, s)
	}
	return append(b, EncodeBatchResults(o.Results)...)
}

// DecodeTxOutcome parses an OpTx reply blob.
func DecodeTxOutcome(blob []byte) (*TxOutcome, error) {
	rd := codec.NewReader(blob)
	o := &TxOutcome{Seqs: make([]uint64, rd.Count16(8))}
	for i := range o.Seqs {
		o.Seqs[i] = rd.U64()
	}
	var err error // a failed read leaves no results to decode
	o.Results, err = DecodeBatchResults(rd.Rest())
	return o, err
}

// TxState is a participant's knowledge of one transaction, answered to
// OpTxQuery (the decision-query read).
type TxState uint8

// Transaction states. TxUnknown from the resolver shard, read at or past
// the resolver's prepare, means the resolver holds no record of the
// transaction any more — presumed abort.
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

// maxDecided bounds the decided-transaction memory per replica; the
// oldest outcomes are forgotten first (a participant that asks about a
// forgotten one is told unknown, which it reads as abort: a forgotten
// commit is the documented double-fault window).
const maxDecided = 4096

// preparedTx is one staged, undecided transaction: the validated batch
// overlay, the per-object locks, and everything needed to re-log or
// ship the prepare record during recovery.
type preparedTx struct {
	id          TxID
	req         *Request // the OpPrepare request, allocations pinned (re-log, snapshots)
	seq         uint64   // sequence number the prepare applied under
	resolver    int
	resolverSeq uint64
	overlay     *overlay
	results     []BatchStepResult
	objs        []uint32 // locked objects (targets plus staged creations)
	preparedAt  time.Time
}

// decidedTx is a remembered outcome, kept so decide retries are
// idempotent and participants can query the resolution.
type decidedTx struct {
	commit  bool
	seq     uint64
	results []byte // encoded BatchStepResults (commit only)
}

// InDoubtTx is a snapshot of one prepared-but-undecided transaction
// (the takeover loop, NVRAM re-logging), with its Prepare's resolver
// fields.
type InDoubtTx struct {
	ID          TxID
	Req         *Request
	Seq         uint64
	Resolver    int
	ResolverSeq uint64
	Age         time.Duration
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
			ID:          tx.id,
			Req:         tx.req,
			Seq:         tx.seq,
			Resolver:    tx.resolver,
			ResolverSeq: tx.resolverSeq,
			Age:         now.Sub(tx.preparedAt),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Age > out[j].Age })
	return out
}

// RecentDecided returns the newest n remembered outcomes, oldest first
// (NVRAM re-logging, recovery).
func (a *Applier) RecentDecided(n int) []DecidedTx {
	a.mu.RLock()
	defer a.mu.RUnlock()
	var out []DecidedTx
	for _, id := range a.decidedOrder[max(0, len(a.decidedOrder)-n):] {
		if d, ok := a.decided[id]; ok {
			out = append(out, DecidedTx{ID: id, Commit: d.commit, Seq: d.seq, Results: d.results})
		}
	}
	return out
}

// RestoreDecided carries one remembered outcome over a reload of the
// replica's own storage (RecentDecided before it): a transaction the
// reload staged again is decided as its decide record would decide it,
// and any other outcome is remembered with its results, so a retried
// decide answers the results the first one did. The applied sequence
// number advances to the outcome's.
func (a *Applier) RestoreDecided(d DecidedTx) {
	a.mu.Lock()
	defer a.mu.Unlock()
	defer a.advanceLocked(d.Seq)
	if a.prepared[d.ID] != nil {
		decide := &Request{Op: OpDecide, Blob: EncodeDecide(&Decide{ID: d.ID, Commit: d.Commit})}
		_ = a.applyUpdateLocked(decide, d.Seq, false, &a.unseen)
		return
	}
	a.rememberDecidedLocked(d.ID, decidedTx{commit: d.Commit, seq: d.Seq, results: d.Results})
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
		// Duplicate delivery (recovery replay, a retried OpTx, a takeover):
		// vote yes again with the originally staged results.
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
		req:         PinAllocation(req, reply).Clone(),
		seq:         seq,
		resolver:    p.Resolver(),
		resolverSeq: p.ResolverSeq,
		overlay:     ov,
		results:     results,
		preparedAt:  time.Now(),
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
			// Two replicas of the resolver raced opposite decisions (an
			// initiator and a takeover): the first in the stream wins, the
			// loser learns it conflicted.
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
			// Aborting a transaction never prepared here (its prepare was
			// refused or never arrived) is a no-op.
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
