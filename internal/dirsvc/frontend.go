package dirsvc

import (
	"crypto/rand"
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"dirsvc/internal/bullet"
	"dirsvc/internal/capability"
	"dirsvc/internal/flip"
	"dirsvc/internal/rpc"
	"dirsvc/internal/sim"
	"dirsvc/internal/vdisk"
)

// This file is the client-facing request pipeline every server kind
// runs — the initiator side of the paper's Fig. 5. The stages, in order:
//
//	read:   decode → ready gate → catch up → wait for floor → 2PC lock
//	        wait → route check (OpMigRead exempt) → sample applied seq →
//	        lookup CPU → Applier.Read → stamp Reply.Seq
//	update: decode → ready gate → 2PC lock wait → route check →
//	        check seeds → stamp Request.Server → update CPU → replicate
//
// plus the watch/lease operations, the cross-shard transaction
// coordinator (coordinator.go) with its takeover loop, and the
// superseded-Bullet-file cleaner. A kind contributes only the three
// Backend hooks (and optionally LagHinter); everything it does between
// "replicate" and the reply — group broadcast, intentions RPC, a plain
// local apply — is invisible here. The applied sequence number is the
// Applier's: reads are stamped with it and session floors wait for it.

// Backend is what one server kind contributes to the pipeline.
type Backend interface {
	// Ready is the ready gate: may this server answer a request right
	// now? The group kinds require a majority (Fig. 5: "if (!majority)
	// return failure").
	Ready() bool
	// WaitFloor is the catch-up step before a read of obj carrying the
	// session floor minSeq (zero: none): the group kinds apply the group
	// messages buffered at arrival, the RPC kind applies stored
	// intentions. False — the floor is unreachable here — sends the
	// client elsewhere; otherwise the front end waits, bounded by
	// MinSeqWait, for the floor.
	WaitFloor(obj uint32, minSeq uint64) bool
	// Replicate carries a gated, routed, seeded update through the kind's
	// replication step, waits for the local apply, and fills reply, which
	// the caller owns, with its outcome.
	Replicate(req *Request, reply *Reply)
}

// LagHinter is the optional fourth hook: a non-blocking measure of how
// far the replica's apply cursor trails what it has accepted, folded
// into the load hint piggybacked on every reply and HEREIS.
type LagHinter interface {
	Lag() int
}

// FrontConfig places one server's front end.
type FrontConfig struct {
	// Service names the (shard-local) service instance the front end
	// answers on; BaseService is the deployment-wide name capabilities are
	// minted under and sibling-shard ports derive from (empty: Service).
	Service, BaseService string
	// ServerID is stamped on replicated updates and into check seeds.
	ServerID int
	// Replicas is the commit block's configuration-vector width (zero for
	// kinds that keep only its sequence number and topology).
	Replicas int
	// Shard, Shards and ActiveShards place the instance in a sharded
	// deployment (zero values: unsharded, all shards active).
	Shard, Shards, ActiveShards int
	// Admin holds the commit block and the object table (Fig. 4).
	Admin vdisk.Storage
	// Bullet is the server's own file store; each server kind sets it.
	Bullet *bullet.Client
	// Workers is the number of initiator threads (default 3).
	Workers int
	// LeaseTTL overrides the model-derived default.
	LeaseTTL time.Duration
	// EventLogSize bounds the event log (zero: DefaultEventLogSize).
	EventLogSize int
	// ExtraLookupCPU is charged per read on top of the model's LookupCPU
	// (the NFS comparator's slower lookup path).
	ExtraLookupCPU time.Duration
}

// Timeouts are the four protocol timeouts every kind derives from the
// latency model.
type Timeouts struct {
	// MinSeqWait bounds how long a read blocks for its session floor
	// before the client is told to retry elsewhere.
	MinSeqWait time.Duration
	// LockWait bounds how long a read or update waits on an object locked
	// by a prepared transaction before refusing with conflict: well inside
	// the transport's patience (rpc.Patience).
	LockWait time.Duration
	// Takeover is how long a transaction stays in doubt before another
	// replica takes over from its initiator (txResolveLoop). No outcome
	// depends on it; it is well past LockWait to spare duplicate work.
	Takeover time.Duration
	// LeaseTTL is how long a watch lease survives without renewal.
	LeaseTTL time.Duration
}

func modelTimeouts(model *sim.LatencyModel, leaseTTL time.Duration) Timeouts {
	atLeast := func(d, floor time.Duration) time.Duration {
		if d = model.Timeout(d); d < floor {
			return floor
		}
		return d
	}
	t := Timeouts{
		MinSeqWait: atLeast(15*time.Second, time.Second),
		// A parked update is answered before its client gives up on this
		// replica and sends it to another, where both copies could land.
		LockWait: min(atLeast(5*time.Second, time.Second), rpc.Patience(model)/2),
		Takeover: atLeast(30*time.Second, 3*time.Second),
		LeaseTTL: leaseTTL,
	}
	if t.LeaseTTL <= 0 {
		t.LeaseTTL = atLeast(60*time.Second, 2*time.Second)
	}
	return t
}

// FrontEnd is one server's request pipeline together with the replica
// state it serves from: object table, applier and notifier.
type FrontEnd struct {
	Timeouts
	Table    *ObjectTable
	Applier  *Applier
	Notifier *Notifier
	// Commit is the commit block as read at boot; its topology tail is
	// already restored into the applier. The group kinds keep updating
	// it in place (under their own lock).
	Commit *CommitBlock

	cfg     FrontConfig
	stack   *flip.Stack
	model   *sim.LatencyModel
	backend Backend
	rpcSrv  *rpc.Server
	txRPC   *rpc.Client // prepares, decides and decision queries to sibling shards
	txHook  atomic.Pointer[func(TxStage) bool]

	boot  uint64        // random per boot; part of every check seed
	ops   atomic.Uint64 // seeded operations so far
	reads atomic.Uint64

	cleanupCh   chan capability.Capability
	stop        chan struct{}
	stopWorkers func()
	wg          sync.WaitGroup
}

// NewFrontEnd opens the replica state on cfg.Admin: the commit block,
// the object table fenced to this shard's residue class, an applier
// minting capabilities under the deployment-wide port (a migrated
// object's capability must keep verifying at the sibling shard; shard
// 0's name is the base name, so unsharded deployments are unchanged),
// one lock-wait slot short of the worker count, the persisted topology,
// and a detached notifier. Nothing is served until Serve.
func NewFrontEnd(stack *flip.Stack, cfg FrontConfig) (*FrontEnd, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = 3
	}
	commit, err := ReadCommitBlock(cfg.Admin, cfg.Replicas)
	if err != nil {
		return nil, fmt.Errorf("read commit block: %w", err)
	}
	table, err := OpenObjectTable(cfg.Admin)
	if err != nil {
		return nil, fmt.Errorf("open object table: %w", err)
	}
	base := cfg.ActiveShards
	if base <= 0 || base > cfg.Shards {
		base = cfg.Shards
	}
	if cfg.BaseService == "" {
		cfg.BaseService = cfg.Service
	}
	applier := NewApplier(ServicePort(cfg.BaseService), table, cfg.Bullet)
	applier.SetLockWaitSlots(cfg.Workers - 1)
	applier.ConfigureTopology(cfg.Shard, base, cfg.Shards)
	// A commit block written after a split carries the topology tail;
	// restoring it re-fences routing and the allocator before the kind's
	// recovery replays or pulls anything.
	applier.RestoreTopology(commit.Topo)
	var boot [8]byte
	if _, err := rand.Read(boot[:]); err != nil {
		return nil, fmt.Errorf("boot nonce: %w", err)
	}
	t := modelTimeouts(stack.Model(), cfg.LeaseTTL)
	f := &FrontEnd{
		Timeouts: t,
		Table:    table,
		Applier:  applier,
		Notifier: NewNotifier(cfg.EventLogSize, 0, t.LeaseTTL),
		Commit:   commit,
		cfg:      cfg,
		stack:    stack,
		model:    stack.Model(),
		boot:     binary.BigEndian.Uint64(boot[:]),
		// Room for the superseded files of a few thousand updates; past
		// that a file is leaked rather than the commit path blocked.
		cleanupCh: make(chan capability.Capability, 4096),
		stop:      make(chan struct{}),
	}
	applier.Advance(f.StoredSeq())
	return f, nil
}

// StoredSeq returns the highest sequence number the admin partition
// records: the per-directory sequence numbers and the commit block's,
// which covers what no object-table entry carries any more (a deleted
// directory, a split at a source shard).
func (f *FrontEnd) StoredSeq() uint64 {
	seq := f.Table.MaxSeq()
	if f.Commit.Seq > seq {
		seq = f.Commit.Seq
	}
	return seq
}

// StartEvents gives the event log a fresh identity floored at the
// applied sequence number and resumes recording: the replica's state is
// current, and whatever recovery replayed before this predates every
// lease.
func (f *FrontEnd) StartEvents() {
	f.Notifier.Reset(f.Applier.AppliedSeq())
	f.Applier.AttachEvents(f.Notifier)
}

// Serve opens the service port and starts the initiator threads, the
// transaction takeover loop and the file cleaner on top of backend. On error
// the caller still owes a Close.
func (f *FrontEnd) Serve(backend Backend) error {
	f.backend = backend
	srv, err := rpc.NewServer(f.stack, ServicePort(f.cfg.Service))
	if err != nil {
		return err
	}
	f.rpcSrv = srv
	if h, ok := backend.(LagHinter); ok {
		srv.SetLagFunc(h.Lag)
	}
	f.stopWorkers = srv.ServeAppend(f.cfg.Workers, f.handleRPC)
	if f.txRPC, err = rpc.NewClient(f.stack); err != nil {
		return err
	}
	f.wg.Add(2)
	go f.txResolveLoop()
	go f.cleanupLoop()
	return nil
}

// Close stops serving and releases reads waiting for a floor. The backend
// must already refuse new work, so initiators parked inside its hooks
// return.
func (f *FrontEnd) Close() {
	close(f.stop)
	f.Applier.AttachEvents(nil)
	f.Notifier.Close()
	if f.rpcSrv != nil {
		f.rpcSrv.Close()
		f.stopWorkers()
	}
	if f.txRPC != nil {
		f.txRPC.Close()
	}
	f.wg.Wait()
}

// ReadsServed returns the number of reads this front end has answered.
func (f *FrontEnd) ReadsServed() uint64 { return f.reads.Load() }

func status(s Status) *Reply { return &Reply{Status: s} }

// scratch is one initiator thread's decode target and answers. A
// request does not outlive handleRPC — a backend encodes an update or
// applies it, and the applier copies what it keeps (a prepare) — and a
// reply is encoded into the worker's buffer before the scratch goes back
// to the pool. A read's and an update's reply are kept apart, so the
// update's does not take the backing array of the read's Caps.
type scratch struct {
	req    Request
	reply  Reply
	update Reply
}

var scratches = sync.Pool{New: func() any { return new(scratch) }}

// handleRPC is the initiator thread body (Fig. 5, left side); the reply
// is appended to the RPC worker's own buffer.
func (f *FrontEnd) handleRPC(rreq *rpc.Request, dst []byte) []byte {
	sc := scratches.Get().(*scratch)
	defer scratches.Put(sc)
	req := &sc.req
	if err := DecodeRequestInto(req, rreq.Payload); err != nil {
		return status(StatusBadRequest).AppendTo(dst)
	}
	switch {
	case req.Op == OpWatch:
		return f.watch(rreq, req).AppendTo(dst)
	case req.Op == OpLeaseRenew:
		return f.renew(req).AppendTo(dst)
	case req.Op == OpTx:
		if reply := f.startTx(rreq, req); reply != nil {
			return reply.AppendTo(dst)
		}
		return dst
	case req.Op.IsUpdate():
		return f.updateInto(req, &sc.update).AppendTo(dst)
	default:
		return f.readInto(req, &sc.reply).AppendTo(dst)
	}
}

// watch registers an event-stream lease: the confirmation reply carries
// an EventBatch cursor (or replay), and later events are pushed over the
// request's reply channel. Gated like a read — a partitioned minority
// replica's log stops advancing, so a lease there would silently mask
// foreign commits.
func (f *FrontEnd) watch(rreq *rpc.Request, req *Request) *Reply {
	if !f.backend.Ready() {
		return status(StatusNoMajority)
	}
	addr := rreq.PushAddr()
	push := func(payload []byte) error { return f.rpcSrv.Push(addr, payload) }
	batch := f.Notifier.Subscribe(addr.Tx, req.Seq, req.MinSeq, push)
	return &Reply{Status: StatusOK, Blob: EncodeEventBatch(batch)}
}

// renew refreshes a watch lease and returns any events the subscriber
// missed. The gate makes a lease on a partitioned replica die within one
// renewal interval, bounding how long pushed invalidations can lag
// commits on the majority side.
func (f *FrontEnd) renew(req *Request) *Reply {
	if !f.backend.Ready() {
		return status(StatusNoMajority)
	}
	batch, ok := f.Notifier.Renew(req.Seq, req.MinSeq)
	if !ok {
		return status(StatusNotFound)
	}
	return &Reply{Status: StatusOK, Blob: EncodeEventBatch(batch)}
}

// forwarded is the elastic-routing check: nil when this shard serves
// obj, else the reply bouncing the client to the owner.
func (f *FrontEnd) forwarded(obj uint32) *Reply {
	owner, fwd := f.Applier.RouteForward(obj)
	if !fwd {
		return nil
	}
	topo, _ := f.Applier.Topology()
	return &Reply{Status: StatusNotMine, Blob: EncodeNotMine(topo.Epoch, owner)}
}

// Read runs one read through the pipeline; it is exported so tests and
// tools can interrogate one specific replica without the RPC transport.
func (f *FrontEnd) Read(req *Request) *Reply { return f.readInto(req, &Reply{}) }

// readInto is Read answering into reply, the caller's (see
// Applier.ReadInto); a refused or bounced read returns a reply of its
// own instead.
func (f *FrontEnd) readInto(req *Request, reply *Reply) *Reply {
	obj := req.Dir.Object
	if !f.backend.Ready() || !f.backend.WaitFloor(obj, req.MinSeq) ||
		!f.Applier.WaitSeq(req.MinSeq, f.MinSeqWait, f.stop) {
		// No majority, or the floor is unreachable here (lagging through
		// recovery, shutdown): the client fails over to another replica.
		return status(StatusNoMajority)
	}
	// An object locked by a prepared two-phase transaction holds its
	// readers until the decision: they then see exactly the pre- or
	// post-batch state, never the pre-state of one shard after another
	// shard exposed the commit. The wait is bounded in time and in
	// threads — the refused client retries while the transaction is
	// settled.
	if err := f.Applier.AwaitLockFree([]uint32{obj}, f.LockWait); err != nil {
		return status(StatusConflict)
	}
	// Elastic routing, checked after the lock wait so a read racing a
	// migration flip sees the post-decide state (stub or entry), never the
	// in-between. OpMigRead is exempt: the migrator reads objects
	// precisely because they are homed elsewhere.
	if obj != 0 && req.Op != OpMigRead {
		if bounce := f.forwarded(obj); bounce != nil {
			return bounce
		}
	}
	// Sampled before the read executes: the data returned is at least
	// this fresh, so the stamp is a safe bound for client read caches.
	seq := f.Applier.AppliedSeq()
	f.reads.Add(1)
	f.stack.Node().CPU().Charge(f.model.LookupCPU + f.cfg.ExtraLookupCPU)
	f.Applier.ReadInto(req, reply)
	reply.Seq = seq
	return reply
}

// Update runs one update through the pipeline up to, and including, the
// backend's replicate step.
func (f *FrontEnd) Update(req *Request) *Reply { return f.updateInto(req, new(Reply)) }

// updateInto is Update with the backend's outcome filled into reply,
// which the caller owns; a refusal before the replicate step answers
// with a reply of its own.
func (f *FrontEnd) updateInto(req *Request, reply *Reply) *Reply {
	if !f.backend.Ready() {
		return status(StatusNoMajority)
	}
	// An update aimed at objects locked by a prepared transaction waits
	// for the decision instead of being refused outright. The wait
	// happens before replication, so the decide that releases the lock
	// is never behind it; OpDecide itself has no wait targets.
	var one [1]uint32
	if err := f.Applier.AwaitLockFree(LockWaitTargets(one[:0], req, f.cfg.Shard), f.LockWait); err != nil {
		return ErrorReply(err)
	}
	// An update addressing an object this shard no longer (or does not
	// yet) own is bounced with the owner's identity instead of being
	// replicated. Batches, prepares and decides carry no top-level
	// object; their steps are fenced by the 2PC locks.
	if obj := req.Dir.Object; obj != 0 {
		if bounce := f.forwarded(obj); bounce != nil {
			return bounce
		}
	}
	if err := f.ensureSeeds(req); err != nil {
		return ErrorReply(err)
	}
	req.Server = f.cfg.ServerID
	f.stack.Node().CPU().Charge(f.model.UpdateCPU)
	f.backend.Replicate(req, reply)
	return reply
}

// ensureSeeds chooses the check-field material of every directory the
// update creates: all replicas must mint the same capabilities, so the
// initiator picks before replicating (§3.1).
func (f *FrontEnd) ensureSeeds(req *Request) error {
	switch {
	case req.Op == OpCreateDir && len(req.CheckSeed) == 0:
		req.CheckSeed = f.checkSeed(f.ops.Add(1), 0)
	case req.Op == OpBatch:
		steps, err := DecodeBatchSteps(req.Blob)
		if err != nil {
			return err
		}
		op := f.ops.Add(1)
		if EnsureBatchSeeds(steps, func(i int) []byte { return f.checkSeed(op, i+1) }) {
			req.Blob = EncodeBatchSteps(steps)
		}
	case req.Op == OpPrepare:
		op := f.ops.Add(1)
		return EnsurePrepareSeeds(req, func(i int) []byte { return f.checkSeed(op, i+1) })
	}
	return nil
}

// checkSeed is unique per server, boot, operation and step without
// reading a clock: server u32 | boot nonce u64 | op u64 | step u32.
func (f *FrontEnd) checkSeed(op uint64, step int) []byte {
	seed := make([]byte, 0, 24)
	seed = binary.BigEndian.AppendUint32(seed, uint32(f.cfg.ServerID))
	seed = binary.BigEndian.AppendUint64(seed, f.boot)
	seed = binary.BigEndian.AppendUint64(seed, op)
	return binary.BigEndian.AppendUint32(seed, uint32(step))
}

// txResolveLoop settles the transactions left in doubt longer than
// Takeover. At the resolver a replica settles such a transaction
// (coordinate): without the plan it orders abort, unless the stream
// holds a decision, and propagates the outcome. At any other participant
// the loop asks the resolver how the transaction ended and applies the
// answer through this shard's own update path.
func (f *FrontEnd) txResolveLoop() {
	defer f.wg.Done()
	ticker := time.NewTicker(f.Takeover / 4)
	defer ticker.Stop()
	for {
		select {
		case <-f.stop:
			return
		case <-ticker.C:
		}
		if !f.backend.Ready() {
			continue
		}
		for _, tx := range f.Applier.InDoubtTxs() {
			switch {
			case tx.Age < f.Takeover:
			case tx.Resolver == f.cfg.Shard:
				if p, err := DecodePrepare(tx.Req.Blob); err == nil {
					f.coordinate(p)
				}
			default:
				if state := f.outcome(tx); state == TxCommitted || state == TxAborted {
					f.Update(&Request{Op: OpDecide, Blob: EncodeDecide(&Decide{ID: tx.ID, Commit: state == TxCommitted})})
				}
			}
		}
	}
}

// ScheduleCleanup queues superseded Bullet files for deletion after the
// reply (Fig. 5: "remove old Bullet files" happens last).
func (f *FrontEnd) ScheduleCleanup(olds []capability.Capability) {
	for _, old := range olds {
		select {
		case f.cleanupCh <- old:
		default: // backlog full: leak the file rather than block the commit
		}
	}
}

func (f *FrontEnd) cleanupLoop() {
	defer f.wg.Done()
	for {
		select {
		case <-f.stop:
			return
		case old := <-f.cleanupCh:
			_ = f.cfg.Bullet.Delete(old)
		}
	}
}

// PersistTopology records the current topology and applied sequence
// number in the commit block, for the kinds that write it only when a
// split, seal or stub drop changes the topology: the stored sequence
// number keeps the server from regressing past the change on restart (a
// split at a source shard touches no object-table entry).
func (f *FrontEnd) PersistTopology() {
	if topo, ok := f.Applier.Topology(); ok {
		_ = (&CommitBlock{Seq: f.Applier.AppliedSeq(), Topo: &topo}).Write(f.cfg.Admin)
	}
}
