package dirsvc

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"dirsvc/internal/bullet"
	"dirsvc/internal/capability"
	"dirsvc/internal/dirdata"
)

// RootObject is the object number of the root directory, created when a
// server formats its state. Its secret derives deterministically from the
// service port so all replicas mint the identical root capability.
const RootObject uint32 = 1

// ApplyResult reports the outcome of one update application.
type ApplyResult struct {
	Reply *Reply
	// OldBullet lists Bullet files superseded by the update; the caller
	// removes them after the commit, off the critical path (Fig. 5:
	// "remove old Bullet files").
	OldBullet []capability.Capability
	// DirtyObjects lists, in ascending order, the object-table slots the
	// update changed: the event's object list, and — for a RAM-mode apply —
	// what a later FlushBlocks has to write.
	DirtyObjects []uint32
	// DeletedDir is set when the update deleted a directory, which
	// requires advancing the commit block sequence number (§3).
	DeletedDir bool
	// TopoChanged is set when the update moved the shard-map state
	// (split, seal, stub drop). The caller must persist the new topology
	// to the commit block before acknowledging — even in NVRAM mode,
	// where ordinary updates skip the disk: topology changes are rare
	// and an unpersisted epoch would unfence recovery.
	TopoChanged bool
}

// reset readies r for an apply stamped seq: an OK reply, in the reply r
// already points at if it has one, and empty lists that keep their
// backing arrays.
func (r *ApplyResult) reset(seq uint64) {
	reply := r.Reply
	if reply == nil {
		reply = new(Reply)
	}
	*reply = Reply{Status: StatusOK, Seq: seq}
	*r = ApplyResult{Reply: reply, OldBullet: r.OldBullet[:0], DirtyObjects: r.DirtyObjects[:0]}
}

// Applier executes directory operations against one server's replica
// state: the RAM directory cache, the object table, and the server's own
// Bullet store. Because every replica applies the same updates in the
// same total order starting from the same state, all its decisions
// (object numbers, encodings, capabilities) are deterministic.
type Applier struct {
	port   capability.Port
	table  *ObjectTable
	bullet *bullet.Client

	// mu guards the cache, and every reader of a cached image finishes
	// with it before releasing mu: a commit recycles the image it
	// replaces (spare), which it could not while a reader held it.
	mu    sync.RWMutex
	cache map[uint32]*dirdata.Directory
	// spare is the image the last commit took out of the cache; the next
	// row op forks into it instead of into fresh storage.
	spare *dirdata.Directory
	// topo is the shard's elastic-topology state (nil when the
	// deployment never called ConfigureTopology); see applytopo.go.
	topo *TopoState
	// scratch is the staging overlay single updates and batches reuse;
	// unseen is the result of an apply no caller sees (Replay,
	// FormatRoot, InstallSnapshot).
	scratch overlay
	unseen  ApplyResult

	// Two-phase-commit participant state: staged transactions, the
	// per-object locks they hold, and remembered outcomes. txCond wakes
	// the reads and updates waiting in AwaitLockFree for a lock to go;
	// activeWaiters of them wait now, at most waitSlots.
	prepared      map[TxID]*preparedTx
	locks         map[uint32]TxID
	decided       map[TxID]decidedTx
	decidedOrder  []TxID
	txCond        *sync.Cond
	waitSlots     int // negative = unbounded
	activeWaiters int

	// events, when attached, receives one Event per successfully applied
	// update, in apply order (it is called under a.mu).
	events *Notifier

	// seq is the replica's applied service sequence number (§3, Fig. 4):
	// reads are stamped with it and session floors wait for it. It is
	// written under mu and read without it; seqWake, created by a waiter
	// and guarded by seqMu, is closed by the next write.
	seq     atomic.Uint64
	seqMu   sync.Mutex
	seqWake chan struct{}
}

// AttachEvents connects (or, with nil, disconnects) the notifier that
// receives one Event per applied update. Servers detach it while
// replaying recovered state — replayed updates predate every live
// subscription — and re-attach it when recovery completes.
func (a *Applier) AttachEvents(n *Notifier) {
	a.mu.Lock()
	a.events = n
	a.mu.Unlock()
}

// NewApplier builds an applier for the service identified by port.
func NewApplier(port capability.Port, table *ObjectTable, bc *bullet.Client) *Applier {
	a := &Applier{
		port:      port,
		table:     table,
		bullet:    bc,
		cache:     make(map[uint32]*dirdata.Directory),
		prepared:  make(map[TxID]*preparedTx),
		locks:     make(map[uint32]TxID),
		decided:   make(map[TxID]decidedTx),
		waitSlots: -1,
	}
	a.txCond = sync.NewCond(&a.mu)
	return a
}

// AppliedSeq returns the service sequence number the replica's state
// reflects.
func (a *Applier) AppliedSeq() uint64 { return a.seq.Load() }

// Advance raises the applied sequence number to seq: a number the server
// used up without a successful apply, or a floor recovery read from its
// logs and commit block.
func (a *Applier) Advance(seq uint64) {
	a.mu.Lock()
	a.advanceLocked(seq)
	a.mu.Unlock()
}

func (a *Applier) advanceLocked(seq uint64) {
	if seq > a.seq.Load() {
		a.setSeqLocked(seq)
	}
}

// setSeqLocked stores the applied sequence number and wakes WaitSeq.
func (a *Applier) setSeqLocked(seq uint64) {
	a.seq.Store(seq)
	a.seqMu.Lock()
	if a.seqWake != nil {
		close(a.seqWake)
		a.seqWake = nil
	}
	a.seqMu.Unlock()
}

// WaitSeq blocks until the applied sequence number reaches min and
// reports whether it did; it gives up after timeout or once stop closes.
func (a *Applier) WaitSeq(min uint64, timeout time.Duration, stop <-chan struct{}) bool {
	if a.seq.Load() >= min {
		return true
	}
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	for {
		a.seqMu.Lock()
		if a.seqWake == nil {
			a.seqWake = make(chan struct{})
		}
		wake := a.seqWake
		a.seqMu.Unlock()
		if a.seq.Load() >= min {
			return true
		}
		select {
		case <-wake:
		case <-timer.C:
			return false
		case <-stop:
			return false
		}
	}
}

// rootSecret derives the deterministic secret of the root directory.
func rootSecret(port capability.Port) capability.Secret {
	return capability.NewSecret([]byte("root:" + port.String()))
}

// FormatRoot creates the root directory if the table does not know it.
// durable controls whether the image is written through to Bullet/disk.
func (a *Applier) FormatRoot(durable bool) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if _, ok := a.table.Get(RootObject); ok {
		return nil
	}
	var ov overlay
	s := ov.stage(RootObject)
	s.dir, s.entry = dirdata.New(), ObjectEntry{Secret: rootSecret(a.port)}
	a.unseen.reset(0)
	if err := a.commitOverlayLocked(&ov, durable, &a.unseen); err != nil {
		return fmt.Errorf("format root: %w", err)
	}
	return nil
}

// RootCap returns the owner capability of the root directory.
func (a *Applier) RootCap() (capability.Capability, error) {
	e, ok := a.table.Get(RootObject)
	if !ok {
		return capability.Capability{}, ErrNotFound
	}
	return capability.Mint(a.port, RootObject, e.Secret), nil
}

// LoadAll populates the directory cache from the Bullet store — the boot
// and recovery path ("all implementations cache recently used directories
// in RAM"; this repro caches all of them, as the tiny 1993 heaps grew).
func (a *Applier) LoadAll() error {
	for _, obj := range a.table.Objects() {
		e, _ := a.table.Get(obj)
		img, err := a.bullet.Read(e.Cap)
		if err != nil {
			return fmt.Errorf("load directory %d: %w", obj, err)
		}
		d, err := dirdata.Decode(img)
		if err != nil {
			return fmt.Errorf("decode directory %d: %w", obj, err)
		}
		a.mu.Lock()
		a.cache[obj] = d
		a.mu.Unlock()
	}
	return nil
}

// InvalidateCache drops the RAM cache for a recovery restart, which
// rebuilds the state from stable storage: the applied sequence number
// falls back to the highest the object table records until the reload
// raises it.
func (a *Applier) InvalidateCache() {
	a.mu.Lock()
	a.cache = make(map[uint32]*dirdata.Directory)
	a.setSeqLocked(a.table.MaxSeq())
	a.mu.Unlock()
}

// Directory returns a deep copy of a cached directory (tests, recovery).
func (a *Applier) Directory(obj uint32) (*dirdata.Directory, bool) {
	a.mu.RLock()
	defer a.mu.RUnlock()
	d, ok := a.cache[obj]
	if !ok {
		return nil, false
	}
	return d.Clone(), true
}

// verify resolves a directory capability to its object entry, checking
// the check field and the rights needed.
func (a *Applier) verify(c capability.Capability, need capability.Rights) (ObjectEntry, error) {
	if c.Port != a.port {
		return ObjectEntry{}, capability.ErrBadCapability
	}
	e, ok := a.table.Get(c.Object)
	if !ok {
		return ObjectEntry{}, ErrNotFound
	}
	if err := capability.Require(c, e.Secret, need); err != nil {
		return ObjectEntry{}, err
	}
	return e, nil
}

// Read executes a read-only operation (no replication, no disk — §3.1)
// into a fresh reply; see ReadInto.
func (a *Applier) Read(req *Request) *Reply {
	reply := &Reply{}
	a.ReadInto(req, reply)
	return reply
}

// ReadInto executes a read-only operation into reply, which the caller
// owns and may reuse: it is reset, and its Caps keep their backing array.
// Replies carry the per-object sequence number (ObjSeq) of the directory
// read; the front end stamps Reply.Seq with AppliedSeq, sampled before
// the read, so client caches get a conservative freshness bound. A lookup
// set is answered with capabilities alone, a zero one for a missing name;
// rows are what a listing answers with.
func (a *Applier) ReadInto(req *Request, reply *Reply) {
	*reply = Reply{Status: StatusOK, Caps: reply.Caps[:0]}
	switch req.Op {
	case OpGetRoot:
		c, err := a.RootCap()
		reply.Status, reply.Cap = StatusOf(err), c
	case OpTxQuery:
		var id TxID
		if len(req.Blob) != len(id) {
			reply.Status = StatusBadRequest
			return
		}
		copy(id[:], req.Blob)
		state, seq := a.TxStateOf(id)
		reply.Seq, reply.Blob = seq, []byte{byte(state)}
	case OpShardMap:
		reply.Blob = EncodeShardMapInfo(a.ShardMapInfo())
	case OpBackup:
		// The blob's applied/commit counters stay zero here — a restored
		// backup derives its floor from the content (Snapshot.MaxSeq).
		// Going through Read keeps the op on every backend's generic
		// dispatch path.
		reply.Blob = a.SnapshotState(0, 0).Encode()
	case OpMigRead:
		// Internal migration read: the whole object image plus its
		// secret, keyed by object number alone (the migrator coordinates
		// shards, it does not hold per-object capabilities). Entry and
		// image are sampled, and the image encoded, under the applier lock
		// so the returned ObjSeq matches the image exactly — the flip's
		// expected-sequence check depends on it.
		obj := req.Dir.Object
		a.mu.RLock()
		defer a.mu.RUnlock()
		d := a.cache[obj]
		e, ok := a.table.Get(obj)
		if !ok || d == nil {
			reply.Status = StatusNotFound
			return
		}
		reply.ObjSeq, reply.Blob = e.Seq, MigImageBlob(e.Secret, d.Encode())
	case OpListDir, OpLookupSet:
		if _, err := a.verify(req.Dir, capability.RightRead); err != nil {
			reply.Status = StatusOf(err)
			return
		}
		a.mu.RLock()
		defer a.mu.RUnlock()
		d := a.cache[req.Dir.Object]
		if d == nil {
			reply.Status = StatusNotFound
			return
		}
		if req.Op == OpLookupSet {
			for _, it := range req.Set {
				c, _ := d.Cap(it.Name)
				reply.Caps = append(reply.Caps, c)
			}
		} else {
			rows, err := d.List(req.Column)
			if err != nil {
				reply.Status = StatusOf(err)
				return
			}
			reply.Rows = rows
		}
		reply.ObjSeq = d.Seq
	default:
		reply.Status = StatusBadRequest
	}
}

// ApplyUpdate is ApplyUpdateInto a result of its own, for callers off
// the hot path (the RPC and local kinds, tests and probes).
func (a *Applier) ApplyUpdate(req *Request, seq uint64, durable bool) (*ApplyResult, error) {
	res := new(ApplyResult)
	if err := a.ApplyUpdateInto(req, seq, durable, res); err != nil {
		return nil, err
	}
	return res, nil
}

// ApplyUpdateInto executes one update operation, stamping seq as the
// service-wide sequence number of the change; on success the applied
// sequence number advances to seq. Every operation that changes
// directories is staged in an overlay and committed by
// commitOverlayLocked, which alone knows the two modes: durable writes
// the new images to the Bullet store and the object-table blocks to disk
// before returning (the commit point of Fig. 5); otherwise only RAM
// changes, and the caller makes the update durable its own way — an NVRAM
// or engine log record now, FlushObjects or a checkpoint later.
//
// The outcome goes into res, which the caller owns and may reuse: it is
// reset, its Reply is filled in place (allocated if nil), and its lists
// keep their backing arrays. Nothing the applier keeps points into res;
// the reply's Caps and Blob are the apply's own, never res's earlier ones.
func (a *Applier) ApplyUpdateInto(req *Request, seq uint64, durable bool, res *ApplyResult) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if err := a.applyUpdateLocked(req, seq, durable, res); err != nil {
		return err
	}
	a.advanceLocked(seq)
	if a.events != nil {
		a.events.Record(Event{Seq: seq, Op: req.Op, Objects: res.DirtyObjects})
	}
	return nil
}

// applyUpdateLocked resets res for seq and hands the update to its op's
// apply, which fills res in. Called with a.mu held.
func (a *Applier) applyUpdateLocked(req *Request, seq uint64, durable bool, res *ApplyResult) error {
	res.reset(seq)
	switch req.Op {
	case OpCreateDir, OpDeleteDir, OpAppendRow, OpChmodRow, OpDeleteRow, OpReplaceSet:
		return a.applySingleLocked(req, seq, durable, res)
	case OpBatch:
		return a.applyBatchLocked(req, seq, durable, res)
	case OpPrepare:
		return a.applyPrepareLocked(req, seq, res)
	case OpDecide:
		return a.applyDecideLocked(req, seq, durable, res)
	case OpSplit:
		return a.applySplitLocked(req, seq, res)
	case OpSealMigration:
		return a.applySealLocked(res)
	case OpDropStubs:
		return a.applyDropStubsLocked(durable, res)
	case OpRestoreShard:
		return a.applyRestoreLocked(req, durable, res)
	default:
		return ErrBadRequest
	}
}

// Replay re-applies one record of a recovery log (NVRAM log or engine
// write-ahead log) to the RAM state and reports whether the state now
// reflects it. A decide whose transaction is not staged here is a
// re-logged outcome record — the effects were flushed or checkpointed
// before the crash — so it restores the remembered outcome, keeping
// decision queries authoritative, instead of applying. A record that no
// longer applies was flushed before the crash that kept its log entry;
// it is skipped. Either way the record's sequence number is used up: the
// applied sequence number advances to it.
func (a *Applier) Replay(req *Request, seq uint64) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	defer a.advanceLocked(seq)
	if req.Op == OpDecide {
		if d, err := DecodeDecide(req.Blob); err == nil && a.prepared[d.ID] == nil {
			a.rememberDecidedLocked(d.ID, decidedTx{commit: d.Commit, seq: seq})
			return true
		}
	}
	return a.applyUpdateLocked(req, seq, false, &a.unseen) == nil
}

// FlushObjects writes the current images of objs through to Bullet,
// then their object-table blocks to disk, each block once (the NVRAM
// background flush). It returns the superseded Bullet files, which the
// disk no longer names once the blocks are written; on error it returns
// none. The images are stored without the applier lock held, so reads go
// on during the flush; the caller keeps updates out.
func (a *Applier) FlushObjects(objs []uint32) ([]capability.Capability, error) {
	var olds []capability.Capability
	for _, obj := range objs {
		a.mu.RLock()
		d := a.cache[obj]
		var img []byte
		if d != nil {
			img = d.Encode()
		}
		a.mu.RUnlock()
		if e, known := a.table.Get(obj); known && d != nil {
			bcap, err := a.bullet.Create(img)
			if err != nil {
				return nil, fmt.Errorf("flush directory %d: %w", obj, err)
			}
			if !e.Cap.IsZero() {
				olds = append(olds, e.Cap)
			}
			e.Cap = bcap
			a.table.SetRAM(obj, e)
		}
	}
	// A slot the RAM apply cleared or stubbed has to reach the disk too, or
	// a restart resurrects the directory.
	if err := a.table.FlushBlocks(objs); err != nil {
		return nil, err
	}
	return olds, nil
}
