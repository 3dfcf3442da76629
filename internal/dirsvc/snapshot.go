package dirsvc

import (
	"fmt"
	"slices"
	"sort"

	"dirsvc/internal/capability"
	"dirsvc/internal/dirdata"
)

// This file defines the portable shard snapshot: a self-contained image
// of one shard's replica state — object table entries with their
// directory images, forwarding stubs, topology, and the two-phase-commit
// participant state (staged prepares and remembered outcomes). It is the
// only whole-replica state image in the system:
//
//   - the checkpoint payload of the disk engine (engine.go), so recovery
//     is checkpoint + log-suffix replay instead of a full replay;
//   - the state transfer to a recovering replica: the group kinds'
//     OpSyncPull reply (Fig. 6, "get copies from s") and the RPC pair's
//     peer sync at boot;
//   - the OpBackup reply, a portable backup a client can store anywhere;
//   - the OpRestoreShard request body, which reinstalls the image through
//     the backend's ordinary replicated update path.
//
// Because the in-doubt prepares ride in the snapshot, a checkpoint is a
// durable copy of the shard's 2PC votes: a plain-durable deployment with
// the engine enabled no longer has the simultaneous whole-shard-crash
// window in which a prepared vote could be forgotten.

// SnapVersion is the wire version of the snapshot blob.
const SnapVersion = 1

var snapMagic = [4]byte{'S', 'N', 'P', '1'}

// SnapObject is one object table entry plus its directory image.
type SnapObject struct {
	Object uint32
	Seq    uint64
	Secret capability.Secret
	Image  []byte
}

// SnapStub is one forwarding stub of a migrated object.
type SnapStub struct {
	Object uint32
	Target int
	Seq    uint64
}

// SnapTx is one staged, undecided prepare: the encoded OpPrepare request
// and the sequence number it applied under.
type SnapTx struct {
	Seq uint64
	Raw []byte
}

// Snapshot is a decoded shard snapshot.
type Snapshot struct {
	AppliedSeq uint64 // applied service sequence number at capture
	CommitSeq  uint64 // commit block sequence number at capture
	Topo       *TopoState
	Objects    []SnapObject
	Stubs      []SnapStub
	InDoubt    []SnapTx
	Decided    []DecidedTx
}

// MaxSeq returns the highest sequence number the snapshot covers:
// recovery and restore advance the applied counter to at least this.
func (s *Snapshot) MaxSeq() uint64 {
	m := s.AppliedSeq
	if s.CommitSeq > m {
		m = s.CommitSeq
	}
	for _, o := range s.Objects {
		if o.Seq > m {
			m = o.Seq
		}
	}
	for _, st := range s.Stubs {
		if st.Seq > m {
			m = st.Seq
		}
	}
	for _, tx := range s.InDoubt {
		if tx.Seq > m {
			m = tx.Seq
		}
	}
	for _, d := range s.Decided {
		if d.Seq > m {
			m = d.Seq
		}
	}
	return m
}

// Encode serializes the snapshot.
func (s *Snapshot) Encode() []byte {
	w := newWriter()
	w.buf = append(w.buf, snapMagic[:]...)
	w.u8(SnapVersion)
	w.u64(s.AppliedSeq)
	w.u64(s.CommitSeq)
	if s.Topo != nil {
		w.u8(1)
		w.buf = append(w.buf, EncodeTopoState(s.Topo)...)
	} else {
		w.u8(0)
	}
	w.u32(uint32(len(s.Objects)))
	for _, o := range s.Objects {
		w.u32(o.Object)
		w.u64(o.Seq)
		w.buf = append(w.buf, o.Secret[:]...)
		w.bytes(o.Image)
	}
	w.u32(uint32(len(s.Stubs)))
	for _, st := range s.Stubs {
		w.u32(st.Object)
		w.u32(uint32(st.Target))
		w.u64(st.Seq)
	}
	w.u32(uint32(len(s.InDoubt)))
	for _, tx := range s.InDoubt {
		w.u64(tx.Seq)
		w.bytes(tx.Raw)
	}
	w.u32(uint32(len(s.Decided)))
	for _, d := range s.Decided {
		w.buf = append(w.buf, d.ID[:]...)
		if d.Commit {
			w.u8(1)
		} else {
			w.u8(0)
		}
		w.u64(d.Seq)
		w.bytes(d.Results)
	}
	return w.buf
}

// DecodeSnapshot parses a snapshot blob.
func DecodeSnapshot(buf []byte) (*Snapshot, error) {
	if len(buf) < 5 || [4]byte(buf[:4]) != snapMagic {
		return nil, fmt.Errorf("snapshot: bad magic: %w", ErrBadRequest)
	}
	if buf[4] != SnapVersion {
		return nil, fmt.Errorf("snapshot: unsupported version %d: %w", buf[4], ErrBadRequest)
	}
	rd := &byteReader{buf: buf, off: 5}
	s := &Snapshot{}
	s.AppliedSeq = rd.u64()
	s.CommitSeq = rd.u64()
	if rd.u8() == 1 {
		t, err := DecodeTopoState(rd.take(TopoStateLen))
		if err != nil {
			return nil, err
		}
		s.Topo = t
	}
	// Each count is checked against the bytes left before it sizes a
	// list: a short blob claiming millions of entries allocates nothing.
	nobj := int(rd.u32())
	if nobj > 1<<22 || !rd.holds(nobj, 4+8+len(capability.Secret{})+4) {
		return nil, fmt.Errorf("snapshot: object count: %w", ErrBadRequest)
	}
	s.Objects = slices.Grow(s.Objects, nobj)
	for i := 0; i < nobj; i++ {
		var o SnapObject
		o.Object = rd.u32()
		o.Seq = rd.u64()
		copy(o.Secret[:], rd.take(len(o.Secret)))
		o.Image = rd.lenBytes()
		s.Objects = append(s.Objects, o)
	}
	nstub := int(rd.u32())
	if nstub > 1<<22 || !rd.holds(nstub, 4+4+8) {
		return nil, fmt.Errorf("snapshot: stub count: %w", ErrBadRequest)
	}
	s.Stubs = slices.Grow(s.Stubs, nstub)
	for i := 0; i < nstub; i++ {
		var st SnapStub
		st.Object = rd.u32()
		st.Target = int(rd.u32())
		st.Seq = rd.u64()
		s.Stubs = append(s.Stubs, st)
	}
	ntx := int(rd.u32())
	if ntx > 1<<20 || !rd.holds(ntx, 8+4) {
		return nil, fmt.Errorf("snapshot: tx count: %w", ErrBadRequest)
	}
	s.InDoubt = slices.Grow(s.InDoubt, ntx)
	for i := 0; i < ntx; i++ {
		var tx SnapTx
		tx.Seq = rd.u64()
		tx.Raw = rd.lenBytes()
		s.InDoubt = append(s.InDoubt, tx)
	}
	ndec := int(rd.u32())
	if ndec > 1<<20 || !rd.holds(ndec, len(TxID{})+1+8+4) {
		return nil, fmt.Errorf("snapshot: decided count: %w", ErrBadRequest)
	}
	s.Decided = slices.Grow(s.Decided, ndec)
	for i := 0; i < ndec; i++ {
		var d DecidedTx
		copy(d.ID[:], rd.take(len(d.ID)))
		d.Commit = rd.u8() == 1
		d.Seq = rd.u64()
		d.Results = rd.lenBytes()
		s.Decided = append(s.Decided, d)
	}
	if rd.failed {
		return nil, fmt.Errorf("snapshot: truncated: %w", ErrBadRequest)
	}
	return s, nil
}

// SnapshotState captures the shard's current replica state as a
// snapshot. appliedSeq and commitSeq are stamped as given (a server
// passes AppliedSeq and its commit block's; a portable backup, zeros);
// everything else is sampled consistently under the applier lock.
func (a *Applier) SnapshotState(appliedSeq, commitSeq uint64) *Snapshot {
	a.mu.RLock()
	defer a.mu.RUnlock()
	snap := &Snapshot{AppliedSeq: appliedSeq, CommitSeq: commitSeq}
	if a.topo != nil {
		t := *a.topo
		snap.Topo = &t
	}
	entries := a.table.All()
	objs := make([]uint32, 0, len(entries))
	for obj := range entries {
		objs = append(objs, obj)
	}
	sort.Slice(objs, func(i, j int) bool { return objs[i] < objs[j] })
	for _, obj := range objs {
		d := a.cache[obj]
		if d == nil {
			// An entry with no cached image cannot be snapshotted; it can
			// only appear when the caller snapshots before LoadAll, which
			// no backend does.
			continue
		}
		e := entries[obj]
		snap.Objects = append(snap.Objects, SnapObject{
			Object: obj, Seq: e.Seq, Secret: e.Secret, Image: d.Encode(),
		})
	}
	stubs := a.table.Stubs()
	sobjs := make([]uint32, 0, len(stubs))
	for obj := range stubs {
		sobjs = append(sobjs, obj)
	}
	sort.Slice(sobjs, func(i, j int) bool { return sobjs[i] < sobjs[j] })
	for _, obj := range sobjs {
		st := stubs[obj]
		snap.Stubs = append(snap.Stubs, SnapStub{Object: obj, Target: st.Target, Seq: st.Seq})
	}
	txs := make([]*preparedTx, 0, len(a.prepared))
	for _, tx := range a.prepared {
		txs = append(txs, tx)
	}
	sort.Slice(txs, func(i, j int) bool { return txs[i].seq < txs[j].seq })
	for _, tx := range txs {
		snap.InDoubt = append(snap.InDoubt, SnapTx{Seq: tx.seq, Raw: tx.req.Encode()})
	}
	for _, id := range a.decidedOrder {
		d, ok := a.decided[id]
		if !ok {
			continue
		}
		snap.Decided = append(snap.Decided, DecidedTx{ID: id, Commit: d.commit, Seq: d.seq, Results: d.results})
	}
	return snap
}

// InstallSnapshot replaces the shard's replica state with the snapshot:
// table, images, stubs, topology, staged prepares, and remembered
// outcomes. In durable mode every image is written through to the Bullet
// store and the table blocks reach the disk; otherwise everything lands
// in RAM, marked dirty. The applied sequence number becomes the
// snapshot's MaxSeq. Recovery and the readonly secondary call this
// directly; OpRestoreShard reaches it through the replicated update path.
func (a *Applier) InstallSnapshot(snap *Snapshot, durable bool) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if _, err := a.installSnapshotLocked(snap, durable); err != nil {
		return err
	}
	a.setSeqLocked(snap.MaxSeq())
	return nil
}

// applyRestoreLocked executes OpRestoreShard: decode the snapshot in
// the request Blob and install it wholesale. Called with a.mu held.
func (a *Applier) applyRestoreLocked(req *Request, seq uint64, durable bool) (*ApplyResult, error) {
	snap, err := DecodeSnapshot(req.Blob)
	if err != nil {
		return nil, err
	}
	res, err := a.installSnapshotLocked(snap, durable)
	if err != nil {
		return nil, err
	}
	res.Reply.Seq = seq
	// Restored seqs may exceed the stream seq; advance the commit-block
	// floor even when no slot emptied, so recovery cannot regress.
	res.DeletedDir = true
	res.TopoChanged = snap.Topo != nil
	// The applied sequence number jumps past every number the backup
	// published, so post-restore updates never reuse one; ApplyUpdate
	// then advances it to at least seq.
	a.advanceLocked(snap.MaxSeq())
	return res, nil
}

// installSnapshotLocked is InstallSnapshot under a.mu: one overlay that
// clears every slot held now and stages every slot of the snapshot, so
// the commit's DirtyObjects is the union of objects present before or
// after — a deferred flush writes every changed slot through, including
// the ones the install removed. Called with a.mu held.
func (a *Applier) installSnapshotLocked(snap *Snapshot, durable bool) (*ApplyResult, error) {
	var ov overlay
	for _, obj := range a.table.Objects() {
		ov.stage(obj)
	}
	for obj := range a.table.Stubs() {
		ov.stage(obj)
	}
	for obj := range a.cache {
		ov.stage(obj)
	}
	for _, o := range snap.Objects {
		d, err := dirdata.Decode(o.Image)
		if err != nil {
			return nil, fmt.Errorf("snapshot image of object %d: %w", o.Object, err)
		}
		if !a.table.Holds(o.Object) {
			return nil, fmt.Errorf("snapshot object %d outside the table: %w", o.Object, ErrBadRequest)
		}
		s := ov.stage(o.Object)
		s.dir, s.entry, s.stub = d, ObjectEntry{Seq: o.Seq, Secret: o.Secret}, nil
	}
	for _, st := range snap.Stubs {
		if !a.table.Holds(st.Object) {
			return nil, fmt.Errorf("snapshot stub %d outside the table: %w", st.Object, ErrBadRequest)
		}
		s := ov.stage(st.Object)
		s.dir, s.stub = nil, &StubEntry{Target: st.Target, Seq: st.Seq}
	}
	res, err := a.commitOverlayLocked(&ov, 0, durable)
	if err != nil {
		return nil, err
	}

	// Adopt the snapshot's shard-map state before re-staging anything, so
	// a prepared create allocates under the epoch it was staged in.
	if snap.Topo != nil && a.topo != nil {
		cur := a.topo
		cur.Epoch = snap.Topo.Epoch
		cur.MigPhase = snap.Topo.MigPhase
		cur.MigPeer = snap.Topo.MigPeer
		cur.MigFloor = snap.Topo.MigFloor
		cur.AllocFloor = snap.Topo.AllocFloor
		a.table.ConfigureShard(cur.Shard, allocModUnder(cur.Shard, cur.Active(), cur.Total))
		a.table.SetAllocFloor(cur.AllocFloor)
	}

	// Discard all transaction state, then re-stage the snapshot's
	// in-doubt prepares and remembered outcomes.
	a.prepared = make(map[TxID]*preparedTx)
	a.locks = make(map[uint32]TxID)
	a.decided = make(map[TxID]decidedTx)
	a.decidedOrder = nil
	a.txCond.Broadcast()
	for _, tx := range snap.InDoubt {
		req, err := DecodeRequest(tx.Raw)
		if err != nil {
			return nil, fmt.Errorf("snapshot prepare record: %w", err)
		}
		if req.Op != OpPrepare {
			return nil, fmt.Errorf("snapshot in-doubt record op %v: %w", req.Op, ErrBadRequest)
		}
		if _, err := a.applyPrepareLocked(req, tx.Seq); err != nil {
			return nil, fmt.Errorf("snapshot re-prepare: %w", err)
		}
	}
	for _, d := range snap.Decided {
		a.rememberDecidedLocked(d.ID, decidedTx{commit: d.Commit, seq: d.Seq, results: d.Results})
	}

	return res, nil
}
