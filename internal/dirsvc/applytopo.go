package dirsvc

import (
	"fmt"
	"sort"

	"dirsvc/internal/dirdata"
)

// This file holds the applier side of elastic topology: the shard-map
// epoch state machine (OpSplit / OpSealMigration / OpDropStubs), the
// migration steps that ride the two-phase machinery (OpMigOut at the
// source, OpMigIn at the target), and the routing decision servers make
// before touching an object (RouteForward). All topology mutations ride
// the backend's totally-ordered update stream, so every replica of a
// shard transitions identically.
//
// The per-object move is: read the image at the source (OpMigRead),
// then flip with one cross-shard transaction — OpMigOut validates the
// source entry still has the copied sequence number (a racing writer
// makes the prepare vote no, and the migrator re-copies) and commits by
// replacing the entry with a forwarding stub; OpMigIn commits by
// installing the shipped image at the target, each replica minting its
// own Bullet file exactly like recovery state transfer. The 2PC locks
// hold readers and writers at both shards until each shard's decide
// applies, so no window exists where both sides serve the object.

// ConfigureTopology installs the boot-time shard geometry: this shard's
// index, the number of shards active at epoch 0, and the number
// provisioned. Call once before recovery; recovery may then overwrite
// the epoch via RestoreTopology.
func (a *Applier) ConfigureTopology(shard, base, total int) {
	if base <= 0 {
		base = 1
	}
	if total < base {
		total = base
	}
	a.mu.Lock()
	a.topo = &TopoState{Shard: shard, Base: base, Total: total}
	a.mu.Unlock()
	a.table.ConfigureShard(shard, allocModUnder(shard, base, total))
}

// allocModUnder returns the modulus a shard's allocator runs under: the
// current active count for an active shard, or — for a reserve shard —
// the active count of the first epoch that includes it, so the numbers
// it mints once activated are in the residue class it will own.
func allocModUnder(shard, active, total int) int {
	m := active
	for m <= shard && m*2 <= total {
		m *= 2
	}
	return m
}

// Topology returns a snapshot of the shard's topology state; ok is
// false when ConfigureTopology was never called.
func (a *Applier) Topology() (TopoState, bool) {
	a.mu.RLock()
	defer a.mu.RUnlock()
	if a.topo == nil {
		return TopoState{}, false
	}
	return *a.topo, true
}

// RestoreTopology reinstalls a persisted topology state (the commit
// block's), keeping this shard's configured identity and geometry and
// adopting the epoch, migration phase, and floors. It reconfigures the
// allocator to match.
func (a *Applier) RestoreTopology(t *TopoState) {
	if t == nil {
		return
	}
	a.mu.Lock()
	if a.topo == nil {
		a.mu.Unlock()
		return
	}
	cur := a.topo
	cur.Epoch = t.Epoch
	cur.MigPhase = t.MigPhase
	cur.MigPeer = t.MigPeer
	cur.MigFloor = t.MigFloor
	cur.AllocFloor = t.AllocFloor
	shard, active, total, floor := cur.Shard, cur.Active(), cur.Total, cur.AllocFloor
	a.mu.Unlock()
	a.table.ConfigureShard(shard, allocModUnder(shard, active, total))
	a.table.SetAllocFloor(floor)
}

// RouteForward decides whether a request addressing obj belongs to
// another shard under the current shard map. It returns the shard to
// forward to and true, or false when this shard serves the request
// itself — including authoritative not-found answers for numbers it
// owns or once owned. Transient misdecisions during a flip are safe:
// the client chases at most one stale hop and retries.
func (a *Applier) RouteForward(obj uint32) (int, bool) {
	a.mu.RLock()
	t := a.topo
	var topo TopoState
	if t != nil {
		topo = *t
	}
	a.mu.RUnlock()
	if t == nil || obj == 0 || obj == RootObject {
		// Every shard holds its own root copy (FormatRoot), and the root
		// never migrates.
		return 0, false
	}
	if st, ok := a.table.Stub(obj); ok {
		// Migrated away: one-hop forwarding stub.
		return st.Target, true
	}
	home := topo.Home(obj)
	_, present := a.table.Get(obj)
	if home == topo.Shard {
		if !present && topo.MigPhase == MigTarget && obj <= topo.MigFloor {
			// Unsealed split target: a miss at or below the floor may
			// still live at the source (not yet migrated) — the source
			// is authoritative until the seal.
			return topo.MigPeer, true
		}
		return 0, false
	}
	if present {
		// Ours until its migration flip commits.
		return 0, false
	}
	if topo.MigPhase == MigSource && home == topo.MigPeer && obj <= topo.MigFloor {
		// Our moving class, at or below the floor, no entry and no
		// stub: the object never existed or was deleted here — we are
		// authoritative for its absence.
		return 0, false
	}
	return home, true
}

// ShardMapInfo snapshots the shard's topology view for OpShardMap:
// epoch state, table occupancy, and the migration work list (owned
// objects homed elsewhere under the current epoch).
func (a *Applier) ShardMapInfo() *ShardMapInfo {
	a.mu.RLock()
	t := a.topo
	var topo TopoState
	if t != nil {
		topo = *t
	} else {
		topo = TopoState{Base: 1, Total: 1}
	}
	a.mu.RUnlock()
	info := &ShardMapInfo{Topo: topo}
	entries := a.table.All()
	info.Objects = len(entries)
	info.Stubs = a.table.StubCount()
	if t != nil {
		for obj := range entries {
			if obj != RootObject && topo.Home(obj) != topo.Shard {
				info.Moving = append(info.Moving, obj)
			}
		}
		sort.Slice(info.Moving, func(i, j int) bool { return info.Moving[i] < info.Moving[j] })
	}
	return info
}

// applySplitLocked executes OpSplit: bump the shard map to the target
// epoch (req.Seq), doubling the active shard count. A shard active
// before the split becomes the source of its twin s+oldActive and
// answers with the moving class's allocation floor in ObjSeq; a newly
// activated shard becomes the target, told the floor in req.Column.
// Splits at or below the current epoch are idempotent no-ops, so
// recovery replay and coordinator retries are harmless. Called with
// a.mu held.
func (a *Applier) applySplitLocked(req *Request, seq uint64, res *ApplyResult) error {
	t := a.topo
	if t == nil {
		return fmt.Errorf("split without topology: %w", ErrBadRequest)
	}
	target := req.Seq
	if target <= t.Epoch {
		res.Reply.ObjSeq = uint64(t.MigFloor)
		return nil
	}
	if t.MigPhase != MigNone {
		return fmt.Errorf("previous split still migrating: %w", ErrConflict)
	}
	oldActive := ActiveShardsAt(target-1, t.Base, t.Total)
	newActive := ActiveShardsAt(target, t.Base, t.Total)
	if newActive != oldActive*2 {
		return fmt.Errorf("no spare shards for epoch %d (active %d of %d): %w",
			target, oldActive, t.Total, ErrBadRequest)
	}
	switch {
	case t.Shard < oldActive:
		twin := t.Shard + oldActive
		floor := a.table.ClassMax(uint32(newActive), uint32(twin))
		t.Epoch = target
		t.MigPhase = MigSource
		t.MigPeer = twin
		t.MigFloor = floor
		a.table.ConfigureShard(t.Shard, newActive)
		res.Reply.ObjSeq = uint64(floor)
	case t.Shard < newActive:
		twin := t.Shard - oldActive
		floor := uint32(req.Column)
		t.Epoch = target
		t.MigPhase = MigTarget
		t.MigPeer = twin
		t.MigFloor = floor
		if floor > t.AllocFloor {
			t.AllocFloor = floor
		}
		a.table.ConfigureShard(t.Shard, newActive)
		a.table.SetAllocFloor(t.AllocFloor)
		res.Reply.ObjSeq = uint64(floor)
	default:
		return fmt.Errorf("shard %d inactive at epoch %d: %w", t.Shard, target, ErrBadRequest)
	}
	res.TopoChanged = true
	return nil
}

// applySealLocked executes OpSealMigration at a split target: every
// moving-class object has arrived, so misses below the floor stop
// chasing to the source. Idempotent when no split is in progress.
// Called with a.mu held.
func (a *Applier) applySealLocked(res *ApplyResult) error {
	t := a.topo
	if t == nil {
		return fmt.Errorf("seal without topology: %w", ErrBadRequest)
	}
	if t.MigPhase == MigNone {
		return nil
	}
	if t.MigPhase != MigTarget {
		return fmt.Errorf("seal on a split source: %w", ErrConflict)
	}
	t.MigPhase = MigNone
	t.MigPeer = 0
	t.MigFloor = 0
	res.TopoChanged = true
	return nil
}

// applyDropStubsLocked executes OpDropStubs at a split source: refuse
// while any moving-class object is still here, else end the source
// phase and delete every forwarding stub (their object numbers stay
// unusable at this shard — the residue class belongs to the twin now).
// Replay after a crash re-drops whatever stubs the flush missed.
// Called with a.mu held.
func (a *Applier) applyDropStubsLocked(durable bool, res *ApplyResult) error {
	t := a.topo
	if t == nil {
		return fmt.Errorf("drop-stubs without topology: %w", ErrBadRequest)
	}
	if t.MigPhase == MigSource {
		for obj := range a.table.All() {
			if obj != RootObject && t.Home(obj) != t.Shard {
				return fmt.Errorf("object %d not yet migrated: %w", obj, ErrConflict)
			}
		}
		t.MigPhase = MigNone
		t.MigPeer = 0
		t.MigFloor = 0
	} else if t.MigPhase == MigTarget {
		return fmt.Errorf("drop-stubs on a split target: %w", ErrConflict)
	}
	// Clearing a stub slot is a delete like any other: it sets DeletedDir,
	// so the commit block remembers the sequence numbers the stubs carried
	// and recovery's max-seq scan cannot regress.
	var ov overlay
	for obj := range a.table.Stubs() {
		ov.stage(obj)
	}
	if err := a.commitOverlayLocked(&ov, durable, res); err != nil {
		return err
	}
	res.TopoChanged = true
	return nil
}

// migOutStepLocked validates and stages an OpMigOut step: the source
// half of a migration flip. The entry must still carry the sequence
// number the migrator copied (st.Seq) — any interleaved write makes the
// prepare vote no, and the migrator re-copies. Commit replaces the
// entry with a forwarding stub to st.Column. Called with a.mu held.
func (a *Applier) migOutStepLocked(ov *overlay, st *Request, seq uint64, self TxID) error {
	obj := st.Dir.Object
	if obj == 0 || obj == RootObject {
		return fmt.Errorf("cannot migrate object %d: %w", obj, ErrBadRequest)
	}
	if a.lockedByOtherLocked(obj, self) {
		return ErrConflict
	}
	e, ok := ov.entry(a, obj)
	if !ok {
		return ErrNotFound
	}
	if e.Seq != st.Seq {
		return fmt.Errorf("object %d changed since copy (seq %d != %d): %w",
			obj, e.Seq, st.Seq, ErrConflict)
	}
	s := ov.stage(obj)
	s.dir, s.stub = nil, &StubEntry{Target: st.Column, Seq: seq}
	return nil
}

// migInStepLocked validates and stages an OpMigIn step: the target half
// of a migration flip. The blob carries the object's secret and image
// as read at the source; commit installs them, each replica minting its
// own Bullet file. Called with a.mu held.
func (a *Applier) migInStepLocked(ov *overlay, st *Request, seq uint64, self TxID) error {
	obj := st.Dir.Object
	if obj == 0 {
		return fmt.Errorf("migrate-in of object 0: %w", ErrBadRequest)
	}
	if a.lockedByOtherLocked(obj, self) {
		return ErrConflict
	}
	if _, ok := ov.entry(a, obj); ok {
		return fmt.Errorf("object %d already present: %w", obj, ErrConflict)
	}
	secret, img, err := SplitMigImageBlob(st.Blob)
	if err != nil {
		return err
	}
	d, err := dirdata.Decode(img)
	if err != nil {
		return fmt.Errorf("migrate-in image of object %d: %w", obj, err)
	}
	d.Seq = seq
	s := ov.stage(obj)
	s.dir, s.entry, s.stub = d, ObjectEntry{Seq: seq, Secret: secret}, nil
	return nil
}
