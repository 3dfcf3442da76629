package dirsvc

import (
	"cmp"
	"fmt"
	"slices"

	"dirsvc/internal/capability"
	"dirsvc/internal/dirdata"
)

// staged is one object-table slot as an overlay will leave it.
type staged struct {
	obj uint32
	// dir is the working image of a live directory. Nil means the slot ends
	// up without an entry: cleared or, with stub set, a forwarding stub.
	dir *dirdata.Directory
	// entry is the working entry of a live directory; Cap is filled in by
	// the commit.
	entry ObjectEntry
	stub  *StubEntry // migrated away: what the slot becomes
}

// overlay is the staging area of one update — a single operation, an
// atomic batch, or a prepared transaction: every step reads through it
// and writes into it, so nothing touches the replica state until all
// steps have validated and commitOverlayLocked runs. It is a flat list
// of the slots the update leaves changed, ascending by object number.
type overlay struct {
	objs []staged
}

func (ov *overlay) index(obj uint32) (int, bool) {
	return slices.BinarySearchFunc(ov.objs, obj, func(s staged, obj uint32) int {
		return cmp.Compare(s.obj, obj)
	})
}

// find returns obj's staged slot, or nil when the overlay has not touched
// it.
func (ov *overlay) find(obj uint32) *staged {
	if i, ok := ov.index(obj); ok {
		return &ov.objs[i]
	}
	return nil
}

// stage returns obj's staged slot, adding a cleared one when the overlay
// has not touched obj. The pointer is good until the next stage call.
func (ov *overlay) stage(obj uint32) *staged {
	i, ok := ov.index(obj)
	if !ok {
		ov.objs = slices.Insert(ov.objs, i, staged{obj: obj})
	}
	return &ov.objs[i]
}

// scratchOverlayLocked returns the applier's reusable overlay, emptied:
// updates that commit before a.mu is released stage in it, so the hot
// path allocates no staging list. Must hold a.mu.
func (a *Applier) scratchOverlayLocked() *overlay {
	clear(a.scratch.objs) // let go of the previous update's images
	a.scratch.objs = a.scratch.objs[:0]
	return &a.scratch
}

// entry reads an object entry through the overlay.
func (ov *overlay) entry(a *Applier, obj uint32) (ObjectEntry, bool) {
	if s := ov.find(obj); s != nil {
		return s.entry, s.dir != nil
	}
	return a.table.Get(obj)
}

// verify resolves a directory capability through the overlay.
func (ov *overlay) verify(a *Applier, c capability.Capability, need capability.Rights) (ObjectEntry, error) {
	if c.Port != a.port {
		return ObjectEntry{}, capability.ErrBadCapability
	}
	e, ok := ov.entry(a, c.Object)
	if !ok {
		return ObjectEntry{}, ErrNotFound
	}
	if err := capability.Require(c, e.Secret, need); err != nil {
		return ObjectEntry{}, err
	}
	return e, nil
}

// applySingleLocked executes one create, delete or row operation as a
// one-step batch: the same staging and the same commit, with the step's
// result in the reply's own fields and its error unwrapped. Called with
// a.mu held.
func (a *Applier) applySingleLocked(req *Request, seq uint64, durable bool, res *ApplyResult) error {
	ov := a.scratchOverlayLocked()
	var result BatchStepResult
	if err := a.batchStepLocked(ov, req, seq, TxID{}, &result); err != nil {
		return err
	}
	if err := a.commitOverlayLocked(ov, durable, res); err != nil {
		return err
	}
	res.Reply.Cap, res.Reply.Caps = result.Cap, result.Caps
	return nil
}

// applyBatchLocked executes an OpBatch atomically: a validation pass
// computes the post-batch state in an overlay (any step error leaves the
// replica untouched), then the commit writes the overlay through in one
// go. Called with a.mu held.
func (a *Applier) applyBatchLocked(req *Request, seq uint64, durable bool, res *ApplyResult) error {
	steps, err := DecodeBatchSteps(req.Blob)
	if err != nil {
		return err
	}
	// The zero TxID means "no transaction": any prepared lock conflicts.
	ov := a.scratchOverlayLocked()
	results := make([]BatchStepResult, len(steps))
	for i, st := range steps {
		if err := a.batchStepLocked(ov, st, seq, TxID{}, &results[i]); err != nil {
			return &BatchError{Index: i, Err: err}
		}
	}
	if err := a.commitOverlayLocked(ov, durable, res); err != nil {
		return err
	}
	res.Reply.Blob = EncodeBatchResults(results)
	return nil
}

// commitOverlayLocked is the one place an update reaches the replica
// state — a single operation, a batch, a two-phase decision, the root
// format, a stub drop, a snapshot install. The order is the paper's write
// protocol (Fig. 5) and the reason a failure is harmless at every point:
//
//  1. durable only: store every new image on the Bullet server. A failure
//     here leaves table, cache and disk untouched (the images stored so
//     far are deleted again).
//  2. commit to RAM: object table and directory cache.
//  3. durable only: write the table blocks that hold a changed slot, each
//     once — the commit point. A crash before it leaves the old table
//     pointing at the old images; the new ones are orphan files.
//
// The persistence modes differ only in when step 3 happens: now, on the
// NVRAM flush (FlushObjects), or never (an engine checkpoint carries the
// RAM state instead). The outcome goes into res, which the caller has
// reset. Every image the commit takes out of the cache becomes the
// applier's spare. Called with a.mu held.
func (a *Applier) commitOverlayLocked(ov *overlay, durable bool, res *ApplyResult) error {
	if durable {
		for i := range ov.objs {
			s := &ov.objs[i]
			if s.dir == nil {
				continue
			}
			var err error
			if s.entry.Cap, err = a.bullet.Create(s.dir.Encode()); err != nil {
				for _, stored := range ov.objs[:i] {
					if stored.dir != nil {
						_ = a.bullet.Delete(stored.entry.Cap)
					}
				}
				return fmt.Errorf("store directory %d: %w", s.obj, err)
			}
		}
	}

	for i := range ov.objs {
		s := &ov.objs[i]
		prior, known := a.table.Get(s.obj)
		if old := a.cache[s.obj]; old != nil && old != s.dir {
			a.spare = old
		}
		switch {
		case s.stub != nil:
			a.table.SetStubRAM(s.obj, *s.stub)
			delete(a.cache, s.obj)
		case s.dir == nil:
			delete(a.cache, s.obj)
			if _, stubbed := a.table.Stub(s.obj); !known && !stubbed {
				continue // created and deleted in one overlay: net nothing
			}
			a.table.DeleteRAM(s.obj)
			// The slot carried a sequence number the commit block has to
			// remember now (§3).
			res.DeletedDir = true
		default:
			if !durable {
				s.entry.Cap = prior.Cap // stale until a flush rewrites it
			}
			a.table.SetRAM(s.obj, s.entry)
			a.cache[s.obj] = s.dir
		}
		res.DirtyObjects = append(res.DirtyObjects, s.obj)
		// In RAM mode a superseded Bullet file is kept: until the flush it is
		// the only local durable copy of the object.
		if durable && known && !prior.Cap.IsZero() {
			res.OldBullet = append(res.OldBullet, prior.Cap)
		}
	}
	if durable {
		return a.table.FlushBlocks(res.DirtyObjects)
	}
	return nil
}

// batchStepLocked validates and stages one step in the overlay. self is
// the staging transaction (zero for single updates and plain batches):
// objects locked by any other prepared transaction conflict, and the
// allocator skips the creations prepared transactions have staged.
func (a *Applier) batchStepLocked(ov *overlay, st *Request, seq uint64, self TxID, result *BatchStepResult) error {
	switch st.Op {
	case OpCreateDir:
		if len(st.CheckSeed) == 0 {
			return fmt.Errorf("create-dir without check seed: %w", ErrBadRequest)
		}
		// Creating a directory requires no capability: Amoeba let any holder
		// of the service port create, and registration into a parent is a
		// separate append.
		//
		// A non-zero st.Dir.Object is a pinned number: a record in a recovery
		// log carries the allocation it led to (PinAllocation), because
		// re-running the allocator after a crash may see a different topology
		// (a split moves the skip classes) and would renumber the directory
		// under the capability the client already holds.
		obj := st.Dir.Object
		if obj == 0 {
			obj = a.table.NextFreeExcept(func(o uint32) bool {
				_, locked := a.locks[o]
				return locked || ov.find(o) != nil
			})
			if obj == 0 {
				return fmt.Errorf("object table full: %w", ErrServer)
			}
		} else if err := a.pinnedFreeLocked(ov, obj, self); err != nil {
			return err
		}
		s := ov.stage(obj)
		s.dir = dirdata.New(st.Columns...)
		s.dir.Seq = seq
		s.entry = ObjectEntry{Seq: seq, Secret: capability.NewSecret(st.CheckSeed)}
		result.Cap = capability.Mint(a.port, obj, s.entry.Secret)
		return nil

	case OpDeleteDir:
		if st.Dir.Object == RootObject {
			return fmt.Errorf("cannot delete the root directory: %w", ErrBadRequest)
		}
		if a.lockedByOtherLocked(st.Dir.Object, self) {
			return ErrConflict
		}
		if _, err := ov.verify(a, st.Dir, capability.RightDelete); err != nil {
			return err
		}
		ov.stage(st.Dir.Object).dir = nil
		return nil

	case OpMigOut:
		return a.migOutStepLocked(ov, st, seq, self)

	case OpMigIn:
		return a.migInStepLocked(ov, st, seq, self)

	case OpAppendRow, OpChmodRow, OpDeleteRow, OpReplaceSet:
		if a.lockedByOtherLocked(st.Dir.Object, self) {
			return ErrConflict
		}
		need := capability.RightWrite
		switch st.Op {
		case OpDeleteRow:
			need = capability.RightDelete
		case OpChmodRow:
			need = capability.RightAdmin
		}
		e, err := ov.verify(a, st.Dir, need)
		if err != nil {
			return err
		}
		// First touch forks the cached image into the spare, so the cache
		// stays as it is until the commit.
		s := ov.find(st.Dir.Object)
		if s == nil {
			cached := a.cache[st.Dir.Object]
			if cached == nil {
				return ErrNotFound
			}
			s = ov.stage(st.Dir.Object)
			s.dir, s.entry, a.spare = cached.Fork(a.spare), e, nil
		}
		d := s.dir
		switch st.Op {
		case OpAppendRow:
			err = d.Append(st.Name, st.Cap, st.Masks)
		case OpChmodRow:
			err = d.Chmod(st.Name, st.Masks)
		case OpDeleteRow:
			err = d.Delete(st.Name)
		case OpReplaceSet:
			for _, it := range st.Set {
				old, rerr := d.Replace(it.Name, it.Cap)
				if rerr != nil {
					err = rerr
					break
				}
				result.Caps = append(result.Caps, old)
			}
		}
		if err != nil {
			return err
		}
		d.Seq, s.entry.Seq = seq, seq
		return nil

	default:
		return ErrBadRequest
	}
}

// pinnedFreeLocked checks that a create step may take the object number
// pinned into it. Must hold a.mu.
func (a *Applier) pinnedFreeLocked(ov *overlay, obj uint32, self TxID) error {
	if !a.table.Holds(obj) {
		return fmt.Errorf("pinned object %d outside the table: %w", obj, ErrBadRequest)
	}
	_, used := a.table.Get(obj)
	_, stubbed := a.table.Stub(obj)
	if used || stubbed || ov.find(obj) != nil || a.lockedByOtherLocked(obj, self) {
		return fmt.Errorf("object %d already allocated: %w", obj, ErrExists)
	}
	return nil
}
