package dirsvc

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"dirsvc/internal/bullet"
	"dirsvc/internal/capability"
	"dirsvc/internal/dirdata"
	"dirsvc/internal/vdisk"
)

// TestBatchApplyAtomic exercises the staged-overlay batch applier
// directly: a failing step must leave the replica state — cache, table,
// and RAM-dirty tracking — completely untouched.
func TestBatchApplyAtomic(t *testing.T) {
	f := newApplier(t)
	root, err := f.applier.RootCap()
	if err != nil {
		t.Fatal(err)
	}

	// Failing batch: step 1 deletes a missing row.
	req := NewBatchRequest([]*Request{
		{Op: OpAppendRow, Dir: root, Name: "ghost", Cap: root, Masks: ownerMasks()},
		{Op: OpDeleteRow, Dir: root, Name: "missing"},
	})
	_, err = f.applier.ApplyUpdate(req, 1, false)
	var be *BatchError
	if !errors.As(err, &be) || be.Index != 1 || StatusOf(err) != StatusNotFound {
		t.Fatalf("err = %v, want BatchError{Index: 1} mapping to StatusNotFound", err)
	}
	reply := f.applier.Read(&Request{Op: OpLookupSet, Dir: root, Set: []SetItem{{Name: "ghost"}}})
	if !reply.Caps[0].IsZero() {
		t.Fatal("aborted batch leaked step 0")
	}
	if dirty := f.table.RAMDirtyObjects(); len(dirty) != 0 {
		t.Fatalf("aborted batch left RAM-dirty objects %v", dirty)
	}
}

// TestBatchFlushDurability pins the NVRAM-flush fix: a batch applied in
// RAM (non-durable) must reach the disk through the object table's
// RAM-dirty work list — including the created directory, whose object
// number exists nowhere in the logged request — and a RAM deletion must
// clear its on-disk slot rather than resurrect on reload.
func TestBatchFlushDurability(t *testing.T) {
	f := newApplier(t)
	root, err := f.applier.RootCap()
	if err != nil {
		t.Fatal(err)
	}

	req := NewBatchRequest([]*Request{
		{Op: OpCreateDir, CheckSeed: []byte("batch-seed")},
		{Op: OpAppendRow, Dir: root, Name: "kept", Cap: root, Masks: ownerMasks()},
	})
	res, err := f.applier.ApplyUpdate(req, 2, false /* RAM only */)
	if err != nil {
		t.Fatalf("batch: %v", err)
	}
	results, err := DecodeBatchResults(res.Reply.Blob)
	if err != nil {
		t.Fatal(err)
	}
	created := results[0].Cap

	// The background flush works off the table's RAM-dirty set.
	dirty := f.table.RAMDirtyObjects()
	if len(dirty) != 2 {
		t.Fatalf("RAM-dirty = %v, want the created dir and the root", dirty)
	}
	for _, obj := range dirty {
		if _, err := f.applier.FlushObjects([]uint32{obj}); err != nil {
			t.Fatalf("flush %d: %v", obj, err)
		}
	}
	if left := f.table.RAMDirtyObjects(); len(left) != 0 {
		t.Fatalf("objects still dirty after flush: %v", left)
	}

	// Reload from disk, as a restart would.
	reload := func() *Applier {
		admin, err := vdisk.NewPartition(f.disk, 0, 17)
		if err != nil {
			t.Fatal(err)
		}
		table, err := OpenObjectTable(admin)
		if err != nil {
			t.Fatal(err)
		}
		a := NewApplier(f.applier.port, table, f.applier.bullet)
		if err := a.LoadAll(); err != nil {
			t.Fatal(err)
		}
		return a
	}
	a2 := reload()
	reply := a2.Read(&Request{Op: OpLookupSet, Dir: root, Set: []SetItem{{Name: "kept"}}})
	if reply.Status != StatusOK || reply.Caps[0].IsZero() {
		t.Fatalf("root row lost across flush+reload: %+v", reply)
	}
	if reply := a2.Read(&Request{Op: OpListDir, Dir: created}); reply.Status != StatusOK {
		t.Fatalf("created directory lost across flush+reload: %+v", reply)
	}

	// RAM deletion: the flush must persist the cleared slot.
	if _, err := f.applier.ApplyUpdate(&Request{Op: OpDeleteDir, Dir: created}, 3, false); err != nil {
		t.Fatalf("delete: %v", err)
	}
	for _, obj := range f.table.RAMDirtyObjects() {
		if _, err := f.applier.FlushObjects([]uint32{obj}); err != nil {
			t.Fatalf("flush deletion %d: %v", obj, err)
		}
	}
	if reply := reload().Read(&Request{Op: OpListDir, Dir: created}); reply.Status != StatusNotFound {
		t.Fatalf("deleted directory resurrected after flush+reload: %+v", reply)
	}
}

// eqWorld is the state every TestSingleEqualsOneStepBatch case starts
// from, built identically on each fixture: a directory d holding rows a
// and b, and a directory locked by a prepared transaction.
type eqWorld struct {
	d, locked capability.Capability
	seq       uint64 // next free sequence number
}

func seedEqWorld(t *testing.T, f *applierFixture, durable bool) eqWorld {
	t.Helper()
	w := eqWorld{seq: 1}
	apply := func(req *Request) *Reply {
		t.Helper()
		res, err := f.applier.ApplyUpdate(req, w.seq, durable)
		if err != nil {
			t.Fatalf("seed %v: %v", req.Op, err)
		}
		w.seq++
		return res.Reply
	}
	w.d = apply(&Request{Op: OpCreateDir, CheckSeed: []byte("eq-d")}).Cap
	apply(&Request{Op: OpAppendRow, Dir: w.d, Name: "a", Cap: w.d, Masks: ownerMasks()})
	apply(&Request{Op: OpAppendRow, Dir: w.d, Name: "b", Cap: w.d, Masks: ownerMasks()})
	w.locked = apply(&Request{Op: OpCreateDir, CheckSeed: []byte("eq-locked")}).Cap
	apply(&Request{Op: OpPrepare, Blob: EncodePrepare(&Prepare{
		ID: TxID{1}, Participants: []int{0},
		Steps: EncodeBatchSteps([]*Request{
			{Op: OpAppendRow, Dir: w.locked, Name: "held", Cap: w.d, Masks: ownerMasks()},
		}),
	})})
	return w
}

// TestSingleEqualsOneStepBatch: a single update is a one-step batch. For
// every operation and every refusal, in RAM and in write-through mode,
// applying the request on its own and applying it as the only step of an
// OpBatch leave the same replica state and report the same effects; only
// the reply's shape differs (own fields against a results blob, a plain
// error against a BatchError around the same sentinel).
func TestSingleEqualsOneStepBatch(t *testing.T) {
	readOnly := func(c capability.Capability) capability.Capability {
		r, err := capability.Restrict(c, capability.RightRead)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	forged := func(c capability.Capability) capability.Capability {
		c.Check[0] ^= 0xff
		return c
	}
	cases := []struct {
		name string
		req  func(w eqWorld, root capability.Capability) *Request
		want error // nil: the operation succeeds
	}{
		{"create", func(eqWorld, capability.Capability) *Request {
			return &Request{Op: OpCreateDir, CheckSeed: []byte("new"), Columns: []string{"owner", "other"}}
		}, nil},
		{"create pinned", func(w eqWorld, _ capability.Capability) *Request {
			return &Request{Op: OpCreateDir, CheckSeed: []byte("new"), Dir: capability.Capability{Object: 9}}
		}, nil},
		{"delete-dir", func(w eqWorld, _ capability.Capability) *Request {
			return &Request{Op: OpDeleteDir, Dir: w.d}
		}, nil},
		{"append", func(w eqWorld, _ capability.Capability) *Request {
			return &Request{Op: OpAppendRow, Dir: w.d, Name: "c", Cap: w.locked, Masks: ownerMasks()}
		}, nil},
		{"chmod", func(w eqWorld, _ capability.Capability) *Request {
			return &Request{Op: OpChmodRow, Dir: w.d, Name: "a", Masks: []capability.Rights{1, 0, 0}}
		}, nil},
		{"delete-row", func(w eqWorld, _ capability.Capability) *Request {
			return &Request{Op: OpDeleteRow, Dir: w.d, Name: "a"}
		}, nil},
		{"replace-set", func(w eqWorld, _ capability.Capability) *Request {
			return &Request{Op: OpReplaceSet, Dir: w.d, Set: []SetItem{{Name: "a", Cap: w.locked}, {Name: "b", Cap: w.locked}}}
		}, nil},
		{"bad capability", func(w eqWorld, _ capability.Capability) *Request {
			return &Request{Op: OpDeleteRow, Dir: forged(w.d), Name: "a"}
		}, capability.ErrBadCapability},
		{"missing right", func(w eqWorld, _ capability.Capability) *Request {
			return &Request{Op: OpAppendRow, Dir: readOnly(w.d), Name: "c", Cap: w.d, Masks: ownerMasks()}
		}, capability.ErrNoRights},
		{"duplicate name", func(w eqWorld, _ capability.Capability) *Request {
			return &Request{Op: OpAppendRow, Dir: w.d, Name: "a", Cap: w.d, Masks: ownerMasks()}
		}, dirdata.ErrExists},
		{"missing name", func(w eqWorld, _ capability.Capability) *Request {
			return &Request{Op: OpDeleteRow, Dir: w.d, Name: "zz"}
		}, dirdata.ErrNotFound},
		{"root delete", func(_ eqWorld, root capability.Capability) *Request {
			return &Request{Op: OpDeleteDir, Dir: root}
		}, ErrBadRequest},
		{"object locked by a prepared tx", func(w eqWorld, _ capability.Capability) *Request {
			return &Request{Op: OpAppendRow, Dir: w.locked, Name: "c", Cap: w.d, Masks: ownerMasks()}
		}, ErrConflict},
		{"pinned number taken", func(w eqWorld, _ capability.Capability) *Request {
			return &Request{Op: OpCreateDir, CheckSeed: []byte("new"), Dir: capability.Capability{Object: w.d.Object}}
		}, ErrExists},
	}
	for _, durable := range []bool{false, true} {
		for _, tc := range cases {
			t.Run(fmt.Sprintf("%s/durable=%v", tc.name, durable), func(t *testing.T) {
				single, batch := newApplier(t), newApplier(t)
				w := seedEqWorld(t, single, durable)
				seedEqWorld(t, batch, durable)
				root, err := single.applier.RootCap()
				if err != nil {
					t.Fatal(err)
				}
				req := tc.req(w, root)

				sres, serr := single.applier.ApplyUpdate(req, w.seq, durable)
				bres, berr := batch.applier.ApplyUpdate(NewBatchRequest([]*Request{req}), w.seq, durable)
				if !errors.Is(serr, tc.want) || !errors.Is(berr, tc.want) {
					t.Fatalf("single err = %v, batch err = %v, want %v", serr, berr, tc.want)
				}
				if got, want := single.applier.SnapshotState(0, 0).Encode(), batch.applier.SnapshotState(0, 0).Encode(); !bytes.Equal(got, want) {
					t.Fatal("replica states differ")
				}
				if got, want := single.table.RAMDirtyObjects(), batch.table.RAMDirtyObjects(); !reflect.DeepEqual(got, want) {
					t.Fatalf("RAM-dirty sets differ: %v vs %v", got, want)
				}
				if tc.want != nil {
					var be *BatchError
					if errors.As(serr, &be) || !errors.As(berr, &be) || be.Index != 0 {
						t.Fatalf("error shapes: single %v (plain), batch %v (BatchError at step 0)", serr, berr)
					}
					return
				}
				if !reflect.DeepEqual(sres.DirtyObjects, bres.DirtyObjects) || sres.DeletedDir != bres.DeletedDir ||
					len(sres.OldBullet) != len(bres.OldBullet) || sres.Reply.Seq != bres.Reply.Seq {
					t.Fatalf("effects differ:\nsingle %+v\nbatch  %+v", sres, bres)
				}
				results, err := DecodeBatchResults(bres.Reply.Blob)
				if err != nil || len(results) != 1 {
					t.Fatalf("batch results = %+v, %v", results, err)
				}
				if sres.Reply.Blob != nil || sres.Reply.Cap != results[0].Cap || !reflect.DeepEqual(sres.Reply.Caps, results[0].Caps) {
					t.Fatalf("single reply %+v does not carry the step result %+v", sres.Reply, results[0])
				}
			})
		}
	}
}

// TestApplierWriteThroughCost is Fig. 5 stated at the applier: a
// write-through update stores one new image per directory it changes and
// then writes each object-table block holding a changed slot once.
func TestApplierWriteThroughCost(t *testing.T) {
	f := newApplier(t)
	var dirs []capability.Capability
	for i := 0; i < 3; i++ {
		res, err := f.applier.ApplyUpdate(&Request{Op: OpCreateDir, CheckSeed: []byte{byte(i)}}, uint64(1+i), true)
		if err != nil {
			t.Fatal(err)
		}
		dirs = append(dirs, res.Reply.Cap)
	}
	if blockOf(dirs[0].Object) != blockOf(dirs[2].Object) {
		t.Fatalf("fixture: directories %v do not share a table block", dirs)
	}
	cost := func(req *Request, seq uint64) (images, tableWrites int) {
		t.Helper()
		files, writes := f.store.Objects(), f.admin.writes
		if _, err := f.applier.ApplyUpdate(req, seq, true); err != nil {
			t.Fatal(err)
		}
		return f.store.Objects() - files, f.admin.writes - writes
	}
	single := &Request{Op: OpAppendRow, Dir: dirs[0], Name: "one", Cap: dirs[1], Masks: ownerMasks()}
	if images, writes := cost(single, 10); images != 1 || writes != 1 {
		t.Fatalf("single update: %d Bullet creates + %d table writes, want 1 + 1", images, writes)
	}
	var steps []*Request
	for _, d := range dirs {
		steps = append(steps, &Request{Op: OpAppendRow, Dir: d, Name: "all", Cap: d, Masks: ownerMasks()})
	}
	if images, writes := cost(NewBatchRequest(steps), 11); images != 3 || writes != 1 {
		t.Fatalf("batch over three directories in one block: %d Bullet creates + %d table writes, want 3 + 1", images, writes)
	}
}

// TestApplierBulletFailureLeavesReplicaUntouched: every image is stored
// before anything else changes, so a Bullet server that cannot store one
// — here: out of space — fails the update with table, cache and admin
// partition exactly as they were, and gives back the images it did store.
func TestApplierBulletFailureLeavesReplicaUntouched(t *testing.T) {
	f := newApplierSized(t, 64+16) // the file table and 16 data blocks
	var dirs []capability.Capability
	for i := 0; i < 3; i++ {
		res, err := f.applier.ApplyUpdate(&Request{Op: OpCreateDir, CheckSeed: []byte{byte(i)}}, uint64(1+i), true)
		if err != nil {
			t.Fatal(err)
		}
		dirs = append(dirs, res.Reply.Cap)
	}
	// Fill the store to the last block.
	var filler []capability.Capability
	for {
		c, err := f.store.Create([]byte("filler"))
		if err != nil {
			break
		}
		filler = append(filler, c)
	}
	untouched := func(tag string, req *Request) {
		t.Helper()
		state, files, writes := f.applier.SnapshotState(0, 0).Encode(), f.store.Objects(), f.admin.writes
		entries := f.table.All()
		if _, err := f.applier.ApplyUpdate(req, 20, true); !errors.Is(err, bullet.ErrNoSpace) {
			t.Fatalf("%s: err = %v, want %v", tag, err, bullet.ErrNoSpace)
		}
		if !bytes.Equal(f.applier.SnapshotState(0, 0).Encode(), state) {
			t.Fatalf("%s: failed update changed the cache or the table", tag)
		}
		if !reflect.DeepEqual(f.table.All(), entries) || len(f.table.RAMDirtyObjects()) != 0 {
			t.Fatalf("%s: failed update changed object-table entries", tag)
		}
		if f.admin.writes != writes || f.store.Objects() != files {
			t.Fatalf("%s: failed update left %d admin writes and %d files behind",
				tag, f.admin.writes-writes, f.store.Objects()-files)
		}
	}
	untouched("single", &Request{Op: OpAppendRow, Dir: dirs[0], Name: "x", Cap: dirs[1], Masks: ownerMasks()})

	// Room for exactly one image: the batch stores its first, fails on its
	// second, and has to take the first back.
	if err := f.store.Delete(filler[0]); err != nil {
		t.Fatal(err)
	}
	var steps []*Request
	for _, d := range dirs {
		steps = append(steps, &Request{Op: OpAppendRow, Dir: d, Name: "x", Cap: d, Masks: ownerMasks()})
	}
	untouched("batch", NewBatchRequest(steps))
}

// TestBatchPinAllocationSurvivesTopologyChange: the record a recovery log
// keeps of a batch or a prepare carries the object numbers its creates
// were given, so replaying it on a replica whose allocator has moved on
// (an online split persisted in between) mints the same capabilities.
func TestBatchPinAllocationSurvivesTopologyChange(t *testing.T) {
	steps := []*Request{
		{Op: OpCreateDir, CheckSeed: []byte("first")},
		{Op: OpCreateDir, CheckSeed: []byte("second")},
	}
	prepare := func(id TxID) *Request {
		return &Request{Op: OpPrepare, Blob: EncodePrepare(&Prepare{
			ID: id, Participants: []int{0}, Steps: EncodeBatchSteps(steps),
		})}
	}
	for name, req := range map[string]*Request{"batch": NewBatchRequest(steps), "prepare": prepare(TxID{7})} {
		t.Run(name, func(t *testing.T) {
			live := newApplier(t)
			res, err := live.applier.ApplyUpdate(req, 1, false)
			if err != nil {
				t.Fatal(err)
			}
			logged := PinAllocation(req, res.Reply)
			if logged == req {
				t.Fatal("record not pinned")
			}
			if name == "prepare" {
				// What a flush re-logs and a snapshot ships is pinned too.
				if kept := live.applier.InDoubtTxs()[0].Req; !bytes.Equal(kept.Encode(), logged.Encode()) {
					t.Fatal("the prepared transaction keeps the unpinned request")
				}
			}

			// The restarted replica allocates in another residue class.
			replayed := newApplier(t)
			replayed.table.ConfigureShard(1, 2)
			if !replayed.applier.Replay(logged, 1) {
				t.Fatal("pinned record did not replay")
			}
			want, _ := DecodeBatchResults(res.Reply.Blob)
			if name == "prepare" {
				decide := &Request{Op: OpDecide, Blob: EncodeDecide(&Decide{ID: TxID{7}, Commit: true})}
				if !replayed.applier.Replay(decide, 2) {
					t.Fatal("decide did not replay")
				}
			}
			for _, r := range want {
				if reply := replayed.applier.Read(&Request{Op: OpListDir, Dir: r.Cap}); reply.Status != StatusOK {
					t.Fatalf("capability %v does not resolve after replay: %v", r.Cap, reply.Status)
				}
			}
		})
	}
}
