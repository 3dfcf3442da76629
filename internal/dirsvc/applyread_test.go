package dirsvc

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"dirsvc/internal/capability"
	"dirsvc/internal/dirdata"
)

// TestApplierReadersSeeWholeImages: a commit recycles the image it takes
// out of the cache, so every reader of a cached image has to be done with
// it before the applier lock is released. Lookup sets, listings,
// migration reads, snapshots and flushes run against a stream of append,
// chmod and delete on one directory, applied into reused scratch as a
// group thread applies them; each answer must be a whole image of one
// version. The version shows in the image's sequence number: seq%3 == 1
// holds "tmp" with masks up, 2 holds it with masks down, 0 lacks it.
// Under -race a reader left outside the lock is reported as a race too.
// The flush keeps to FlushObjects's contract: no apply runs beside it.
func TestApplierReadersSeeWholeImages(t *testing.T) {
	f := newApplier(t)
	a := f.applier
	res, err := a.ApplyUpdate(&Request{Op: OpCreateDir, CheckSeed: []byte("whole")}, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	dir := res.Reply.Cap
	rowCap := func(name string) capability.Capability {
		return capability.Mint(a.port, uint32(len(name)), capability.NewSecret([]byte(name)))
	}
	for i, name := range []string{"a", "bb"} {
		if _, err := a.ApplyUpdate(&Request{Op: OpAppendRow, Dir: dir, Name: name, Cap: rowCap(name), Masks: ownerMasks()}, uint64(2+i), false); err != nil {
			t.Fatal(err)
		}
	}
	up := ownerMasks()
	down := []capability.Rights{capability.RightRead, capability.RightRead, capability.RightRead}
	// tmpRights is tmp's column-0 mask in each version that holds it.
	tmpRights := map[uint64]capability.Rights{1: up[0], 2: down[0]}

	// check verifies that image d is whole: its rows are those of the
	// version its sequence number names.
	check := func(d *dirdata.Directory) error {
		for _, name := range []string{"a", "bb"} {
			if c, ok := d.Cap(name); !ok || c != rowCap(name) {
				return fmt.Errorf("seq %d: row %q = %v, %v", d.Seq, name, c, ok)
			}
		}
		row, err := d.Lookup("tmp")
		switch want := d.Seq % 3; {
		case want == 0 && err == nil:
			return fmt.Errorf("seq %d holds tmp", d.Seq)
		case want == 0:
		case err != nil:
			return fmt.Errorf("seq %d lacks tmp", d.Seq)
		case row.Cap != rowCap("tmp") || row.ColMasks[0] != tmpRights[want]:
			return fmt.Errorf("seq %d: tmp = %v %v", d.Seq, row.Cap, row.ColMasks)
		}
		if len(d.Rows) != 2+min(1, int(d.Seq%3)) {
			return fmt.Errorf("seq %d: %d rows", d.Seq, len(d.Rows))
		}
		return nil
	}

	const cycles = 300
	var (
		done   atomic.Bool
		wg     sync.WaitGroup
		mu     sync.Mutex
		failed error
	)
	fail := func(err error) {
		mu.Lock()
		defer mu.Unlock()
		if failed == nil {
			failed = err
		}
	}
	hasFailed := func() bool {
		mu.Lock()
		defer mu.Unlock()
		return failed != nil
	}
	reader := func(read func() error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !done.Load() {
				if err := read(); err != nil {
					fail(err)
					return
				}
			}
		}()
	}
	reader(func() error { // lookup set
		var reply Reply
		a.ReadInto(&Request{Op: OpLookupSet, Dir: dir, Set: []SetItem{{Name: "a"}, {Name: "tmp"}}}, &reply)
		if reply.Status != StatusOK || len(reply.Caps) != 2 || reply.Caps[0] != rowCap("a") {
			return fmt.Errorf("lookup set: %+v", reply)
		}
		if tmp := reply.Caps[1]; tmp.IsZero() != (reply.ObjSeq%3 == 0) || !tmp.IsZero() && tmp != rowCap("tmp") {
			return fmt.Errorf("lookup set at seq %d: tmp = %v", reply.ObjSeq, tmp)
		}
		return nil
	})
	reader(func() error { // listing, column 0
		reply := a.Read(&Request{Op: OpListDir, Dir: dir})
		if reply.Status != StatusOK {
			return fmt.Errorf("list: %v", reply.Status)
		}
		if len(reply.Rows) != 2+min(1, int(reply.ObjSeq%3)) {
			return fmt.Errorf("list at seq %d: %d rows", reply.ObjSeq, len(reply.Rows))
		}
		for _, r := range reply.Rows {
			if want := tmpRights[reply.ObjSeq%3]; r.Name == "tmp" && r.Cap.Rights != want {
				return fmt.Errorf("list at seq %d: tmp rights %v, want %v", reply.ObjSeq, r.Cap.Rights, want)
			}
		}
		return nil
	})
	reader(func() error { // migration read
		reply := a.Read(&Request{Op: OpMigRead, Dir: capability.Capability{Object: dir.Object}})
		if reply.Status != StatusOK {
			return fmt.Errorf("mig read: %v", reply.Status)
		}
		_, img, err := SplitMigImageBlob(reply.Blob)
		if err != nil {
			return err
		}
		d, err := dirdata.Decode(img)
		if err != nil {
			return err
		}
		return check(d)
	})
	reader(func() error { // snapshot
		for _, o := range a.SnapshotState(0, 0).Objects {
			if o.Object != dir.Object {
				continue
			}
			d, err := dirdata.Decode(o.Image)
			if err != nil {
				return err
			}
			return check(d)
		}
		return fmt.Errorf("snapshot lacks the directory")
	})
	// FlushObjects's caller keeps updates out, as the NVRAM flush holds
	// applyMu: the flush and its read-back take turns with the applies.
	var updates sync.Mutex
	flushes := 0
	reader(func() error { // NVRAM-style flush, read back from Bullet
		if flushes++; flushes > cycles {
			return nil // the Bullet store keeps every image flushed
		}
		updates.Lock()
		defer updates.Unlock()
		if _, err := a.FlushObjects([]uint32{dir.Object}); err != nil {
			return err
		}
		e, _ := a.table.Get(dir.Object)
		img, err := a.bullet.Read(e.Cap)
		if err != nil {
			return err
		}
		d, err := dirdata.Decode(img)
		if err != nil {
			return err
		}
		return check(d)
	})

	var scratch ApplyResult
	seq := uint64(3)
	for i := 0; i < cycles && !hasFailed(); i++ {
		for _, req := range []*Request{
			{Op: OpAppendRow, Dir: dir, Name: "tmp", Cap: rowCap("tmp"), Masks: up},
			{Op: OpChmodRow, Dir: dir, Name: "tmp", Masks: down},
			{Op: OpDeleteRow, Dir: dir, Name: "tmp"},
		} {
			seq++
			updates.Lock()
			err := a.ApplyUpdateInto(req, seq, false, &scratch)
			updates.Unlock()
			if err != nil {
				fail(fmt.Errorf("%v at seq %d: %w", req.Op, seq, err))
			}
		}
	}
	done.Store(true)
	wg.Wait()
	if failed != nil {
		t.Fatal(failed)
	}
}
