package core

import (
	"bytes"
	"slices"
	"testing"

	"dirsvc/internal/capability"
	"dirsvc/internal/dirsvc"
)

// TestGroupScratchNotRetained: the group thread decodes every update into
// one reused Request. A prepare, an append with masks and a create with a
// check seed go through it, then a different request is decoded into the
// same scratch; the in-doubt transaction, the row's masks and the created
// directory's capability are as they were. A replica that kept the
// scratch request, or the slices decoded into it, sees them change.
func TestGroupScratchNotRetained(t *testing.T) {
	srv := newLoneServer(t, "scratch")
	a := srv.front.Applier
	root, err := a.RootCap()
	if err != nil {
		t.Fatal(err)
	}
	update := func(req *dirsvc.Request) *dirsvc.Reply {
		t.Helper()
		reply := srv.front.Update(req)
		if reply.Status != dirsvc.StatusOK {
			t.Fatalf("%v: %v", req.Op, reply.Status.Err())
		}
		return reply
	}

	// The prepare stages an append, so it keeps the request it applied (a
	// staged create would keep a copy pinning the allocation).
	staging := update(&dirsvc.Request{Op: dirsvc.OpCreateDir}).Cap
	update(&dirsvc.Request{Op: dirsvc.OpPrepare, Blob: dirsvc.EncodePrepare(&dirsvc.Prepare{
		ID: dirsvc.NewTxID(), Participants: []int{0},
		Steps: dirsvc.EncodeBatchSteps([]*dirsvc.Request{{Op: dirsvc.OpAppendRow, Dir: staging, Name: "staged", Cap: root,
			Masks: []capability.Rights{capability.AllRights, capability.AllRights, capability.AllRights}}}),
	})})
	inDoubt := func() []byte {
		txs := a.InDoubtTxs()
		if len(txs) != 1 {
			t.Fatalf("%d in-doubt transactions, want 1", len(txs))
		}
		return txs[0].Req.Encode()
	}
	prepared := inDoubt()
	masks := []capability.Rights{capability.RightRead, capability.RightWrite, capability.RightAdmin}
	update(&dirsvc.Request{Op: dirsvc.OpAppendRow, Dir: root, Name: "kept", Cap: root, Masks: slices.Clone(masks)})
	created := update(&dirsvc.Request{Op: dirsvc.OpCreateDir, CheckSeed: []byte("created")}).Cap

	// Another request through the same scratch, with other masks.
	update(&dirsvc.Request{Op: dirsvc.OpAppendRow, Dir: root, Name: "other", Cap: created,
		Masks: []capability.Rights{capability.RightDelete, capability.RightDelete, capability.RightDelete}})

	if got := inDoubt(); !bytes.Equal(got, prepared) {
		t.Fatalf("in-doubt transaction's request changed:\n got %x\nwant %x", got, prepared)
	}
	d, ok := a.Directory(root.Object)
	if !ok {
		t.Fatal("root directory missing")
	}
	row, err := d.Lookup("kept")
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(row.ColMasks, masks) {
		t.Fatalf("row masks %v, want %v", row.ColMasks, masks)
	}
	if reply := a.Read(&dirsvc.Request{Op: dirsvc.OpListDir, Dir: created}); reply.Status != dirsvc.StatusOK {
		t.Fatalf("created directory's capability no longer verifies: %v", reply.Status.Err())
	}
}
