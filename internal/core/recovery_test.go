package core

import (
	"bytes"
	"testing"

	"dirsvc/internal/capability"
	"dirsvc/internal/dirsvc"
)

// TestReloadKeepsDecidedResults: loadLocalState carries the replica's
// remembered outcomes over the reload with their results, so a decide
// retried afterwards answers what the first one did — the capability of
// the directory the transaction created among it. Without the results a
// coordinator that retries the decide answers its client a zero
// capability.
func TestReloadKeepsDecidedResults(t *testing.T) {
	srv := newLoneServer(t, "reload")
	root, err := srv.front.Applier.RootCap()
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
	id := dirsvc.NewTxID()
	update(&dirsvc.Request{Op: dirsvc.OpPrepare, Blob: dirsvc.EncodePrepare(&dirsvc.Prepare{
		ID: id, Participants: []int{0},
		Steps: dirsvc.EncodeBatchSteps([]*dirsvc.Request{
			{Op: dirsvc.OpCreateDir},
			{Op: dirsvc.OpAppendRow, Dir: root, Name: "made", Cap: root,
				Masks: []capability.Rights{capability.AllRights, capability.AllRights, capability.AllRights}},
		}),
	})})
	decide := &dirsvc.Request{Op: dirsvc.OpDecide, Blob: dirsvc.EncodeDecide(&dirsvc.Decide{ID: id, Commit: true})}
	first := update(decide).Blob
	results, err := dirsvc.DecodeBatchResults(first)
	if err != nil || len(results) != 2 || results[0].Cap.IsZero() {
		t.Fatalf("decide results = %+v, %v; want the created directory's capability", results, err)
	}

	// The group thread applies nothing while the reload runs.
	srv.applyMu.Lock()
	err = srv.loadLocalState()
	srv.applyMu.Unlock()
	if err != nil {
		t.Fatalf("reload: %v", err)
	}
	if again := update(decide).Blob; !bytes.Equal(again, first) {
		t.Fatalf("retried decide after the reload answers %x, want %x", again, first)
	}
}
