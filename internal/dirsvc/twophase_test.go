package dirsvc

import (
	"errors"
	"testing"
)

// TestPrepareDecideCodecs round-trips the 2PC wire payloads and rejects
// truncations and foreign versions.
func TestPrepareDecideCodecs(t *testing.T) {
	steps := EncodeBatchSteps([]*Request{{Op: OpAppendRow, Name: "x"}})
	p := &Prepare{ID: NewTxID(), ResolverSeq: 9, Participants: []int{1, 3}, Steps: steps, Others: [][]byte{steps}}
	blob := EncodePrepare(p)
	got, err := DecodePrepare(blob)
	if err != nil {
		t.Fatalf("DecodePrepare: %v", err)
	}
	if got.ID != p.ID || got.Resolver() != 1 || got.ResolverSeq != 9 || len(got.Participants) != 2 ||
		got.Participants[0] != 1 || got.Participants[1] != 3 || len(got.Others) != 1 {
		t.Fatalf("round trip = %+v", got)
	}
	if _, err := DecodeBatchSteps(got.Steps); err != nil {
		t.Fatalf("inner steps: %v", err)
	}
	for cut := 0; cut < len(blob); cut += 3 {
		if _, err := DecodePrepare(blob[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	bad := append([]byte(nil), blob...)
	bad[0] = TxVersion + 1
	if _, err := DecodePrepare(bad); err == nil {
		t.Fatal("foreign version accepted")
	}

	d := &Decide{ID: p.ID, Commit: true}
	dgot, err := DecodeDecide(EncodeDecide(d))
	if err != nil || dgot.ID != d.ID || !dgot.Commit {
		t.Fatalf("decide round trip = %+v, %v", dgot, err)
	}
	if _, err := DecodeDecide(EncodeDecide(d)[:5]); err == nil {
		t.Fatal("truncated decide accepted")
	}
}

// preparedFixture stages one two-step transaction against a fresh
// applier and returns everything a decide test needs.
func preparedFixture(t *testing.T) (*applierFixture, TxID, *Request, []BatchStepResult) {
	t.Helper()
	f := newApplier(t)
	root, err := f.applier.RootCap()
	if err != nil {
		t.Fatal(err)
	}
	id := NewTxID()
	req := &Request{Op: OpPrepare, Blob: EncodePrepare(&Prepare{
		ID: id, Participants: []int{0, 1},
		Steps: EncodeBatchSteps([]*Request{
			{Op: OpAppendRow, Dir: root, Name: "staged", Cap: root, Masks: ownerMasks()},
			{Op: OpCreateDir, CheckSeed: []byte("tx-seed")},
		}),
	})}
	res, err := f.applier.ApplyUpdate(req, 5, true)
	if err != nil {
		t.Fatalf("prepare: %v", err)
	}
	results, err := DecodeBatchResults(res.Reply.Blob)
	if err != nil || len(results) != 2 || results[1].Cap.IsZero() {
		t.Fatalf("prepare results = %+v, %v", results, err)
	}
	return f, id, req, results
}

// TestPrepareStagesAndLocks proves a prepared transaction is invisible,
// holds its locks against conflicting updates, steers the allocator
// around its staged creations, and reports in-doubt state.
func TestPrepareStagesAndLocks(t *testing.T) {
	f, id, _, results := preparedFixture(t)
	root, _ := f.applier.RootCap()

	// Nothing visible: the staged append is not in the root.
	reply := f.applier.Read(&Request{Op: OpLookupSet, Dir: root, Set: []SetItem{{Name: "staged"}}})
	if !reply.Caps[0].IsZero() {
		t.Fatal("prepared step leaked into reads")
	}
	// Root is locked: a conflicting single update is refused.
	_, err := f.applier.ApplyUpdate(&Request{
		Op: OpAppendRow, Dir: root, Name: "other", Cap: root, Masks: ownerMasks(),
	}, 6, true)
	if !errors.Is(err, ErrConflict) {
		t.Fatalf("conflicting update: err = %v, want ErrConflict", err)
	}
	if !f.applier.Locked(root.Object) {
		t.Fatal("root not reported locked")
	}
	// The allocator must not hand out the staged creation's number.
	_, err = f.applier.ApplyUpdate(&Request{Op: OpCreateDir, CheckSeed: []byte("x")}, 6, true)
	if err != nil {
		t.Fatalf("unrelated create: %v", err)
	}
	if e, ok := f.table.Get(results[1].Cap.Object); ok && e.Seq != 0 {
		t.Fatal("allocator reused a staged object number")
	}
	// A second transaction touching the same object votes no.
	id2 := NewTxID()
	_, err = f.applier.ApplyUpdate(&Request{Op: OpPrepare, Blob: EncodePrepare(&Prepare{
		ID: id2, Participants: []int{0, 1},
		Steps: EncodeBatchSteps([]*Request{
			{Op: OpDeleteRow, Dir: root, Name: "whatever"},
		}),
	})}, 7, true)
	var be *BatchError
	if !errors.As(err, &be) || !errors.Is(err, ErrConflict) {
		t.Fatalf("overlapping prepare: err = %v, want BatchError{ErrConflict}", err)
	}
	// In-doubt snapshot names the transaction.
	txs := f.applier.InDoubtTxs()
	if len(txs) != 1 || txs[0].ID != id || txs[0].Resolver != 0 {
		t.Fatalf("InDoubtTxs = %+v", txs)
	}
	if state, _ := f.applier.TxStateOf(id); state != TxPrepared {
		t.Fatalf("TxStateOf = %v, want prepared", state)
	}
}

// TestDecideCommitAppliesAtomically proves the commit writes the staged
// overlay through under the decide's sequence number, releases the
// locks, and is idempotent on retry.
func TestDecideCommitAppliesAtomically(t *testing.T) {
	f, id, _, results := preparedFixture(t)
	root, _ := f.applier.RootCap()

	decide := &Request{Op: OpDecide, Blob: EncodeDecide(&Decide{ID: id, Commit: true})}
	res, err := f.applier.ApplyUpdate(decide, 9, true)
	if err != nil {
		t.Fatalf("decide commit: %v", err)
	}
	if res.Reply.Seq != 9 {
		t.Fatalf("commit seq = %d, want 9", res.Reply.Seq)
	}
	reply := f.applier.Read(&Request{Op: OpLookupSet, Dir: root, Set: []SetItem{{Name: "staged"}}})
	if reply.Caps[0].IsZero() {
		t.Fatal("committed step not visible")
	}
	// The touched object's Seq moved only at commit, to the commit seq.
	if e, ok := f.table.Get(root.Object); !ok || e.Seq != 9 {
		t.Fatalf("root entry seq = %+v, want 9", e)
	}
	if cr := f.applier.Read(&Request{Op: OpListDir, Dir: results[1].Cap}); cr.Status != StatusOK {
		t.Fatalf("created directory unreadable after commit: %+v", cr)
	}
	if f.applier.Locked(root.Object) {
		t.Fatal("lock survived the commit")
	}
	if state, seq := f.applier.TxStateOf(id); state != TxCommitted || seq != 9 {
		t.Fatalf("TxStateOf = %v/%d, want committed/9", state, seq)
	}
	// Retried decide (a client that missed the reply) is idempotent.
	res2, err := f.applier.ApplyUpdate(decide, 12, true)
	if err != nil || res2.Reply.Seq != 9 {
		t.Fatalf("decide retry: %+v, %v", res2, err)
	}
	// The opposite decision now conflicts.
	_, err = f.applier.ApplyUpdate(&Request{
		Op: OpDecide, Blob: EncodeDecide(&Decide{ID: id, Commit: false}),
	}, 13, true)
	if !errors.Is(err, ErrConflict) {
		t.Fatalf("abort after commit: err = %v, want ErrConflict", err)
	}
}

// TestDecideAbortDiscards proves an abort leaves no trace and presumed
// abort accepts unknown transactions.
func TestDecideAbortDiscards(t *testing.T) {
	f, id, _, _ := preparedFixture(t)
	root, _ := f.applier.RootCap()

	if _, err := f.applier.ApplyUpdate(&Request{
		Op: OpDecide, Blob: EncodeDecide(&Decide{ID: id, Commit: false}),
	}, 9, true); err != nil {
		t.Fatalf("decide abort: %v", err)
	}
	reply := f.applier.Read(&Request{Op: OpLookupSet, Dir: root, Set: []SetItem{{Name: "staged"}}})
	if !reply.Caps[0].IsZero() {
		t.Fatal("aborted step leaked")
	}
	if f.applier.Locked(root.Object) {
		t.Fatal("lock survived the abort")
	}
	if state, _ := f.applier.TxStateOf(id); state != TxAborted {
		t.Fatalf("TxStateOf = %v, want aborted", state)
	}
	// The object is writable again.
	if _, err := f.applier.ApplyUpdate(&Request{
		Op: OpAppendRow, Dir: root, Name: "after", Cap: root, Masks: ownerMasks(),
	}, 10, true); err != nil {
		t.Fatalf("update after abort: %v", err)
	}
	// Commit for an unknown transaction is refused; abort is a no-op.
	other := NewTxID()
	if _, err := f.applier.ApplyUpdate(&Request{
		Op: OpDecide, Blob: EncodeDecide(&Decide{ID: other, Commit: true}),
	}, 11, true); !errors.Is(err, ErrNotFound) {
		t.Fatalf("unknown commit: err = %v, want ErrNotFound", err)
	}
	if _, err := f.applier.ApplyUpdate(&Request{
		Op: OpDecide, Blob: EncodeDecide(&Decide{ID: other, Commit: false}),
	}, 11, true); err != nil {
		t.Fatalf("presumed abort of unknown tx: %v", err)
	}
}

// TestPrepareReplayRestages proves recovery replay semantics: replaying
// the same prepare after ResetTx re-stages the identical transaction.
func TestPrepareReplayRestages(t *testing.T) {
	f, id, req, results := preparedFixture(t)
	f.applier.ResetTx()
	if state, _ := f.applier.TxStateOf(id); state != TxUnknown {
		t.Fatalf("state after reset = %v", state)
	}
	res, err := f.applier.ApplyUpdate(req, 5, false)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	replayed, err := DecodeBatchResults(res.Reply.Blob)
	if err != nil || len(replayed) != 2 || replayed[1].Cap != results[1].Cap {
		t.Fatalf("replay minted different capabilities: %+v vs %+v (%v)", replayed, results, err)
	}
	if state, _ := f.applier.TxStateOf(id); state != TxPrepared {
		t.Fatalf("state after replay = %v, want prepared", state)
	}
}

// TestDecideReplay covers Applier.Replay, the one way a recovery-log
// record reaches the RAM state: a decide whose transaction is staged
// applies; a decide whose transaction is not — an outcome re-logged after
// its effects were flushed — restores the remembered outcome and changes
// nothing else; a record whose effect the state already holds is skipped.
func TestDecideReplay(t *testing.T) {
	f, id, _, _ := preparedFixture(t)
	root, _ := f.applier.RootCap()
	rows := func() int {
		return len(f.applier.Read(&Request{Op: OpListDir, Dir: root}).Rows)
	}
	decide := func(id TxID) *Request {
		return &Request{Op: OpDecide, Blob: EncodeDecide(&Decide{ID: id, Commit: true})}
	}

	if !f.applier.Replay(decide(id), 9) || rows() != 1 {
		t.Fatalf("staged transaction: decide did not apply (%d rows)", rows())
	}
	flushed := NewTxID()
	if !f.applier.Replay(decide(flushed), 12) {
		t.Fatal("outcome record refused")
	}
	if state, seq := f.applier.TxStateOf(flushed); state != TxCommitted || seq != 12 {
		t.Fatalf("outcome record restored %v/%d, want committed/12", state, seq)
	}
	if rows() != 1 || len(f.applier.InDoubtTxs()) != 0 {
		t.Fatal("outcome record changed directories or staged something")
	}
	again := &Request{Op: OpAppendRow, Dir: root, Name: "staged", Cap: root, Masks: ownerMasks()}
	if f.applier.Replay(again, 13) {
		t.Fatal("a record the state already reflects replayed as applied")
	}
}
