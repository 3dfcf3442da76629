package core

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"dirsvc/internal/capability"
	"dirsvc/internal/dirsvc"
	"dirsvc/internal/group"
)

// queued is the coalesceOp an initiator queues for req.
func queued(opID uint64, req *dirsvc.Request) coalesceOp {
	return coalesceOp{opID: opID, w: &waiter{req: req}}
}

func TestGroupEntriesRoundTrip(t *testing.T) {
	entries := []coalesceOp{
		queued(1<<48|7, &dirsvc.Request{Op: dirsvc.OpAppendRow, Name: "x"}),
		queued(2<<48|9, &dirsvc.Request{Op: dirsvc.OpDeleteRow, Name: "y"}),
		queued(3, &dirsvc.Request{}),
	}
	got, err := unpackGroupEntries(nil, packGroupEntries(nil, entries))
	if err != nil {
		t.Fatalf("unpack: %v", err)
	}
	if len(got) != len(entries) {
		t.Fatalf("got %d entries, want %d", len(got), len(entries))
	}
	for i, e := range entries {
		if got[i].opID != e.opID || string(got[i].raw) != string(e.w.req.Encode()) {
			t.Errorf("entry %d differs", i)
		}
	}
}

func TestUnpackGroupEntriesErrors(t *testing.T) {
	valid := packGroupEntries(nil, []coalesceOp{queued(5, &dirsvc.Request{Op: dirsvc.OpDeleteRow, Name: "req"})})
	for n := 0; n < len(valid); n++ {
		if _, err := unpackGroupEntries(nil, valid[:n]); err == nil {
			t.Fatalf("truncated to %d bytes: unpack succeeded", n)
		}
	}
	bad := append([]byte(nil), valid...)
	bad[0] = groupPayloadVersion + 1
	if _, err := unpackGroupEntries(nil, bad); !errors.Is(err, dirsvc.ErrBadRequest) {
		t.Errorf("bad version: err = %v", err)
	}
	if _, err := unpackGroupEntries(nil, append(valid, 0x01)); err == nil {
		t.Error("trailing garbage accepted")
	}
	if _, err := unpackGroupEntries(nil, packGroupEntries(nil, nil)); err == nil {
		t.Error("empty payload accepted")
	}
}

// TestDrainCoalesce pins the coalescing contract: everything already
// queued behind the first update rides the same broadcast, bounded by
// maxCoalesce, and the drain never blocks waiting for more.
func TestDrainCoalesce(t *testing.T) {
	ch := make(chan coalesceOp, 2*maxCoalesce)
	for i := 0; i < 5; i++ {
		ch <- coalesceOp{opID: uint64(i + 2)}
	}
	batch := drainCoalesce(nil, coalesceOp{opID: 1}, ch)
	if len(batch) != 6 {
		t.Fatalf("drained %d ops, want 6 (1 first + 5 queued)", len(batch))
	}
	for i, op := range batch {
		if op.opID != uint64(i+1) {
			t.Fatalf("op %d = id %d: order not preserved", i, op.opID)
		}
	}

	// An empty queue yields a singleton batch immediately.
	if batch := drainCoalesce(batch[:0], coalesceOp{opID: 99}, ch); len(batch) != 1 || batch[0].opID != 99 {
		t.Fatalf("empty queue drained to %d ops", len(batch))
	}

	// The broadcast is bounded: a deeper backlog splits.
	for i := 0; i < 2*maxCoalesce; i++ {
		ch <- coalesceOp{opID: uint64(1000 + i)}
	}
	if batch := drainCoalesce(nil, coalesceOp{opID: 999}, ch); len(batch) != maxCoalesce {
		t.Fatalf("drained %d ops, want maxCoalesce=%d", len(batch), maxCoalesce)
	}

	// The packed form of a full drain survives the wire.
	full := make([]coalesceOp, maxCoalesce)
	for i := range full {
		full[i] = queued(uint64(i), &dirsvc.Request{Op: dirsvc.OpDeleteRow, Name: fmt.Sprintf("op-%d", i)})
	}
	if _, err := unpackGroupEntries(nil, packGroupEntries(nil, full)); err != nil {
		t.Fatalf("full packet round-trip: %v", err)
	}
}

// TestEraBumpEmptiesWaiters: recovery's era bump answers every waiting
// initiator, and what reaches its record afterwards — the sender failing
// the broadcast, the group thread applying the update, still in the
// stream, as this server's own — fills nothing: the table stays empty. A
// table written after the bump keeps those entries for good.
func TestEraBumpEmptiesWaiters(t *testing.T) {
	srv := newLoneServer(t, "waiters")
	root, err := srv.front.Applier.RootCap()
	if err != nil {
		t.Fatal(err)
	}
	req := &dirsvc.Request{Op: dirsvc.OpAppendRow, Dir: root, Name: "late", Cap: root, Server: 1,
		Masks: []capability.Rights{capability.AllRights, capability.AllRights, capability.AllRights}}
	op := srv.register(req)
	payload := packGroupEntries(nil, []coalesceOp{op})

	srv.mu.Lock()
	srv.beginEraLocked()
	srv.mu.Unlock()
	srv.failPending([]coalesceOp{op})
	srv.mu.Lock()
	seq := srv.groupSeq + 1
	srv.mu.Unlock()
	srv.processGroupMsg(group.Msg{Kind: group.KindApp, Seq: seq, Payload: payload})

	srv.mu.Lock()
	n := len(srv.waiters)
	srv.mu.Unlock()
	if n != 0 {
		t.Fatalf("%d waiter records after the era bump, want none", n)
	}
	// The old-era update was applied all the same: only its answer went.
	if d, ok := srv.front.Applier.Directory(root.Object); !ok || !slices.Contains(d.Names(), "late") {
		t.Fatal("the old-era update in the stream was not applied")
	}
}
