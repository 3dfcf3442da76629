package core

import (
	"errors"
	"fmt"
	"testing"

	"dirsvc/internal/dirsvc"
)

func TestGroupEntriesRoundTrip(t *testing.T) {
	entries := []coalesceOp{
		{opID: 1<<48 | 7, raw: (&dirsvc.Request{Op: dirsvc.OpAppendRow, Name: "x"}).Encode()},
		{opID: 2<<48 | 9, raw: (&dirsvc.Request{Op: dirsvc.OpDeleteRow, Name: "y"}).Encode()},
		{opID: 3, raw: []byte{}},
	}
	got, err := unpackGroupEntries(nil, packGroupEntries(nil, entries))
	if err != nil {
		t.Fatalf("unpack: %v", err)
	}
	if len(got) != len(entries) {
		t.Fatalf("got %d entries, want %d", len(got), len(entries))
	}
	for i, e := range entries {
		if got[i].opID != e.opID || string(got[i].raw) != string(e.raw) {
			t.Errorf("entry %d differs", i)
		}
	}
}

func TestUnpackGroupEntriesErrors(t *testing.T) {
	valid := packGroupEntries(nil, []coalesceOp{{opID: 5, raw: []byte("req")}})
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
		full[i] = coalesceOp{opID: uint64(i), raw: fmt.Appendf(nil, "op-%d", i)}
	}
	if _, err := unpackGroupEntries(nil, packGroupEntries(nil, full)); err != nil {
		t.Fatalf("full packet round-trip: %v", err)
	}
}
