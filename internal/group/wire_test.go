package group

import (
	"fmt"
	"reflect"
	"testing"
	"testing/quick"

	"dirsvc/internal/sim"
)

func TestWireRoundTripAllKinds(t *testing.T) {
	tests := []*wireMsg{
		{kind: wireSendReq, gid: 7, from: 2, msgID: 9, ordKind: ordApp, payload: []byte("op")},
		{kind: wireOrd, gid: 7, epoch: 3, seq: 100, from: 1, msgID: 9, ordKind: ordJoin, node: 4},
		{kind: wireAccept, gid: 7, epoch: 3, seq: 100, from: 2, msgID: 9, node: 1},
		{kind: wireDone, gid: 7, seq: 100, msgID: 9, from: 0},
		{kind: wireWelcome, gid: 7, epoch: 3, seq: 55, from: 0, members: []sim.NodeID{0, 2, 4}},
		{kind: wireRetrans, gid: 7, epoch: 3, seq: 10, seq2: 20, from: 2},
		{kind: wireAlive, gid: 7, epoch: 3, seq: 42, seq2: 3, from: 2}, // seq2: view size
		{kind: wireCommit, gid: 7, epoch: 4, from: 2, node: 0, seq2: 99, members: []sim.NodeID{0, 2}},
	}
	for _, in := range tests {
		got, err := roundTrip(in)
		if err != nil {
			t.Fatalf("kind %d: %v", in.kind, err)
		}
		if !reflect.DeepEqual(got, in) {
			t.Fatalf("kind %d round trip:\n got %+v\nwant %+v", in.kind, got, in)
		}
	}
}

// roundTrip encodes in and decodes the result, checking size against the
// encoding's length on the way.
func roundTrip(in *wireMsg) (*wireMsg, error) {
	raw := in.appendTo(nil)
	if len(raw) != in.size() {
		return nil, fmt.Errorf("encoded %d bytes, size says %d", len(raw), in.size())
	}
	got := new(wireMsg)
	return got, decodeWire(raw, got)
}

func TestWireRejectsShortFrames(t *testing.T) {
	msg := &wireMsg{kind: wireOrd, gid: 1, seq: 5, payload: []byte("xyz")}
	raw := msg.appendTo(nil)
	for cut := len(raw) - len(msg.payload) - 1; cut > 0; cut -= 7 {
		if err := decodeWire(raw[:cut], new(wireMsg)); err == nil {
			t.Fatalf("decoded truncated frame of %d bytes", cut)
		}
	}
}

func TestProposalOrdering(t *testing.T) {
	tests := []struct {
		p, q proposal
		less bool
	}{
		{proposal{1, 1}, proposal{2, 1}, true},
		{proposal{2, 1}, proposal{1, 1}, false},
		{proposal{2, 1}, proposal{2, 2}, true},
		{proposal{2, 2}, proposal{2, 2}, false},
	}
	for _, tt := range tests {
		if got := tt.p.less(tt.q); got != tt.less {
			t.Fatalf("%v.less(%v) = %v", tt.p, tt.q, got)
		}
	}
}

func TestQuickWireRoundTrip(t *testing.T) {
	f := func(kind uint8, gid, epoch, seq, seq2, msgID uint64, from, node uint32, ordKind uint8, payload []byte) bool {
		in := &wireMsg{
			kind:    kind,
			gid:     groupID(gid),
			epoch:   epoch,
			seq:     seq,
			seq2:    seq2,
			msgID:   msgID,
			from:    sim.NodeID(from),
			node:    sim.NodeID(node),
			ordKind: ordKind,
		}
		if len(payload) > 0 {
			in.payload = payload
		}
		got, err := roundTrip(in)
		return err == nil && reflect.DeepEqual(got, in)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}
