package group

import (
	"fmt"
	"testing"

	"dirsvc/internal/codec/codectest"
	"dirsvc/internal/sim"
)

// TestGoldenEncodings pins the group protocol's wire messages to the
// bytes in testdata/golden.hex, recorded from TestWireRoundTripAllKinds's
// messages.
func TestGoldenEncodings(t *testing.T) {
	enc := map[string][]byte{}
	for _, m := range []*wireMsg{
		{kind: wireSendReq, gid: 7, from: 2, msgID: 9, ordKind: ordApp, payload: []byte("op")},
		{kind: wireOrd, gid: 7, epoch: 3, seq: 100, from: 1, msgID: 9, ordKind: ordJoin, node: 4},
		{kind: wireAccept, gid: 7, epoch: 3, seq: 100, from: 2, msgID: 9, node: 1},
		{kind: wireDone, gid: 7, seq: 100, msgID: 9, from: 0},
		{kind: wireWelcome, gid: 7, epoch: 3, seq: 55, from: 0, members: []sim.NodeID{0, 2, 4}},
		{kind: wireRetrans, gid: 7, epoch: 3, seq: 10, seq2: 20, from: 2},
		{kind: wireAlive, gid: 7, epoch: 3, seq: 42, seq2: 3, from: 2},
		{kind: wireCommit, gid: 7, epoch: 4, from: 2, node: 0, seq2: 99, members: []sim.NodeID{0, 2}},
	} {
		enc[fmt.Sprintf("kind-%d", m.kind)] = m.appendTo(nil)
	}
	codectest.Golden(t, "testdata/golden.hex", enc)
}
