package group

import (
	"sync/atomic"
	"testing"
	"time"

	"dirsvc/internal/flip"
	"dirsvc/internal/sim"
)

// flipHeader is the FLIP frame kind and port in front of every group
// message on the wire; flipMcast is the frame kind of a multicast.
const (
	flipHeader = 1 + 6
	flipMcast  = 2
)

// wireKind returns the group message kind a FLIP frame carries, or 0.
func wireKind(frame []byte) byte {
	if len(frame) <= flipHeader {
		return 0
	}
	return frame[flipHeader]
}

// sendWithin sends payload from m and fails the test unless the send
// completes within d; it returns how long the send took.
func sendWithin(t *testing.T, m *Member, payload string, d time.Duration) time.Duration {
	t.Helper()
	start := time.Now()
	errs := make(chan error, 1)
	go func() {
		_, err := m.Send([]byte(payload))
		errs <- err
	}()
	select {
	case err := <-errs:
		if err != nil {
			t.Fatalf("send %q: %v", payload, err)
		}
	case <-time.After(d):
		t.Fatalf("send %q did not complete within %v", payload, d)
	}
	return time.Since(start)
}

// TestMemberSendNeedsNoDone: at r = 2 a member's send completes on its
// own ORD and the third member's direct ACCEPT — no DONE is on the wire.
func TestMemberSendNeedsNoDone(t *testing.T) {
	c := newCluster(t, 3, 2)
	c.consumeAll()
	var dones atomic.Int64
	c.net.SetDropFilter(func(src, dst sim.NodeID, frame []byte) bool {
		if wireKind(frame) == wireDone {
			dones.Add(1)
		}
		return false
	})
	for i := 0; i < 20; i++ {
		for _, m := range c.members[1:] {
			sendWithin(t, m, "member send", 5*time.Second)
		}
	}
	if n := dones.Load(); n != 0 {
		t.Fatalf("%d DONE frames for 40 member sends, want 0", n)
	}
}

// TestDirectAcceptBeforeOwnOrdCounts: the sender misses the multicast
// ORD of its own message, so the third member's ACCEPT reaches it first
// and its ORD comes later, by retransmission. With every DONE dropped
// the send can only complete if that early ACCEPT counted.
func TestDirectAcceptBeforeOwnOrdCounts(t *testing.T) {
	c := newCluster(t, 3, 2)
	c.consumeAll()
	sender := c.members[1].Me()
	var acceptIn, ordAfterAccept atomic.Bool
	c.net.SetDropFilter(func(src, dst sim.NodeID, frame []byte) bool {
		kind := wireKind(frame)
		switch {
		case kind == wireDone:
			return true
		case dst != sender:
			return false
		case kind == wireAccept:
			acceptIn.Store(true)
		case kind == wireOrd && frame[0] == flipMcast:
			return true
		case kind == wireOrd && acceptIn.Load():
			ordAfterAccept.Store(true)
		}
		return false
	})
	sendWithin(t, c.members[1], "ord lost", 5*time.Second)
	if !ordAfterAccept.Load() {
		t.Fatal("the sender's ORD did not arrive after the direct ACCEPT")
	}
}

// TestDroppedDirectAcceptCompletesByRetry: with the direct ACCEPTs lost,
// the sender's retried send request is answered with a DONE.
func TestDroppedDirectAcceptCompletesByRetry(t *testing.T) {
	c := newCluster(t, 3, 2)
	c.consumeAll()
	m := c.members[1]
	var dones atomic.Int64
	c.net.SetDropFilter(func(src, dst sim.NodeID, frame []byte) bool {
		switch kind := wireKind(frame); {
		case dst != m.Me():
		case kind == wireAccept:
			return true
		case kind == wireDone:
			dones.Add(1)
		}
		return false
	})
	took := sendWithin(t, m, "accept lost", 5*time.Second)
	if dones.Load() == 0 {
		t.Fatal("send completed without its direct ACCEPT or a DONE")
	}
	if limit := 2*m.retryEvery + 250*time.Millisecond; took > limit {
		t.Fatalf("send took %v; its first retry goes out after %v", took, m.retryEvery)
	}
}

// TestDirectAcceptFromOlderEpochNotCounted: an ACCEPT stamped with an
// epoch before the sender's view does not count towards its send; the
// same ACCEPT in the current epoch does.
func TestDirectAcceptFromOlderEpochNotCounted(t *testing.T) {
	c := newCluster(t, 3, 2)
	sender, other := c.members[1], c.members[2]
	const msgID, seq = 1, 99 // msgIDs start at the member's start time
	call := &sendCall{done: make(chan uint64, 1), seq: seq}
	call.acked = call.ackedBuf[:0]
	sender.mu.Lock()
	sender.waiting[msgID] = call
	accept := wireMsg{kind: wireAccept, gid: sender.gid, epoch: sender.epoch - 1, seq: seq, from: other.Me(), msgID: msgID, node: sender.Me()}
	sender.mu.Unlock()
	defer func() {
		sender.mu.Lock()
		delete(sender.waiting, msgID)
		sender.mu.Unlock()
	}()

	sender.handle(flip.Msg{Src: other.Me(), Payload: accept.appendTo(nil)})
	select {
	case <-call.done:
		t.Fatal("an ACCEPT from an older epoch completed the send")
	default:
	}
	accept.epoch++
	sender.handle(flip.Msg{Src: other.Me(), Payload: accept.appendTo(nil)})
	select {
	case got := <-call.done:
		if got != seq {
			t.Fatalf("completed with seq %d, want %d", got, seq)
		}
	default:
		t.Fatal("an ACCEPT from the current epoch did not complete the send")
	}
}

// TestPendingDoneBounded: the sequencer closes a message's
// acknowledgement record once every member's ACCEPT is in, so a long
// stream of sends leaves no more open records than the history window.
func TestPendingDoneBounded(t *testing.T) {
	c := newCluster(t, 3, 2)
	c.consumeAll()
	const sends = 20000
	for i := 0; i < sends; i++ {
		if _, err := c.members[i%3].Send([]byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	seqr := c.members[0]
	seqr.mu.Lock()
	n := 0
	for s := seqr.histLo; s < seqr.nextSeq; s++ {
		if seqr.pendingDoneAt(s) != nil {
			n++
		}
	}
	seqr.mu.Unlock()
	if n > historyWindow {
		t.Fatalf("%d sends left %d acknowledgement records, want ≤ %d", sends, n, historyWindow)
	}
}
