package dirsvc

import (
	"reflect"
	"testing"
	"time"
)

func TestEventBatchRoundTrip(t *testing.T) {
	in := &EventBatch{
		LogID:     42,
		FirstIdx:  7,
		TTLMillis: 1500,
		Resync:    true,
		Events: []Event{
			{Seq: 7, Op: OpAppendRow, Objects: []uint32{3, 9}},
			{Seq: 8, Op: OpDecide, Objects: nil},
			{Seq: 9, Op: OpBatch, Objects: []uint32{1}},
		},
	}
	out, err := DecodeEventBatch(EncodeEventBatch(in))
	if err != nil {
		t.Fatalf("DecodeEventBatch: %v", err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip:\n in  %+v\n out %+v", in, out)
	}
	if _, err := DecodeEventBatch([]byte{1, 2, 3}); err == nil {
		t.Fatal("truncated batch decoded without error")
	}
}

func TestEventLogSinceAndOverflow(t *testing.T) {
	l := newEventLog(4, 10) // indexes start at 11
	if l.next() != 11 {
		t.Fatalf("next = %d, want 11", l.next())
	}
	for i := 0; i < 6; i++ {
		if idx := l.append(Event{Seq: uint64(11 + i)}); idx != uint64(11+i) {
			t.Fatalf("append %d: idx = %d", i, idx)
		}
	}
	// Size 4: indexes 11 and 12 fell off; 13..16 remain.
	if _, ok := l.since(12); ok {
		t.Fatal("since(12) succeeded after overflow")
	}
	evs, ok := l.since(14)
	if !ok || len(evs) != 3 || evs[0].Seq != 14 {
		t.Fatalf("since(14) = %v, %v", evs, ok)
	}
	// from == next: an up-to-date subscriber, empty suffix.
	if evs, ok := l.since(l.next()); !ok || len(evs) != 0 {
		t.Fatalf("since(next) = %v, %v", evs, ok)
	}
	// from beyond next: a cursor from another incarnation.
	if _, ok := l.since(l.next() + 1); ok {
		t.Fatal("since(next+1) succeeded")
	}
}

// TestEventLogOwnsObjectLists: the log copies each event's object list —
// the applier hands over a list it reuses — and recycles an evicted
// event's storage for the next, so a suffix handed out earlier has to
// be a copy of its own.
func TestEventLogOwnsObjectLists(t *testing.T) {
	l := newEventLog(3, 0)
	objs := []uint32{0, 0}
	var out []Event
	for i := uint32(1); i <= 8; i++ {
		objs[0], objs[1] = i, 100+i
		l.append(Event{Seq: uint64(i), Objects: objs})
		if i == 5 {
			evs, ok := l.since(3)
			if !ok || len(evs) != 3 {
				t.Fatalf("since(3) = %v, %v", evs, ok)
			}
			out = evs
		}
	}
	for i, ev := range out {
		if want := []uint32{uint32(3 + i), uint32(103 + i)}; !reflect.DeepEqual(ev.Objects, want) {
			t.Fatalf("suffix event %d objects = %v after later appends, want %v", i, ev.Objects, want)
		}
	}
	evs, _ := l.since(6)
	for i, ev := range evs {
		if want := []uint32{uint32(6 + i), uint32(106 + i)}; ev.Seq != uint64(6+i) || !reflect.DeepEqual(ev.Objects, want) {
			t.Fatalf("event %d = %+v, want seq %d objects %v", i, ev, 6+i, want)
		}
	}
	// An event without objects keeps no part of the list it was handed,
	// so the list's array is never written when its slot is recycled.
	l.append(Event{Seq: 9, Objects: objs[:0]})
	for range 3 {
		l.append(Event{Seq: 10, Objects: []uint32{7, 7}})
	}
	if objs[0] != 8 || objs[1] != 108 {
		t.Fatalf("the log wrote into a list it was handed: %v", objs)
	}
	if got := testing.AllocsPerRun(100, func() { l.append(Event{Seq: 11, Objects: objs}) }); got != 0 {
		t.Fatalf("append to a full log allocates %.0f times", got)
	}
}

func TestNotifierSubscribeRenewAndPush(t *testing.T) {
	n := NewNotifier(64, 0, time.Hour)
	defer n.Close()

	var pushes [][]byte
	push := func(p []byte) error { pushes = append(pushes, p); return nil }

	b := n.Subscribe(1, 0, 0, push)
	if b.Resync || b.FirstIdx != 1 || len(b.Events) != 0 {
		t.Fatalf("fresh subscribe batch = %+v", b)
	}
	n.Record(Event{Seq: 1, Op: OpAppendRow, Objects: []uint32{5}})
	n.Record(Event{Seq: 2, Op: OpDeleteRow, Objects: []uint32{5}})
	if len(pushes) != 2 {
		t.Fatalf("pushes = %d, want 2", len(pushes))
	}
	reply, err := DecodeReply(pushes[1])
	if err != nil || reply.Status != StatusOK {
		t.Fatalf("push reply: %+v, %v", reply, err)
	}
	pb, err := DecodeEventBatch(reply.Blob)
	if err != nil || pb.LogID != b.LogID || pb.FirstIdx != 2 || len(pb.Events) != 1 {
		t.Fatalf("push batch = %+v, %v", pb, err)
	}

	// A renewal from idx 1 replays both events (lost-push recovery).
	rb, ok := n.Renew(1, 1)
	if !ok || rb.Resync || rb.FirstIdx != 1 || len(rb.Events) != 2 {
		t.Fatalf("renew batch = %+v, %v", rb, ok)
	}
	// An unknown lease is refused.
	if _, ok := n.Renew(99, 1); ok {
		t.Fatal("renewing an unknown lease succeeded")
	}

	// A re-subscribe with the live cursor resumes seamlessly; with a
	// foreign log identity it forces a resync.
	if b2 := n.Subscribe(2, b.LogID, 3, push); b2.Resync || b2.FirstIdx != 3 {
		t.Fatalf("resumed subscribe = %+v", b2)
	}
	if b3 := n.Subscribe(3, b.LogID+777, 3, push); !b3.Resync || b3.FirstIdx != 3 {
		t.Fatalf("foreign-cursor subscribe = %+v", b3)
	}
}

func TestNotifierExpiryAndReset(t *testing.T) {
	n := NewNotifier(64, 0, 30*time.Millisecond)
	defer n.Close()

	n.Subscribe(1, 0, 0, func([]byte) error { return nil })
	if n.Subscribers() != 1 {
		t.Fatalf("subscribers = %d, want 1", n.Subscribers())
	}
	deadline := time.Now().Add(5 * time.Second)
	for n.Subscribers() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("lease never expired")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Reset: new log identity, a final resync push, all leases dropped.
	var last []byte
	b := n.Subscribe(2, 0, 0, func(p []byte) error { last = p; return nil })
	n.Reset(100)
	if n.Subscribers() != 0 {
		t.Fatalf("subscribers after reset = %d, want 0", n.Subscribers())
	}
	reply, err := DecodeReply(last)
	if err != nil {
		t.Fatalf("reset push: %v", err)
	}
	rb, err := DecodeEventBatch(reply.Blob)
	if err != nil || !rb.Resync || rb.LogID == b.LogID || rb.FirstIdx != 101 {
		t.Fatalf("reset batch = %+v, %v", rb, err)
	}

	// A push failure evicts the subscriber instead of wedging Record.
	n.Subscribe(3, 0, 0, func([]byte) error { return ErrBadRequest })
	n.Record(Event{Seq: 101, Op: OpAppendRow})
	if n.Subscribers() != 0 {
		t.Fatalf("failed-push subscriber survived: %d", n.Subscribers())
	}
}
