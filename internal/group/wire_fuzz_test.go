package group

import (
	"bytes"
	"testing"
)

// FuzzDecodeWire: arbitrary bytes never panic decodeWire, which
// allocates nothing beyond the member list the frame itself holds, and a
// message it accepts encodes back to exactly the bytes it came from. The
// seed corpus, in testdata/fuzz/FuzzDecodeWire, holds the encodings of
// TestWireRoundTripAllKinds's messages — an ACCEPT carrying its ORD's
// msgID and sender and an ALIVE carrying its view size among them — and
// a truncated frame.
func FuzzDecodeWire(f *testing.F) {
	f.Fuzz(func(t *testing.T, frame []byte) {
		var w wireMsg
		if decodeWire(frame, &w) != nil {
			return
		}
		if len(w.members)*4 > len(frame) {
			t.Fatalf("%d members decoded from %d bytes", len(w.members), len(frame))
		}
		if w.size() != len(frame) {
			t.Fatalf("decoded message sizes %d bytes, frame has %d", w.size(), len(frame))
		}
		if out := w.appendTo(nil); !bytes.Equal(out, frame) {
			t.Fatalf("re-encoded to %x, was %x", out, frame)
		}
	})
}
