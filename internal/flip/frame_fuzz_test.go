package flip

import (
	"testing"

	"dirsvc/internal/capability"
	"dirsvc/internal/codec/codectest"
)

// frame is one decoded FLIP frame.
type frame struct {
	kind    byte
	port    capability.Port
	payload []byte
}

// FuzzDecodeFrame: arbitrary bytes off the wire never panic decodeFrame,
// and a frame it accepts is built again, byte for byte, by the frame
// constructor the senders use. The seed corpus, in
// testdata/fuzz/FuzzDecodeFrame, holds a unicast, a multicast, a locate
// and a HEREIS frame, a bare header and a truncated one.
func FuzzDecodeFrame(f *testing.F) {
	codectest.Fuzz(f, func(b []byte) (frame, error) {
		kind, port, payload, err := decodeFrame(b)
		return frame{kind, port, payload}, err
	}, func(fr frame) []byte {
		return append(newFrame(fr.kind, fr.port, len(fr.payload)), fr.payload...)
	})
}
