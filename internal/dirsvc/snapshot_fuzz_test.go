package dirsvc

import (
	"testing"

	"dirsvc/internal/codec/codectest"
)

// FuzzDecodeSnapshot: arbitrary bytes never panic DecodeSnapshot, which
// allocates in proportion to the input; and a snapshot it accepts encodes
// to one that decodes the same. A recovering replica installs what this
// decoder returns from another server's state transfer, and an engine
// opens its checkpoint with it. The seed corpus, in
// testdata/fuzz/FuzzDecodeSnapshot, holds TestSnapshotCodecRoundTrip's
// snapshot, one cut short, one without topology or transactions, an empty
// one, and one claiming more objects than it carries.
func FuzzDecodeSnapshot(f *testing.F) { codectest.Fuzz(f, DecodeSnapshot, (*Snapshot).Encode) }
