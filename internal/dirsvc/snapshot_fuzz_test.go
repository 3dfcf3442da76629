package dirsvc

import (
	"reflect"
	"testing"
)

// FuzzDecodeSnapshot: arbitrary bytes never panic DecodeSnapshot, which
// allocates in proportion to the input; and a snapshot it accepts encodes
// to one that decodes the same. A recovering replica installs what this
// decoder returns from another server's state transfer, and an engine
// opens its checkpoint with it. The seed corpus, in
// testdata/fuzz/FuzzDecodeSnapshot, holds TestSnapshotCodecRoundTrip's
// snapshot, one cut short, one without topology or transactions, an empty
// one, and one claiming more objects than it carries.
func FuzzDecodeSnapshot(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw []byte) {
		var snap *Snapshot
		var err error
		if grew := allocated(func() { snap, err = DecodeSnapshot(raw) }); grew > decodeAllocBound(len(raw)) {
			t.Fatalf("decoding %d bytes allocated %d", len(raw), grew)
		}
		if err != nil {
			return
		}
		again, err := DecodeSnapshot(snap.Encode())
		if err != nil {
			t.Fatalf("decoded %+v, but not its encoding: %v", *snap, err)
		}
		if !reflect.DeepEqual(again, snap) {
			t.Fatalf("decoded %+v, then %+v from its encoding", *snap, *again)
		}
	})
}
