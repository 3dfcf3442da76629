package core

import (
	"bytes"
	"testing"

	"dirsvc/internal/codec/codectest"
	"dirsvc/internal/dirsvc"
)

// repack decodes every entry's request and packs them again, as the
// coalescing sender packs queued requests; false when an entry does not
// hold a request.
func repack(entries []groupEntry) ([]byte, bool) {
	ops := make([]coalesceOp, len(entries))
	for i, e := range entries {
		req, err := dirsvc.DecodeRequest(e.raw)
		if err != nil {
			return nil, false
		}
		ops[i] = queued(e.opID, req)
	}
	return packGroupEntries(nil, ops), true
}

// FuzzUnpackGroupEntries: a group payload holding arbitrary bytes never
// panics unpackGroupEntries, which allocates in proportion to the input;
// and the requests of one it accepts pack into a payload that unpacks
// and packs again to the same bytes. The seed corpus, in
// testdata/fuzz/FuzzUnpackGroupEntries, holds packed payloads of one and
// of several updates, and broken ones.
func FuzzUnpackGroupEntries(f *testing.F) {
	f.Fuzz(func(t *testing.T, payload []byte) {
		var entries []groupEntry
		var err error
		if grew := codectest.Allocated(func() { entries, err = unpackGroupEntries(nil, payload) }); grew > codectest.AllocBound(len(payload)) {
			t.Fatalf("unpacking %d bytes allocated %d", len(payload), grew)
		}
		if err != nil {
			return
		}
		packed, ok := repack(entries)
		if !ok {
			return
		}
		again, err := unpackGroupEntries(nil, packed)
		if err != nil {
			t.Fatalf("packed %d entries into a payload that does not unpack: %v", len(entries), err)
		}
		if len(again) != len(entries) {
			t.Fatalf("packed %d entries, unpacked %d", len(entries), len(again))
		}
		for i := range again {
			if again[i].opID != entries[i].opID {
				t.Fatalf("entry %d: opID %x, packed %x", i, again[i].opID, entries[i].opID)
			}
		}
		if twice, _ := repack(again); !bytes.Equal(twice, packed) {
			t.Fatalf("pack, unpack, pack:\n%x\n%x", packed, twice)
		}
	})
}
