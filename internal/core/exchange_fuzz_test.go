package core

import (
	"reflect"
	"testing"

	"dirsvc/internal/codec/codectest"
	"dirsvc/internal/lastfail"
)

// exchangeAllocBound is what decoding any exchange blob may allocate: a
// mourned set of 256 ids, the most a one-byte id names, whatever the
// blob's length (19 048 bytes on amd64, Go 1.24). A bound in the blob's
// length does not hold: a map costs ≈ 37 bytes per id.
const exchangeAllocBound = 20 << 10

// FuzzDecodeExchange: a recovery peer's exchange blob holding arbitrary
// bytes never panics decodeExchange, which allocates at most
// exchangeAllocBound; and a blob that decodes encodes to one that decodes
// to the same mourned set and stayed-up flag. Fig. 6 recovery feeds both
// into the last-set decision. The seed corpus, in
// testdata/fuzz/FuzzDecodeExchange, holds the exchange tests' blobs.
func FuzzDecodeExchange(f *testing.F) {
	f.Fuzz(func(t *testing.T, blob []byte) {
		var mourned lastfail.Set
		var stayedUp bool
		var err error
		if grew := codectest.Allocated(func() { mourned, stayedUp, err = decodeExchange(blob) }); grew > exchangeAllocBound {
			t.Fatalf("decoding %d bytes allocated %d", len(blob), grew)
		}
		if err != nil {
			return
		}
		again, againUp, err := decodeExchange(encodeExchange(mourned, stayedUp))
		if err != nil {
			t.Fatalf("decoded %v, %v, but not its encoding: %v", mourned.Sorted(), stayedUp, err)
		}
		if againUp != stayedUp || !reflect.DeepEqual(again.Sorted(), mourned.Sorted()) {
			t.Fatalf("decoded %v, %v, then %v, %v from its encoding", mourned.Sorted(), stayedUp, again.Sorted(), againUp)
		}
	})
}
