package core

import (
	"reflect"
	"testing"
)

// FuzzDecodeExchange: a recovery peer's exchange blob holding arbitrary
// bytes never panics decodeExchange, and a blob that decodes encodes to
// one that decodes to the same mourned set and stayed-up flag. Fig. 6
// recovery feeds both into the last-set decision. The seed corpus, in
// testdata/fuzz/FuzzDecodeExchange, holds the exchange tests' blobs.
func FuzzDecodeExchange(f *testing.F) {
	f.Fuzz(func(t *testing.T, blob []byte) {
		mourned, stayedUp, err := decodeExchange(blob)
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
