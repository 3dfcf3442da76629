package dirsvc

import (
	"reflect"
	"testing"

	"dirsvc/internal/codec"
)

// FuzzDecodeCommitBlock: block 0 holding arbitrary bytes — torn,
// bit-flipped or from another build — never panics DecodeCommitBlock,
// which sizes the configuration vector by the block's own count and the
// service's n alone; and a block that decodes encodes to one that decodes
// the same. Recovery trusts this block for its mourned set, sequence
// number and recovering flag (Fig. 4, Fig. 6). Each input is decoded as
// a block and, sealed, as a block's body, so it reaches the body decoder
// past the checksum. The seed corpus, in
// testdata/fuzz/FuzzDecodeCommitBlock, holds the commit-block tests'
// blocks and their bodies.
func FuzzDecodeCommitBlock(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw []byte, servers uint8) {
		n := int(servers%64) + 1 // an encoded vector holds at most 64
		for _, block := range [][]byte{raw, codec.Seal(nil, commitMagic, 0, raw)} {
			c, err := DecodeCommitBlock(block, n)
			if err != nil {
				continue
			}
			count := 0
			if body, _ := codec.Open(block, commitMagic, 0); len(body) > 9 {
				count = int(body[9])
			}
			if len(c.Up) > max(count, n) {
				t.Fatalf("%d up bits from a block counting %d, for %d servers", len(c.Up), count, n)
			}
			again, err := DecodeCommitBlock(c.Encode(), n)
			if err != nil {
				t.Fatalf("decoded %+v, but not its encoding: %v", c, err)
			}
			if !reflect.DeepEqual(again, c) {
				t.Fatalf("decoded %+v, then %+v from its encoding", c, again)
			}
		}
	})
}
