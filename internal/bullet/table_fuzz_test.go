package bullet

import (
	"testing"

	"dirsvc/internal/codec"
	"dirsvc/internal/codec/codectest"
)

// table is a decoded file table, as one value.
type table struct {
	files   map[uint32]*fileEntry
	nextObj uint32
}

// FuzzDecodeTable: a file table region holding arbitrary bytes never
// panics decodeTable, which allocates in proportion to the region; and a
// table it accepts encodes to one that decodes the same. OpenStore
// rebuilds a restarted server's store from it. The fuzzed bytes are the
// table's body, sealed before the decode so they reach the body decoder
// past the checksum (a table that does not open is FuzzOpen's case). The
// seed corpus, in testdata/fuzz/FuzzDecodeTable, holds the bodies of
// TestGoldenEncodings' tables, one cut short, one claiming 2^20 entries
// it does not carry, and whole tables of the format before sealing.
func FuzzDecodeTable(f *testing.F) {
	codectest.Fuzz(f, func(b []byte) (table, error) {
		files, nextObj, err := decodeTable(codec.Seal(nil, tableMagic, 0, b))
		return table{files, nextObj}, err
	}, func(tb table) []byte {
		return (&Store{files: tb.files, nextObj: tb.nextObj}).encodeTableLocked()[codec.Header:]
	})
}
