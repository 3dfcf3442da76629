package bullet

import (
	"testing"

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
// rebuilds a restarted server's store from it. The seed corpus, in
// testdata/fuzz/FuzzDecodeTable, holds TestGoldenEncodings' tables, one
// cut short, and one claiming 2^20 entries it does not carry.
func FuzzDecodeTable(f *testing.F) {
	codectest.Fuzz(f, func(b []byte) (table, error) {
		files, nextObj, err := decodeTable(b)
		return table{files, nextObj}, err
	}, func(tb table) []byte { return (&Store{files: tb.files, nextObj: tb.nextObj}).encodeTableLocked() })
}
