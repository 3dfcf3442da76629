package bullet

import (
	"testing"

	"dirsvc/internal/capability"
	"dirsvc/internal/codec/codectest"
)

// goldenStore is a store holding four files, as TestCrashRecoveryViaOpenStore
// leaves one after five creates and a delete; only its table is used.
func goldenStore() *Store {
	s := &Store{files: map[uint32]*fileEntry{}, nextObj: 6}
	for _, o := range []uint32{1, 2, 4, 5} {
		s.files[o] = &fileEntry{object: o, start: tableBlocks + int(o), blocks: 1, length: 6,
			secret: capability.NewSecret([]byte{byte(o)})}
	}
	return s
}

// TestGoldenEncodings pins the file table format to the bytes in
// testdata/golden.hex.
func TestGoldenEncodings(t *testing.T) {
	codectest.Golden(t, "testdata/golden.hex", map[string][]byte{
		"table":       goldenStore().encodeTableLocked(),
		"empty-table": (&Store{files: map[uint32]*fileEntry{}, nextObj: 1}).encodeTableLocked(),
	})
}
