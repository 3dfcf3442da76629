package dirdata

import (
	"testing"

	"dirsvc/internal/capability"
	"dirsvc/internal/codec/codectest"
)

// TestGoldenEncodings pins the directory image format to the bytes in
// testdata/golden.hex, recorded from the round-trip tests' directories.
func TestGoldenEncodings(t *testing.T) {
	d := New("owner", "other")
	d.Seq = 42
	_ = d.Append("x", mkCap(7), []capability.Rights{capability.AllRights, capability.RightRead})
	_ = d.Append("y", mkCap(8), []capability.Rights{capability.RightWrite, 0})
	empty := New()
	empty.Seq = 7
	codectest.Golden(t, "testdata/golden.hex", map[string][]byte{
		"directory":       d.Encode(),
		"empty-directory": empty.Encode(),
	})
}
