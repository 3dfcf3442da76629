package dirdata

import (
	"testing"

	"dirsvc/internal/codec/codectest"
)

// FuzzDecodeDirectory: a directory image holding arbitrary bytes — a
// Bullet file read back after a crash, or one moved by state transfer —
// never panics Decode, which allocates in proportion to the image; and
// an image it accepts encodes to one that decodes the same. The seed
// corpus, in testdata/fuzz/FuzzDecodeDirectory, holds
// TestEncodeDecodeRoundTrip's image, an empty directory, one cut short,
// and one of 64 columns claiming 2^20 rows it does not carry.
func FuzzDecodeDirectory(f *testing.F) { codectest.Fuzz(f, Decode, (*Directory).Encode) }
