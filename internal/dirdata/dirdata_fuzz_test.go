package dirdata

import (
	"testing"

	"dirsvc/internal/codec"
	"dirsvc/internal/codec/codectest"
)

// FuzzDecodeDirectory: a directory image holding arbitrary bytes — a
// Bullet file read back after a crash, or one moved by state transfer —
// never panics Decode, which allocates in proportion to the image; and
// an image it accepts encodes to one that decodes the same. The fuzzed
// bytes are the image's body, sealed before the decode so they reach the
// body decoder past the checksum (an image that does not open is
// FuzzOpen's case). The seed corpus, in testdata/fuzz/FuzzDecodeDirectory,
// holds the bodies of TestEncodeDecodeRoundTrip's image and of an empty
// directory, one cut short, one of 64 columns claiming 2^20 rows it does
// not carry, and whole images of the format before sealing.
func FuzzDecodeDirectory(f *testing.F) {
	codectest.Fuzz(f, func(b []byte) (*Directory, error) { return Decode(codec.Seal(nil, magic, 0, b)) },
		func(d *Directory) []byte { return d.Encode()[codec.Header:] })
}
