package codec_test

import (
	"bytes"
	"errors"
	"testing"

	"dirsvc/internal/codec"
)

var testMagic = [4]byte{'T', 'E', 'S', 'T'}

// maxFlipped bounds the body FuzzOpen flips every bit of: each flip
// checksums the whole frame again.
const maxFlipped = 512

// FuzzOpen: Open of arbitrary bytes never panics and never allocates;
// Open(Seal(x)) is x, a sub-slice of the frame; and every single-bit
// flip of a sealed frame, as well as opening it for another generation
// or under another magic, fails with ErrCorrupt. Every durable structure
// is framed by Seal, so these are the properties their readers rely on
// to tell a frame from a torn or flipped one. The seed corpus, in
// testdata/fuzz/FuzzOpen, holds an empty body, a short one, a frame
// sealed for generation 7, and a header of zeros.
func FuzzOpen(f *testing.F) {
	f.Fuzz(func(t *testing.T, x []byte, gen uint64) {
		if allocs := testing.AllocsPerRun(3, func() { _, _ = codec.Open(x, testMagic, gen) }); allocs != 0 {
			t.Fatalf("Open of %d bytes allocated %v times", len(x), allocs)
		}
		x = x[:min(len(x), maxFlipped)]
		frame := codec.Seal(nil, testMagic, gen, x)
		body, err := codec.Open(frame, testMagic, gen)
		if err != nil || !bytes.Equal(body, x) || body == nil {
			t.Fatalf("Open(Seal(%x)) = %x, %v", x, body, err)
		}
		if len(body) > 0 && &body[0] != &frame[codec.Header] {
			t.Fatal("Open copied the body")
		}
		// A longer buffer holds the same frame.
		if body, err := codec.Open(append(frame, 0xff), testMagic, gen); err != nil || !bytes.Equal(body, x) {
			t.Fatalf("Open of the frame and a trailing byte = %x, %v", body, err)
		}
		if _, err := codec.Open(frame, testMagic, gen^1); !errors.Is(err, codec.ErrCorrupt) {
			t.Fatalf("frame of generation %d opened for %d: %v", gen, gen^1, err)
		}
		if _, err := codec.Open(frame, [4]byte{'T', 'E', 'S', 'U'}, gen); !errors.Is(err, codec.ErrCorrupt) {
			t.Fatalf("frame opened under another magic: %v", err)
		}
		for bit := range 8 * len(frame) {
			frame[bit/8] ^= 1 << (bit % 8)
			if body, err := codec.Open(frame, testMagic, gen); !errors.Is(err, codec.ErrCorrupt) {
				t.Fatalf("flipped bit %d: opened %x, %v", bit, body, err)
			}
			frame[bit/8] ^= 1 << (bit % 8)
		}
	})
}

// TestOpenEmpty: a buffer of zeros was never written, and opens as
// nothing, whatever its length; a zeroed header with any other byte
// behind it is corrupt.
func TestOpenEmpty(t *testing.T) {
	for _, buf := range [][]byte{nil, make([]byte, 5), make([]byte, 512)} {
		if body, err := codec.Open(buf, testMagic, 3); body != nil || err != nil {
			t.Fatalf("Open(%d zeros) = %x, %v", len(buf), body, err)
		}
	}
	for _, at := range []int{2, codec.Header, 511} {
		buf := make([]byte, 512)
		buf[at] = 1
		if _, err := codec.Open(buf, testMagic, 3); !errors.Is(err, codec.ErrCorrupt) {
			t.Fatalf("zeros but byte %d: %v", at, err)
		}
	}
}
