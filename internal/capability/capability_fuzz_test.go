package capability

import (
	"testing"

	"dirsvc/internal/codec/codectest"
)

// FuzzDecodeCapability: arbitrary bytes never panic Decode, and a
// capability it accepts encodes to the 16 bytes it came from. The seed
// corpus, in testdata/fuzz/FuzzDecodeCapability, holds an owner
// capability, a restricted one and a truncated one.
func FuzzDecodeCapability(f *testing.F) {
	codectest.Fuzz(f, Decode, func(c Capability) []byte { return c.Encode(nil) })
}
