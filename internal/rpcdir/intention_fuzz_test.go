package rpcdir

import (
	"testing"

	"dirsvc/internal/codec"
	"dirsvc/internal/codec/codectest"
	"dirsvc/internal/dirsvc"
)

// intention is a staged intention block's content, as one value.
type intention struct {
	req *dirsvc.Request
	seq uint64
}

// FuzzDecodeIntention: an intention staging block holding arbitrary
// bytes — torn, or never written — never panics decodeIntention, which
// allocates in proportion to the block; and an intention it accepts
// encodes to one that decodes the same. A restarted RPC server replays
// what this decoder returns. The fuzzed bytes are the block's body,
// sealed before the decode so they reach the request decoder past the
// checksum (a block that does not open is FuzzOpen's case). The seed
// corpus, in testdata/fuzz/FuzzDecodeIntention, holds the body of
// TestIntentionCodecRoundTrip's block, one cut short, and whole blocks of
// the format before sealing.
func FuzzDecodeIntention(f *testing.F) {
	codectest.Fuzz(f, func(b []byte) (intention, error) {
		req, seq, err := decodeIntention(codec.Seal(nil, intentionMagic, 0, b))
		return intention{req, seq}, err
	}, func(in intention) []byte { return encodeIntention(in.req, in.seq)[codec.Header:] })
}
