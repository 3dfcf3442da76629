package rpcdir

import (
	"testing"

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
// what this decoder returns. The seed corpus, in
// testdata/fuzz/FuzzDecodeIntention, holds TestIntentionCodecRoundTrip's
// block and one cut short.
func FuzzDecodeIntention(f *testing.F) {
	codectest.Fuzz(f, func(b []byte) (intention, error) {
		req, seq, ok := decodeIntention(b)
		if !ok {
			return intention{}, dirsvc.ErrBadRequest
		}
		return intention{req, seq}, nil
	}, func(in intention) []byte { return encodeIntention(in.req, in.seq) })
}
