package rpcdir

import (
	"testing"

	"dirsvc/internal/capability"
	"dirsvc/internal/codec/codectest"
	"dirsvc/internal/dirsvc"
)

// TestGoldenEncodings pins the intention staging block to the bytes in
// testdata/golden.hex, recorded from TestIntentionCodecRoundTrip's
// intention.
func TestGoldenEncodings(t *testing.T) {
	req := &dirsvc.Request{
		Op:    dirsvc.OpAppendRow,
		Dir:   capability.Mint(dirsvc.ServicePort("x"), 3, capability.NewSecret([]byte("s"))),
		Name:  "pending",
		Masks: []capability.Rights{capability.AllRights},
	}
	codectest.Golden(t, "testdata/golden.hex", map[string][]byte{"intention": encodeIntention(req, 42)})
}
