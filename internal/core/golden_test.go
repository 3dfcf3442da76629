package core

import (
	"testing"

	"dirsvc/internal/codec/codectest"
	"dirsvc/internal/dirsvc"
	"dirsvc/internal/lastfail"
)

// TestGoldenEncodings pins the packed group payload and the recovery
// exchange blob to the bytes in testdata/golden.hex, recorded from the
// round-trip tests' values.
func TestGoldenEncodings(t *testing.T) {
	codectest.Golden(t, "testdata/golden.hex", map[string][]byte{
		"group-entries": packGroupEntries(nil, []coalesceOp{
			queued(1<<48|7, &dirsvc.Request{Op: dirsvc.OpAppendRow, Name: "x"}),
			queued(2<<48|9, &dirsvc.Request{Op: dirsvc.OpDeleteRow, Name: "y"}),
			queued(3, &dirsvc.Request{}),
		}),
		"exchange-empty": encodeExchange(lastfail.NewSet(), false),
		"exchange-one":   encodeExchange(lastfail.NewSet(2), true),
		"exchange-all":   encodeExchange(lastfail.NewSet(1, 2, 3), false),
	})
}
