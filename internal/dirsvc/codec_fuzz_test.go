package dirsvc

import (
	"testing"

	"dirsvc/internal/codec/codectest"
)

// The fuzz targets below hold the decoders of 2PC, Watch, batch and
// shard-map traffic to codectest's three properties: no panic,
// allocation bounded by the input's length, and decode(encode(x)) = x
// with a stable encoding. Each seed corpus, in testdata/fuzz/<target>,
// holds the round-trip tests' encodings, truncated ones, and inputs whose
// counts claim more items than the bytes carry.

// FuzzDecodeEventBatch covers the Watch confirmation, lease-renewal and
// push payload.
func FuzzDecodeEventBatch(f *testing.F) { codectest.Fuzz(f, DecodeEventBatch, EncodeEventBatch) }

// FuzzDecodeBatchSteps covers the OpBatch blob and a prepare's steps.
func FuzzDecodeBatchSteps(f *testing.F) { codectest.Fuzz(f, DecodeBatchSteps, EncodeBatchSteps) }

// FuzzDecodeBatchResults covers a batch's and a prepare's reply blob.
func FuzzDecodeBatchResults(f *testing.F) {
	codectest.Fuzz(f, DecodeBatchResults, EncodeBatchResults)
}

// FuzzDecodePrepare covers the OpPrepare payload.
func FuzzDecodePrepare(f *testing.F) { codectest.Fuzz(f, DecodePrepare, EncodePrepare) }

// FuzzDecodeDecide covers the OpDecide payload.
func FuzzDecodeDecide(f *testing.F) { codectest.Fuzz(f, DecodeDecide, EncodeDecide) }

// notMine is the StatusNotMine blob's content, as one value.
type notMine struct {
	epoch uint64
	shard int
}

// FuzzDecodeShardMap covers the OpShardMap reply, the topology state it
// and the commit block carry, and the StatusNotMine blob.
func FuzzDecodeShardMap(f *testing.F) {
	f.Fuzz(func(t *testing.T, in []byte) {
		codectest.RoundTrip(t, in, DecodeShardMapInfo, EncodeShardMapInfo)
		codectest.RoundTrip(t, in, DecodeTopoState, EncodeTopoState)
		codectest.RoundTrip(t, in, func(b []byte) (notMine, error) {
			epoch, shard, err := DecodeNotMine(b)
			return notMine{epoch, shard}, err
		}, func(m notMine) []byte { return EncodeNotMine(m.epoch, m.shard) })
	})
}
