package dirsvc

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"runtime"
	"testing"

	"dirsvc/internal/sim"
	"dirsvc/internal/vdisk"
)

// fuzzEngineBlocks sizes the partition FuzzOpenEngine opens: a manifest,
// two 23-block checkpoint areas and a 17-block log.
const fuzzEngineBlocks = 64

// FuzzOpenEngine: an engine partition whose manifest block and log
// region hold arbitrary bytes — a crash image, torn or bit-flipped —
// never panics OpenEngine, which allocates at most a small multiple of
// the partition's size, and an engine that opens once opens again to the
// same checkpoint, records and maximum sequence number. With seal set the
// manifest's CRC is stamped before the open, so mutated manifest fields
// get past the checksum. The seed corpus, in testdata/fuzz/FuzzOpenEngine,
// holds images of the engine tests' workloads.
func FuzzOpenEngine(f *testing.F) {
	_, logStart, logBlocks, err := engineLayout(fuzzEngineBlocks)
	if err != nil {
		f.Fatal(err)
	}
	const allocBound = 4 * fuzzEngineBlocks * vdisk.BlockSize
	f.Fuzz(func(t *testing.T, manifest, log []byte, seal bool) {
		disk := vdisk.New(sim.FastModel(), fuzzEngineBlocks)
		block := make([]byte, vdisk.BlockSize)
		copy(block, manifest)
		if seal {
			binary.BigEndian.PutUint32(block[manifestLen-4:], crc32.ChecksumIEEE(block[:manifestLen-4]))
		}
		if err := disk.WriteBlock(0, block); err != nil {
			t.Fatal(err)
		}
		if n := min(len(log), logBlocks*vdisk.BlockSize); n > 0 {
			if err := disk.WriteRun(logStart, log[:n]); err != nil {
				t.Fatal(err)
			}
		}

		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		e, err := OpenEngine(disk)
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > allocBound {
			t.Fatalf("open allocated %d bytes for a %d-byte partition", grew, fuzzEngineBlocks*vdisk.BlockSize)
		}
		if err != nil {
			return
		}
		again, err := OpenEngine(disk)
		if err != nil {
			t.Fatalf("opened once, then not again: %v", err)
		}
		if e.CheckpointSeq() != again.CheckpointSeq() || e.MaxSeq() != again.MaxSeq() {
			t.Fatalf("reopened at checkpoint %d max %d, was %d max %d",
				again.CheckpointSeq(), again.MaxSeq(), e.CheckpointSeq(), e.MaxSeq())
		}
		seq1, ckpt1, err1 := e.Checkpoint()
		seq2, ckpt2, err2 := again.Checkpoint()
		if seq1 != seq2 || !bytes.Equal(ckpt1, ckpt2) || (err1 == nil) != (err2 == nil) {
			t.Fatalf("checkpoint read (%d, %q, %v), then (%d, %q, %v)", seq1, ckpt1, err1, seq2, ckpt2, err2)
		}
		recs1, recs2 := e.LogSuffix(0), again.LogSuffix(0)
		if len(recs1) != len(recs2) {
			t.Fatalf("%d records, then %d", len(recs1), len(recs2))
		}
		for i := range recs1 {
			if recs1[i].Seq != recs2[i].Seq || !bytes.Equal(recs1[i].Payload, recs2[i].Payload) {
				t.Fatalf("record %d: seq %d %q, then seq %d %q", i, recs1[i].Seq, recs1[i].Payload, recs2[i].Seq, recs2[i].Payload)
			}
		}
	})
}
