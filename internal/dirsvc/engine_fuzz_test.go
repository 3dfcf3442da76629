package dirsvc

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"slices"
	"testing"

	"dirsvc/internal/codec"
	"dirsvc/internal/sim"
	"dirsvc/internal/vdisk"
)

// fuzzEngineBlocks sizes the partition FuzzOpenEngine opens: a manifest,
// two 11-block checkpoint areas and a 9-block log.
const fuzzEngineBlocks = 32

// FuzzOpenEngine: an engine partition whose manifest block and log
// region hold arbitrary bytes — a crash image, torn or bit-flipped —
// never panics OpenEngine, which allocates at most a small multiple of
// the partition's size, and an engine that opens once opens again to the
// same checkpoint, records and maximum sequence number. With seal set,
// manifest is the manifest's body and is sealed, and every run frame the
// log holds is resealed for the log generation that body names, so
// mutated fields get past the checksums to the run decoder, whose record
// count the run's own bytes bound. The seed corpus, in
// testdata/fuzz/FuzzOpenEngine, holds images of engine workloads —
// appends, a run torn part-way, a record of several blocks, a log behind
// a checkpoint, stale runs — as whole blocks, and two as manifest bodies
// with seal set.
func FuzzOpenEngine(f *testing.F) {
	_, logStart, logBlocks, err := engineLayout(fuzzEngineBlocks)
	if err != nil {
		f.Fatal(err)
	}
	const allocBound = 4 * fuzzEngineBlocks * vdisk.BlockSize
	f.Fuzz(func(t *testing.T, manifest, log []byte, seal bool) {
		disk := vdisk.New(sim.FastModel(), fuzzEngineBlocks)
		log = log[:min(len(log), logBlocks*vdisk.BlockSize)]
		if seal {
			manifest = manifest[:min(len(manifest), vdisk.BlockSize-codec.Header)]
			var gen uint64 // logGen: the manifest body's fifth field
			if len(manifest) >= 1+8+4+8+8 {
				gen = binary.BigEndian.Uint64(manifest[1+8+4+8:])
			}
			manifest = codec.Seal(nil, engMagic, 0, manifest)
			log = resealFrames(slices.Clone(log), logMagic, gen)
		}
		block := make([]byte, vdisk.BlockSize)
		copy(block, manifest)
		if err := disk.WriteBlock(0, block); err != nil {
			t.Fatal(err)
		}
		if len(log) > 0 {
			if err := disk.WriteRun(logStart, log); err != nil {
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

// resealFrames walks img as a sequence of block-padded sealed frames, as
// scanLog reads the log's runs, and seals each again for gen with the length its
// header claims, until a frame runs past img's end.
func resealFrames(img []byte, magic [4]byte, gen uint64) []byte {
	for off := 0; off < len(img); {
		n := codec.FrameLen(img[off:])
		if off+n > len(img) {
			break
		}
		codec.Seal(img[:off], magic, gen, img[off+codec.Header:off+n])
		off += (n + vdisk.BlockSize - 1) / vdisk.BlockSize * vdisk.BlockSize
	}
	return img
}
