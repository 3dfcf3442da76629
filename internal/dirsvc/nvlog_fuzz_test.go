package dirsvc

import (
	"bytes"
	"runtime"
	"testing"

	"dirsvc/internal/sim"
	"dirsvc/internal/vdisk"
)

// fuzzNVRAMSize is the region FuzzOpenNVLog opens: large enough for a
// few dozen records, a compaction and a Clear.
const fuzzNVRAMSize = 4096

// FuzzOpenNVLog: an NVRAM region holding arbitrary bytes — a crash
// image, bit-flipped or from another generation — never panics
// OpenNVLog, which allocates at most a small multiple of the region's
// size, and a log that opens once opens again to the same live records
// and maximum sequence number. The seed corpus, in
// testdata/fuzz/FuzzOpenNVLog, holds images of the NVLog tests'
// workloads.
func FuzzOpenNVLog(f *testing.F) {
	const allocBound = 64 * fuzzNVRAMSize
	f.Fuzz(func(t *testing.T, image []byte) {
		nv := vdisk.NewNVRAM(sim.FastModel(), fuzzNVRAMSize)
		if n := min(len(image), fuzzNVRAMSize); n > 0 {
			if err := nv.Write(0, image[:n]); err != nil {
				t.Fatal(err)
			}
		}

		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		l, err := OpenNVLog(nv)
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > allocBound {
			t.Fatalf("open allocated %d bytes for a %d-byte region", grew, fuzzNVRAMSize)
		}
		if err != nil {
			return
		}
		again, err := OpenNVLog(nv)
		if err != nil {
			t.Fatalf("opened once, then not again: %v", err)
		}
		if l.MaxSeq() != again.MaxSeq() || l.UsedBytes() != again.UsedBytes() {
			t.Fatalf("reopened at MaxSeq %d, %d bytes; was %d, %d bytes",
				again.MaxSeq(), again.UsedBytes(), l.MaxSeq(), l.UsedBytes())
		}
		reqs1, seqs1, err1 := l.Live()
		reqs2, seqs2, err2 := again.Live()
		if (err1 == nil) != (err2 == nil) || len(reqs1) != len(reqs2) {
			t.Fatalf("%d live records (%v), then %d (%v)", len(reqs1), err1, len(reqs2), err2)
		}
		for i := range reqs1 {
			if seqs1[i] != seqs2[i] || !bytes.Equal(reqs1[i].Encode(), reqs2[i].Encode()) {
				t.Fatalf("live record %d: seq %d %v, then seq %d %v", i, seqs1[i], reqs1[i].Op, seqs2[i], reqs2[i].Op)
			}
		}
	})
}
