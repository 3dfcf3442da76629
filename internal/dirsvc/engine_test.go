package dirsvc

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"testing"

	"dirsvc/internal/codec"
	"dirsvc/internal/sim"
	"dirsvc/internal/vdisk"
)

func testEngineDisk(t *testing.T) *vdisk.Disk {
	t.Helper()
	return vdisk.New(sim.FastModel(), 256)
}

func TestEngineCheckpointRoundTrip(t *testing.T) {
	disk := testEngineDisk(t)
	e, err := OpenEngine(disk)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.Checkpoint(); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("fresh engine checkpoint err = %v, want ErrNoCheckpoint", err)
	}
	blob := bytes.Repeat([]byte("checkpoint-payload-"), 100) // spans blocks
	if err := e.WriteCheckpoint(42, blob); err != nil {
		t.Fatal(err)
	}
	seq, got, err := e.Checkpoint()
	if err != nil || seq != 42 || !bytes.Equal(got, blob) {
		t.Fatalf("checkpoint = seq %d, %d bytes, err %v", seq, len(got), err)
	}

	// Reopen (simulated restart) and read it back.
	e2, err := OpenEngine(disk)
	if err != nil {
		t.Fatal(err)
	}
	seq, got, err = e2.Checkpoint()
	if err != nil || seq != 42 || !bytes.Equal(got, blob) {
		t.Fatalf("reopened checkpoint = seq %d, %d bytes, err %v", seq, len(got), err)
	}
	if e2.MaxSeq() != 42 {
		t.Fatalf("MaxSeq = %d, want 42", e2.MaxSeq())
	}
}

func TestEngineLogSuffixAndTruncate(t *testing.T) {
	disk := testEngineDisk(t)
	e, err := OpenEngine(disk)
	if err != nil {
		t.Fatal(err)
	}
	for seq := uint64(1); seq <= 5; seq++ {
		if err := e.AppendLog(seq, []byte(fmt.Sprintf("rec-%d", seq))); err != nil {
			t.Fatal(err)
		}
	}
	e2, err := OpenEngine(disk)
	if err != nil {
		t.Fatal(err)
	}
	recs := e2.LogSuffix(2)
	if len(recs) != 3 || recs[0].Seq != 3 || string(recs[2].Payload) != "rec-5" {
		t.Fatalf("LogSuffix(2) = %+v", recs)
	}

	// A checkpoint truncates the log: records up to the checkpoint seq
	// vanish, and a stale-generation record left on disk is ignored.
	if err := e2.WriteCheckpoint(5, []byte("ckpt")); err != nil {
		t.Fatal(err)
	}
	if err := e2.AppendLog(6, []byte("rec-6")); err != nil {
		t.Fatal(err)
	}
	e3, err := OpenEngine(disk)
	if err != nil {
		t.Fatal(err)
	}
	recs = e3.LogSuffix(e3.CheckpointSeq())
	if len(recs) != 1 || recs[0].Seq != 6 {
		t.Fatalf("post-checkpoint LogSuffix = %+v", recs)
	}
}

func TestEngineFullLog(t *testing.T) {
	disk := testEngineDisk(t)
	e, err := OpenEngine(disk)
	if err != nil {
		t.Fatal(err)
	}
	big := bytes.Repeat([]byte("x"), 4*vdisk.BlockSize)
	var seq uint64
	for {
		seq++
		if err := e.AppendLog(seq, big); err != nil {
			if !errors.Is(err, ErrEngineFull) {
				t.Fatal(err)
			}
			break
		}
		if seq > 1000 {
			t.Fatal("log never filled")
		}
	}
	if !e.NeedsCheckpoint() {
		t.Fatal("full log does not report NeedsCheckpoint")
	}
	// Checkpointing opens a fresh generation; appends work again.
	if err := e.WriteCheckpoint(seq, []byte("ckpt")); err != nil {
		t.Fatal(err)
	}
	if err := e.AppendLog(seq+1, big); err != nil {
		t.Fatal(err)
	}
}

// faultStore injects one write failure: the Nth write (1-based, counting
// WriteBlock/WriteBlockSeq/WriteRun/WriteRunSeq calls) and every write
// after it fail, simulating a crash mid-sequence — rockyardkv's
// flush_fault_test pattern. The Nth write, if it is a run of several
// blocks, is torn: its first block lands.
type faultStore struct {
	vdisk.Storage
	writes  int
	failAt  int
	tripped bool
}

var errInjected = errors.New("injected crash")

func (f *faultStore) note() error {
	f.writes++
	if f.failAt > 0 && f.writes >= f.failAt {
		f.tripped = true
		return errInjected
	}
	return nil
}

func (f *faultStore) WriteBlock(i int, data []byte) error {
	if err := f.note(); err != nil {
		return err
	}
	return f.Storage.WriteBlock(i, data)
}

func (f *faultStore) WriteBlockSeq(i int, data []byte) error {
	if err := f.note(); err != nil {
		return err
	}
	return f.Storage.WriteBlockSeq(i, data)
}

func (f *faultStore) WriteRun(start int, data []byte) error {
	if err := f.note(); err != nil {
		f.tear(start, data)
		return err
	}
	return f.Storage.WriteRun(start, data)
}

func (f *faultStore) WriteRunSeq(start int, data []byte) error {
	if err := f.note(); err != nil {
		f.tear(start, data)
		return err
	}
	return f.Storage.WriteRunSeq(start, data)
}

// tear lands the first block of the failing write, if it spans more.
func (f *faultStore) tear(start int, data []byte) {
	if f.writes == f.failAt && len(data) > vdisk.BlockSize {
		_ = f.Storage.WriteBlock(start, data[:vdisk.BlockSize])
	}
}

// recs returns records seqs lo..hi with the payloads the crash test
// expects.
func recs(lo, hi uint64) []LogRec {
	var out []LogRec
	for seq := lo; seq <= hi; seq++ {
		out = append(out, LogRec{Seq: seq, Payload: []byte(fmt.Sprintf("rec-%d", seq))})
	}
	return out
}

// TestEngineCrashAtEveryStep drives a fixed workload — appends, a
// checkpoint, a multi-record run and an append, a second checkpoint —
// killing the disk at write N for every N, then reopens the engine and
// checks the recovered state is one of the legal prefixes: the engine
// never recovers a state that mixes a new checkpoint with an old log,
// leaves a gap, or loses an acknowledged record.
func TestEngineCrashAtEveryStep(t *testing.T) {
	// Workload: append 1..3, checkpoint@3, run 4..6, append 7,
	// checkpoint@7. acked is the highest seq a call returned success for.
	var acked uint64
	workload := func(e *Engine) error {
		for _, r := range recs(1, 3) {
			if err := e.AppendLog(r.Seq, r.Payload); err != nil {
				return err
			}
			acked = r.Seq
		}
		if err := e.WriteCheckpoint(3, []byte("ckpt-3")); err != nil {
			return err
		}
		if err := e.AppendRun(recs(4, 6)); err != nil {
			return err
		}
		acked = 6
		if err := e.AppendLog(7, []byte("rec-7")); err != nil {
			return err
		}
		acked = 7
		return e.WriteCheckpoint(7, []byte("ckpt-7"))
	}

	for failAt := 1; ; failAt++ {
		disk := testEngineDisk(t)
		fs := &faultStore{Storage: disk, failAt: failAt}
		acked = 0
		e, err := OpenEngine(fs)
		if err != nil {
			// The failure hit the initial manifest format; a reopen on the
			// raw disk must still come up empty and usable.
			if !errors.Is(err, errInjected) {
				t.Fatalf("failAt=%d: open: %v", failAt, err)
			}
		} else if err := workload(e); err != nil && !errors.Is(err, errInjected) {
			t.Fatalf("failAt=%d: workload: %v", failAt, err)
		} else if err == nil {
			// The whole workload survived: this failAt is beyond the last
			// write; stop after verifying the final state.
			re, err := OpenEngine(disk)
			if err != nil {
				t.Fatalf("failAt=%d: reopen: %v", failAt, err)
			}
			if seq, blob, err := re.Checkpoint(); err != nil || seq != 7 || string(blob) != "ckpt-7" {
				t.Fatalf("failAt=%d: final checkpoint seq %d err %v", failAt, seq, err)
			}
			if got := re.LogSuffix(0); len(got) != 0 {
				t.Fatalf("failAt=%d: final log not empty: %+v", failAt, got)
			}
			return
		}

		// Crash happened: recover on the raw (no longer failing) disk.
		re, err := OpenEngine(disk)
		if err != nil {
			t.Fatalf("failAt=%d: recovery open: %v", failAt, err)
		}
		ckptSeq := uint64(0)
		if seq, blob, cerr := re.Checkpoint(); cerr == nil {
			ckptSeq = seq
			want := fmt.Sprintf("ckpt-%d", seq)
			if string(blob) != want {
				t.Fatalf("failAt=%d: checkpoint %d payload %q", failAt, seq, blob)
			}
			if seq != 3 && seq != 7 {
				t.Fatalf("failAt=%d: impossible checkpoint seq %d", failAt, seq)
			}
		} else if !errors.Is(cerr, ErrNoCheckpoint) {
			t.Fatalf("failAt=%d: checkpoint read: %v", failAt, cerr)
		}
		// The recovered log must be a contiguous run starting right after
		// the checkpoint: checkpoint + suffix covers a prefix of the
		// workload with nothing missing in the middle.
		last := ckptSeq
		for _, rec := range re.LogSuffix(ckptSeq) {
			if rec.Seq != last+1 {
				t.Fatalf("failAt=%d: log gap after %d: got seq %d", failAt, last, rec.Seq)
			}
			if want := fmt.Sprintf("rec-%d", rec.Seq); string(rec.Payload) != want {
				t.Fatalf("failAt=%d: record %d payload %q", failAt, rec.Seq, rec.Payload)
			}
			last = rec.Seq
		}
		if last > 7 {
			t.Fatalf("failAt=%d: recovered beyond the workload (%d)", failAt, last)
		}
		if last < acked {
			t.Fatalf("failAt=%d: recovered up to %d, but %d was acknowledged", failAt, last, acked)
		}
	}
}

func TestSnapshotCodecRoundTrip(t *testing.T) {
	snap := &Snapshot{
		AppliedSeq: 11,
		CommitSeq:  9,
		Topo:       &TopoState{Epoch: 2, Shard: 1, Base: 1, Total: 4, AllocFloor: 30},
		Objects: []SnapObject{
			{Object: 1, Seq: 5, Image: []byte("img-1")},
			{Object: 7, Seq: 11, Image: []byte("img-7")},
		},
		Stubs:   []SnapStub{{Object: 3, Target: 2, Seq: 8}},
		InDoubt: []SnapTx{{Seq: 10, Raw: []byte("prep")}},
		Decided: []DecidedTx{{ID: TxID{1, 2}, Commit: true, Seq: 6, Results: []byte("res")}},
	}
	got, err := DecodeSnapshot(snap.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.AppliedSeq != 11 || got.CommitSeq != 9 || got.Topo == nil || got.Topo.Epoch != 2 {
		t.Fatalf("header mismatch: %+v", got)
	}
	if len(got.Objects) != 2 || got.Objects[1].Object != 7 || string(got.Objects[1].Image) != "img-7" {
		t.Fatalf("objects mismatch: %+v", got.Objects)
	}
	if len(got.Stubs) != 1 || got.Stubs[0].Target != 2 {
		t.Fatalf("stubs mismatch: %+v", got.Stubs)
	}
	if len(got.InDoubt) != 1 || got.InDoubt[0].Seq != 10 {
		t.Fatalf("in-doubt mismatch: %+v", got.InDoubt)
	}
	if len(got.Decided) != 1 || !got.Decided[0].Commit || got.Decided[0].Seq != 6 {
		t.Fatalf("decided mismatch: %+v", got.Decided)
	}
	if got.MaxSeq() != 11 {
		t.Fatalf("MaxSeq = %d", got.MaxSeq())
	}
	if _, err := DecodeSnapshot([]byte("garbage-blob")); err == nil {
		t.Fatal("garbage decoded")
	}
	// The snapshot is the recovery and peer-sync payload too: a blob cut
	// short anywhere must be refused, never installed as a smaller state.
	raw := snap.Encode()
	for n := 0; n < len(raw); n++ {
		if _, err := DecodeSnapshot(raw[:n]); err == nil {
			t.Fatalf("prefix of %d/%d bytes decoded", n, len(raw))
		}
	}
}

// logImage lays out engine log records of generation gen as AppendRun
// writes them — header, payload, zero padding to whole blocks — and
// returns the image with each record's first block.
func logImage(gen uint64, recs []LogRec) (img []byte, at []int) {
	for _, r := range recs {
		at = append(at, len(img)/vdisk.BlockSize)
		rec := make([]byte, logRecBlocks(len(r.Payload))*vdisk.BlockSize)
		body := append(binary.BigEndian.AppendUint64(nil, r.Seq), r.Payload...)
		codec.Seal(rec[:0], logMagic, gen, body)
		img = append(img, rec...)
	}
	return img, at
}

// TestEngineScanReadsRuns: opening an engine reads its log in runs of
// scanRunBlocks blocks — at most ⌈N/64⌉ + 2 reads for N one-block
// records, the manifest's included — and stops at a torn record, a
// record of another generation, and a record running past the region's
// end, each behind a record that straddles two runs.
func TestEngineScanReadsRuns(t *testing.T) {
	const blocks = 1024
	_, logStart, logBlocks, err := engineLayout(blocks)
	if err != nil {
		t.Fatal(err)
	}
	// records returns n records of payload size each, seqs from 1.
	records := func(n, size int) []LogRec {
		out := make([]LogRec, n)
		for i := range out {
			p := bytes.Repeat([]byte{byte(i)}, size)
			copy(p, fmt.Sprintf("rec-%d", i+1))
			out[i] = LogRec{Seq: uint64(i + 1), Payload: p}
		}
		return out
	}
	// open formats a fresh partition (log generation 0), writes img at
	// the log's start and opens the engine on it, returning it with the
	// reads the open issued.
	open := func(img []byte) (*Engine, uint64) {
		disk := vdisk.New(sim.FastModel(), blocks)
		if _, err := OpenEngine(disk); err != nil {
			t.Fatal(err)
		}
		if err := disk.WriteRun(logStart, img); err != nil {
			t.Fatal(err)
		}
		before := disk.Stats().Reads
		e, err := OpenEngine(disk)
		if err != nil {
			t.Fatal(err)
		}
		return e, disk.Stats().Reads - before
	}
	same := func(t *testing.T, got, want []LogRec) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%d records, want %d", len(got), len(want))
		}
		for i := range want {
			if got[i].Seq != want[i].Seq || !bytes.Equal(got[i].Payload, want[i].Payload) {
				t.Fatalf("record %d: seq %d %q, want seq %d %q", i, got[i].Seq, got[i].Payload, want[i].Seq, want[i].Payload)
			}
		}
	}

	t.Run("reads", func(t *testing.T) {
		const n = 150
		want := records(n, 100)
		img, _ := logImage(0, want)
		e, reads := open(img)
		same(t, e.LogSuffix(0), want)
		if limit := uint64((n+scanRunBlocks-1)/scanRunBlocks + 2); reads > limit {
			t.Fatalf("open of %d one-block records took %d reads, want at most %d", n, reads, limit)
		}
		if e.logTail != logStart+n {
			t.Fatalf("tail at block %d, want %d", e.logTail, logStart+n)
		}
	})

	t.Run("stale record past the run", func(t *testing.T) {
		// A record of another generation is told by its CRC alone: one
		// that runs past the run in hand is read whole, one read more.
		want := records(scanRunBlocks-2, 10)
		img, _ := logImage(0, want)
		stale, _ := logImage(1, []LogRec{{Seq: 99, Payload: make([]byte, 8*vdisk.BlockSize)}})
		e, reads := open(append(img, stale...))
		same(t, e.LogSuffix(0), want)
		if reads != 3 { // the manifest, the first run, the stale record
			t.Fatalf("open took %d reads, want 3", reads)
		}
	})

	// Every stop case puts a four-block record across the first run's
	// end, then one-block records up to the bad one, the fifth after it.
	straddle := append(records(scanRunBlocks-2, 10), LogRec{Seq: scanRunBlocks - 1, Payload: bytes.Repeat([]byte("s"), 3*vdisk.BlockSize)})
	for i := range 5 {
		straddle = append(straddle, LogRec{Seq: uint64(scanRunBlocks + i), Payload: []byte(fmt.Sprintf("after-%d", i))})
	}
	good := straddle[:len(straddle)-1]
	stops := []struct {
		name  string
		image func() (img []byte, want []LogRec)
	}{
		{"torn", func() ([]byte, []LogRec) {
			img, at := logImage(0, straddle)
			img[at[len(at)-1]*vdisk.BlockSize+logRecHeader] ^= 0xff
			return img, good
		}},
		{"other generation", func() ([]byte, []LogRec) {
			img, _ := logImage(0, good)
			stale, _ := logImage(1, straddle[len(straddle)-1:])
			return append(img, stale...), good
		}},
		{"past the region's end", func() ([]byte, []LogRec) {
			// One-block records fill the region up to its last block,
			// where a two-block record starts.
			want := slices.Clone(good)
			for seq := uint64(1000); logImageBlocks(want) < logBlocks-1; seq++ {
				want = append(want, LogRec{Seq: seq, Payload: []byte("pad")})
			}
			img, _ := logImage(0, append(want, LogRec{Seq: 5000, Payload: make([]byte, vdisk.BlockSize)}))
			return img[:logBlocks*vdisk.BlockSize], want
		}},
	}
	for _, c := range stops {
		t.Run(c.name, func(t *testing.T) {
			img, want := c.image()
			disk := vdisk.New(sim.FastModel(), blocks)
			if err := disk.WriteRun(logStart, img); err != nil {
				t.Fatal(err)
			}
			recs, tail, err := scanLog(disk, logStart, logBlocks, 0)
			if err != nil {
				t.Fatal(err)
			}
			same(t, recs, want)
			if wantTail := logStart + logImageBlocks(want); tail != wantTail {
				t.Fatalf("tail at block %d, want %d", tail, wantTail)
			}
			e, _ := open(img)
			same(t, e.LogSuffix(0), want)
		})
	}
}

// logImageBlocks is the blocks recs take in the log.
func logImageBlocks(recs []LogRec) int {
	n := 0
	for _, r := range recs {
		n += logRecBlocks(len(r.Payload))
	}
	return n
}
