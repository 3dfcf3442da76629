package dirsvc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sync"

	"dirsvc/internal/vdisk"
)

// Engine is the disk-backed storage engine under the shared applier: a
// raw partition holding two checkpoint areas and an operation log.
//
// Layout (blocks):
//
//	0                      manifest
//	1 .. 1+A               checkpoint area 0
//	1+A .. 1+2A            checkpoint area 1
//	1+2A .. end            log
//
// A checkpoint write goes to the inactive area, then one manifest write
// flips the active pointer, bumps the checkpoint generation, and opens a
// fresh log generation — the block-device equivalent of write-temp,
// fsync, rename: a crash at any point leaves either the old checkpoint
// with its full log, or the new checkpoint with an empty log. Log
// records are CRC-guarded and tagged with the log generation, so replay
// stops at the first torn or stale record. Every write is synchronous
// (vdisk models raw-partition writes), so nothing here needs an explicit
// sync step.
type Engine struct {
	store vdisk.Storage

	areaBlocks int // blocks per checkpoint area
	logStart   int // first log block
	logBlocks  int // blocks in the log region

	mu      sync.Mutex
	active  byte   // which checkpoint area the manifest points at
	ckptSeq uint64 // applied sequence number the checkpoint covers
	ckptLen uint32 // checkpoint payload length in bytes
	ckptCRC uint32 // checkpoint payload CRC
	ckptGen uint64 // bumped on every checkpoint; 0 until the first
	logGen  uint64 // current log generation; records from others are stale
	logTail int    // next free log block
	recs    []LogRec
	maxSeq  uint64 // highest seq ever logged or checkpointed (recovery floor)
}

// LogRec is one recovered log record.
type LogRec struct {
	Seq     uint64
	Payload []byte
}

var engMagic = [4]byte{'E', 'N', 'G', '1'}

// Manifest block layout:
//
//	magic[4] | active u8 | ckptSeq u64 | ckptLen u32 | ckptCRC u32 |
//	ckptGen u64 | logGen u64 | maxSeq u64 | crc u32 (of all preceding)
const manifestLen = 4 + 1 + 8 + 4 + 4 + 8 + 8 + 8 + 4

// Log record header: magic[4] | len u32 | seq u64 | gen u64 | crc u32
// (of the payload). Records are padded to a whole number of blocks so
// each append is one sequential run.
const logRecHeader = 4 + 4 + 8 + 8 + 4

var logMagic = [4]byte{'E', 'L', 'O', 'G'}

var (
	// ErrEngineFull is returned when a record does not fit in the log
	// region; the caller must checkpoint first.
	ErrEngineFull = errors.New("dirsvc: engine log full")
	// ErrNoCheckpoint is returned when no checkpoint has been written.
	ErrNoCheckpoint = errors.New("dirsvc: no checkpoint")
	// errTornManifest reports a manifest or checkpoint whose CRC does
	// not match.
	errTornManifest = errors.New("dirsvc: torn manifest")
)

// engineLayout computes the region split for a partition: a quarter of
// the blocks (at least 8) for the log, the rest split into two
// checkpoint areas.
func engineLayout(blocks int) (areaBlocks, logStart, logBlocks int, err error) {
	if blocks < 16 {
		return 0, 0, 0, fmt.Errorf("engine partition too small (%d blocks)", blocks)
	}
	logBlocks = blocks / 4
	if logBlocks < 8 {
		logBlocks = 8
	}
	areaBlocks = (blocks - 1 - logBlocks) / 2
	if areaBlocks < 1 {
		return 0, 0, 0, fmt.Errorf("engine partition too small (%d blocks)", blocks)
	}
	logStart = 1 + 2*areaBlocks
	logBlocks = blocks - logStart
	return areaBlocks, logStart, logBlocks, nil
}

// OpenEngine attaches to (or formats) an engine partition and scans the
// current log generation into memory.
func OpenEngine(store vdisk.Storage) (*Engine, error) {
	areaBlocks, logStart, logBlocks, err := engineLayout(store.Blocks())
	if err != nil {
		return nil, err
	}
	e := &Engine{store: store, areaBlocks: areaBlocks, logStart: logStart, logBlocks: logBlocks, logTail: logStart}
	switch err := e.readManifest(); {
	case errors.Is(err, ErrNoCheckpoint):
		// Fresh partition: format it with an empty manifest, so every
		// later open finds one.
		if err := e.writeManifestLocked(); err != nil {
			return nil, err
		}
	case err != nil:
		return nil, err
	}
	recs, tail, err := scanLog(store, logStart, logBlocks, e.logGen)
	if err != nil {
		return nil, err
	}
	e.recs = recs
	e.logTail = tail
	for _, r := range recs {
		if r.Seq > e.maxSeq {
			e.maxSeq = r.Seq
		}
	}
	return e, nil
}

// readManifest loads the root metadata block into e (before the engine
// is shared). ErrNoCheckpoint means the partition was never formatted.
func (e *Engine) readManifest() error {
	raw, err := e.store.ReadBlock(0)
	if err != nil {
		return err
	}
	if [4]byte(raw[:4]) != engMagic {
		return ErrNoCheckpoint
	}
	sum := binary.BigEndian.Uint32(raw[manifestLen-4 : manifestLen])
	if crc32.ChecksumIEEE(raw[:manifestLen-4]) != sum {
		return errTornManifest
	}
	e.active = raw[4]
	e.ckptSeq = binary.BigEndian.Uint64(raw[5:13])
	e.ckptLen = binary.BigEndian.Uint32(raw[13:17])
	e.ckptCRC = binary.BigEndian.Uint32(raw[17:21])
	e.ckptGen = binary.BigEndian.Uint64(raw[21:29])
	e.logGen = binary.BigEndian.Uint64(raw[29:37])
	e.maxSeq = binary.BigEndian.Uint64(raw[37:45])
	return nil
}

// writeManifestLocked persists the engine's root metadata. Must hold
// e.mu (or run before the engine is shared).
func (e *Engine) writeManifestLocked() error {
	buf := make([]byte, manifestLen)
	copy(buf, engMagic[:])
	buf[4] = e.active
	binary.BigEndian.PutUint64(buf[5:13], e.ckptSeq)
	binary.BigEndian.PutUint32(buf[13:17], e.ckptLen)
	binary.BigEndian.PutUint32(buf[17:21], e.ckptCRC)
	binary.BigEndian.PutUint64(buf[21:29], e.ckptGen)
	binary.BigEndian.PutUint64(buf[29:37], e.logGen)
	binary.BigEndian.PutUint64(buf[37:45], e.maxSeq)
	binary.BigEndian.PutUint32(buf[manifestLen-4:manifestLen], crc32.ChecksumIEEE(buf[:manifestLen-4]))
	return e.store.WriteBlockSeq(0, buf)
}

// scanRunBlocks is how many log blocks one read of scanLog takes in: a
// log of N one-block records is read in ⌈(N+1)/scanRunBlocks⌉ runs, one
// seek each.
const scanRunBlocks = 64

// scanLog reads the log region sequentially, collecting the records of
// generation gen. The current generation's records form a prefix of the
// region; the scan stops at the first stale, torn, or empty record. It
// reads the region in runs of scanRunBlocks blocks, and a record that
// runs past the run in hand starts the next one. The records' payloads
// point into the runs, which nothing writes to again.
func scanLog(store vdisk.Storage, logStart, logBlocks int, gen uint64) ([]LogRec, int, error) {
	var recs []LogRec
	var run []byte // the blocks from runLo on, as last read
	runLo, b, end := logStart, logStart, logStart+logBlocks
	// hold makes sure the run in hand covers blocks b up to b+k.
	hold := func(k int) error {
		if (b-runLo+k)*vdisk.BlockSize <= len(run) {
			return nil
		}
		var err error
		runLo = b
		run, err = store.ReadRun(b, min(max(k, scanRunBlocks), end-b)*vdisk.BlockSize)
		return err
	}
	for b < end {
		if err := hold(1); err != nil {
			return nil, 0, err
		}
		hdr := run[(b-runLo)*vdisk.BlockSize:]
		if [4]byte(hdr[:4]) != logMagic {
			break
		}
		n := int(binary.BigEndian.Uint32(hdr[4:8]))
		seq := binary.BigEndian.Uint64(hdr[8:16])
		rgen := binary.BigEndian.Uint64(hdr[16:24])
		sum := binary.BigEndian.Uint32(hdr[24:28])
		if rgen != gen {
			break
		}
		span := logRecBlocks(n)
		if n < 0 || b+span > end {
			break
		}
		if err := hold(span); err != nil {
			return nil, 0, err
		}
		off := (b-runLo)*vdisk.BlockSize + logRecHeader
		payload := run[off : off+n : off+n]
		if crc32.ChecksumIEEE(payload) != sum {
			break // torn append: the record never committed
		}
		recs = append(recs, LogRec{Seq: seq, Payload: payload})
		b += span
	}
	return recs, b, nil
}

// logRecBlocks returns the whole blocks an n-byte payload occupies.
func logRecBlocks(n int) int {
	return (logRecHeader + n + vdisk.BlockSize - 1) / vdisk.BlockSize
}

// AppendLog durably appends one operation record: a run of one.
func (e *Engine) AppendLog(seq uint64, payload []byte) error {
	return e.AppendRun([]LogRec{{Seq: seq, Payload: payload}})
}

// AppendRun durably appends a run of operation records, in order, with
// one sequential write. Each record keeps its own block-padded header, so
// the log format is the same as for single appends and a write torn
// part-way leaves a prefix of the run behind. The engine keeps its own
// copy of each payload, in the block image it writes, so the caller may
// reuse the payload slices once AppendRun returns.
// ErrEngineFull means the run does not fit; the caller must write a
// checkpoint (which opens a fresh, empty log generation) and may then
// drop the run — the checkpoint covers it.
func (e *Engine) AppendRun(recs []LogRec) error {
	if len(recs) == 0 {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	span := 0
	for _, r := range recs {
		span += logRecBlocks(len(r.Payload))
	}
	if e.logTail+span > e.logStart+e.logBlocks {
		return fmt.Errorf("%w (%d of %d blocks used, %d more needed)",
			ErrEngineFull, e.logTail-e.logStart, e.logBlocks, span)
	}
	buf := make([]byte, span*vdisk.BlockSize)
	off := 0
	for _, r := range recs {
		rec := buf[off:]
		copy(rec, logMagic[:])
		binary.BigEndian.PutUint32(rec[4:8], uint32(len(r.Payload)))
		binary.BigEndian.PutUint64(rec[8:16], r.Seq)
		binary.BigEndian.PutUint64(rec[16:24], e.logGen)
		binary.BigEndian.PutUint32(rec[24:28], crc32.ChecksumIEEE(r.Payload))
		copy(rec[logRecHeader:], r.Payload)
		off += logRecBlocks(len(r.Payload)) * vdisk.BlockSize
	}
	if err := e.store.WriteRunSeq(e.logTail, buf); err != nil {
		return err
	}
	e.logTail += span
	// The kept records point into buf, which nothing writes to again.
	off = 0
	for _, r := range recs {
		n := len(r.Payload)
		e.recs = append(e.recs, LogRec{Seq: r.Seq, Payload: buf[off+logRecHeader : off+logRecHeader+n : off+logRecHeader+n]})
		e.maxSeq = max(e.maxSeq, r.Seq)
		off += logRecBlocks(n) * vdisk.BlockSize
	}
	return nil
}

// WriteCheckpoint atomically installs a new checkpoint covering every
// update up to and including seq, and truncates the log: the payload
// goes to the inactive area, then one manifest write flips the active
// pointer and opens a fresh log generation.
func (e *Engine) WriteCheckpoint(seq uint64, payload []byte) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if len(payload) > e.areaBlocks*vdisk.BlockSize {
		return fmt.Errorf("checkpoint %d bytes exceeds area (%d blocks): %w",
			len(payload), e.areaBlocks, vdisk.ErrTooLarge)
	}
	inactive := 1 - e.active
	if err := e.store.WriteRun(e.areaStart(inactive), payload); err != nil {
		return err
	}
	prevActive, prevSeq, prevLen, prevCRC := e.active, e.ckptSeq, e.ckptLen, e.ckptCRC
	prevCkptGen, prevLogGen, prevMax := e.ckptGen, e.logGen, e.maxSeq
	e.active = inactive
	e.ckptSeq = seq
	e.ckptLen = uint32(len(payload))
	e.ckptCRC = crc32.ChecksumIEEE(payload)
	e.ckptGen++
	e.logGen++
	if seq > e.maxSeq {
		e.maxSeq = seq
	}
	if err := e.writeManifestLocked(); err != nil {
		// The flip never committed: the old checkpoint + log still rule.
		e.active, e.ckptSeq, e.ckptLen, e.ckptCRC = prevActive, prevSeq, prevLen, prevCRC
		e.ckptGen, e.logGen, e.maxSeq = prevCkptGen, prevLogGen, prevMax
		return err
	}
	e.logTail = e.logStart
	e.recs = nil
	return nil
}

// areaStart returns the first block of checkpoint area a.
func (e *Engine) areaStart(a byte) int { return 1 + int(a)*e.areaBlocks }

// Checkpoint returns the current checkpoint payload, or ErrNoCheckpoint
// when none has been written yet.
func (e *Engine) Checkpoint() (seq uint64, payload []byte, err error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.ckptGen == 0 {
		return 0, nil, ErrNoCheckpoint
	}
	raw, err := e.store.ReadRun(e.areaStart(e.active), int(e.ckptLen))
	if err != nil {
		return 0, nil, err
	}
	if crc32.ChecksumIEEE(raw) != e.ckptCRC {
		return 0, nil, fmt.Errorf("checkpoint area %d: %w", e.active, errTornManifest)
	}
	return e.ckptSeq, raw, nil
}

// CheckpointSeq returns the sequence number the current checkpoint
// covers (0 when none).
func (e *Engine) CheckpointSeq() uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.ckptSeq
}

// LogSuffix returns the recovered/appended log records with sequence
// numbers beyond after, in log order.
func (e *Engine) LogSuffix(after uint64) []LogRec {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]LogRec, 0, len(e.recs))
	for _, r := range e.recs {
		if r.Seq > after {
			out = append(out, r)
		}
	}
	return out
}

// LogLen returns the number of live log records.
func (e *Engine) LogLen() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.recs)
}

// NeedsCheckpoint reports whether the log has passed 3/4 of its region —
// the engine-mode analogue of NVLog.NeedsFlush.
func (e *Engine) NeedsCheckpoint() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return (e.logTail-e.logStart)*4 > e.logBlocks*3
}

// MaxSeq returns the highest sequence number the engine has durably
// seen (checkpoint or log). Recovery takes the maximum of this and the
// other local sources.
func (e *Engine) MaxSeq() uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.maxSeq
}
