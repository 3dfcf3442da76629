package dirsvc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"dirsvc/internal/codec"
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
// with its full log, or the new checkpoint with an empty log. Manifest,
// checkpoint and log records are sealed frames (codec.Seal); a record is
// sealed for its log generation, so replay stops at the first torn or
// stale one. Every write is synchronous
// (vdisk models raw-partition writes), so nothing here needs an explicit
// sync step.
type Engine struct {
	store vdisk.Storage

	areaBlocks int // blocks per checkpoint area
	logStart   int // first log block
	logBlocks  int // blocks in the log region

	mu       sync.Mutex
	manifest     // as on disk, but for maxSeq, which every append raises
	logTail  int // next free log block
	recs     []LogRec
}

// manifest is the engine's root metadata: block 0 holds these fields in
// order, big endian, sealed for generation 0. The active area holds the
// checkpoint sealed for ckptGen, ckptLen bytes long: reading it is one run.
type manifest struct {
	active  byte   // which checkpoint area the manifest points at
	ckptSeq uint64 // applied sequence number the checkpoint covers
	ckptLen uint32 // length of the checkpoint's sealed frame in bytes
	ckptGen uint64 // bumped on every checkpoint; 0 until the first
	logGen  uint64 // current log generation; records from others are stale
	maxSeq  uint64 // highest seq ever logged or checkpointed (recovery floor)
}

// LogRec is one recovered log record.
type LogRec struct {
	Seq     uint64
	Payload []byte
}

var (
	engMagic  = [4]byte{'E', 'N', 'G', '2'}
	ckptMagic = [4]byte{'C', 'K', 'P', '2'}
	logMagic  = [4]byte{'E', 'L', 'G', '2'}
)

// A log record is a frame sealed for its log generation of seq u64 |
// payload, padded to a whole number of blocks so each append is one
// sequential run; logRecHeader is what precedes the payload.
const logRecHeader = codec.Header + 8

var (
	// ErrEngineFull is returned when a record does not fit in the log
	// region; the caller must checkpoint first.
	ErrEngineFull = errors.New("dirsvc: engine log full")
	// ErrNoCheckpoint is returned when no checkpoint has been written.
	ErrNoCheckpoint = errors.New("dirsvc: no checkpoint")
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
		if err := e.manifest.write(store); err != nil {
			return nil, err
		}
	case err != nil:
		return nil, err
	}
	if e.recs, e.logTail, err = scanLog(store, logStart, logBlocks, e.logGen); err != nil {
		return nil, err
	}
	for _, r := range e.recs {
		e.maxSeq = max(e.maxSeq, r.Seq)
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
	body, err := codec.Open(raw, engMagic, 0)
	if body == nil && err == nil {
		return ErrNoCheckpoint
	}
	rd := codec.NewReader(body)
	e.active, e.ckptSeq, e.ckptLen = rd.U8(), rd.U64(), rd.U32()
	e.ckptGen, e.logGen, e.maxSeq = rd.U64(), rd.U64(), rd.U64()
	if err != nil || !rd.Done() {
		return corrupt("engine manifest")
	}
	return nil
}

// write stores m as the manifest block.
func (m *manifest) write(store vdisk.Storage) error {
	buf := make([]byte, codec.Header, vdisk.BlockSize)
	buf = binary.BigEndian.AppendUint64(append(buf, m.active), m.ckptSeq)
	buf = binary.BigEndian.AppendUint32(buf, m.ckptLen)
	buf = binary.BigEndian.AppendUint64(binary.BigEndian.AppendUint64(buf, m.ckptGen), m.logGen)
	buf = binary.BigEndian.AppendUint64(buf, m.maxSeq)
	return store.WriteBlockSeq(0, codec.Seal(buf[:0], engMagic, 0, buf[codec.Header:]))
}

// scanRunBlocks is how many log blocks one read of scanLog takes in: a
// log of N one-block records is read in ⌈(N+1)/scanRunBlocks⌉ runs, one
// seek each.
const scanRunBlocks = 64

// scanLog reads the log region sequentially, collecting the records of
// generation gen. The current generation's records form a prefix of the
// region; the scan stops at the first stale, torn, or empty record. It
// reads the region in runs of scanRunBlocks blocks, and a record that
// runs past the run in hand starts the next one (a stale one too: only
// its CRC tells it). The records' payloads point into the runs, which
// nothing writes to again.
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
		span := (codec.FrameLen(hdr) + vdisk.BlockSize - 1) / vdisk.BlockSize
		if [4]byte(hdr) != logMagic || b+span > end {
			break // never written, or not a record that fits
		}
		if err := hold(span); err != nil {
			return nil, 0, err
		}
		body, err := codec.Open(run[(b-runLo)*vdisk.BlockSize:], logMagic, gen)
		if err != nil || len(body) < 8 {
			break // torn or stale: the log ends here
		}
		recs = append(recs, LogRec{Seq: binary.BigEndian.Uint64(body), Payload: body[8:]})
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
		body := binary.BigEndian.AppendUint64(buf[off+codec.Header:off+codec.Header], r.Seq)
		codec.Seal(buf[off:off], logMagic, e.logGen, append(body, r.Payload...))
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
	next := e.manifest
	next.active, next.ckptSeq = 1-e.active, seq
	next.ckptGen, next.logGen, next.maxSeq = e.ckptGen+1, e.logGen+1, max(e.maxSeq, seq)
	frame := codec.Seal(make([]byte, 0, codec.Header+len(payload)), ckptMagic, next.ckptGen, payload)
	if next.ckptLen = uint32(len(frame)); len(frame) > e.areaBlocks*vdisk.BlockSize {
		return fmt.Errorf("checkpoint %d bytes exceeds area (%d blocks): %w",
			len(frame), e.areaBlocks, vdisk.ErrTooLarge)
	}
	if err := e.store.WriteRun(e.areaStart(next.active), frame); err != nil {
		return err
	}
	// Until the flip commits, the old checkpoint and its log still rule.
	if err := next.write(e.store); err != nil {
		return err
	}
	e.manifest, e.logTail, e.recs = next, e.logStart, nil
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
	if payload, err = codec.Open(raw, ckptMagic, e.ckptGen); payload == nil || err != nil {
		return 0, nil, corrupt(fmt.Sprintf("checkpoint area %d", e.active))
	}
	return e.ckptSeq, payload, nil
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
