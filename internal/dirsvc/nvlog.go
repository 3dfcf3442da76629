package dirsvc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"dirsvc/internal/vdisk"
)

// NVLog is the 24 KB NVRAM operation log of the paper's fastest variant
// (§4.1). Update operations are appended to battery-backed RAM instead of
// being written through to disk; a background flush applies them when the
// server is idle or live records fill the log. The log implements the
// paper's /tmp optimization: a delete-row that cancels a still-logged
// append-row removes both records, so short-lived names never touch the
// disk at all. Cancelled records give their bytes back: an append that
// would cross the ¾ flush mark while they hold at least a quarter of the
// region first compacts the live records to the front, so only a log
// bound by live records ever asks for a flush.
type NVLog struct {
	nv *vdisk.NVRAM

	mu sync.Mutex
	// img mirrors the NVRAM region: records are encoded in place and
	// stored from here, and compaction moves them without reading the
	// device back. Bytes at and past used are scratch.
	img    []byte
	recs   []nvRecord // every record in the region, cancelled ones included
	used   int        // bytes consumed in the NVRAM region
	dead   int        // bytes of used held by cancelled records
	maxSeq uint64     // highest sequence number ever logged (survives cancellation)
}

type nvRecord struct {
	seq    uint64
	alive  bool
	offset int // start of the record header in the region
	size   int // record header + payload (an encoded Request)

	// Fields for cancellation matching.
	op     OpCode
	dirObj uint32
	name   string
	set    []string
}

// NVRAM layout:
//
//	header:  magic [4]byte "NVL1" | count u32 | maxSeq u64
//	records: len u32 | alive u8 | seq u64 | payload
//
// count bounds replay: nothing past the count-th record is ever read, so
// compaction leaves the bytes behind its new end as they are.
const (
	nvHeaderSize    = 4 + 4 + 8
	nvRecHeaderSize = 4 + 1 + 8
	nvAliveOffset   = 4 // of the alive byte within a record header
)

var nvMagic = [4]byte{'N', 'V', 'L', '1'}

// ErrLogFull is returned when a record does not fit in what is left of
// the region, compaction included; the caller must flush its state to
// disk — which then covers the update — and clear the log.
var ErrLogFull = errors.New("dirsvc: NVRAM log full")

// OpenNVLog attaches to an NVRAM region, replaying any records that
// survived a crash.
func OpenNVLog(nv *vdisk.NVRAM) (*NVLog, error) {
	l := &NVLog{nv: nv, img: nv.Snapshot(), used: nvHeaderSize}
	raw := l.img
	if len(raw) < nvHeaderSize {
		return nil, fmt.Errorf("nvram region too small (%d bytes)", len(raw))
	}
	if [4]byte(raw[:4]) != nvMagic {
		// Fresh region: write an empty header.
		copy(raw, nvMagic[:])
		if err := l.storeFront(nvHeaderSize); err != nil {
			return nil, err
		}
		return l, nil
	}
	count := int(binary.BigEndian.Uint32(raw[4:8]))
	l.maxSeq = binary.BigEndian.Uint64(raw[8:16])
	off := nvHeaderSize
	for i := 0; i < count; i++ {
		if off+nvRecHeaderSize > len(raw) {
			return nil, errors.New("dirsvc: corrupt NVRAM log")
		}
		size := nvRecHeaderSize + int(binary.BigEndian.Uint32(raw[off:off+4]))
		if off+size > len(raw) {
			return nil, errors.New("dirsvc: corrupt NVRAM log record")
		}
		req, err := DecodeRequest(raw[off+nvRecHeaderSize : off+size])
		if err != nil {
			return nil, fmt.Errorf("nvram record: %w", err)
		}
		rec := newNVRecord(req, binary.BigEndian.Uint64(raw[off+5:off+13]), off, size)
		if rec.alive = raw[off+nvAliveOffset] == 1; !rec.alive {
			l.dead += size
		}
		l.recs = append(l.recs, rec)
		off += size
	}
	l.used = off
	return l, nil
}

// newNVRecord describes a live record of req at [offset, offset+size).
func newNVRecord(req *Request, seq uint64, offset, size int) nvRecord {
	rec := nvRecord{seq: seq, alive: true, offset: offset, size: size,
		op: req.Op, dirObj: req.Dir.Object, name: req.Name}
	for _, it := range req.Set {
		rec.set = append(rec.set, it.Name)
	}
	return rec
}

// storeFront brings the header up to date and stores the first n bytes
// of the region with one NVRAM write: the header alone, or the header
// with the records compaction has just moved behind it.
func (l *NVLog) storeFront(n int) error {
	binary.BigEndian.PutUint32(l.img[4:8], uint32(len(l.recs)))
	binary.BigEndian.PutUint64(l.img[8:16], l.maxSeq)
	return l.nv.Write(0, l.img[:n])
}

// Append logs one update operation. When the operation is a delete-row
// that cancels a logged append-row of the same name in the same
// directory, both records are removed instead (the paper's /tmp
// optimization) and cancelled=true is returned.
func (l *NVLog) Append(req *Request, seq uint64) (cancelled bool, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()

	if req.Op == OpDeleteRow {
		if i := l.cancellableAppendLocked(req.Dir.Object, req.Name); i >= 0 {
			// Kill the append in NVRAM; the delete is never written.
			l.maxSeq = max(l.maxSeq, seq)
			rec := &l.recs[i]
			rec.alive = false
			l.dead += rec.size
			alive := rec.offset + nvAliveOffset
			l.img[alive] = 0
			if err := l.nv.Write(alive, l.img[alive:alive+1]); err != nil {
				return false, err
			}
			// The header still advances maxSeq so recovery sees that
			// updates happened here.
			if err := l.storeFront(nvHeaderSize); err != nil {
				return false, err
			}
			return true, nil
		}
	}

	// Encode the record into the scratch space past used. The slice's
	// capacity ends with the region, so a record too large for it is
	// moved to the heap by append instead of overrunning.
	buf := append(l.img[l.used:l.used:len(l.img)], make([]byte, nvRecHeaderSize)...)
	buf = req.AppendTo(buf)
	binary.BigEndian.PutUint32(buf[:4], uint32(len(buf)-nvRecHeaderSize))
	buf[nvAliveOffset] = 1
	binary.BigEndian.PutUint64(buf[5:13], seq)

	if (l.used+len(buf))*4 > len(l.img)*3 && l.dead*4 >= len(l.img) {
		// Before maxSeq moves: the compacted image must not claim an
		// update whose record it does not hold yet.
		if err := l.compactLocked(); err != nil {
			return false, err
		}
	}
	l.maxSeq = max(l.maxSeq, seq)
	if l.used+len(buf) > len(l.img) {
		return false, fmt.Errorf("%w (%d bytes used of %d, record of %d)", ErrLogFull, l.used, len(l.img), len(buf))
	}
	// A no-op unless compaction moved used or buf is on the heap.
	copy(l.img[l.used:], buf)
	if err := l.nv.Write(l.used, l.img[l.used:l.used+len(buf)]); err != nil {
		return false, err
	}
	l.recs = append(l.recs, newNVRecord(req, seq, l.used, len(buf)))
	l.used += len(buf)
	return false, l.storeFront(nvHeaderSize)
}

// compactLocked moves the live records to the front of the region, in
// order and with their sequence numbers, and stores them together with
// the new record count in one NVRAM write. That write is the log's
// atomicity unit: a crash finds either the old image or the compacted
// one, and both replay to the same live records and maxSeq.
func (l *NVLog) compactLocked() error {
	live := l.recs[:0]
	off := nvHeaderSize
	for _, rec := range l.recs {
		if !rec.alive {
			continue
		}
		copy(l.img[off:], l.img[rec.offset:rec.offset+rec.size])
		rec.offset = off
		off += rec.size
		live = append(live, rec)
	}
	clear(l.recs[len(live):]) // release the cancelled records' names
	l.recs, l.used, l.dead = live, off, 0
	return l.storeFront(off)
}

// cancellableAppendLocked finds a live append-row for (dirObj, name) with
// no later live record touching the same name. Returns its index or -1.
func (l *NVLog) cancellableAppendLocked(dirObj uint32, name string) int {
	for i := len(l.recs) - 1; i >= 0; i-- {
		rec := &l.recs[i]
		if !rec.alive || !rec.touches(dirObj, name) {
			continue
		}
		if rec.op == OpAppendRow {
			return i
		}
		return -1 // a later chmod/replace/delete touches the name: no cancel
	}
	return -1
}

// touches reports whether the record affects (dirObj, name).
func (r *nvRecord) touches(dirObj uint32, name string) bool {
	if r.op == OpBatch || r.op == OpPrepare || r.op == OpDecide {
		// A batch — or a two-phase prepare/decide, whose staged steps are
		// opaque here — may touch any directory and name; be conservative
		// so the cancel optimization never reorders across one.
		return true
	}
	if r.dirObj != dirObj {
		// Directory-level ops on the same object still count.
		if (r.op == OpCreateDir || r.op == OpDeleteDir) && r.dirObj == dirObj {
			return true
		}
		return false
	}
	switch r.op {
	case OpCreateDir, OpDeleteDir:
		return true
	case OpAppendRow, OpChmodRow, OpDeleteRow:
		return r.name == name
	case OpReplaceSet:
		for _, n := range r.set {
			if n == name {
				return true
			}
		}
	}
	return false
}

// Live returns the live records in log order as decoded requests with
// their sequence numbers.
func (l *NVLog) Live() (reqs []*Request, seqs []uint64, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, rec := range l.recs {
		if !rec.alive {
			continue
		}
		req, err := DecodeRequest(l.img[rec.offset+nvRecHeaderSize : rec.offset+rec.size])
		if err != nil {
			return nil, nil, err
		}
		reqs = append(reqs, req)
		seqs = append(seqs, rec.seq)
	}
	return reqs, seqs, nil
}

// Len returns the number of live records.
func (l *NVLog) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for _, rec := range l.recs {
		if rec.alive {
			n++
		}
	}
	return n
}

// UsedBytes returns the bytes consumed in the region (including
// cancelled records awaiting compaction).
func (l *NVLog) UsedBytes() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.used
}

// NeedsFlush reports whether the log has passed 3/4 of the region, which
// Append lets happen only when less than a quarter of it is cancelled
// records — the log is bound by live ones.
func (l *NVLog) NeedsFlush() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.used*4 > len(l.img)*3
}

// MaxSeq returns the highest sequence number ever logged. Recovery takes
// the maximum of this, the object table, and the commit block (§3).
func (l *NVLog) MaxSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.maxSeq
}

// Clear empties the log after a successful flush, keeping maxSeq.
func (l *NVLog) Clear() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.recs = nil
	l.used, l.dead = nvHeaderSize, 0
	return l.storeFront(nvHeaderSize)
}
