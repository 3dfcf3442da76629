package dirsvc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"sync"

	"dirsvc/internal/codec"
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
	gen    uint32     // generation of the header and of every record replay accepts
	maxSeq uint64     // highest sequence number ever logged (survives cancellation)
}

type nvRecord struct {
	seq    uint64
	alive  bool
	offset int // start of the record header in the region
	size   int // record header + payload (an encoded Request)

	// Fields for cancellation matching. A row op's name is read from the
	// record itself (nameIn); a replace set's names are copied here.
	op     OpCode
	dirObj uint32
	set    []string
}

// NVRAM layout:
//
//	header:  sealed frame (codec.Seal, generation 0) of gen u32 | maxSeq u64
//	records: alive u8 | seq u64 | sealed frame (the log's gen) of payload
//
// Every log operation is one NVRAM write: an append writes its record at
// the tail, a cancel rewrites the dead record's alive and seq bytes —
// outside its seal — and only open, Clear and compaction write the
// header, the last two with a new generation, compaction together with
// the records it moved and resealed. Replay reads records until one does
// not open: a torn one, another generation's, or none, so what lies
// behind the tail is never taken for a record. maxSeq is the larger of
// the header's and every replayed record's seq. A header that does not
// open is an error: the records' generation is unknown.
const (
	nvHeaderSize    = codec.Header + 4 + 8
	nvRecHeaderSize = 1 + 8 + codec.Header
	nvFrameOffset   = 1 + 8 // alive and seq, which a cancel rewrites, precede the frame
)

var (
	nvMagic    = [4]byte{'N', 'V', 'L', '3'}
	nvRecMagic = [4]byte{'N', 'V', 'R', '3'}
)

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
	hdr, err := codec.Open(raw[:nvHeaderSize], nvMagic, 0)
	if err != nil {
		return nil, corrupt("nvram log header")
	}
	if hdr == nil {
		// Fresh region: write an empty header of generation 1, and a
		// zero first record header so nothing behind it is replayed.
		l.gen = 1
		n := min(len(raw), nvHeaderSize+nvRecHeaderSize)
		clear(raw[nvHeaderSize:n])
		if err := l.storeFront(n); err != nil {
			return nil, err
		}
		return l, nil
	}
	l.gen, l.maxSeq = binary.BigEndian.Uint32(hdr), binary.BigEndian.Uint64(hdr[4:])
	off := nvHeaderSize
	for off+nvRecHeaderSize <= len(raw) {
		payload, err := codec.Open(raw[off+nvFrameOffset:], nvRecMagic, uint64(l.gen))
		if err != nil || payload == nil {
			break
		}
		req, err := DecodeRequest(payload)
		if err != nil {
			return nil, fmt.Errorf("nvram record: %w", err)
		}
		size := nvRecHeaderSize + len(payload)
		seq := binary.BigEndian.Uint64(raw[off+1:])
		rec := newNVRecord(req, seq, off, size)
		if rec.alive = raw[off] == 1; !rec.alive {
			l.dead += size
		}
		l.maxSeq = max(l.maxSeq, seq)
		l.recs = append(l.recs, rec)
		off += size
	}
	l.used = off
	return l, nil
}

// seal stamps an encoded record — alive, seq and room for the seal, then
// its payload — with the log's generation.
func (l *NVLog) seal(rec []byte) {
	codec.Seal(rec[:nvFrameOffset], nvRecMagic, uint64(l.gen), rec[nvRecHeaderSize:])
}

// newNVRecord describes a live record of req at [offset, offset+size).
func newNVRecord(req *Request, seq uint64, offset, size int) nvRecord {
	rec := nvRecord{seq: seq, alive: true, offset: offset, size: size,
		op: req.Op, dirObj: req.Dir.Object}
	for _, it := range req.Set {
		rec.set = append(rec.set, strings.Clone(it.Name))
	}
	return rec
}

// nameIn returns the record's Name field as it lies in the region image.
func (r *nvRecord) nameIn(img []byte) []byte {
	return requestName(img[r.offset+nvRecHeaderSize : r.offset+r.size])
}

// storeFront brings the header up to date and stores the first n bytes
// of the region with one NVRAM write: the header alone, or the header
// with the records compaction has just moved behind it.
func (l *NVLog) storeFront(n int) error {
	body := binary.BigEndian.AppendUint32(l.img[codec.Header:codec.Header], l.gen)
	codec.Seal(l.img[:0], nvMagic, 0, binary.BigEndian.AppendUint64(body, l.maxSeq))
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
			// Kill the append in NVRAM and give it the delete's seq, so
			// replay still counts the delete; the delete is never written.
			l.maxSeq = max(l.maxSeq, seq)
			rec := &l.recs[i]
			rec.alive, rec.seq = false, seq
			l.dead += rec.size
			l.img[rec.offset] = 0
			binary.BigEndian.PutUint64(l.img[rec.offset+1:], seq)
			return true, l.nv.Write(rec.offset, l.img[rec.offset:rec.offset+nvFrameOffset])
		}
	}

	// Encode the record into the scratch space past used. The slice's
	// capacity ends with the region, so a record too large for it is
	// moved to the heap by append instead of overrunning.
	buf := append(l.img[l.used:l.used:len(l.img)], make([]byte, nvRecHeaderSize)...)
	buf = req.AppendTo(buf)
	buf[0] = 1 // alive
	binary.BigEndian.PutUint64(buf[1:], seq)

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
	rec := l.img[l.used : l.used+len(buf)]
	copy(rec, buf)
	l.seal(rec) // after compaction, which moves to a new generation
	if err := l.nv.Write(l.used, rec); err != nil {
		return false, err
	}
	l.recs = append(l.recs, newNVRecord(req, seq, l.used, len(buf)))
	l.used += len(buf)
	return false, nil
}

// compactLocked moves the live records to the front of the region, in
// order and with their sequence numbers, restamps them with a new
// generation and stores them together with the new header in one NVRAM
// write. That write is the log's atomicity unit: a crash finds either
// the old image or the compacted one — whose generation ends replay at
// its last record — and both replay to the same live records and maxSeq.
func (l *NVLog) compactLocked() error {
	l.gen++
	live := l.recs[:0]
	off := nvHeaderSize
	for _, rec := range l.recs {
		if !rec.alive {
			continue
		}
		copy(l.img[off:], l.img[rec.offset:rec.offset+rec.size])
		l.seal(l.img[off : off+rec.size])
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
		if !rec.alive || !rec.touches(l.img, dirObj, name) {
			continue
		}
		if rec.op == OpAppendRow {
			return i
		}
		return -1 // a later chmod/replace/delete touches the name: no cancel
	}
	return -1
}

// touches reports whether the record, in the region image img, affects
// (dirObj, name).
func (r *nvRecord) touches(img []byte, dirObj uint32, name string) bool {
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
		return string(r.nameIn(img)) == name
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

// PastHalf reports whether the log holds more than half of the region.
func (l *NVLog) PastHalf() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.used*2 > len(l.img)
}

// MaxSeq returns the highest sequence number ever logged. Recovery takes
// the maximum of this, the object table, and the commit block (§3).
func (l *NVLog) MaxSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.maxSeq
}

// Clear empties the log after a successful flush, keeping maxSeq: one
// header write whose new generation ends replay before the old records.
func (l *NVLog) Clear() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.gen++
	l.recs = nil
	l.used, l.dead = nvHeaderSize, 0
	return l.storeFront(nvHeaderSize)
}
