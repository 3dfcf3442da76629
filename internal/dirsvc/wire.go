// Package dirsvc holds the machinery shared by the three directory
// service implementations the paper compares: the operation wire format
// (Fig. 2), the commit block and object table layouts (Fig. 4), the
// deterministic update applier, and the NVRAM operation log of §4.1.
package dirsvc

import (
	"encoding/binary"
	"errors"
	"fmt"

	"dirsvc/internal/capability"
	"dirsvc/internal/dirdata"
)

// OpCode identifies one directory service operation (paper Fig. 2, plus
// bootstrap and internal recovery operations).
type OpCode uint8

// Directory service operations.
const (
	OpCreateDir  OpCode = iota + 1 // Create dir
	OpDeleteDir                    // Delete dir
	OpListDir                      // List dir
	OpAppendRow                    // Append row
	OpChmodRow                     // Chmod row
	OpDeleteRow                    // Delete row
	OpLookupSet                    // Lookup set
	OpReplaceSet                   // Replace set
	OpGetRoot                      // bootstrap: fetch the root directory capability

	// Internal server-to-server operations.
	OpIntention // rpcdir: propose an update to the peer
	OpSyncPull  // recovery: fetch object table + directories
	OpExchange  // recovery: exchange mourned set and seqno (Fig. 6)
	OpApplyLazy // rpcdir: apply a committed intention in the background
	OpReadDir   // recovery helper: fetch one directory image
	OpStatus    // monitoring: server status snapshot

	// OpBatch carries a sequence of update steps applied atomically and
	// replicated as a single unit (one group broadcast per batch).
	OpBatch

	// OpPrepare is phase one of a cross-shard atomic batch: it stages one
	// shard's steps in a batch overlay, locks the touched objects, and
	// votes — nothing becomes visible until the decision.
	OpPrepare
	// OpDecide is phase two: commit writes the staged overlay through
	// under the decide's own sequence number; abort discards it.
	OpDecide
	// OpTxQuery is the decision query (a read): a participant orphaned by
	// a dead coordinator asks the resolver shard how a transaction ended.
	OpTxQuery

	// OpWatch registers (or resumes) an event-stream lease. The request
	// reuses Seq as the subscriber's previous log identity and MinSeq as
	// its next log index (both zero for a fresh "from now" subscription);
	// the reply's Blob is an EventBatch confirmation, and subsequent
	// events are pushed over the same transaction's reply channel.
	OpWatch
	// OpLeaseRenew refreshes a watch lease before it expires: Seq is the
	// subscription id, MinSeq the subscriber's next log index. The reply
	// Blob is an EventBatch covering any missed events, or StatusNotFound
	// when the lease has already expired.
	OpLeaseRenew

	// Elastic-topology operations (shard splits and live migration).

	// OpShardMap is a read returning the shard's topology view as an
	// EncodeShardMapInfo blob: epoch, migration phase, object counts, and
	// the objects still held here that belong elsewhere.
	OpShardMap
	// OpSplit bumps the shard-map epoch by one (Seq carries the target
	// epoch). A source shard computes and returns the moving class's
	// allocation floor in ObjSeq; a target shard is told the floor in
	// Column. Idempotent: re-applying at or below the current epoch is OK.
	OpSplit
	// OpMigRead is the migration copy read: it returns the object's
	// per-entry sequence number (ObjSeq), and secret+image packed as a
	// MigImageBlob, bypassing capability checks (internal op).
	OpMigRead
	// OpMigOut is the source-side step of a migration flip, valid only
	// inside an OpPrepare: it validates the entry is still at Seq (the
	// copied version, else the vote is no) and, on commit, replaces the
	// entry with a forwarding stub to the shard in Column.
	OpMigOut
	// OpMigIn is the target-side step of a migration flip, valid only
	// inside an OpPrepare: on commit it installs the object from the
	// MigImageBlob in Blob, minting a fresh Bullet capability per replica.
	OpMigIn
	// OpSealMigration marks the target side of a split complete: misses
	// in the inbound class stop chasing to the source.
	OpSealMigration
	// OpDropStubs drops every forwarding stub on the source after the
	// target is sealed, ending the split. Refused while moving-class
	// objects remain.
	OpDropStubs

	// OpBackup is a read returning the shard's full state as a portable
	// snapshot blob (snapshot.go) in the reply Blob — the same encoding
	// the disk engine checkpoints.
	OpBackup
	// OpRestoreShard replaces the shard's state with the snapshot in
	// Blob. It rides the ordinary replicated update path, so every
	// replica installs the identical image; the applied sequence number
	// jumps to at least the snapshot's highest (ApplyResult.AdvanceSeq).
	OpRestoreShard
)

// IsUpdate reports whether the op modifies directories (requires the
// write path / replication).
func (op OpCode) IsUpdate() bool {
	switch op {
	case OpCreateDir, OpDeleteDir, OpAppendRow, OpChmodRow, OpDeleteRow, OpReplaceSet, OpBatch,
		OpPrepare, OpDecide, OpSplit, OpMigOut, OpMigIn, OpSealMigration, OpDropStubs,
		OpRestoreShard:
		return true
	default:
		return false
	}
}

// String implements fmt.Stringer.
func (op OpCode) String() string {
	switch op {
	case OpCreateDir:
		return "create-dir"
	case OpDeleteDir:
		return "delete-dir"
	case OpListDir:
		return "list-dir"
	case OpAppendRow:
		return "append-row"
	case OpChmodRow:
		return "chmod-row"
	case OpDeleteRow:
		return "delete-row"
	case OpLookupSet:
		return "lookup-set"
	case OpReplaceSet:
		return "replace-set"
	case OpGetRoot:
		return "get-root"
	case OpIntention:
		return "intention"
	case OpSyncPull:
		return "sync-pull"
	case OpExchange:
		return "exchange"
	case OpApplyLazy:
		return "apply-lazy"
	case OpReadDir:
		return "read-dir"
	case OpStatus:
		return "status"
	case OpBatch:
		return "batch"
	case OpPrepare:
		return "prepare"
	case OpDecide:
		return "decide"
	case OpTxQuery:
		return "tx-query"
	case OpWatch:
		return "watch"
	case OpLeaseRenew:
		return "lease-renew"
	case OpShardMap:
		return "shard-map"
	case OpSplit:
		return "split"
	case OpMigRead:
		return "mig-read"
	case OpMigOut:
		return "mig-out"
	case OpMigIn:
		return "mig-in"
	case OpSealMigration:
		return "seal-migration"
	case OpDropStubs:
		return "drop-stubs"
	case OpBackup:
		return "backup"
	case OpRestoreShard:
		return "restore-shard"
	default:
		return fmt.Sprintf("op(%d)", uint8(op))
	}
}

// Status is the outcome of a directory operation.
type Status uint8

// Operation outcomes.
const (
	StatusOK Status = iota + 1
	StatusNotFound
	StatusExists
	StatusBadCapability
	StatusNoRights
	StatusNoMajority // request refused: the server group lacks a majority (§3.1)
	StatusConflict
	StatusBadRequest
	StatusError
	// StatusNotMine: the shard does not own the object under its current
	// shard-map epoch; the reply Blob (EncodeNotMine) carries the
	// server's epoch and the owning shard for the client's one-hop chase.
	StatusNotMine
)

// Errors corresponding to non-OK statuses.
var (
	ErrNotFound   = errors.New("dirsvc: not found")
	ErrExists     = errors.New("dirsvc: name already exists")
	ErrNoMajority = errors.New("dirsvc: service has no majority; request refused")
	ErrConflict   = errors.New("dirsvc: conflicting operation in progress")
	ErrBadRequest = errors.New("dirsvc: malformed request")
	ErrServer     = errors.New("dirsvc: server error")
)

// Err converts a status to an error (nil for StatusOK).
func (s Status) Err() error {
	switch s {
	case StatusOK:
		return nil
	case StatusNotFound:
		return ErrNotFound
	case StatusExists:
		return ErrExists
	case StatusBadCapability:
		return capability.ErrBadCapability
	case StatusNoRights:
		return capability.ErrNoRights
	case StatusNoMajority:
		return ErrNoMajority
	case StatusConflict:
		return ErrConflict
	case StatusBadRequest:
		return ErrBadRequest
	case StatusNotMine:
		return ErrNotMine
	default:
		return ErrServer
	}
}

// StatusOf maps an error back to a wire status.
func StatusOf(err error) Status {
	switch {
	case err == nil:
		return StatusOK
	case errors.Is(err, ErrNotFound), errors.Is(err, dirdata.ErrNotFound):
		return StatusNotFound
	case errors.Is(err, ErrExists), errors.Is(err, dirdata.ErrExists):
		return StatusExists
	case errors.Is(err, capability.ErrBadCapability):
		return StatusBadCapability
	case errors.Is(err, capability.ErrNoRights):
		return StatusNoRights
	case errors.Is(err, ErrNoMajority):
		return StatusNoMajority
	case errors.Is(err, ErrConflict):
		return StatusConflict
	case errors.Is(err, ErrNotMine):
		return StatusNotMine
	case errors.Is(err, ErrBadRequest), errors.Is(err, dirdata.ErrBadName),
		errors.Is(err, dirdata.ErrColumns), errors.Is(err, dirdata.ErrCorrupt):
		return StatusBadRequest
	default:
		return StatusError
	}
}

// SetItem is one element of a lookup/replace set.
type SetItem struct {
	Name string
	Cap  capability.Capability
}

// Request is a directory service request.
type Request struct {
	Op      OpCode
	Dir     capability.Capability // target directory
	Name    string
	Cap     capability.Capability // append/replace payload
	Masks   []capability.Rights
	Columns []string // create-dir column names
	Column  int      // list-dir column selector
	Set     []SetItem
	// CheckSeed carries the initiator-generated check field material for
	// create-dir, so all replicas mint the identical capability (§3.1).
	CheckSeed []byte
	// Seq carries the update sequence number on internal operations
	// (intentions, recovery).
	Seq uint64
	// Server identifies the sender on internal operations.
	Server int
	// Blob carries opaque payload on internal operations.
	Blob []byte
	// MinSeq, on read operations, is the client session's freshness
	// floor: the server must not answer from replica state older than
	// this applied sequence number. Clients that balance reads across
	// replicas stamp it with the highest Seq any reply has shown them,
	// so read-your-writes and monotonic reads survive a read landing on
	// a replica that lags the one that acknowledged the write. Zero (the
	// wire default, and what pinned clients send) imposes no floor.
	MinSeq uint64
}

// Reply is a directory service reply.
type Reply struct {
	Status Status
	Cap    capability.Capability
	Rows   []dirdata.Row
	Caps   []capability.Capability
	// Seq is the shard's service-wide commit sequence number: on a
	// successful update, the number the change committed under; on a
	// read, the server's applied sequence number sampled before the read
	// executed (so the returned data is at least that fresh). Clients use
	// it as the invalidation signal for their per-shard read caches.
	Seq uint64
	// ObjSeq, set on read replies, is the sequence number of the last
	// update that touched the directory being read (the per-object Seq of
	// its ObjectEntry) — a finer-grained freshness tag than the
	// shard-wide Seq.
	ObjSeq uint64
	Blob   []byte
}

// Encode serializes the request.
func (r *Request) Encode() []byte {
	return r.AppendTo(make([]byte, 0, 128))
}

// AppendTo appends the serialized request to dst: the allocation-free
// encode for callers that own a reusable buffer (the NVRAM log's record,
// a client's per-call scratch).
func (r *Request) AppendTo(dst []byte) []byte {
	w := writer{buf: dst}
	w.u8(uint8(r.Op))
	w.cap(r.Dir)
	w.str(r.Name)
	w.cap(r.Cap)
	w.u16(uint16(len(r.Masks)))
	for _, m := range r.Masks {
		w.u8(uint8(m))
	}
	w.u16(uint16(len(r.Columns)))
	for _, c := range r.Columns {
		w.str(c)
	}
	w.u32(uint32(r.Column))
	w.u16(uint16(len(r.Set)))
	for _, it := range r.Set {
		w.str(it.Name)
		w.cap(it.Cap)
	}
	w.bytes(r.CheckSeed)
	w.u64(r.Seq)
	w.u32(uint32(r.Server))
	w.bytes(r.Blob)
	w.u64(r.MinSeq)
	return w.buf
}

// DecodeRequest parses a request.
func DecodeRequest(buf []byte) (*Request, error) {
	rd := &byteReader{buf: buf}
	r := &Request{}
	r.Op = OpCode(rd.u8())
	r.Dir = rd.cap()
	r.Name = rd.str()
	r.Cap = rd.cap()
	nm := int(rd.u16())
	if nm > 64 {
		return nil, ErrBadRequest
	}
	for i := 0; i < nm; i++ {
		r.Masks = append(r.Masks, capability.Rights(rd.u8()))
	}
	nc := int(rd.u16())
	if nc > 64 {
		return nil, ErrBadRequest
	}
	for i := 0; i < nc; i++ {
		r.Columns = append(r.Columns, rd.str())
	}
	r.Column = int(rd.u32())
	ns := int(rd.u16())
	if ns > 4096 {
		return nil, ErrBadRequest
	}
	for i := 0; i < ns; i++ {
		var it SetItem
		it.Name = rd.str()
		it.Cap = rd.cap()
		r.Set = append(r.Set, it)
	}
	r.CheckSeed = rd.lenBytes()
	r.Seq = rd.u64()
	r.Server = int(rd.u32())
	r.Blob = rd.lenBytes()
	r.MinSeq = rd.u64()
	if rd.failed {
		return nil, ErrBadRequest
	}
	return r, nil
}

// Encode serializes the reply.
func (r *Reply) Encode() []byte {
	return r.AppendTo(make([]byte, 0, 128))
}

// AppendTo appends the serialized reply to dst (see Request.AppendTo):
// a server's initiator threads encode into the RPC worker's buffer.
func (r *Reply) AppendTo(dst []byte) []byte {
	w := writer{buf: dst}
	w.u8(uint8(r.Status))
	w.cap(r.Cap)
	w.u32(uint32(len(r.Rows)))
	for _, row := range r.Rows {
		w.str(row.Name)
		w.cap(row.Cap)
		w.u16(uint16(len(row.ColMasks)))
		for _, m := range row.ColMasks {
			w.u8(uint8(m))
		}
	}
	w.u32(uint32(len(r.Caps)))
	for _, c := range r.Caps {
		w.cap(c)
	}
	w.u64(r.Seq)
	w.u64(r.ObjSeq)
	w.bytes(r.Blob)
	return w.buf
}

// DecodeReply parses a reply.
func DecodeReply(buf []byte) (*Reply, error) {
	rd := &byteReader{buf: buf}
	r := &Reply{}
	r.Status = Status(rd.u8())
	r.Cap = rd.cap()
	nrows := int(rd.u32())
	if nrows > 1<<20 {
		return nil, ErrBadRequest
	}
	for i := 0; i < nrows; i++ {
		var row dirdata.Row
		row.Name = rd.str()
		row.Cap = rd.cap()
		nm := int(rd.u16())
		if nm > 64 {
			return nil, ErrBadRequest
		}
		for j := 0; j < nm; j++ {
			row.ColMasks = append(row.ColMasks, capability.Rights(rd.u8()))
		}
		r.Rows = append(r.Rows, row)
	}
	ncaps := int(rd.u32())
	if ncaps > 1<<20 {
		return nil, ErrBadRequest
	}
	for i := 0; i < ncaps; i++ {
		r.Caps = append(r.Caps, rd.cap())
	}
	r.Seq = rd.u64()
	r.ObjSeq = rd.u64()
	r.Blob = rd.lenBytes()
	if rd.failed {
		return nil, ErrBadRequest
	}
	return r, nil
}

// writer builds length-prefixed binary messages.
type writer struct{ buf []byte }

func newWriter() *writer { return &writer{buf: make([]byte, 0, 128)} }

func (w *writer) u8(v uint8)   { w.buf = append(w.buf, v) }
func (w *writer) u16(v uint16) { w.buf = binary.BigEndian.AppendUint16(w.buf, v) }
func (w *writer) u32(v uint32) { w.buf = binary.BigEndian.AppendUint32(w.buf, v) }
func (w *writer) u64(v uint64) { w.buf = binary.BigEndian.AppendUint64(w.buf, v) }
func (w *writer) cap(c capability.Capability) {
	w.buf = c.Encode(w.buf)
}
func (w *writer) str(s string) {
	w.u16(uint16(len(s)))
	w.buf = append(w.buf, s...)
}
func (w *writer) bytes(b []byte) {
	w.u32(uint32(len(b)))
	w.buf = append(w.buf, b...)
}

// byteReader is a bounds-checked cursor.
type byteReader struct {
	buf    []byte
	off    int
	failed bool
}

func (r *byteReader) take(n int) []byte {
	if r.failed || n < 0 || r.off+n > len(r.buf) {
		r.failed = true
		return make([]byte, max(n, 0))
	}
	out := r.buf[r.off : r.off+n]
	r.off += n
	return out
}

func (r *byteReader) u8() uint8   { return r.take(1)[0] }
func (r *byteReader) u16() uint16 { return binary.BigEndian.Uint16(r.take(2)) }
func (r *byteReader) u32() uint32 { return binary.BigEndian.Uint32(r.take(4)) }
func (r *byteReader) u64() uint64 { return binary.BigEndian.Uint64(r.take(8)) }
func (r *byteReader) str() string { return string(r.take(int(r.u16()))) }
func (r *byteReader) lenBytes() []byte {
	b := r.take(int(r.u32()))
	if len(b) == 0 {
		return nil
	}
	out := make([]byte, len(b))
	copy(out, b)
	return out
}
func (r *byteReader) cap() capability.Capability {
	c, err := capability.Decode(r.take(capability.Size))
	if err != nil {
		r.failed = true
	}
	return c
}
