// Package dirsvc holds the machinery shared by the three directory
// service implementations the paper compares: the operation wire format
// (Fig. 2), the commit block and object table layouts (Fig. 4), the
// deterministic update applier, and the NVRAM operation log of §4.1.
package dirsvc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"strings"

	"dirsvc/internal/capability"
	"dirsvc/internal/codec"
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
	// OpTxQuery is the decision query (a read): a participant left in
	// doubt asks the resolver shard how a transaction ended, with the
	// resolver's prepare as the read's MinSeq floor.
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
	// replica installs the identical image; the applier's sequence number
	// jumps to at least the snapshot's highest (Snapshot.MaxSeq).
	OpRestoreShard

	// OpTx is a cross-shard batch sent to its resolver shard: Blob is an
	// EncodePrepare payload with the whole plan (Others). The receiving
	// replica coordinates (coordinator.go) and answers an EncodeTxOutcome.
	OpTx
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
	case OpTx:
		return "tx"
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
	b := r.Dir.Encode(append(dst, uint8(r.Op)))
	b = r.Cap.Encode(codec.AppendStr(b, r.Name))
	b = binary.BigEndian.AppendUint16(b, uint16(len(r.Masks)))
	for _, m := range r.Masks {
		b = append(b, uint8(m))
	}
	b = binary.BigEndian.AppendUint16(b, uint16(len(r.Columns)))
	for _, c := range r.Columns {
		b = codec.AppendStr(b, c)
	}
	b = binary.BigEndian.AppendUint32(b, uint32(r.Column))
	b = binary.BigEndian.AppendUint16(b, uint16(len(r.Set)))
	for _, it := range r.Set {
		b = it.Cap.Encode(codec.AppendStr(b, it.Name))
	}
	b = codec.AppendBytes(b, r.CheckSeed)
	b = binary.BigEndian.AppendUint64(b, r.Seq)
	b = binary.BigEndian.AppendUint32(b, uint32(r.Server))
	b = codec.AppendBytes(b, r.Blob)
	return binary.BigEndian.AppendUint64(b, r.MinSeq)
}

// DecodeRequest parses a request into a fresh Request that shares no
// memory with buf: what a caller decodes from a buffer that may change
// (a log region, a record run, a batch blob) or keeps.
func DecodeRequest(buf []byte) (*Request, error) {
	r := &Request{}
	if err := decodeRequest(r, codec.NewReader(buf)); err != nil {
		return nil, err
	}
	return r, nil
}

// DecodeRequestInto parses a request into r, which the caller owns and
// may reuse from call to call, without copying: buf must be a received
// frame, which no one changes (see "Buffer ownership on the wire" in
// ARCHITECTURE.md). r is reset and its Masks, Columns and Set keep their
// backing arrays; its strings, CheckSeed and Blob point into buf — the
// byte slices capped at their own length, so an append never writes into
// the frame. A warm decode allocates nothing. Whatever outlives the
// caller's use of r is copied out (Request.Clone, or the keeper's own
// copy of the field it keeps).
func DecodeRequestInto(r *Request, buf []byte) error {
	return decodeRequest(r, codec.NewAliasReader(buf))
}

func decodeRequest(r *Request, rd codec.Reader) error {
	*r = Request{Masks: r.Masks[:0], Columns: r.Columns[:0], Set: r.Set[:0]}
	r.Op = OpCode(rd.U8())
	r.Dir = readCap(&rd)
	r.Name = rd.Str()
	r.Cap = readCap(&rd)
	nm := rd.Count16(1)
	if nm > 64 {
		return ErrBadRequest
	}
	for range nm {
		r.Masks = append(r.Masks, capability.Rights(rd.U8()))
	}
	nc := rd.Count16(2)
	if nc > 64 {
		return ErrBadRequest
	}
	for range nc {
		r.Columns = append(r.Columns, rd.Str())
	}
	r.Column = int(rd.U32())
	ns := rd.Count16(2 + capability.Size)
	if ns > 4096 {
		return ErrBadRequest
	}
	for range ns {
		r.Set = append(r.Set, SetItem{Name: rd.Str(), Cap: readCap(&rd)})
	}
	r.CheckSeed = rd.Bytes()
	r.Seq = rd.U64()
	r.Server = int(rd.U32())
	r.Blob = rd.Bytes()
	r.MinSeq = rd.U64()
	if rd.Failed() {
		return ErrBadRequest
	}
	return nil
}

// readCap reads a capability. A successful Take holds capability.Size
// bytes and a failed one as many zeros, so Decode cannot fail.
func readCap(rd *codec.Reader) capability.Capability {
	c, _ := capability.Decode(rd.Take(capability.Size))
	return c
}

// requestName returns the Name field of an encoded request without
// decoding the rest: a slice of raw, nil when raw is too short to hold it.
func requestName(raw []byte) []byte {
	rd := codec.NewAliasReader(raw)
	rd.Take(1 + capability.Size) // Op, Dir
	name := rd.Take(int(rd.U16()))
	if rd.Failed() {
		return nil
	}
	return name
}

// Clone returns a deep copy of r, strings included: what a holder of a
// scratch decode keeps beyond its use of the scratch (a prepared
// transaction's request).
func (r *Request) Clone() *Request {
	c := *r
	c.Name = strings.Clone(r.Name)
	c.Masks = slices.Clone(r.Masks)
	c.Columns = slices.Clone(r.Columns)
	for i, col := range c.Columns {
		c.Columns[i] = strings.Clone(col)
	}
	c.Set = slices.Clone(r.Set)
	for i := range c.Set {
		c.Set[i].Name = strings.Clone(c.Set[i].Name)
	}
	c.CheckSeed = slices.Clone(r.CheckSeed)
	c.Blob = slices.Clone(r.Blob)
	return &c
}

// Encode serializes the reply.
func (r *Reply) Encode() []byte {
	return r.AppendTo(make([]byte, 0, 128))
}

// AppendTo appends the serialized reply to dst (see Request.AppendTo):
// a server's initiator threads encode into the RPC worker's buffer.
func (r *Reply) AppendTo(dst []byte) []byte {
	b := r.Cap.Encode(append(dst, uint8(r.Status)))
	b = binary.BigEndian.AppendUint32(b, uint32(len(r.Rows)))
	for _, row := range r.Rows {
		b = row.Cap.Encode(codec.AppendStr(b, row.Name))
		b = binary.BigEndian.AppendUint16(b, uint16(len(row.ColMasks)))
		for _, m := range row.ColMasks {
			b = append(b, uint8(m))
		}
	}
	b = binary.BigEndian.AppendUint32(b, uint32(len(r.Caps)))
	for _, c := range r.Caps {
		b = c.Encode(b)
	}
	b = binary.BigEndian.AppendUint64(b, r.Seq)
	b = binary.BigEndian.AppendUint64(b, r.ObjSeq)
	return codec.AppendBytes(b, r.Blob)
}

// DecodeReply parses a reply into a fresh Reply that shares no memory
// with buf.
func DecodeReply(buf []byte) (*Reply, error) {
	r := &Reply{}
	if err := decodeReply(r, codec.NewReader(buf)); err != nil {
		return nil, err
	}
	return r, nil
}

// DecodeReplyInto parses a reply frame into r, the twin of
// DecodeRequestInto: r is reset, its Rows and Caps keep their backing
// arrays, and rows' names and the Blob point into buf. Rows' masks are
// the reply's own.
func DecodeReplyInto(r *Reply, buf []byte) error {
	return decodeReply(r, codec.NewAliasReader(buf))
}

func decodeReply(r *Reply, rd codec.Reader) error {
	*r = Reply{Rows: r.Rows[:0], Caps: r.Caps[:0]}
	r.Status = Status(rd.U8())
	r.Cap = readCap(&rd)
	for range rd.Count32(2 + capability.Size + 2) {
		row := dirdata.Row{Name: rd.Str(), Cap: readCap(&rd)}
		nm := rd.Count16(1)
		if nm > 64 {
			return ErrBadRequest
		}
		for range nm {
			row.ColMasks = append(row.ColMasks, capability.Rights(rd.U8()))
		}
		r.Rows = append(r.Rows, row)
	}
	for range rd.Count32(capability.Size) {
		r.Caps = append(r.Caps, readCap(&rd))
	}
	r.Seq = rd.U64()
	r.ObjSeq = rd.U64()
	r.Blob = rd.Bytes()
	if rd.Failed() {
		return ErrBadRequest
	}
	return nil
}
