package dirsvc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"dirsvc/internal/capability"
	"dirsvc/internal/codec"
)

// BatchVersion is the wire version of the OpBatch payload. Decoders
// reject other versions, so the format can evolve without silent
// misinterpretation.
const BatchVersion = 1

// MaxBatchSteps bounds one batch (wire sanity limit).
const MaxBatchSteps = 1024

// ErrBatchVersion is returned when an OpBatch payload carries an
// unsupported version byte.
var ErrBatchVersion = fmt.Errorf("unsupported batch version: %w", ErrBadRequest)

// BatchError reports which step of an atomic batch failed. The batch as a
// whole had no effect.
type BatchError struct {
	Index int   // zero-based step index
	Err   error // the step's failure
}

func (e *BatchError) Error() string {
	return fmt.Sprintf("batch step %d: %v", e.Index, e.Err)
}

func (e *BatchError) Unwrap() error { return e.Err }

// BatchStepResult is the per-step outcome of a successfully applied
// batch.
type BatchStepResult struct {
	Cap  capability.Capability   // create-dir: the new directory's capability
	Caps []capability.Capability // replace-set: the previous capabilities
}

// NewBatchRequest packs update steps into a single OpBatch request.
func NewBatchRequest(steps []*Request) *Request {
	return &Request{Op: OpBatch, Blob: EncodeBatchSteps(steps)}
}

// EncodeBatchSteps serializes batch steps as the versioned OpBatch blob.
func EncodeBatchSteps(steps []*Request) []byte {
	b := binary.BigEndian.AppendUint16(append(make([]byte, 0, 128), BatchVersion), uint16(len(steps)))
	for _, st := range steps {
		b = codec.AppendBytes(b, st.Encode())
	}
	return b
}

// DecodeBatchSteps parses an OpBatch blob. Every step must itself be an
// update operation; nested batches and reads are rejected.
func DecodeBatchSteps(blob []byte) ([]*Request, error) {
	// Each step's bytes are read in place: DecodeRequest copies what the
	// step keeps.
	rd := codec.NewAliasReader(blob)
	if v := rd.U8(); !rd.Failed() && v != BatchVersion {
		return nil, ErrBatchVersion
	}
	n := rd.Count16(4)
	if n == 0 || n > MaxBatchSteps {
		return nil, ErrBadRequest
	}
	steps := make([]*Request, 0, n)
	for i := range n {
		st, err := DecodeRequest(rd.Bytes())
		if err != nil {
			return nil, err
		}
		if st.Op == OpBatch || !st.Op.IsUpdate() {
			return nil, fmt.Errorf("batch step %d: op %v not allowed: %w", i, st.Op, ErrBadRequest)
		}
		steps = append(steps, st)
	}
	if !rd.Done() {
		return nil, ErrBadRequest
	}
	return steps, nil
}

// EncodeBatchResults serializes the per-step results of an applied batch
// (the reply blob).
func EncodeBatchResults(results []BatchStepResult) []byte {
	b := binary.BigEndian.AppendUint16(append(make([]byte, 0, 128), BatchVersion), uint16(len(results)))
	for _, res := range results {
		b = binary.BigEndian.AppendUint16(res.Cap.Encode(b), uint16(len(res.Caps)))
		for _, c := range res.Caps {
			b = c.Encode(b)
		}
	}
	return b
}

// DecodeBatchResults parses a batch reply blob.
func DecodeBatchResults(blob []byte) ([]BatchStepResult, error) {
	rd := codec.NewReader(blob)
	if v := rd.U8(); !rd.Failed() && v != BatchVersion {
		return nil, ErrBatchVersion
	}
	n := rd.Count16(capability.Size + 2)
	if n > MaxBatchSteps {
		return nil, ErrBadRequest
	}
	results := make([]BatchStepResult, 0, n)
	for range n {
		res := BatchStepResult{Cap: readCap(&rd)}
		nc := rd.Count16(capability.Size)
		if nc > MaxBatchSteps {
			return nil, ErrBadRequest
		}
		for range nc {
			res.Caps = append(res.Caps, readCap(&rd))
		}
		results = append(results, res)
	}
	if !rd.Done() {
		return nil, ErrBadRequest
	}
	return results, nil
}

// EncodeBatchFailIndex serializes the failing step index for an error
// reply's blob.
func EncodeBatchFailIndex(idx int) []byte {
	return binary.BigEndian.AppendUint32(nil, uint32(idx))
}

// DecodeBatchFailIndex recovers the failing step index from an error
// reply's blob; ok is false when the blob does not carry one.
func DecodeBatchFailIndex(blob []byte) (int, bool) {
	rd := codec.NewReader(blob)
	idx := int(rd.U32())
	return idx, rd.Done()
}

// EnsureBatchSeeds fills the CheckSeed of every create-dir step that has
// none, using seed(i) for step i. The initiator must do this before an
// update is replicated so every replica mints identical capabilities
// (§3.1). It reports whether any seed was added (the request blob must
// then be re-encoded).
func EnsureBatchSeeds(steps []*Request, seed func(step int) []byte) bool {
	changed := false
	for i, st := range steps {
		if st.Op == OpCreateDir && len(st.CheckSeed) == 0 {
			st.CheckSeed = seed(i)
			changed = true
		}
	}
	return changed
}

// PinAllocation returns req as a recovery log has to record it once it
// applied with reply: every directory it created — as a single update or
// as a step of a batch or prepare — carries the object number the
// allocator chose, so a replay after a persisted topology change (an
// online split moves the allocator's residue class and floor) mints the
// capability the client was given, not a fresh number. req itself is
// returned when it created nothing.
func PinAllocation(req *Request, reply *Reply) *Request {
	switch req.Op {
	case OpCreateDir:
		if req.Dir.Object == 0 {
			pinned := *req
			pinned.Dir.Object = reply.Cap.Object
			return &pinned
		}
	case OpBatch:
		if blob := pinnedSteps(req.Blob, reply.Blob); blob != nil {
			pinned := *req
			pinned.Blob = blob
			return &pinned
		}
	case OpPrepare:
		if p, err := DecodePrepare(req.Blob); err == nil {
			if blob := pinnedSteps(p.Steps, reply.Blob); blob != nil {
				p.Steps = blob
				pinned := *req
				pinned.Blob = EncodePrepare(p)
				return &pinned
			}
		}
	}
	return req
}

// pinnedSteps re-encodes a steps blob with every create-dir step that
// left the allocation to the applier stamped with the object number its
// result carries; nil when there is no such step. Only creates have a
// result capability, so most blobs are never decoded.
func pinnedSteps(stepsBlob, resultsBlob []byte) []byte {
	results, err := DecodeBatchResults(resultsBlob)
	if err != nil || !slices.ContainsFunc(results, func(r BatchStepResult) bool { return !r.Cap.IsZero() }) {
		return nil
	}
	steps, err := DecodeBatchSteps(stepsBlob)
	if err != nil || len(steps) != len(results) {
		return nil
	}
	changed := false
	for i, st := range steps {
		if st.Op == OpCreateDir && st.Dir.Object == 0 {
			st.Dir.Object = results[i].Cap.Object
			changed = true
		}
	}
	if !changed {
		return nil
	}
	return EncodeBatchSteps(steps)
}

// ErrorReply builds the error reply for a failed update, carrying the
// failing step index when the update was a batch.
func ErrorReply(err error) *Reply {
	reply := &Reply{Status: StatusOf(err)}
	var be *BatchError
	if errors.As(err, &be) {
		reply.Blob = EncodeBatchFailIndex(be.Index)
	}
	return reply
}
