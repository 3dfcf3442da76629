package dirsvc

import (
	"fmt"
	"testing"

	"dirsvc/internal/capability"
	"dirsvc/internal/codec/codectest"
	"dirsvc/internal/dirdata"
)

// TestGoldenEncodings pins every message this package's encoders write
// to the bytes in testdata/golden.hex, recorded from the round-trip
// tests' values: the wire, 2PC, event, state-transfer, shard-map and
// commit-block formats do not change under a rewrite of their codecs.
func TestGoldenEncodings(t *testing.T) {
	enc := map[string][]byte{}
	for i, req := range []Request{
		{Op: OpGetRoot},
		{Op: OpAppendRow, Dir: testCap(3), Name: "tmpfile", Cap: testCap(9),
			Masks: []capability.Rights{capability.AllRights, capability.RightRead, 0}},
		{Op: OpCreateDir, Columns: []string{"owner", "group", "other"}, CheckSeed: []byte{1, 2, 3, 4, 5, 6, 7, 8}},
		{Op: OpLookupSet, Dir: testCap(1), Column: 2, Set: []SetItem{{Name: "a", Cap: testCap(4)}, {Name: "b"}}},
		{Op: OpExchange, Seq: 991, Server: 2, Blob: []byte{0xde, 0xad}},
		{Op: OpListDir, Dir: testCap(7), Column: 1, MinSeq: 1 << 40},
	} {
		enc[fmt.Sprintf("request-%d", i)] = req.Encode()
	}
	enc["reply"] = (&Reply{
		Status: StatusOK,
		Cap:    testCap(7),
		Rows:   []dirdata.Row{{Name: "x", Cap: testCap(1), ColMasks: []capability.Rights{1, 2, 3}}},
		Caps:   []capability.Capability{testCap(2), {}},
		Seq:    17, ObjSeq: 9, Blob: []byte("state"),
	}).Encode()
	steps := EncodeBatchSteps(sampleSteps())
	enc["batch-steps"] = steps
	enc["batch-results"] = EncodeBatchResults([]BatchStepResult{
		{Cap: batchCap(3, "new")}, {}, {Caps: []capability.Capability{batchCap(4, "old"), {}}},
	})
	id := TxID{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}
	enc["prepare"] = EncodePrepare(&Prepare{ID: id, ResolverSeq: 9, Participants: []int{1, 3}, Steps: steps, Others: [][]byte{steps}})
	enc["tx-outcome"] = EncodeTxOutcome(&TxOutcome{Seqs: []uint64{12, 0}, Results: []BatchStepResult{{Cap: batchCap(3, "new")}, {}}})
	enc["decide"] = EncodeDecide(&Decide{ID: id, Commit: true})
	enc["event-batch"] = EncodeEventBatch(&EventBatch{
		LogID: 42, FirstIdx: 7, TTLMillis: 1500, Resync: true,
		Events: []Event{
			{Seq: 7, Op: OpAppendRow, Objects: []uint32{3, 9}},
			{Seq: 8, Op: OpDecide},
			{Seq: 9, Op: OpBatch, Objects: []uint32{1}},
		},
	})
	topo := &TopoState{Epoch: 3, Base: 2, Total: 8, MigPhase: MigTarget, MigPeer: 5, MigFloor: 1234, AllocFloor: 999}
	enc["topo"] = EncodeTopoState(topo)
	enc["not-mine"] = EncodeNotMine(7, 3)
	enc["shard-map-info"] = EncodeShardMapInfo(&ShardMapInfo{
		Topo:    TopoState{Epoch: 2, Base: 1, Total: 4, MigPhase: MigSource, MigPeer: 2, MigFloor: 42},
		Objects: 17, Stubs: 3, Moving: []uint32{3, 7, 11},
	})
	enc["snapshot"] = (&Snapshot{
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
	}).Encode()
	enc["commit-block"] = (&CommitBlock{Up: []bool{true, true, false}, Seq: 42, Recovering: true}).Encode()
	enc["commit-block-topo"] = (&CommitBlock{Up: []bool{true, false, true}, Seq: 7, Topo: topo}).Encode()
	codectest.Golden(t, "testdata/golden.hex", enc)
}
