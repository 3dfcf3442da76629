package dirsvc

import (
	"errors"
	"reflect"
	"testing"
	"testing/quick"

	"dirsvc/internal/capability"
	"dirsvc/internal/dirdata"
	"dirsvc/internal/sim"
	"dirsvc/internal/vdisk"
)

func testCap(obj uint32) capability.Capability {
	return capability.Mint(ServicePort("t"), obj, capability.NewSecret([]byte{byte(obj)}))
}

func TestRequestEncodeDecodeRoundTrip(t *testing.T) {
	tests := []struct {
		name string
		req  Request
	}{
		{name: "empty", req: Request{Op: OpGetRoot}},
		{
			name: "append",
			req: Request{
				Op:    OpAppendRow,
				Dir:   testCap(3),
				Name:  "tmpfile",
				Cap:   testCap(9),
				Masks: []capability.Rights{capability.AllRights, capability.RightRead, 0},
			},
		},
		{
			name: "create",
			req: Request{
				Op:        OpCreateDir,
				Columns:   []string{"owner", "group", "other"},
				CheckSeed: []byte{1, 2, 3, 4, 5, 6, 7, 8},
			},
		},
		{
			name: "lookup set",
			req: Request{
				Op:     OpLookupSet,
				Dir:    testCap(1),
				Column: 2,
				Set:    []SetItem{{Name: "a", Cap: testCap(4)}, {Name: "b"}},
			},
		},
		{
			name: "internal",
			req: Request{
				Op:     OpExchange,
				Seq:    991,
				Server: 2,
				Blob:   []byte{0xde, 0xad},
			},
		},
		{
			name: "read with session floor",
			req: Request{
				Op:     OpListDir,
				Dir:    testCap(7),
				Column: 1,
				MinSeq: 1 << 40,
			},
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := DecodeRequest(tt.req.Encode())
			if err != nil {
				t.Fatalf("DecodeRequest: %v", err)
			}
			if !reflect.DeepEqual(*got, tt.req) {
				t.Fatalf("round trip:\n got %+v\nwant %+v", got, tt.req)
			}
		})
	}
}

func TestReplyEncodeDecodeRoundTrip(t *testing.T) {
	reply := Reply{
		Status: StatusOK,
		Cap:    testCap(7),
		Rows: []dirdata.Row{
			{Name: "x", Cap: testCap(1), ColMasks: []capability.Rights{1, 2, 3}},
		},
		Caps:   []capability.Capability{testCap(2), {}},
		Seq:    17,
		ObjSeq: 9,
		Blob:   []byte("state"),
	}
	got, err := DecodeReply(reply.Encode())
	if err != nil {
		t.Fatalf("DecodeReply: %v", err)
	}
	if !reflect.DeepEqual(*got, reply) {
		t.Fatalf("round trip:\n got %+v\nwant %+v", got, reply)
	}
}

func TestDecodeGarbage(t *testing.T) {
	if _, err := DecodeRequest([]byte{1, 2}); err == nil {
		t.Fatal("DecodeRequest of garbage succeeded")
	}
	if _, err := DecodeReply(nil); err == nil {
		t.Fatal("DecodeReply of nil succeeded")
	}
}

func TestStatusErrRoundTrip(t *testing.T) {
	statuses := []Status{
		StatusOK, StatusNotFound, StatusExists, StatusBadCapability,
		StatusNoRights, StatusNoMajority, StatusConflict, StatusBadRequest, StatusError,
	}
	for _, s := range statuses {
		if got := StatusOf(s.Err()); got != s {
			t.Fatalf("StatusOf(%v.Err()) = %v", s, got)
		}
	}
	if StatusOf(dirdata.ErrNotFound) != StatusNotFound {
		t.Fatal("dirdata.ErrNotFound not mapped")
	}
	if StatusOf(dirdata.ErrExists) != StatusExists {
		t.Fatal("dirdata.ErrExists not mapped")
	}
}

func TestCommitBlockRoundTrip(t *testing.T) {
	c := &CommitBlock{Up: []bool{true, true, false}, Seq: 42, Recovering: true}
	got, err := DecodeCommitBlock(c.Encode(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, c) {
		t.Fatalf("round trip: got %+v want %+v", got, c)
	}
}

func TestCommitBlockZeroDecodesFresh(t *testing.T) {
	got, err := DecodeCommitBlock(make([]byte, vdisk.BlockSize), 3)
	if err != nil {
		t.Fatal(err)
	}
	if got.Seq != 0 || got.Recovering || !reflect.DeepEqual(got.Up, make([]bool, 3)) {
		t.Fatalf("fresh block = %+v", got)
	}
}

func TestCommitBlockDiskRoundTrip(t *testing.T) {
	disk := vdisk.New(sim.FastModel(), 64)
	c := &CommitBlock{Up: []bool{true, false, true}, Seq: 7}
	if err := c.Write(disk); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCommitBlock(disk, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, c) {
		t.Fatalf("disk round trip: %+v vs %+v", got, c)
	}
}

func newTestTable(t *testing.T) (*ObjectTable, *vdisk.Disk) {
	t.Helper()
	disk := vdisk.New(sim.FastModel(), 128)
	table, err := OpenObjectTable(disk)
	if err != nil {
		t.Fatal(err)
	}
	return table, disk
}

func TestObjectTableSetGetDelete(t *testing.T) {
	table, _ := newTestTable(t)
	e := ObjectEntry{Cap: testCap(5), Seq: 9, Secret: capability.NewSecret([]byte("s"))}
	table.SetRAM(5, e)
	got, ok := table.Get(5)
	if !ok || got != e {
		t.Fatalf("Get = %+v, %v", got, ok)
	}
	if table.MaxSeq() != 9 {
		t.Fatalf("MaxSeq = %d", table.MaxSeq())
	}
	table.DeleteRAM(5)
	if _, ok := table.Get(5); ok {
		t.Fatal("entry survives DeleteRAM")
	}
}

func TestObjectTableNextFreeIsDeterministic(t *testing.T) {
	table, _ := newTestTable(t)
	if got := table.NextFree(); got != 1 {
		t.Fatalf("NextFree on empty = %d", got)
	}
	table.SetRAM(1, ObjectEntry{Seq: 1})
	table.SetRAM(2, ObjectEntry{Seq: 1})
	table.SetRAM(4, ObjectEntry{Seq: 1})
	if got := table.NextFree(); got != 3 {
		t.Fatalf("NextFree with hole = %d", got)
	}
}

func TestShardServiceNaming(t *testing.T) {
	// Shard 0 keeps the base name — wire-compatible with the unsharded
	// service — while other shards get their own (and thus their own
	// ports); single-shard deployments are the identity.
	if got := ShardService("svc", 0, 1); got != "svc" {
		t.Fatalf("ShardService(svc,0,1) = %q", got)
	}
	if got := ShardService("svc", 0, 4); got != "svc" {
		t.Fatalf("ShardService(svc,0,4) = %q", got)
	}
	got1, got2 := ShardService("svc", 1, 4), ShardService("svc", 2, 4)
	if got1 == "svc" || got2 == "svc" || got1 == got2 {
		t.Fatalf("shard names not distinct: %q, %q", got1, got2)
	}
	if ServicePort(got1) == ServicePort(got2) || ServicePort(got1) == ServicePort("svc") {
		t.Fatal("shard service ports collide")
	}
}

func TestObjectTableShardAllocation(t *testing.T) {
	// Shard 2 of 4 allocates only numbers ≡ 3 (mod 4): the residue class
	// that dir.ShardOf routes back to shard 2.
	table, _ := newTestTable(t)
	table.ConfigureShard(2, 4)
	if got := table.NextFree(); got != 3 {
		t.Fatalf("NextFree = %d, want 3", got)
	}
	table.SetRAM(3, ObjectEntry{Seq: 1})
	if got := table.NextFree(); got != 7 {
		t.Fatalf("NextFree after 3 = %d, want 7", got)
	}
	// The shard's own root (object 1, outside its residue class) does not
	// disturb allocation.
	table.SetRAM(1, ObjectEntry{Seq: 1})
	if got := table.NextFree(); got != 7 {
		t.Fatalf("NextFree with root = %d, want 7", got)
	}
	// Batch allocation skips both used and reserved numbers, staying in
	// the residue class.
	if got := table.NextFreeExcept(func(obj uint32) bool { return obj == 7 }); got != 11 {
		t.Fatalf("NextFreeExcept = %d, want 11", got)
	}

	// Shard 0 of 4 owns 1, 5, 9, ... and the root occupies 1.
	t0, _ := newTestTable(t)
	t0.ConfigureShard(0, 4)
	t0.SetRAM(1, ObjectEntry{Seq: 1})
	if got := t0.NextFree(); got != 5 {
		t.Fatalf("shard-0 NextFree = %d, want 5", got)
	}

	// ConfigureShard with one shard is the identity.
	t1, _ := newTestTable(t)
	t1.ConfigureShard(0, 1)
	if got := t1.NextFree(); got != 1 {
		t.Fatalf("unsharded NextFree = %d, want 1", got)
	}
}

func TestObjectTablePersistsAcrossOpen(t *testing.T) {
	table, disk := newTestTable(t)
	e1 := ObjectEntry{Cap: testCap(1), Seq: 3, Secret: capability.NewSecret([]byte("a"))}
	e2 := ObjectEntry{Cap: testCap(40), Seq: 8, Secret: capability.NewSecret([]byte("b"))}
	table.SetRAM(1, e1)
	table.SetRAM(40, e2) // second block
	if err := table.FlushBlocks(table.RAMDirtyObjects()); err != nil {
		t.Fatal(err)
	}
	reopened, err := OpenObjectTable(disk)
	if err != nil {
		t.Fatal(err)
	}
	for obj, want := range map[uint32]ObjectEntry{1: e1, 40: e2} {
		got, ok := reopened.Get(obj)
		if !ok || got != want {
			t.Fatalf("object %d after reopen: %+v, %v", obj, got, ok)
		}
	}
	if objs := reopened.Objects(); len(objs) != 2 || objs[0] != 1 || objs[1] != 40 {
		t.Fatalf("Objects = %v", objs)
	}
}

// TestObjectTableKeepsUnflushedEntriesOffDisk: an entry whose directory
// has no Bullet file yet — created since the last NVRAM flush — is
// written as a free slot when another entry of its block is flushed, so
// a crash before its own flush leaves no slot naming a missing file; the
// NVRAM log's records recreate it.
func TestObjectTableKeepsUnflushedEntriesOffDisk(t *testing.T) {
	table, disk := newTestTable(t)
	table.SetRAM(1, ObjectEntry{Cap: testCap(1), Seq: 4})
	table.SetRAM(2, ObjectEntry{Seq: 5}) // same block, not flushed yet
	if err := table.FlushBlocks([]uint32{1}); err != nil {
		t.Fatal(err)
	}
	reopened, err := OpenObjectTable(disk)
	if err != nil {
		t.Fatal(err)
	}
	if want := map[uint32]ObjectEntry{1: {Cap: testCap(1), Seq: 4}}; !reflect.DeepEqual(reopened.All(), want) {
		t.Fatalf("after reopen: %+v", reopened.All())
	}
}

// TestObjectTableFlushWritesEachBlockOnce: slots change in RAM only, and
// FlushBlocks is the one way they reach the disk — one write per block
// however many of its slots changed, entries, stubs and cleared slots
// alike. An entry with no Bullet file yet stays free on disk
// (TestObjectTableKeepsUnflushedEntriesOffDisk).
func TestObjectTableFlushWritesEachBlockOnce(t *testing.T) {
	table, disk := newTestTable(t)
	entry := ObjectEntry{Cap: testCap(2), Seq: 10, Secret: capability.NewSecret([]byte("x"))}
	table.SetRAM(1, ObjectEntry{Seq: 1})
	table.SetRAM(2, entry)
	table.SetStubRAM(4, StubEntry{Target: 1, Seq: 12})
	table.SetRAM(50, ObjectEntry{Cap: testCap(50), Seq: 2}) // fourth block
	table.DeleteRAM(1)
	if got := disk.Stats().Writes; got != 0 {
		t.Fatalf("RAM mutators wrote %d blocks", got)
	}
	dirty := table.RAMDirtyObjects()
	if !reflect.DeepEqual(dirty, []uint32{1, 2, 4, 50}) {
		t.Fatalf("RAM-dirty = %v", dirty)
	}
	if err := table.FlushBlocks(dirty); err != nil {
		t.Fatal(err)
	}
	if got := disk.Stats().Writes; got != 2 {
		t.Fatalf("flush of four slots in two blocks cost %d writes, want 2", got)
	}
	if left := table.RAMDirtyObjects(); len(left) != 0 {
		t.Fatalf("still dirty after flush: %v", left)
	}
	reopened, err := OpenObjectTable(disk)
	if err != nil {
		t.Fatal(err)
	}
	if want := map[uint32]ObjectEntry{2: entry, 50: {Cap: testCap(50), Seq: 2}}; !reflect.DeepEqual(reopened.All(), want) {
		t.Fatalf("after reopen: %+v", reopened.All())
	}
	if st, ok := reopened.Stub(4); !ok || st.Target != 1 || st.Seq != 12 {
		t.Fatalf("stub after reopen: %+v, %v", st, ok)
	}
}

func TestQuickCommitBlockRoundTrip(t *testing.T) {
	f := func(up [5]bool, seq uint64, rec bool) bool {
		c := &CommitBlock{Up: up[:], Seq: seq, Recovering: rec}
		got, err := DecodeCommitBlock(c.Encode(), 5)
		return err == nil && reflect.DeepEqual(got, c)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickRequestRoundTrip(t *testing.T) {
	f := func(op uint8, name string, seed []byte, seq uint64, col uint16) bool {
		if len(name) > 255 {
			name = name[:255]
		}
		if len(seed) == 0 {
			seed = nil // the wire format canonicalizes empty to absent
		}
		req := Request{
			Op:        OpCode(op),
			Dir:       testCap(1),
			Name:      name,
			CheckSeed: seed,
			Seq:       seq,
			Column:    int(col),
		}
		got, err := DecodeRequest(req.Encode())
		return err == nil && reflect.DeepEqual(*got, req)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestNVLogAppendReplay(t *testing.T) {
	nv := vdisk.NewNVRAM(sim.FastModel(), vdisk.DefaultNVRAMSize)
	log, err := OpenNVLog(nv)
	if err != nil {
		t.Fatal(err)
	}
	req1 := &Request{Op: OpAppendRow, Dir: testCap(1), Name: "a", Cap: testCap(5),
		Masks: []capability.Rights{capability.AllRights, 0, 0}}
	req2 := &Request{Op: OpChmodRow, Dir: testCap(1), Name: "a",
		Masks: []capability.Rights{capability.RightRead, 0, 0}}
	if _, err := log.Append(req1, 10); err != nil {
		t.Fatal(err)
	}
	if _, err := log.Append(req2, 11); err != nil {
		t.Fatal(err)
	}

	// Crash: reopen from the same NVRAM.
	log2, err := OpenNVLog(nv)
	if err != nil {
		t.Fatal(err)
	}
	reqs, seqs, err := log2.Live()
	if err != nil {
		t.Fatal(err)
	}
	if len(reqs) != 2 || seqs[0] != 10 || seqs[1] != 11 {
		t.Fatalf("replayed %d records, seqs %v", len(reqs), seqs)
	}
	if reqs[0].Op != OpAppendRow || reqs[1].Op != OpChmodRow {
		t.Fatalf("replayed ops %v, %v", reqs[0].Op, reqs[1].Op)
	}
	if log2.MaxSeq() != 11 {
		t.Fatalf("MaxSeq = %d", log2.MaxSeq())
	}
}

func TestNVLogTmpOptimizationCancelsPairs(t *testing.T) {
	nv := vdisk.NewNVRAM(sim.FastModel(), vdisk.DefaultNVRAMSize)
	log, err := OpenNVLog(nv)
	if err != nil {
		t.Fatal(err)
	}
	appendReq := &Request{Op: OpAppendRow, Dir: testCap(1), Name: "tmp001", Cap: testCap(5),
		Masks: []capability.Rights{capability.AllRights, 0, 0}}
	deleteReq := &Request{Op: OpDeleteRow, Dir: testCap(1), Name: "tmp001"}
	if _, err := log.Append(appendReq, 1); err != nil {
		t.Fatal(err)
	}
	cancelled, err := log.Append(deleteReq, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !cancelled {
		t.Fatal("append+delete pair not cancelled")
	}
	if log.Len() != 0 {
		t.Fatalf("log has %d live records after cancellation", log.Len())
	}
	// maxSeq still reflects that updates happened (recovery correctness).
	if log.MaxSeq() != 2 {
		t.Fatalf("MaxSeq = %d, want 2", log.MaxSeq())
	}
}

func TestNVLogNoCancelAcrossInterveningOp(t *testing.T) {
	nv := vdisk.NewNVRAM(sim.FastModel(), vdisk.DefaultNVRAMSize)
	log, _ := OpenNVLog(nv)
	masks := []capability.Rights{capability.AllRights, 0, 0}
	_, _ = log.Append(&Request{Op: OpAppendRow, Dir: testCap(1), Name: "f", Cap: testCap(5), Masks: masks}, 1)
	_, _ = log.Append(&Request{Op: OpChmodRow, Dir: testCap(1), Name: "f", Masks: masks}, 2)
	cancelled, err := log.Append(&Request{Op: OpDeleteRow, Dir: testCap(1), Name: "f"}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if cancelled {
		t.Fatal("cancelled across an intervening chmod")
	}
	if log.Len() != 3 {
		t.Fatalf("live records = %d, want 3", log.Len())
	}
}

func TestNVLogNoCancelDifferentDirOrName(t *testing.T) {
	nv := vdisk.NewNVRAM(sim.FastModel(), vdisk.DefaultNVRAMSize)
	log, _ := OpenNVLog(nv)
	masks := []capability.Rights{capability.AllRights, 0, 0}
	_, _ = log.Append(&Request{Op: OpAppendRow, Dir: testCap(1), Name: "f", Cap: testCap(5), Masks: masks}, 1)
	if c, _ := log.Append(&Request{Op: OpDeleteRow, Dir: testCap(2), Name: "f"}, 2); c {
		t.Fatal("cancelled across directories")
	}
	if c, _ := log.Append(&Request{Op: OpDeleteRow, Dir: testCap(1), Name: "g"}, 3); c {
		t.Fatal("cancelled across names")
	}
}

func TestNVLogFull(t *testing.T) {
	nv := vdisk.NewNVRAM(sim.FastModel(), 256)
	log, err := OpenNVLog(nv)
	if err != nil {
		t.Fatal(err)
	}
	big := &Request{Op: OpAppendRow, Dir: testCap(1), Name: "padding-name-to-fill-nvram",
		Cap: testCap(5), Masks: []capability.Rights{capability.AllRights, 0, 0}}
	var sawFull bool
	for i := 0; i < 10; i++ {
		if _, err := log.Append(big, uint64(i)); err != nil {
			if !errors.Is(err, ErrLogFull) {
				t.Fatalf("unexpected error: %v", err)
			}
			sawFull = true
			break
		}
	}
	if !sawFull {
		t.Fatal("log never reported full")
	}
}

func TestNVLogClearResets(t *testing.T) {
	nv := vdisk.NewNVRAM(sim.FastModel(), vdisk.DefaultNVRAMSize)
	log, _ := OpenNVLog(nv)
	masks := []capability.Rights{capability.AllRights, 0, 0}
	_, _ = log.Append(&Request{Op: OpAppendRow, Dir: testCap(1), Name: "f", Cap: testCap(5), Masks: masks}, 5)
	if err := log.Clear(); err != nil {
		t.Fatal(err)
	}
	if log.Len() != 0 || log.NeedsFlush() {
		t.Fatal("log not empty after Clear")
	}
	if log.MaxSeq() != 5 {
		t.Fatalf("MaxSeq lost by Clear: %d", log.MaxSeq())
	}
	// And reopen still sees the cleared state.
	log2, err := OpenNVLog(nv)
	if err != nil {
		t.Fatal(err)
	}
	if log2.Len() != 0 || log2.MaxSeq() != 5 {
		t.Fatalf("reopened: len=%d maxSeq=%d", log2.Len(), log2.MaxSeq())
	}
}
