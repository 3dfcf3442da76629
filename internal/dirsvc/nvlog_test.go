package dirsvc

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"dirsvc/internal/capability"
	"dirsvc/internal/sim"
	"dirsvc/internal/vdisk"
)

// nvModel is the plain reference for NVLog: the logged operations that no
// later delete-row has cancelled, in order, and the highest sequence
// number seen.
type nvModel struct {
	ops    []nvModelOp
	maxSeq uint64
}

type nvModelOp struct {
	req *Request
	seq uint64
}

// touches restates the cancel rule's notion of "affects (dirObj, name)":
// batches and two-phase records are barriers, directory-level operations
// cover every name of their directory, row operations their own name.
func (op nvModelOp) touches(dirObj uint32, name string) bool {
	r := op.req
	switch r.Op {
	case OpBatch, OpPrepare, OpDecide:
		return true
	case OpCreateDir, OpDeleteDir:
		return r.Dir.Object == dirObj
	case OpAppendRow, OpChmodRow, OpDeleteRow:
		return r.Dir.Object == dirObj && r.Name == name
	case OpReplaceSet:
		if r.Dir.Object != dirObj {
			return false
		}
		for _, it := range r.Set {
			if it.Name == name {
				return true
			}
		}
	}
	return false
}

// after returns the model once req is logged under seq.
func (m nvModel) after(req *Request, seq uint64) nvModel {
	next := nvModel{ops: append([]nvModelOp(nil), m.ops...), maxSeq: max(m.maxSeq, seq)}
	if req.Op == OpDeleteRow {
		for i := len(next.ops) - 1; i >= 0; i-- {
			if !next.ops[i].touches(req.Dir.Object, req.Name) {
				continue
			}
			if next.ops[i].req.Op == OpAppendRow {
				next.ops = append(next.ops[:i], next.ops[i+1:]...)
				return next
			}
			break
		}
	}
	next.ops = append(next.ops, nvModelOp{req, seq})
	return next
}

// holds reports whether the log's live records are exactly the model's.
func (m nvModel) holds(l *NVLog) error {
	reqs, seqs, err := l.Live()
	if err != nil {
		return err
	}
	if len(reqs) != len(m.ops) {
		return fmt.Errorf("%d live records, model has %d", len(reqs), len(m.ops))
	}
	for i, op := range m.ops {
		if seqs[i] != op.seq || !bytes.Equal(reqs[i].Encode(), op.req.Encode()) {
			return fmt.Errorf("live record %d: %v seq %d, model has %v seq %d",
				i, reqs[i].Op, seqs[i], op.req.Op, op.seq)
		}
	}
	return nil
}

// TestNVLogCrashImagesMatchModel drives seeded random streams through a
// log small enough to compact every few dozen records and, after every
// single NVRAM write, reopens the image a crash at that point would
// leave. Each image must hold the model's records from before or after
// the append in flight — nothing else — must not claim the append's
// sequence number without its effect, and once Append returns must be
// exactly the model. The image between a compaction's write and the
// record that triggered it is one of those checked.
func TestNVLogCrashImagesMatchModel(t *testing.T) {
	const region = 4096
	masks := []capability.Rights{capability.AllRights, 0, 0}
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		nv := vdisk.NewNVRAM(sim.FastModel(), region)
		log, err := OpenNVLog(nv)
		if err != nil {
			t.Fatal(err)
		}
		var before, after nvModel
		var images, compactions, flushes int
		lastUsed := log.UsedBytes()
		nv.ObserveWrites(func() {
			images++
			image := vdisk.NewNVRAM(sim.FastModel(), region)
			if err := image.Write(0, nv.Snapshot()); err != nil {
				t.Fatal(err)
			}
			crashed, err := OpenNVLog(image)
			if err != nil {
				t.Fatalf("seed %d image %d: reopen: %v", seed, images, err)
			}
			switch crashed.MaxSeq() {
			case after.maxSeq:
				err = after.holds(crashed)
			case before.maxSeq:
				// The compacted image an append stores before its own
				// record: every other write is the whole operation.
				err = before.holds(crashed)
			default:
				err = fmt.Errorf("MaxSeq %d, model %d → %d", crashed.MaxSeq(), before.maxSeq, after.maxSeq)
			}
			if err != nil {
				t.Fatalf("seed %d image %d: %v", seed, images, err)
			}
			if used := crashed.UsedBytes(); used < lastUsed && crashed.Len() > 0 {
				compactions++ // a Clear also shrinks the log, to nothing
			}
			lastUsed = crashed.UsedBytes()
		})

		// As the service would issue them: a name is appended when absent
		// and deleted, or now and then rewritten, when present — so most
		// deletes cancel, except across a barrier or a flush.
		present := make(map[string]bool)
		for seq := uint64(1); seq <= 3000; seq++ {
			req := &Request{Dir: testCap(uint32(1 + rng.Intn(3))), Name: fmt.Sprintf("n%d", rng.Intn(6))}
			key := fmt.Sprintf("%d/%s", req.Dir.Object, req.Name)
			switch p := rng.Intn(100); {
			case p < 1:
				req.Op, req.Name, req.Blob = OpBatch, "", make([]byte, rng.Intn(200))
			case !present[key]:
				req.Op, req.Cap, req.Masks = OpAppendRow, testCap(9), masks
				present[key] = true
			case p < 4:
				req.Op, req.Masks = OpChmodRow, masks
			case p < 6:
				req.Op, req.Set = OpReplaceSet, []SetItem{{Name: req.Name, Cap: testCap(9)}}
				req.Name = ""
			default:
				req.Op = OpDeleteRow
				present[key] = false
			}
			if log.NeedsFlush() {
				// Live records fill the log: what the server's flush does.
				flushes++
				before, after = nvModel{maxSeq: after.maxSeq}, nvModel{maxSeq: after.maxSeq}
				if err := log.Clear(); err != nil {
					t.Fatal(err)
				}
			}
			before, after = after, after.after(req, seq)
			cancelled, err := log.Append(req, seq)
			if err != nil {
				t.Fatalf("seed %d seq %d: %v", seed, seq, err)
			}
			if want := len(after.ops) < len(before.ops); cancelled != want {
				t.Fatalf("seed %d seq %d: cancelled = %v, model says %v", seed, seq, cancelled, want)
			}
			if err := after.holds(log); err != nil {
				t.Fatalf("seed %d seq %d: %v", seed, seq, err)
			}
			if log.MaxSeq() != after.maxSeq {
				t.Fatalf("seed %d seq %d: MaxSeq %d", seed, seq, log.MaxSeq())
			}
		}
		if compactions < 10 || flushes == 0 {
			t.Fatalf("seed %d: %d compactions and %d flushes in %d images; the stream must exercise both",
				seed, compactions, flushes, images)
		}
	}
}

// TestNVLogOneWritePerOperation counts the NVRAM writes of each log
// operation: an append, a cancel and a Clear are one write each, and an
// append that compacts first is two — the compacted front, then its own
// record.
func TestNVLogOneWritePerOperation(t *testing.T) {
	nv := vdisk.NewNVRAM(sim.FastModel(), 2048)
	log, err := OpenNVLog(nv)
	if err != nil {
		t.Fatal(err)
	}
	writes := 0
	nv.ObserveWrites(func() { writes++ })
	expect := func(what string, want int, op func() error) {
		t.Helper()
		writes = 0
		if err := op(); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if writes != want {
			t.Fatalf("%s: %d NVRAM writes, want %d", what, writes, want)
		}
	}
	masks := []capability.Rights{capability.AllRights, 0, 0}
	seq := uint64(0)
	appendRow := func(name string) func() error {
		return func() error {
			seq++
			_, err := log.Append(&Request{Op: OpAppendRow, Dir: testCap(1), Name: name, Cap: testCap(5), Masks: masks}, seq)
			return err
		}
	}
	deleteRow := func(name string) func() error {
		return func() error {
			seq++
			cancelled, err := log.Append(&Request{Op: OpDeleteRow, Dir: testCap(1), Name: name}, seq)
			if err == nil && !cancelled {
				err = fmt.Errorf("delete of %q did not cancel", name)
			}
			return err
		}
	}
	expect("append", 1, appendRow("a"))
	expect("cancel", 1, deleteRow("a"))
	expect("clear", 1, log.Clear)

	expect("append", 1, appendRow("keep"))
	for i := 0; ; i++ {
		name := fmt.Sprintf("tmp%d", i)
		before := log.UsedBytes()
		writes = 0
		if err := appendRow(name)(); err != nil {
			t.Fatal(err)
		}
		if log.UsedBytes() < before {
			if writes != 2 {
				t.Fatalf("compacting append: %d NVRAM writes, want 2", writes)
			}
			break
		}
		if writes != 1 {
			t.Fatalf("append %d: %d NVRAM writes, want 1", i, writes)
		}
		expect("cancel", 1, deleteRow(name))
	}
}

// TestNVLogReplayBoundary pins where replay stops: at a record of an
// older generation, which a Clear leaves behind; at a record whose
// checksum fails; and it finds a cancelled append's record carrying the
// delete's sequence number.
func TestNVLogReplayBoundary(t *testing.T) {
	masks := []capability.Rights{capability.AllRights, 0, 0}
	row := func(name string) *Request {
		return &Request{Op: OpAppendRow, Dir: testCap(1), Name: name, Cap: testCap(5), Masks: masks}
	}
	open := func(t *testing.T, nv *vdisk.NVRAM) *NVLog {
		t.Helper()
		log, err := OpenNVLog(nv)
		if err != nil {
			t.Fatal(err)
		}
		return log
	}
	logAll := func(t *testing.T, log *NVLog, reqs ...*Request) {
		t.Helper()
		for _, req := range reqs {
			if _, err := log.Append(req, log.MaxSeq()+1); err != nil {
				t.Fatal(err)
			}
		}
	}
	live := func(t *testing.T, log *NVLog) string {
		t.Helper()
		reqs, seqs, err := log.Live()
		if err != nil {
			t.Fatal(err)
		}
		out := ""
		for i, req := range reqs {
			out += fmt.Sprintf("%s@%d ", req.Name, seqs[i])
		}
		return out
	}

	t.Run("older generation after Clear", func(t *testing.T) {
		nv := vdisk.NewNVRAM(sim.FastModel(), 4096)
		log := open(t, nv)
		logAll(t, log, row("a"), row("b"))
		if err := log.Clear(); err != nil {
			t.Fatal(err)
		}
		if got := live(t, open(t, nv)); got != "" {
			t.Fatalf("after Clear: live %q", got)
		}
		// c overwrites a exactly; b, intact behind it, is of the
		// generation before the Clear.
		logAll(t, log, row("c"))
		reopened := open(t, nv)
		if got := live(t, reopened); got != "c@3 " || reopened.MaxSeq() != 3 {
			t.Fatalf("live %q, MaxSeq %d; want c@3 and 3", got, reopened.MaxSeq())
		}
	})

	t.Run("bad checksum ends the log", func(t *testing.T) {
		nv := vdisk.NewNVRAM(sim.FastModel(), 4096)
		log := open(t, nv)
		logAll(t, log, row("a"), row("b"))
		tail := log.UsedBytes()
		logAll(t, log, row("c"))
		at := tail + nvRecHeaderSize + 1
		b, err := nv.Read(at, 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := nv.Write(at, []byte{b[0] ^ 0x40}); err != nil {
			t.Fatal(err)
		}
		if got := live(t, open(t, nv)); got != "a@1 b@2 " {
			t.Fatalf("live %q, want a@1 b@2", got)
		}
	})

	t.Run("cancel keeps the delete's seq", func(t *testing.T) {
		nv := vdisk.NewNVRAM(sim.FastModel(), 4096)
		log := open(t, nv)
		logAll(t, log, row("a"), row("b"))
		cancelled, err := log.Append(&Request{Op: OpDeleteRow, Dir: testCap(1), Name: "a"}, 7)
		if err != nil || !cancelled {
			t.Fatalf("delete of a: cancelled %v, err %v", cancelled, err)
		}
		reopened := open(t, nv)
		if got := live(t, reopened); got != "b@2 " || reopened.MaxSeq() != 7 {
			t.Fatalf("live %q, MaxSeq %d; want b@2 and the delete's 7", got, reopened.MaxSeq())
		}
	})
}

// TestNVLogCompactionKeepsLiveRecords pins the reclaim rule on the
// paper's region size: cancelled pairs never push the log past the flush
// mark, whatever they leave behind one long-lived record survives every
// compaction, and a log of live records alone still asks for its flush.
func TestNVLogCompactionKeepsLiveRecords(t *testing.T) {
	nv := vdisk.NewNVRAM(sim.FastModel(), vdisk.DefaultNVRAMSize)
	log, err := OpenNVLog(nv)
	if err != nil {
		t.Fatal(err)
	}
	masks := []capability.Rights{capability.AllRights, 0, 0}
	if _, err := log.Append(&Request{Op: OpAppendRow, Dir: testCap(1), Name: "keep", Cap: testCap(5), Masks: masks}, 1); err != nil {
		t.Fatal(err)
	}
	seq := uint64(1)
	for i := 0; i < 2000; i++ {
		name := fmt.Sprintf("tmp%04d", i)
		for _, req := range []*Request{
			{Op: OpAppendRow, Dir: testCap(2), Name: name, Cap: testCap(5), Masks: masks},
			{Op: OpDeleteRow, Dir: testCap(2), Name: name},
		} {
			seq++
			if _, err := log.Append(req, seq); err != nil {
				t.Fatalf("pair %d: %v", i, err)
			}
			if log.NeedsFlush() {
				t.Fatalf("pair %d: cancelled pairs pushed the log to %d bytes", i, log.UsedBytes())
			}
		}
	}
	reopened, err := OpenNVLog(nv)
	if err != nil {
		t.Fatal(err)
	}
	reqs, seqs, err := reopened.Live()
	if err != nil || len(reqs) != 1 || reqs[0].Name != "keep" || seqs[0] != 1 || reopened.MaxSeq() != seq {
		t.Fatalf("after 2000 pairs: live %v seqs %v maxSeq %d err %v", reqs, seqs, reopened.MaxSeq(), err)
	}

	// Nothing to reclaim: the flush request comes back, and past it the
	// region's end.
	for !log.NeedsFlush() {
		seq++
		if _, err := log.Append(&Request{Op: OpAppendRow, Dir: testCap(1), Name: fmt.Sprintf("live%d", seq), Cap: testCap(5), Masks: masks}, seq); err != nil {
			t.Fatal(err)
		}
	}
	huge := &Request{Op: OpBatch, Blob: make([]byte, vdisk.DefaultNVRAMSize)}
	if _, err := log.Append(huge, seq+1); !errors.Is(err, ErrLogFull) {
		t.Fatalf("record larger than the region: err = %v, want ErrLogFull", err)
	}
	if n := log.Len(); n < 100 {
		t.Fatalf("live-bound log holds %d records", n)
	}
}

var benchCancelled bool

// BenchmarkNVLogAppendCancel measures one append-row plus the delete-row
// that cancels it on zero-latency NVRAM, with one long-lived record in
// the log so the periodic compaction has something to move.
func BenchmarkNVLogAppendCancel(b *testing.B) {
	log, err := OpenNVLog(vdisk.NewNVRAM(sim.FastModel(), vdisk.DefaultNVRAMSize))
	if err != nil {
		b.Fatal(err)
	}
	masks := []capability.Rights{capability.AllRights, 0, 0}
	if _, err := log.Append(&Request{Op: OpAppendRow, Dir: testCap(1), Name: "keep", Cap: testCap(5), Masks: masks}, 1); err != nil {
		b.Fatal(err)
	}
	app := &Request{Op: OpAppendRow, Dir: testCap(2), Name: "tmp-file-name", Cap: testCap(5), Masks: masks}
	del := &Request{Op: OpDeleteRow, Dir: testCap(2), Name: "tmp-file-name"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seq := uint64(2 + 2*i)
		if _, err := log.Append(app, seq); err != nil {
			b.Fatal(err)
		}
		if benchCancelled, err = log.Append(del, seq+1); err != nil || !benchCancelled {
			b.Fatalf("pair %d: cancelled %v, err %v", i, benchCancelled, err)
		}
	}
}
