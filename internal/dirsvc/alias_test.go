package dirsvc

import (
	"bytes"
	"fmt"
	"slices"
	"testing"
	"time"

	"dirsvc/internal/capability"
	"dirsvc/internal/sim"
	"dirsvc/internal/vdisk"
)

// aliasReplica is a log-backed replica as a server's group thread drives
// it: a RAM apply into reused results, then the update's NVRAM record and
// its engine record, with the event log attached.
type aliasReplica struct {
	f      *applierFixture
	events *Notifier
	nv     *NVLog
	eng    *Engine
	res    ApplyResult
	run    []byte // the engine record's encoder, reused as core's is
}

func newAliasReplica(t *testing.T) *aliasReplica {
	t.Helper()
	r := &aliasReplica{f: newApplier(t), events: NewNotifier(64, 0, time.Minute)}
	t.Cleanup(r.events.Close)
	r.f.applier.AttachEvents(r.events)
	var err error
	if r.nv, err = OpenNVLog(vdisk.NewNVRAM(sim.FastModel(), 24<<10)); err != nil {
		t.Fatal(err)
	}
	if r.eng, err = OpenEngine(vdisk.New(sim.FastModel(), 256)); err != nil {
		t.Fatal(err)
	}
	return r
}

func (r *aliasReplica) apply(t *testing.T, req *Request, seq uint64) *Reply {
	t.Helper()
	if err := r.f.applier.ApplyUpdateInto(req, seq, false, &r.res); err != nil {
		t.Fatalf("%v: %v", req.Op, err)
	}
	pinned := PinAllocation(req, r.res.Reply)
	if _, err := r.nv.Append(pinned, seq); err != nil {
		t.Fatal(err)
	}
	r.run = pinned.AppendTo(r.run[:0])
	if err := r.eng.AppendRun([]LogRec{{Seq: seq, Payload: r.run}}); err != nil {
		t.Fatal(err)
	}
	return r.res.Reply
}

// state renders everything the replica keeps as text: every directory
// image, every listing of the directories in dirs, the in-doubt
// transactions, the event log, and the NVRAM and engine records.
func (r *aliasReplica) state(t *testing.T, dirs []capability.Capability) string {
	t.Helper()
	a := r.f.applier
	var b bytes.Buffer
	for _, obj := range r.f.table.Objects() {
		d, ok := a.Directory(obj)
		if !ok {
			t.Fatalf("object %d has no image", obj)
		}
		fmt.Fprintf(&b, "image %d %x\n", obj, d.Encode())
	}
	for _, dir := range dirs {
		for col := 0; col < 3; col++ {
			reply := a.Read(&Request{Op: OpListDir, Dir: dir, Column: col})
			fmt.Fprintf(&b, "list %d/%d %x\n", dir.Object, col, reply.Encode())
		}
	}
	txs := a.InDoubtTxs()
	slices.SortFunc(txs, func(x, y InDoubtTx) int { return bytes.Compare(x.ID[:], y.ID[:]) })
	for _, tx := range txs {
		fmt.Fprintf(&b, "in doubt %v seq %d %x\n", tx.ID, tx.Seq, tx.Req.Encode())
	}
	r.events.mu.Lock()
	evs, _ := r.events.log.since(1)
	r.events.mu.Unlock()
	fmt.Fprintf(&b, "events %v\n", evs)
	reqs, seqs, err := r.nv.Live()
	if err != nil {
		t.Fatal(err)
	}
	for i, req := range reqs {
		fmt.Fprintf(&b, "nvram %d %x\n", seqs[i], req.Encode())
	}
	for _, rec := range r.eng.LogSuffix(0) {
		fmt.Fprintf(&b, "engine %d %x\n", rec.Seq, rec.Payload)
	}
	return b.String()
}

// TestScratchDecodeAliasSafety: a replica that applies every update from
// a scratch decode — strings and byte fields pointing into the frame —
// ends up with what a replica fed owned decodes has, even though each
// frame is overwritten with 0xFF once its update is applied. A keeper
// that does not copy what it keeps (a row's name, a column name, a
// prepared request, an NVRAM record's cancel key) shows the 0xFF bytes.
func TestScratchDecodeAliasSafety(t *testing.T) {
	scratchRep, control := newAliasReplica(t), newAliasReplica(t)
	root, err := scratchRep.f.applier.RootCap()
	if err != nil {
		t.Fatal(err)
	}
	var scratch Request // reused from update to update, as the group thread's
	var dirs []capability.Capability
	seq := uint64(0)
	step := func(name string, req *Request) *Reply {
		t.Helper()
		seq++
		frame := req.Encode()
		if err := DecodeRequestInto(&scratch, frame); err != nil {
			t.Fatal(err)
		}
		got := scratchRep.apply(t, &scratch, seq)
		for i := range frame {
			frame[i] = 0xFF
		}
		gotReply := got.Encode()
		owned, err := DecodeRequest(req.Encode())
		if err != nil {
			t.Fatal(err)
		}
		want := control.apply(t, owned, seq)
		if !bytes.Equal(gotReply, want.Encode()) {
			t.Fatalf("%s: reply from scratch %x, from an owned decode %x", name, gotReply, want.Encode())
		}
		if g, w := scratchRep.state(t, dirs), control.state(t, dirs); g != w {
			t.Fatalf("after %s, replica fed scratch decodes:\n%s\nreplica fed owned decodes:\n%s", name, g, w)
		}
		return want
	}
	masks := func(m ...capability.Rights) []capability.Rights { return m }
	all := capability.AllRights

	dir := step("create with columns", &Request{Op: OpCreateDir, Columns: []string{"owner", "staff", "world"},
		CheckSeed: []byte("created")}).Cap
	dirs = append(dirs, root, dir)
	step("append", &Request{Op: OpAppendRow, Dir: dir, Name: "first", Cap: root,
		Masks: masks(all, capability.RightRead, capability.RightRead)})
	step("append", &Request{Op: OpAppendRow, Dir: dir, Name: "second", Cap: dir, Masks: masks(all, all, 0)})
	step("append to be cancelled", &Request{Op: OpAppendRow, Dir: dir, Name: "tmp", Cap: dir, Masks: masks(all, all, all)})
	step("delete cancelling the append", &Request{Op: OpDeleteRow, Dir: dir, Name: "tmp"})
	step("chmod", &Request{Op: OpChmodRow, Dir: dir, Name: "first",
		Masks: masks(all, capability.RightRead|capability.RightWrite, 0)})
	step("append", &Request{Op: OpAppendRow, Dir: dir, Name: "third", Cap: dir, Masks: masks(all, all, all)})
	step("replace set", &Request{Op: OpReplaceSet, Dir: dir,
		Set: []SetItem{{Name: "first", Cap: dir}, {Name: "third", Cap: root}}})
	// The replace set touches "third" after its append: the delete is
	// logged rather than cancelling the append.
	step("delete behind a replace set", &Request{Op: OpDeleteRow, Dir: dir, Name: "third"})
	step("batch", &Request{Op: OpBatch, Blob: EncodeBatchSteps([]*Request{
		{Op: OpAppendRow, Dir: dir, Name: "batched", Cap: root, Masks: masks(all, all, all)},
		{Op: OpCreateDir, Columns: []string{"solo"}, CheckSeed: []byte("batched")},
	})})

	prepare := func(name string) TxID {
		id := NewTxID()
		step("prepare", &Request{Op: OpPrepare, Blob: EncodePrepare(&Prepare{ID: id, Participants: []int{0},
			Steps: EncodeBatchSteps([]*Request{{Op: OpAppendRow, Dir: dir, Name: name, Cap: root, Masks: masks(all, all, all)}}),
		})})
		return id
	}
	committed := prepare("staged")
	step("decide", &Request{Op: OpDecide, Blob: EncodeDecide(&Decide{ID: committed, Commit: true})})
	prepare("in doubt")
	if txs := control.f.applier.InDoubtTxs(); len(txs) != 1 {
		t.Fatalf("%d transactions in doubt, want 1", len(txs))
	}
}
