package dirsvc

import (
	"reflect"
	"testing"
	"time"

	"dirsvc/internal/capability"
	"dirsvc/internal/flip"
	"dirsvc/internal/sim"
	"dirsvc/internal/vdisk"
)

// fakeBackend records which hooks the front end called, in order, and
// replicates by applying to the front end's own applier.
type fakeBackend struct {
	front        *FrontEnd
	ready, floor bool
	calls        []string
	got          *Request // last replicated request
}

func (b *fakeBackend) Ready() bool {
	b.calls = append(b.calls, "ready")
	return b.ready
}

func (b *fakeBackend) WaitFloor(uint32, uint64) bool {
	b.calls = append(b.calls, "floor")
	return b.floor
}

func (b *fakeBackend) Replicate(req *Request, reply *Reply) {
	b.calls = append(b.calls, "replicate")
	b.got = req
	res, err := b.front.Applier.ApplyUpdate(req, b.front.Applier.AppliedSeq()+1, false)
	if err != nil {
		res = &ApplyResult{Reply: ErrorReply(err)}
	}
	*reply = *res.Reply
}

// took returns the hooks called since the last took.
func (b *fakeBackend) took() []string {
	calls := b.calls
	b.calls = nil
	return calls
}

// foreignObject is homed on shard 1 of the fixture's two-shard geometry,
// so shard 0 forwards requests for it.
const foreignObject = 2

// newFrontFixture builds shard 0 of a two-shard deployment on a fake
// backend that admits everything. Nothing is served over RPC: the tests
// drive Read and Update directly.
func newFrontFixture(t *testing.T) (*FrontEnd, *fakeBackend) {
	t.Helper()
	net := sim.NewNetwork(sim.FastModel(), 1)
	stack := flip.NewStack(net.AddNode("dir"))
	t.Cleanup(stack.Close)
	admin, err := vdisk.NewPartition(vdisk.New(sim.FastModel(), 64), 0, 17)
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewFrontEnd(stack, FrontConfig{Service: "front-test", ServerID: 3, Shards: 2, Admin: admin})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)
	if err := f.Applier.FormatRoot(false); err != nil {
		t.Fatal(err)
	}
	f.Applier.Advance(40)
	b := &fakeBackend{front: f, ready: true, floor: true}
	f.backend = b
	return f, b
}

// setLock plants (or clears) a prepared-transaction lock on obj.
func setLock(a *Applier, obj uint32, locked bool) {
	a.mu.Lock()
	if locked {
		a.locks[obj] = TxID{0xee}
	} else {
		delete(a.locks, obj)
	}
	a.txCond.Broadcast()
	a.mu.Unlock()
}

func wantStage(t *testing.T, what string, reply *Reply, status Status, b *fakeBackend, hooks ...string) {
	t.Helper()
	if reply.Status != status {
		t.Errorf("%s: status %v, want %v", what, reply.Status, status)
	}
	if got := b.took(); !reflect.DeepEqual(got, hooks) {
		t.Errorf("%s: hooks %v, want %v", what, got, hooks)
	}
}

// TestFrontEndReadStages pins the read path's stage order: gate → catch
// up → floor wait → lock wait → route check (OpMigRead exempt) → read.
func TestFrontEndReadStages(t *testing.T) {
	f, b := newFrontFixture(t)
	root, _ := f.Applier.RootCap()
	foreign := &Request{Op: OpListDir, Dir: capability.Capability{Object: foreignObject}}

	// A refused gate or an unreachable floor answers before the applier
	// is consulted: the lock below would hold the read for an hour.
	f.LockWait = time.Hour
	setLock(f.Applier, RootObject, true)
	b.ready = false
	wantStage(t, "gate refused", f.Read(&Request{Op: OpListDir, Dir: root}), StatusNoMajority, b, "ready")
	b.ready, b.floor = true, false
	wantStage(t, "floor unreachable", f.Read(&Request{Op: OpListDir, Dir: root}), StatusNoMajority, b, "ready", "floor")
	b.floor = true
	// The backend caught up, but the applier stays below the floor.
	f.MinSeqWait = 5 * time.Millisecond
	wantStage(t, "floor not reached", f.Read(&Request{Op: OpListDir, Dir: root, MinSeq: 41}), StatusNoMajority, b, "ready", "floor")
	setLock(f.Applier, RootObject, false)

	// Locked and homed elsewhere: the lock wait comes first.
	f.LockWait = 5 * time.Millisecond
	setLock(f.Applier, foreignObject, true)
	wantStage(t, "locked+foreign", f.Read(foreign), StatusConflict, b, "ready", "floor")
	setLock(f.Applier, foreignObject, false)
	wantStage(t, "foreign", f.Read(foreign), StatusNotMine, b, "ready", "floor")
	// The migration read skips the route check and reaches the applier.
	wantStage(t, "mig-read", f.Read(&Request{Op: OpMigRead, Dir: foreign.Dir}), StatusNotFound, b, "ready", "floor")

	served := f.ReadsServed()
	reply := f.Read(&Request{Op: OpListDir, Dir: root, MinSeq: 40})
	wantStage(t, "root", reply, StatusOK, b, "ready", "floor")
	if reply.Seq != 40 {
		t.Errorf("read stamped Seq %d, want the applier's 40", reply.Seq)
	}
	if f.ReadsServed() != served+1 {
		t.Errorf("ReadsServed = %d, want %d", f.ReadsServed(), served+1)
	}
}

// TestApplierWaitSeq: the floor wait returns as soon as an advance
// reaches the floor, gives up at its deadline, and is released by stop.
func TestApplierWaitSeq(t *testing.T) {
	f, _ := newFrontFixture(t)
	a := f.Applier
	if !a.WaitSeq(40, 0, nil) {
		t.Fatal("floor already reached: WaitSeq refused")
	}
	if a.WaitSeq(41, 5*time.Millisecond, nil) {
		t.Fatal("unreached floor: WaitSeq succeeded")
	}

	wait := func(min uint64, stop chan struct{}) chan bool {
		done := make(chan bool, 1)
		go func() { done <- a.WaitSeq(min, time.Hour, stop) }()
		time.Sleep(5 * time.Millisecond)
		return done
	}
	done := wait(42, nil)
	a.Advance(41) // short of the floor: still waiting
	a.Advance(42)
	if ok := <-done; !ok {
		t.Fatal("WaitSeq refused a floor an advance reached")
	}

	stop := make(chan struct{})
	done = wait(43, stop)
	close(stop)
	select {
	case ok := <-done:
		if ok {
			t.Fatal("WaitSeq succeeded below its floor after stop")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("stop did not release WaitSeq")
	}
}

// TestFrontEndUpdateStages pins the update path's stage order: gate →
// 2PC lock wait → route check → seeds → server stamp → replicate, and
// that a decide never waits behind the locks it releases.
func TestFrontEndUpdateStages(t *testing.T) {
	f, b := newFrontFixture(t)
	root, _ := f.Applier.RootCap()
	appendTo := func(dir capability.Capability) *Request {
		return &Request{Op: OpAppendRow, Dir: dir, Name: "n", Cap: root, Masks: ownerMasks()}
	}
	foreign := capability.Capability{Object: foreignObject}

	f.LockWait = time.Hour
	setLock(f.Applier, RootObject, true)
	b.ready = false
	wantStage(t, "gate refused", f.Update(appendTo(root)), StatusNoMajority, b, "ready")
	b.ready = true
	setLock(f.Applier, RootObject, false)

	f.LockWait = 5 * time.Millisecond
	setLock(f.Applier, foreignObject, true)
	wantStage(t, "locked+foreign", f.Update(appendTo(foreign)), StatusConflict, b, "ready")
	setLock(f.Applier, foreignObject, false)
	wantStage(t, "foreign", f.Update(appendTo(foreign)), StatusNotMine, b, "ready")

	// A create reaches the backend seeded and stamped.
	wantStage(t, "create", f.Update(&Request{Op: OpCreateDir}), StatusOK, b, "ready", "replicate")
	if b.got.Server != 3 || len(b.got.CheckSeed) == 0 {
		t.Fatalf("replicated create: Server %d, seed %x", b.got.Server, b.got.CheckSeed)
	}
	seeds := map[string]bool{string(b.got.CheckSeed): true}
	// So does every create step of a batch, each under its own seed.
	batch := NewBatchRequest([]*Request{{Op: OpCreateDir}, {Op: OpCreateDir}})
	wantStage(t, "batch", f.Update(batch), StatusOK, b, "ready", "replicate")
	steps, err := DecodeBatchSteps(b.got.Blob)
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range steps {
		seeds[string(st.CheckSeed)] = true
	}
	// The same server after a reboot starts its op count over; the boot
	// nonce keeps its seeds apart from the previous incarnation's.
	f2, b2 := newFrontFixture(t)
	wantStage(t, "create after reboot", f2.Update(&Request{Op: OpCreateDir}), StatusOK, b2, "ready", "replicate")
	seeds[string(b2.got.CheckSeed)] = true
	if len(seeds) != 4 {
		t.Fatalf("4 creates drew %d distinct check seeds", len(seeds))
	}

	// A prepared transaction locks the root; the decide that releases it
	// must go straight to the backend even with an hour of lock wait.
	f.LockWait = time.Hour
	id := NewTxID()
	prepare := &Request{Op: OpPrepare, Blob: EncodePrepare(&Prepare{
		ID: id, Participants: []int{0, 1},
		Steps: EncodeBatchSteps([]*Request{appendTo(root)}),
	})}
	wantStage(t, "prepare", f.Update(prepare), StatusOK, b, "ready", "replicate")
	if !f.Applier.Locked(RootObject) {
		t.Fatal("prepare did not lock the root")
	}
	done := make(chan *Reply, 1)
	go func() {
		done <- f.Update(&Request{Op: OpDecide, Blob: EncodeDecide(&Decide{ID: id, Commit: true})})
	}()
	select {
	case reply := <-done:
		wantStage(t, "decide", reply, StatusOK, b, "ready", "replicate")
	case <-time.After(10 * time.Second):
		t.Fatal("OpDecide parked behind the lock it releases")
	}
	if f.Applier.Locked(RootObject) {
		t.Fatal("decide did not release the root")
	}
}
