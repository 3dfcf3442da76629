package core

import (
	"errors"
	"fmt"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"dirsvc/internal/capability"
	"dirsvc/internal/dirsvc"
	"dirsvc/internal/flip"
	"dirsvc/internal/group"
	"dirsvc/internal/sim"
	"dirsvc/internal/vdisk"
)

// failingStore is an engine partition whose writes fail while failing is
// set: a disk that went bad under a running server.
type failingStore struct {
	vdisk.Storage
	failing atomic.Bool
}

var errDiskDown = errors.New("disk down")

func (f *failingStore) check() error {
	if f.failing.Load() {
		return errDiskDown
	}
	return nil
}

func (f *failingStore) WriteBlock(i int, data []byte) error {
	if err := f.check(); err != nil {
		return err
	}
	return f.Storage.WriteBlock(i, data)
}

func (f *failingStore) WriteBlockSeq(i int, data []byte) error {
	if err := f.check(); err != nil {
		return err
	}
	return f.Storage.WriteBlockSeq(i, data)
}

func (f *failingStore) WriteRun(start int, data []byte) error {
	if err := f.check(); err != nil {
		return err
	}
	return f.Storage.WriteRun(start, data)
}

func (f *failingStore) WriteRunSeq(start int, data []byte) error {
	if err := f.check(); err != nil {
		return err
	}
	return f.Storage.WriteRunSeq(start, data)
}

// TestEngineWriteFailureIsNotAcknowledged: when an engine server can
// neither log an update nor fold it into a checkpoint, the update is not
// answered OK — an append, and a shard restore, whose only durable copy
// is a checkpoint. The failed append stays on the pending run, so once
// the disk is back the write that carries the next update logs it first.
func TestEngineWriteFailureIsNotAcknowledged(t *testing.T) {
	model := sim.FastModel()
	admin, part := engineDisk(t, model)
	store := &failingStore{Storage: part}
	stack := newStack(t, sim.NewNetwork(model, 1))
	srv, err := NewServer(stack, Config{
		FrontConfig:       dirsvc.FrontConfig{Service: "engine-fail", ServerID: 1, Replicas: 1, Admin: admin},
		Peers:             map[int]sim.NodeID{1: stack.Node().ID()},
		Engine:            store,
		HeartbeatInterval: 15 * time.Millisecond,
		IdleFlush:         time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	root, err := srv.front.Applier.RootCap()
	if err != nil {
		t.Fatal(err)
	}
	appendRow := func(name string) *dirsvc.Reply { return appendRowAt(srv, root, name) }
	if reply := appendRow("before"); reply.Status != dirsvc.StatusOK {
		t.Fatalf("append on a good disk: %v", reply.Status.Err())
	}
	backup := srv.front.Applier.SnapshotState(srv.front.Applier.AppliedSeq(), 0).Encode()

	store.failing.Store(true)
	if reply := appendRow("lost"); reply.Status == dirsvc.StatusOK {
		t.Fatal("append answered OK with neither a log record nor a checkpoint on disk")
	}
	if reply := srv.front.Update(&dirsvc.Request{Op: dirsvc.OpRestoreShard, Blob: backup}); reply.Status == dirsvc.StatusOK {
		t.Fatal("restore answered OK without its checkpoint on disk")
	}

	store.failing.Store(false)
	if reply := appendRow("after"); reply.Status != dirsvc.StatusOK {
		t.Fatalf("append once the disk is back: %v", reply.Status.Err())
	}
	reopened, err := dirsvc.OpenEngine(part)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, rec := range reopened.LogSuffix(reopened.CheckpointSeq()) {
		if req, err := dirsvc.DecodeRequest(rec.Payload); err == nil {
			names = append(names, req.Name)
		}
	}
	if len(names) < 2 || names[len(names)-2] != "lost" || names[len(names)-1] != "after" {
		t.Fatalf("log ends with rows %q, want the failed append and then the next", names)
	}
}

// TestEngineOrphanIsLoggedAtOnce: the initiator of an acknowledged update
// crashes while the other replicas still hold its message queued in the
// group layer, undelivered. Delivery is view-synchronous, so each
// survivor applies the message first and then the reset's new view, whose
// commit-block write drops the initiator. That write syncs the record
// first: once a survivor's block no longer names the initiator, a crash of
// the survivors leaves the update on the disks of a last set that
// recovers without the initiator.
func TestEngineOrphanIsLoggedAtOnce(t *testing.T) {
	g := bootEngineGroup(t, 3)
	s1, survivors := g.servers[1], g.servers[2:]
	root, err := s1.front.Applier.RootCap()
	if err != nil {
		t.Fatal(err)
	}
	if reply := appendRowAt(s1, root, "warm"); reply.Status != dirsvc.StatusOK {
		t.Fatalf("append: %v", reply.Status.Err())
	}

	// Stall the survivors' group threads on the next message, so the one
	// after it stays queued in their group layers.
	for _, s := range survivors {
		s.applyMu.Lock()
	}
	stalled := true
	release := func() {
		if stalled {
			for _, s := range survivors {
				s.applyMu.Unlock()
			}
			stalled = false
		}
	}
	defer release()
	for _, name := range []string{"stall", "orphan"} {
		if reply := appendRowAt(s1, root, name); reply.Status != dirsvc.StatusOK {
			t.Fatalf("append %s: %v", name, reply.Status.Err())
		}
	}
	seq := s1.front.Applier.AppliedSeq()
	g.stacks[1].Node().Crash()
	s1.Close()

	for _, s := range survivors {
		s.mu.Lock()
		member := s.member
		s.mu.Unlock()
		if err := waitUntil(5*time.Second, func() error {
			if state, _, _ := member.Summary(); state != group.StateFailed {
				return fmt.Errorf("server %d's member is %v, want failed", s.cfg.ServerID, state)
			}
			if info := member.Info(); info.Buffered <= info.Delivered {
				return fmt.Errorf("server %d holds nothing undelivered", s.cfg.ServerID)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	release()

	for _, s := range survivors {
		id := s.cfg.ServerID
		g.awaitApplied(t, id, seq)
		if err := waitUntil(5*time.Second, func() error {
			cb, err := dirsvc.ReadCommitBlock(g.admins[id], 3)
			if err == nil && cb.Up[0] {
				err = fmt.Errorf("server %d's commit block still names server 1 up", id)
			}
			return err
		}); err != nil {
			t.Fatal(err)
		}
		if !g.onDisk(t, id, seq) {
			t.Fatalf("server %d applied seq %d from an initiator its commit block dropped, but its disk lacks it", id, seq)
		}
	}
}

// TestEngineViewChangeWritesItsOwnView: a survivor whose group thread
// lags holds two view changes queued, with an update of server 1 between
// them, and the second drops server 1. Each view change's commit-block
// write names the view at its own place in the stream, not the view the
// survivor's group layer is in by then. So the first still names server 1
// up, and no block drops server 1 before its update is applied and, by
// the write's sync, on disk.
func TestEngineViewChangeWritesItsOwnView(t *testing.T) {
	const lagging = 2
	var orphan atomic.Uint64 // server 1's update between the view changes
	var parts []*vdisk.Partition
	early := make(chan string, 1)
	g := bootWatchedEngineGroup(t, 5, func(id int, cb *dirsvc.CommitBlock) {
		seq := orphan.Load()
		if id != lagging || seq == 0 || cb.Up[0] {
			return
		}
		if held, err := engineHolds(parts[id], seq); err != nil || !held {
			select {
			case early <- fmt.Sprintf("server %d wrote a block dropping server 1 while its disk lacked seq %d (%v)", id, seq, err):
			default:
			}
		}
	})
	parts = g.parts
	s1, s2 := g.servers[1], g.servers[lagging]
	root, err := s1.front.Applier.RootCap()
	if err != nil {
		t.Fatal(err)
	}
	if reply := appendRowAt(s1, root, "warm"); reply.Status != dirsvc.StatusOK {
		t.Fatalf("append: %v", reply.Status.Err())
	}

	s2.applyMu.Lock()
	stalled := true
	release := func() {
		if stalled {
			s2.applyMu.Unlock()
			stalled = false
		}
	}
	defer release()
	if reply := appendRowAt(s1, root, "stall"); reply.Status != dirsvc.StatusOK {
		t.Fatalf("append stall: %v", reply.Status.Err())
	}
	s2.mu.Lock()
	member := s2.member
	s2.mu.Unlock()
	// crash stops server id and waits until the lagging survivor's group
	// layer has installed the view without it, and server 1 serves in it.
	crash := func(id, members int) {
		t.Helper()
		gone := g.stacks[id].Node().ID()
		g.stacks[id].Node().Crash()
		g.servers[id].Close()
		if err := waitUntil(5*time.Second, func() error {
			info := member.Info()
			if info.State != group.StateNormal || len(info.Members) != members || slices.Contains(info.Members, gone) {
				return fmt.Errorf("server %d's member: %+v, want a view of %d without node %d", lagging, info, members, gone)
			}
			if id != 1 && !s1.Ready() {
				return errors.New("server 1 cannot serve")
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	crash(5, 4)
	if reply := appendRowAt(s1, root, "orphan"); reply.Status != dirsvc.StatusOK {
		t.Fatalf("append orphan: %v", reply.Status.Err())
	}
	seq := s1.front.Applier.AppliedSeq()
	orphan.Store(seq)
	crash(1, 3)
	release()

	g.awaitApplied(t, lagging, seq)
	if err := waitUntil(5*time.Second, func() error {
		cb, err := dirsvc.ReadCommitBlock(g.admins[lagging], 5)
		if err == nil && cb.Up[0] {
			err = fmt.Errorf("server %d's commit block still names server 1 up", lagging)
		}
		return err
	}); err != nil {
		t.Fatal(err)
	}
	select {
	case msg := <-early:
		t.Fatal(msg)
	default:
	}
	if !g.onDisk(t, lagging, seq) {
		t.Fatalf("server %d's commit block dropped server 1, but its disk lacks seq %d", lagging, seq)
	}
}

// engineGroup is n engine servers on one network, indexed by server id
// (index 0 unused).
type engineGroup struct {
	stacks  []*flip.Stack
	admins  []*vdisk.Partition
	parts   []*vdisk.Partition
	servers []*Server
}

// awaitApplied waits until server id has applied seq and the batch that
// applied it is done. A batch writes what it must before it lets go of
// applyMu, so what the disk holds then is what a crash would leave.
func (g *engineGroup) awaitApplied(t *testing.T, id int, seq uint64) {
	t.Helper()
	s := g.servers[id]
	if err := waitUntil(5*time.Second, func() error {
		if got := s.front.Applier.AppliedSeq(); got < seq {
			return fmt.Errorf("server %d applied %d, want %d", id, got, seq)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	s.applyMu.Lock()
	s.applyMu.Unlock()
}

// onDisk reports whether server id's engine partition holds seq, in its
// checkpoint or its log.
func (g *engineGroup) onDisk(t *testing.T, id int, seq uint64) bool {
	t.Helper()
	logged, err := engineHolds(g.parts[id], seq)
	if err != nil {
		t.Fatal(err)
	}
	return logged
}

// engineHolds reports whether an engine partition holds seq, in its
// checkpoint or its log.
func engineHolds(part *vdisk.Partition, seq uint64) (bool, error) {
	disk, err := dirsvc.OpenEngine(part)
	if err != nil {
		return false, err
	}
	logged := disk.CheckpointSeq() >= seq
	for _, rec := range disk.LogSuffix(0) {
		logged = logged || rec.Seq == seq
	}
	return logged, nil
}

// blockWatch is an admin partition that shows every commit block written
// to it to watch before the write lands.
type blockWatch struct {
	vdisk.Storage
	replicas int
	watch    func(cb *dirsvc.CommitBlock)
}

func (b *blockWatch) WriteBlock(i int, data []byte) error {
	if cb, err := dirsvc.DecodeCommitBlock(data, b.replicas); i == 0 && err == nil {
		b.watch(cb)
	}
	return b.Storage.WriteBlock(i, data)
}

func (g *engineGroup) close() {
	for i := range g.stacks {
		if g.servers[i] != nil {
			g.servers[i].Close()
		}
		if g.stacks[i] != nil {
			g.stacks[i].Close()
		}
	}
}

// bootEngineGroup boots n engine servers together and waits until all of
// them form one group. A boot that splits into two groups is retried.
func bootEngineGroup(t *testing.T, n int) *engineGroup {
	t.Helper()
	return bootWatchedEngineGroup(t, n, nil)
}

// bootWatchedEngineGroup is bootEngineGroup, and shows every commit block
// a server writes to watch, if set, with the server's id.
func bootWatchedEngineGroup(t *testing.T, n int, watch func(id int, cb *dirsvc.CommitBlock)) *engineGroup {
	t.Helper()
	for attempt := 1; ; attempt++ {
		g, err := tryBootEngineGroup(t, n, watch)
		if err == nil {
			t.Cleanup(g.close)
			return g
		}
		g.close()
		if attempt == 3 {
			t.Fatal(err)
		}
	}
}

func tryBootEngineGroup(t *testing.T, n int, watch func(id int, cb *dirsvc.CommitBlock)) (*engineGroup, error) {
	model := sim.FastModel()
	net := sim.NewNetwork(model, 1)
	g := &engineGroup{
		stacks:  make([]*flip.Stack, n+1),
		admins:  make([]*vdisk.Partition, n+1),
		parts:   make([]*vdisk.Partition, n+1),
		servers: make([]*Server, n+1),
	}
	peers := make(map[int]sim.NodeID, n)
	for id := 1; id <= n; id++ {
		g.stacks[id] = flip.NewStack(net.AddNode(fmt.Sprintf("dir%d", id)))
		peers[id] = g.stacks[id].Node().ID()
		g.admins[id], g.parts[id] = engineDisk(t, model)
	}
	errs := make(chan error, n)
	for id := 1; id <= n; id++ {
		go func() {
			var admin vdisk.Storage = g.admins[id]
			if watch != nil {
				admin = &blockWatch{Storage: admin, replicas: n, watch: func(cb *dirsvc.CommitBlock) { watch(id, cb) }}
			}
			var err error
			g.servers[id], err = NewServer(g.stacks[id], Config{
				FrontConfig:       dirsvc.FrontConfig{Service: "engine-group", ServerID: id, Replicas: n, Admin: admin},
				Peers:             peers,
				Engine:            g.parts[id],
				HeartbeatInterval: 30 * time.Millisecond,
				IdleFlush:         time.Hour,
			})
			errs <- err
		}()
	}
	var bootErr error
	for range n {
		if err := <-errs; err != nil {
			bootErr = err
		}
	}
	if bootErr != nil {
		return g, bootErr
	}
	return g, waitUntil(5*time.Second, func() error {
		for _, s := range g.servers[1:] {
			if st := s.Status(); st.Members != n || st.Recovering {
				return fmt.Errorf("server %d: %d members, recovering %v", st.ID, st.Members, st.Recovering)
			}
		}
		return nil
	})
}

// engineDisk returns the admin and engine partitions of a fresh disk.
func engineDisk(t *testing.T, model *sim.LatencyModel) (admin, part *vdisk.Partition) {
	t.Helper()
	disk := vdisk.New(model, 256)
	admin, err := vdisk.NewPartition(disk, 0, 17)
	if err != nil {
		t.Fatal(err)
	}
	part, err = vdisk.NewPartition(disk, 17, 128)
	if err != nil {
		t.Fatal(err)
	}
	return admin, part
}

// appendRowAt appends row name to directory d through srv.
func appendRowAt(srv *Server, d capability.Capability, name string) *dirsvc.Reply {
	return srv.front.Update(&dirsvc.Request{
		Op: dirsvc.OpAppendRow, Dir: d, Name: name, Cap: d,
		Masks: []capability.Rights{capability.AllRights, capability.AllRights, capability.AllRights},
	})
}

// waitUntil polls check every millisecond until it returns nil or the
// timeout passes, and returns its last error then.
func waitUntil(timeout time.Duration, check func() error) error {
	deadline := time.Now().Add(timeout)
	for {
		err := check()
		if err == nil || time.Now().After(deadline) {
			return err
		}
		time.Sleep(time.Millisecond)
	}
}
