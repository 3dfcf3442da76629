package dirsvc

import (
	"errors"
	"testing"

	"dirsvc/internal/bullet"
	"dirsvc/internal/capability"
	"dirsvc/internal/flip"
	"dirsvc/internal/rpc"
	"dirsvc/internal/sim"
	"dirsvc/internal/vdisk"
)

// applierFixture wires an Applier to a real Bullet server over RPC, the
// way a directory server uses it.
type applierFixture struct {
	applier *Applier
	table   *ObjectTable
	disk    *vdisk.Disk
	admin   *countedStorage
	store   *bullet.Store
}

// countedStorage counts the block writes that reach the admin partition
// (the disk's own counters include the Bullet store's).
type countedStorage struct {
	vdisk.Storage
	writes int
}

func (c *countedStorage) WriteBlock(i int, data []byte) error {
	c.writes++
	return c.Storage.WriteBlock(i, data)
}

func newApplier(t testing.TB) *applierFixture { return newApplierSized(t, 2048-64) }

// newApplierSized gives the Bullet store a partition of bulletBlocks.
func newApplierSized(t testing.TB, bulletBlocks int) *applierFixture {
	t.Helper()
	net := sim.NewNetwork(sim.FastModel(), 1)
	service := "apply-test"

	bstack := flip.NewStack(net.AddNode("bullet"))
	disk := vdisk.New(sim.FastModel(), 2048)
	bpart, err := vdisk.NewPartition(disk, 64, bulletBlocks)
	if err != nil {
		t.Fatal(err)
	}
	store, err := bullet.NewStore(BulletPort(service, 1), bpart)
	if err != nil {
		t.Fatal(err)
	}
	bsrv, err := bullet.NewServer(bstack, store, 2, BulletPort(service, 1))
	if err != nil {
		t.Fatal(err)
	}

	dstack := flip.NewStack(net.AddNode("dir"))
	rc, err := rpc.NewClient(dstack)
	if err != nil {
		t.Fatal(err)
	}
	part, err := vdisk.NewPartition(disk, 0, 17)
	if err != nil {
		t.Fatal(err)
	}
	admin := &countedStorage{Storage: part}
	table, err := OpenObjectTable(admin)
	if err != nil {
		t.Fatal(err)
	}
	a := NewApplier(ServicePort(service), table, bullet.NewClient(rc, BulletPort(service, 1)))
	if err := a.FormatRoot(true); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		bsrv.Close()
		bstack.Close()
		dstack.Close()
	})
	return &applierFixture{applier: a, table: table, disk: disk, admin: admin, store: store}
}

func ownerMasks() []capability.Rights {
	return []capability.Rights{capability.AllRights, capability.AllRights, capability.AllRights}
}

func TestApplierCreateAppendLookup(t *testing.T) {
	f := newApplier(t)
	res, err := f.applier.ApplyUpdate(&Request{
		Op:        OpCreateDir,
		CheckSeed: []byte("seed-1"),
	}, 1, true)
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	dirCap := res.Reply.Cap
	if dirCap.IsZero() {
		t.Fatal("create returned zero capability")
	}

	root, err := f.applier.RootCap()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.applier.ApplyUpdate(&Request{
		Op:    OpAppendRow,
		Dir:   root,
		Name:  "d",
		Cap:   dirCap,
		Masks: ownerMasks(),
	}, 2, true); err != nil {
		t.Fatalf("append: %v", err)
	}

	reply := f.applier.Read(&Request{Op: OpLookupSet, Dir: root, Set: []SetItem{{Name: "d"}}})
	if reply.Status != StatusOK || len(reply.Caps) != 1 || reply.Caps[0] != dirCap {
		t.Fatalf("lookup reply = %+v", reply)
	}
	if reply.ObjSeq != 2 {
		t.Fatalf("directory seq = %d, want 2", reply.ObjSeq)
	}
}

func TestApplierDeterministicAcrossReplicas(t *testing.T) {
	// Two independent appliers fed the identical update stream must
	// produce identical directory images and capabilities — the active
	// replication invariant.
	a := newApplier(t)
	b := newApplier(t)
	ops := []*Request{
		{Op: OpCreateDir, CheckSeed: []byte("s1")},
		{Op: OpCreateDir, CheckSeed: []byte("s2"), Columns: []string{"owner", "other"}},
	}
	var capsA, capsB []capability.Capability
	for i, op := range ops {
		ra, err := a.applier.ApplyUpdate(op, uint64(i+1), true)
		if err != nil {
			t.Fatal(err)
		}
		rb, err := b.applier.ApplyUpdate(op, uint64(i+1), true)
		if err != nil {
			t.Fatal(err)
		}
		capsA = append(capsA, ra.Reply.Cap)
		capsB = append(capsB, rb.Reply.Cap)
	}
	for i := range capsA {
		if capsA[i] != capsB[i] {
			t.Fatalf("replicas minted different capabilities for op %d: %v vs %v", i, capsA[i], capsB[i])
		}
	}
	rootA, _ := a.applier.RootCap()
	for i, c := range capsA {
		if err := a.applier.ApplyUpdate3(rootA, c, i); err != nil {
			t.Fatal(err)
		}
	}
	dA, _ := a.applier.Directory(RootObject)
	// Replay the same appends at b.
	rootB, _ := b.applier.RootCap()
	for i, c := range capsB {
		if err := b.applier.ApplyUpdate3(rootB, c, i); err != nil {
			t.Fatal(err)
		}
	}
	dB, _ := b.applier.Directory(RootObject)
	if string(dA.Encode()) != string(dB.Encode()) {
		t.Fatal("replicas diverged: directory images differ")
	}
}

func TestApplierDeleteDirSignalsCommitSeq(t *testing.T) {
	f := newApplier(t)
	res, err := f.applier.ApplyUpdate(&Request{Op: OpCreateDir, CheckSeed: []byte("s")}, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	del, err := f.applier.ApplyUpdate(&Request{Op: OpDeleteDir, Dir: res.Reply.Cap}, 2, true)
	if err != nil {
		t.Fatalf("delete dir: %v", err)
	}
	if !del.DeletedDir {
		t.Fatal("DeletedDir not signalled: the commit block seq would never advance (§3)")
	}
	if len(del.OldBullet) != 1 {
		t.Fatalf("old bullet files = %v, want the deleted directory's image", del.OldBullet)
	}
}

func TestApplierRootDeletionRefused(t *testing.T) {
	f := newApplier(t)
	root, _ := f.applier.RootCap()
	if _, err := f.applier.ApplyUpdate(&Request{Op: OpDeleteDir, Dir: root}, 1, true); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("deleting root: %v", err)
	}
}

func TestApplierNonDurableSkipsDisk(t *testing.T) {
	f := newApplier(t)
	root, _ := f.applier.RootCap()
	before := f.disk.Stats()
	if _, err := f.applier.ApplyUpdate(&Request{
		Op: OpAppendRow, Dir: root, Name: "ram-only",
		Cap: root, Masks: ownerMasks(),
	}, 1, false); err != nil {
		t.Fatal(err)
	}
	after := f.disk.Stats()
	if after.Writes != before.Writes || after.SeqWrites != before.SeqWrites {
		t.Fatal("non-durable apply touched the disk")
	}
	// The RAM state is live.
	reply := f.applier.Read(&Request{Op: OpLookupSet, Dir: root, Set: []SetItem{{Name: "ram-only"}}})
	if reply.Status != StatusOK || reply.Caps[0].IsZero() {
		t.Fatalf("RAM apply invisible: %+v", reply)
	}
	// FlushObjects persists it.
	if _, err := f.applier.FlushObjects([]uint32{RootObject}); err != nil {
		t.Fatal(err)
	}
	flushed := f.disk.Stats()
	if flushed.Writes == after.Writes {
		t.Fatal("flush wrote nothing")
	}
}

func TestApplierCreateWithoutSeedRejected(t *testing.T) {
	f := newApplier(t)
	if _, err := f.applier.ApplyUpdate(&Request{Op: OpCreateDir}, 1, true); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("create without check seed: %v", err)
	}
}

// ApplyUpdate3 is a test helper appending entry i under a fixed name.
func (a *Applier) ApplyUpdate3(root, target capability.Capability, i int) error {
	_, err := a.ApplyUpdate(&Request{
		Op:    OpAppendRow,
		Dir:   root,
		Name:  "entry-" + string(rune('a'+i)),
		Cap:   target,
		Masks: []capability.Rights{capability.AllRights, capability.AllRights, capability.AllRights},
	}, uint64(100+i), true)
	return err
}
