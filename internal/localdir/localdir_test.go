package localdir

import (
	"context"
	"errors"
	"testing"

	"dirsvc/internal/bullet"
	"dirsvc/internal/capability"
	"dirsvc/internal/dirclient"
	"dirsvc/internal/dirsvc"
	"dirsvc/internal/flip"
	"dirsvc/internal/sim"
	"dirsvc/internal/vdisk"
)

// bgCtx is the unbounded context used where no deadline applies.
var bgCtx = context.Background()

type fixture struct {
	client *dirclient.Client
	disk   *vdisk.Disk
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	net := sim.NewNetwork(sim.FastModel(), 1)
	const service = "localdir-test"

	disk := vdisk.New(sim.FastModel(), 2048)
	bpart, err := vdisk.NewPartition(disk, 64, 2048-64)
	if err != nil {
		t.Fatal(err)
	}
	bstack := flip.NewStack(net.AddNode("bullet"))
	store, err := bullet.NewStore(dirsvc.BulletPort(service, 1), bpart)
	if err != nil {
		t.Fatal(err)
	}
	bsrv, err := bullet.NewServer(bstack, store, 2, dirsvc.BulletPort(service, 1))
	if err != nil {
		t.Fatal(err)
	}

	admin, err := vdisk.NewPartition(disk, 0, 17)
	if err != nil {
		t.Fatal(err)
	}
	dstack := flip.NewStack(net.AddNode("dir"))
	srv, err := NewServer(dstack, Config{FrontConfig: dirsvc.FrontConfig{Service: service, Admin: admin}})
	if err != nil {
		t.Fatal(err)
	}

	cstack := flip.NewStack(net.AddNode("client"))
	client, err := dirclient.New(cstack, service)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		client.Close()
		srv.Close()
		bsrv.Close()
		cstack.Close()
		dstack.Close()
		bstack.Close()
	})
	return &fixture{client: client, disk: disk}
}

func TestBasicOperations(t *testing.T) {
	f := newFixture(t)
	root, err := f.client.Root(bgCtx)
	if err != nil {
		t.Fatal(err)
	}
	dir, err := f.client.CreateDir(bgCtx)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.client.Append(bgCtx, root, "x", dir, nil); err != nil {
		t.Fatal(err)
	}
	got, err := f.client.Lookup(bgCtx, root, "x")
	if err != nil || got != dir {
		t.Fatalf("Lookup = %v, %v", got, err)
	}
	if err := f.client.Delete(bgCtx, root, "x"); err != nil {
		t.Fatal(err)
	}
	if _, err := f.client.Lookup(bgCtx, root, "x"); !errors.Is(err, dirsvc.ErrNotFound) {
		t.Fatalf("after delete: %v", err)
	}
}

// TestUpdateCostsOneDiskWrite pins the NFS-model cost: exactly one
// synchronous metadata write per update, none for reads.
func TestUpdateCostsOneDiskWrite(t *testing.T) {
	f := newFixture(t)
	root, _ := f.client.Root(bgCtx)
	dir, err := f.client.CreateDir(bgCtx)
	if err != nil {
		t.Fatal(err)
	}
	before := f.disk.Stats()
	if err := f.client.Append(bgCtx, root, "one-write", dir, nil); err != nil {
		t.Fatal(err)
	}
	mid := f.disk.Stats()
	if got := mid.Writes - before.Writes; got != 1 {
		t.Fatalf("append cost %d disk writes, want 1 (the SunOS metadata write)", got)
	}
	if _, err := f.client.Lookup(bgCtx, root, "one-write"); err != nil {
		t.Fatal(err)
	}
	after := f.disk.Stats()
	if after.Reads != mid.Reads || after.Writes != mid.Writes {
		t.Fatal("lookup touched the disk; reads must come from the cache")
	}
}

func TestRightsStillEnforced(t *testing.T) {
	// No fault tolerance does not mean no protection: capabilities are
	// still checked.
	f := newFixture(t)
	root, _ := f.client.Root(bgCtx)
	dir, err := f.client.CreateDir(bgCtx)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.client.Append(bgCtx, root, "p", dir, nil); err != nil {
		t.Fatal(err)
	}
	ro, err := capability.Restrict(dir, capability.RightRead)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.client.Append(bgCtx, ro, "q", dir, nil); !errors.Is(err, capability.ErrNoRights) {
		t.Fatalf("append via read-only cap: %v", err)
	}
}
