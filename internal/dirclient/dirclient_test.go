package dirclient

import (
	"context"
	"errors"
	"testing"

	"dirsvc/internal/bullet"
	"dirsvc/internal/capability"
	"dirsvc/internal/dirsvc"
	"dirsvc/internal/flip"
	"dirsvc/internal/localdir"
	"dirsvc/internal/sim"
	"dirsvc/internal/vdisk"
)

// bgCtx is the unbounded context used where no deadline applies.
var bgCtx = context.Background()

// newService boots a single-server directory service with its Bullet
// backend — enough to exercise the full client surface.
func newService(t *testing.T) *Client {
	t.Helper()
	return newServiceWith(t, Options{})
}

// newServiceWith is newService with a client built from opts.
func newServiceWith(t *testing.T, opts Options) *Client {
	t.Helper()
	net := sim.NewNetwork(sim.FastModel(), 1)
	const service = "client-test"

	bstack := flip.NewStack(net.AddNode("bullet"))
	bdisk := vdisk.New(sim.FastModel(), 2048)
	store, err := bullet.NewStore(dirsvc.BulletPort(service, 1), bdisk)
	if err != nil {
		t.Fatal(err)
	}
	bsrv, err := bullet.NewServer(bstack, store, 2, dirsvc.BulletPort(service, 1))
	if err != nil {
		t.Fatal(err)
	}

	dstack := flip.NewStack(net.AddNode("dir"))
	adisk := vdisk.New(sim.FastModel(), 64)
	admin, err := vdisk.NewPartition(adisk, 0, 17)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := localdir.NewServer(dstack, localdir.Config{FrontConfig: dirsvc.FrontConfig{Service: service, Admin: admin}})
	if err != nil {
		t.Fatal(err)
	}

	cstack := flip.NewStack(net.AddNode("client"))
	client, err := NewWithOptions(cstack, service, opts)
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
	return client
}

func TestRootCached(t *testing.T) {
	c := newService(t)
	r1, err := c.Root(bgCtx)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := c.Root(bgCtx)
	if err != nil || r1 != r2 {
		t.Fatalf("Root not cached: %v vs %v (%v)", r1, r2, err)
	}
}

func TestFullOperationSurface(t *testing.T) {
	c := newService(t)
	root, err := c.Root(bgCtx)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := c.CreateDir(bgCtx, "owner", "other")
	if err != nil {
		t.Fatalf("CreateDir: %v", err)
	}
	masks := []capability.Rights{capability.AllRights, capability.RightRead, capability.RightRead}
	if err := c.Append(bgCtx, root, "sub", sub, masks); err != nil {
		t.Fatalf("Append with masks: %v", err)
	}
	// Chmod.
	if err := c.Chmod(bgCtx, root, "sub", []capability.Rights{capability.AllRights, 0, 0}); err != nil {
		t.Fatalf("Chmod: %v", err)
	}
	// LookupSet with a missing entry: zero capability in its slot.
	caps, err := c.LookupSet(bgCtx, root, []string{"sub", "ghost"})
	if err != nil {
		t.Fatalf("LookupSet: %v", err)
	}
	if len(caps) != 2 || caps[0].IsZero() || !caps[1].IsZero() {
		t.Fatalf("LookupSet = %v", caps)
	}
	// ReplaceSet returns old capabilities.
	other, err := c.CreateDir(bgCtx)
	if err != nil {
		t.Fatal(err)
	}
	olds, err := c.ReplaceSet(bgCtx, root, []dirsvc.SetItem{{Name: "sub", Cap: other}})
	if err != nil {
		t.Fatalf("ReplaceSet: %v", err)
	}
	if len(olds) != 1 || olds[0] != sub {
		t.Fatalf("ReplaceSet olds = %v, want [%v]", olds, sub)
	}
	got, err := c.Lookup(bgCtx, root, "sub")
	if err != nil || got != other {
		t.Fatalf("Lookup after replace = %v, %v", got, err)
	}
	// ReplaceSet on a missing name fails.
	if _, err := c.ReplaceSet(bgCtx, root, []dirsvc.SetItem{{Name: "nope", Cap: other}}); !errors.Is(err, dirsvc.ErrNotFound) {
		t.Fatalf("ReplaceSet missing: %v", err)
	}
	if err := c.Delete(bgCtx, root, "sub"); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if err := c.DeleteDir(bgCtx, other); err != nil {
		t.Fatalf("DeleteDir: %v", err)
	}
	if err := c.DeleteDir(bgCtx, sub); err != nil {
		t.Fatalf("DeleteDir sub: %v", err)
	}
}

func TestLookupMissingIsNotFound(t *testing.T) {
	c := newService(t)
	root, _ := c.Root(bgCtx)
	if _, err := c.Lookup(bgCtx, root, "missing"); !errors.Is(err, dirsvc.ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
}
