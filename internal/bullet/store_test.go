package bullet

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"testing/quick"

	"dirsvc/internal/capability"
	"dirsvc/internal/sim"
	"dirsvc/internal/vdisk"
)

func newStore(t *testing.T) (*Store, *vdisk.Disk) {
	t.Helper()
	disk := vdisk.New(sim.FastModel(), 4096)
	s, err := NewStore(capability.PortFromString("bullet-test"), disk)
	if err != nil {
		t.Fatal(err)
	}
	return s, disk
}

func TestCreateReadDelete(t *testing.T) {
	s, _ := newStore(t)
	data := []byte("directory image v1")
	cap1, err := s.Create(data)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	got, err := s.Read(cap1)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("Read = %q", got)
	}
	n, err := s.Size(cap1)
	if err != nil || n != len(data) {
		t.Fatalf("Size = %d, %v", n, err)
	}
	if err := s.Delete(cap1); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if _, err := s.Read(cap1); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Read after delete: %v", err)
	}
	if s.Objects() != 0 {
		t.Fatalf("Objects = %d", s.Objects())
	}
}

func TestEmptyFile(t *testing.T) {
	s, _ := newStore(t)
	cap1, err := s.Create(nil)
	if err != nil {
		t.Fatalf("Create empty: %v", err)
	}
	got, err := s.Read(cap1)
	if err != nil || len(got) != 0 {
		t.Fatalf("Read empty = %v, %v", got, err)
	}
}

func TestFilesAreImmutableCopies(t *testing.T) {
	s, _ := newStore(t)
	data := []byte("original")
	cap1, _ := s.Create(data)
	data[0] = 'X' // caller mutation after create must not leak in
	got, _ := s.Read(cap1)
	if string(got) != "original" {
		t.Fatalf("create aliased caller buffer: %q", got)
	}
	got[0] = 'Y' // reader mutation must not corrupt the cache
	again, _ := s.Read(cap1)
	if string(again) != "original" {
		t.Fatalf("read aliased cache: %q", again)
	}
}

func TestCapabilityEnforcement(t *testing.T) {
	s, _ := newStore(t)
	owner, _ := s.Create([]byte("secret data"))

	forged := owner
	forged.Check = capability.Check{1, 2, 3, 4, 5, 6}
	if _, err := s.Read(forged); !errors.Is(err, capability.ErrBadCapability) {
		t.Fatalf("forged read: %v", err)
	}

	readOnly, err := capability.Restrict(owner, capability.RightRead)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Read(readOnly); err != nil {
		t.Fatalf("read with read-only cap: %v", err)
	}
	if err := s.Delete(readOnly); !errors.Is(err, capability.ErrNoRights) {
		t.Fatalf("delete with read-only cap: %v", err)
	}
}

func TestTooBig(t *testing.T) {
	s, _ := newStore(t)
	if _, err := s.Create(make([]byte, MaxFileSize+1)); !errors.Is(err, ErrTooBig) {
		t.Fatalf("err = %v, want ErrTooBig", err)
	}
}

// TestFullFileTableRefusesCreate: once the file table region holds all
// the entries it can, Create fails with ErrNoSpace and changes nothing,
// so every acknowledged file is in the table OpenStore reads back.
func TestFullFileTableRefusesCreate(t *testing.T) {
	port := capability.PortFromString("full")
	disk := vdisk.New(sim.FastModel(), tableBlocks+1600)
	s, err := NewStore(port, disk)
	if err != nil {
		t.Fatal(err)
	}
	var acked []capability.Capability
	for range 1600 {
		c, err := s.Create([]byte("x"))
		if errors.Is(err, ErrNoSpace) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		acked = append(acked, c)
	}
	if len(acked) != maxFiles || s.Objects() != maxFiles {
		t.Fatalf("%d creates acknowledged, %d files; the table holds %d", len(acked), s.Objects(), maxFiles)
	}
	reopened, err := OpenStore(port, disk)
	if err != nil {
		t.Fatalf("OpenStore after filling the table: %v", err)
	}
	for _, c := range acked {
		if data, err := reopened.Read(c); err != nil || string(data) != "x" {
			t.Fatalf("acknowledged file %d: %q, %v", c.Object, data, err)
		}
	}
}

func TestOutOfSpaceAndReuse(t *testing.T) {
	disk := vdisk.New(sim.FastModel(), tableBlocks+8)
	s, err := NewStore(capability.PortFromString("tiny"), disk)
	if err != nil {
		t.Fatal(err)
	}
	// 8 data blocks: two 4-block files fill the store.
	c1, err := s.Create(make([]byte, 4*vdisk.BlockSize))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Create(make([]byte, 4*vdisk.BlockSize)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Create([]byte("x")); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("err = %v, want ErrNoSpace", err)
	}
	// Deleting frees space for reuse.
	if err := s.Delete(c1); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Create(make([]byte, 3*vdisk.BlockSize)); err != nil {
		t.Fatalf("Create after free: %v", err)
	}
}

func TestCrashRecoveryViaOpenStore(t *testing.T) {
	disk := vdisk.New(sim.FastModel(), 4096)
	port := capability.PortFromString("bullet-recover")
	s, err := NewStore(port, disk)
	if err != nil {
		t.Fatal(err)
	}
	var caps []capability.Capability
	for i := 0; i < 5; i++ {
		c, err := s.Create(fmt.Appendf(nil, "file-%d", i))
		if err != nil {
			t.Fatal(err)
		}
		caps = append(caps, c)
	}
	if err := s.Delete(caps[2]); err != nil {
		t.Fatal(err)
	}

	// "Crash": drop the store, reopen from the same disk.
	s2, err := OpenStore(port, disk)
	if err != nil {
		t.Fatalf("OpenStore: %v", err)
	}
	for i, c := range caps {
		data, err := s2.Read(c)
		if i == 2 {
			if !errors.Is(err, ErrNotFound) {
				t.Fatalf("deleted file %d after recovery: %v", i, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("file %d after recovery: %v", i, err)
		}
		if want := fmt.Sprintf("file-%d", i); string(data) != want {
			t.Fatalf("file %d = %q, want %q", i, data, want)
		}
	}
	// Allocation must not clobber surviving files.
	c6, err := s2.Create(bytes.Repeat([]byte("z"), 3*vdisk.BlockSize))
	if err != nil {
		t.Fatal(err)
	}
	if data, err := s2.Read(caps[4]); err != nil || string(data) != "file-4" {
		t.Fatalf("file 4 clobbered after post-recovery create: %q, %v", data, err)
	}
	if data, err := s2.Read(c6); err != nil || len(data) != 3*vdisk.BlockSize {
		t.Fatalf("new file bad after recovery: %d bytes, %v", len(data), err)
	}
}

func TestDiskChargesPerCreate(t *testing.T) {
	s, disk := newStore(t)
	before := disk.Stats()
	if _, err := s.Create([]byte("x")); err != nil {
		t.Fatal(err)
	}
	after := disk.Stats()
	// One random write (the file) + one short-seek write (the table).
	if after.Writes-before.Writes != 1 || after.SeqWrites-before.SeqWrites != 1 {
		t.Fatalf("create cost: writes %d→%d seq %d→%d",
			before.Writes, after.Writes, before.SeqWrites, after.SeqWrites)
	}
	// Cached read: no disk access at all.
	caps, _ := s.Create([]byte("y"))
	mid := disk.Stats()
	if _, err := s.Read(caps); err != nil {
		t.Fatal(err)
	}
	end := disk.Stats()
	if end.Reads != mid.Reads {
		t.Fatal("cached read touched the disk")
	}
}

// Property: create/read round-trips arbitrary contents, including across
// a simulated crash.
func TestQuickCreateReadRecover(t *testing.T) {
	disk := vdisk.New(sim.FastModel(), 1<<16)
	port := capability.PortFromString("bullet-quick")
	s, err := NewStore(port, disk)
	if err != nil {
		t.Fatal(err)
	}
	f := func(data []byte) bool {
		if len(data) > 4*vdisk.BlockSize {
			data = data[:4*vdisk.BlockSize]
		}
		c, err := s.Create(data)
		if err != nil {
			return false
		}
		got, err := s.Read(c)
		if err != nil || !bytes.Equal(got, data) {
			return false
		}
		s2, err := OpenStore(port, disk)
		if err != nil {
			return false
		}
		got, err = s2.Read(c)
		return err == nil && bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
