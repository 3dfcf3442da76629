package vdisk

import (
	"bytes"
	"errors"
	"slices"
	"testing"
	"testing/quick"

	"dirsvc/internal/sim"
)

func newDisk(t *testing.T, blocks int) *Disk {
	t.Helper()
	return New(sim.FastModel(), blocks)
}

func TestWriteReadBlock(t *testing.T) {
	d := newDisk(t, 8)
	data := []byte("commit block contents")
	if err := d.WriteBlock(0, data); err != nil {
		t.Fatalf("WriteBlock: %v", err)
	}
	got, err := d.ReadBlock(0)
	if err != nil {
		t.Fatalf("ReadBlock: %v", err)
	}
	if len(got) != BlockSize {
		t.Fatalf("block size = %d, want %d", len(got), BlockSize)
	}
	if !bytes.Equal(got[:len(data)], data) {
		t.Fatalf("got %q", got[:len(data)])
	}
	// Remainder must be zero padded.
	for _, b := range got[len(data):] {
		if b != 0 {
			t.Fatal("block not zero padded")
		}
	}
}

func TestUnwrittenBlockReadsZero(t *testing.T) {
	d := newDisk(t, 4)
	got, err := d.ReadBlock(3)
	if err != nil {
		t.Fatalf("ReadBlock: %v", err)
	}
	if !bytes.Equal(got, make([]byte, BlockSize)) {
		t.Fatal("unwritten block not zero")
	}
}

func TestOutOfRange(t *testing.T) {
	d := newDisk(t, 4)
	tests := []struct {
		name string
		fn   func() error
	}{
		{"read high", func() error { _, err := d.ReadBlock(4); return err }},
		{"read negative", func() error { _, err := d.ReadBlock(-1); return err }},
		{"write high", func() error { return d.WriteBlock(4, nil) }},
		{"run over end", func() error { return d.WriteRun(3, make([]byte, 2*BlockSize)) }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := tt.fn(); !errors.Is(err, ErrOutOfRange) {
				t.Fatalf("err = %v, want ErrOutOfRange", err)
			}
		})
	}
}

func TestWriteTooLarge(t *testing.T) {
	d := newDisk(t, 4)
	if err := d.WriteBlock(0, make([]byte, BlockSize+1)); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("err = %v, want ErrTooLarge", err)
	}
}

func TestWriteRunReadRun(t *testing.T) {
	d := newDisk(t, 16)
	data := bytes.Repeat([]byte("0123456789abcdef"), 100) // 1600 bytes, 4 blocks
	if err := d.WriteRun(2, data); err != nil {
		t.Fatalf("WriteRun: %v", err)
	}
	got, err := d.ReadRun(2, len(data))
	if err != nil {
		t.Fatalf("ReadRun: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("run round trip mismatch")
	}
}

func TestMediaFailure(t *testing.T) {
	d := newDisk(t, 4)
	if err := d.WriteBlock(0, []byte("x")); err != nil {
		t.Fatal(err)
	}
	d.FailMedia()
	if !d.Failed() {
		t.Fatal("Failed() = false after FailMedia")
	}
	if _, err := d.ReadBlock(0); !errors.Is(err, ErrMediaFailure) {
		t.Fatalf("read after head crash: %v", err)
	}
	if err := d.WriteBlock(0, []byte("y")); !errors.Is(err, ErrMediaFailure) {
		t.Fatalf("write after head crash: %v", err)
	}
}

func TestStatsDistinguishSeqWrites(t *testing.T) {
	d := newDisk(t, 4)
	_ = d.WriteBlock(0, nil)
	_ = d.WriteBlockSeq(1, nil)
	_ = d.WriteBlockSeq(1, nil)
	_, _ = d.ReadBlock(0)
	s := d.Stats()
	if s.Writes != 1 || s.SeqWrites != 2 || s.Reads != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestQuickRunRoundTrip(t *testing.T) {
	d := newDisk(t, 64)
	f := func(raw []byte) bool {
		if len(raw) > 20*BlockSize {
			raw = raw[:20*BlockSize]
		}
		if err := d.WriteRun(0, raw); err != nil {
			return false
		}
		got, err := d.ReadRun(0, len(raw))
		return err == nil && bytes.Equal(got, raw)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestNVRAMReadWrite(t *testing.T) {
	n := NewNVRAM(sim.FastModel(), 128)
	if n.Size() != 128 {
		t.Fatalf("Size = %d", n.Size())
	}
	if err := n.Write(10, []byte("journal")); err != nil {
		t.Fatalf("Write: %v", err)
	}
	if got := n.Snapshot()[10:17]; string(got) != "journal" {
		t.Fatalf("got %q", got)
	}
}

func TestNVRAMBounds(t *testing.T) {
	n := NewNVRAM(sim.FastModel(), 16)
	if err := n.Write(10, make([]byte, 7)); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("overflowing write: %v", err)
	}
	if err := n.Write(-1, make([]byte, 4)); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("negative write: %v", err)
	}
}

func TestNVRAMSnapshotIsCopy(t *testing.T) {
	n := NewNVRAM(sim.FastModel(), 8)
	_ = n.Write(0, []byte{1})
	snap := n.Snapshot()
	snap[0] = 99
	if got := n.Snapshot(); got[0] != 1 {
		t.Fatal("Snapshot aliases internal buffer")
	}
}

// TestWriteHookTears: a write its hook cuts short stores the prefix and
// keeps the old bytes behind it, on a disk run (across a block boundary
// and at one) and on NVRAM, and fails with ErrTorn.
func TestWriteHookTears(t *testing.T) {
	for _, keep := range []int{0, 100, BlockSize, BlockSize + 7} {
		d := newDisk(t, 4)
		old := bytes.Repeat([]byte{0xaa}, 2*BlockSize)
		if err := d.WriteRun(1, old); err != nil {
			t.Fatal(err)
		}
		d.SetWriteHook(func(off int, data []byte) int {
			if off != BlockSize || len(data) != 2*BlockSize {
				t.Fatalf("hook saw %d bytes at %d", len(data), off)
			}
			return keep
		})
		fresh := bytes.Repeat([]byte{0x55}, 2*BlockSize)
		if err := d.WriteRun(1, fresh); !errors.Is(err, ErrTorn) {
			t.Fatalf("keep %d: %v", keep, err)
		}
		d.SetWriteHook(nil)
		got, err := d.ReadRun(1, 2*BlockSize)
		if err != nil {
			t.Fatal(err)
		}
		if want := append(fresh[:keep:keep], old[keep:]...); !bytes.Equal(got, want) {
			t.Fatalf("keep %d: stored %x", keep, got)
		}
	}

	// A write shorter than its block is padded with zeros up to the tear.
	d := newDisk(t, 2)
	if err := d.WriteBlock(1, bytes.Repeat([]byte{0xaa}, BlockSize)); err != nil {
		t.Fatal(err)
	}
	d.SetWriteHook(func(int, []byte) int { return 300 })
	if err := d.WriteBlock(1, bytes.Repeat([]byte{0x55}, 100)); !errors.Is(err, ErrTorn) {
		t.Fatalf("short write: %v", err)
	}
	want := slices.Concat(bytes.Repeat([]byte{0x55}, 100), make([]byte, 200), bytes.Repeat([]byte{0xaa}, BlockSize-300))
	if got, _ := d.ReadBlock(1); !bytes.Equal(got, want) {
		t.Fatalf("short write stored %x", got)
	}

	nv := NewNVRAM(sim.FastModel(), 64)
	if err := nv.Write(0, bytes.Repeat([]byte{1}, 64)); err != nil {
		t.Fatal(err)
	}
	nv.SetWriteHook(func(off int, data []byte) int { return 3 })
	if err := nv.Write(10, bytes.Repeat([]byte{2}, 8)); !errors.Is(err, ErrTorn) {
		t.Fatalf("nvram: %v", err)
	}
	want = bytes.Repeat([]byte{1}, 64)
	copy(want[10:], []byte{2, 2, 2})
	if got := nv.Snapshot(); !bytes.Equal(got, want) {
		t.Fatalf("nvram holds %x", got)
	}
}
