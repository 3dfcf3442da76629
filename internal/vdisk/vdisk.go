// Package vdisk simulates the stable-storage hardware of the paper's
// testbed: Wren IV SCSI disks holding raw partitions of fixed-length
// blocks, and the 24 KB battery-backed NVRAM used by the fast variant of
// the directory service.
//
// Disk and NVRAM contents survive fail-stop crashes: the simulated machine
// keeps its Disk and NVRAM objects across server restarts. A disk can also
// suffer an injected media failure ("head crash", paper §3.1), after which
// every operation fails.
package vdisk

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"dirsvc/internal/sim"
)

// BlockSize is the size of one disk block in bytes.
const BlockSize = 512

var (
	// ErrMediaFailure is returned after an injected head crash.
	ErrMediaFailure = errors.New("vdisk: media failure")
	// ErrOutOfRange is returned for block numbers outside the partition.
	ErrOutOfRange = errors.New("vdisk: block out of range")
	// ErrTooLarge is returned when data exceeds the target block or region.
	ErrTooLarge = errors.New("vdisk: data too large")
	// ErrTorn is returned by a write its WriteHook cut short.
	ErrTorn = errors.New("vdisk: torn write")
)

// WriteHook sees each write to a Disk or an NVRAM before it is stored
// (off is its byte offset in the device) and returns how many of its
// bytes to store, 0 to len(data). Fewer tears the write, as a power cut
// would: the prefix is stored over the old bytes and the write fails
// with ErrTorn. Tests flip a stored bit with the device's own writes.
type WriteHook func(off int, data []byte) int

// Stats counts disk activity.
type Stats struct {
	Reads     uint64
	Writes    uint64
	SeqWrites uint64
}

// Disk is a raw partition of fixed-length blocks with calibrated access
// latency. All operations are synchronous, like the raw partition writes
// the directory servers use for their administrative data.
type Disk struct {
	model *sim.LatencyModel

	// arm serializes media access: one disk arm means concurrent
	// operations queue behind each other, which is why the paper's write
	// throughput bounds in Fig. 9 are what they are ("write operations
	// cannot be performed in parallel").
	arm sync.Mutex

	mu     sync.Mutex
	blocks [][]byte
	failed bool
	stats  Stats
	hook   WriteHook
}

// New creates a disk with nblocks zeroed blocks.
func New(model *sim.LatencyModel, nblocks int) *Disk {
	return &Disk{
		model:  model,
		blocks: make([][]byte, nblocks),
	}
}

// Blocks returns the number of blocks in the partition.
func (d *Disk) Blocks() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.blocks)
}

// Stats returns a snapshot of the operation counters.
func (d *Disk) Stats() Stats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stats
}

// FailMedia injects a permanent media failure: every subsequent operation
// returns ErrMediaFailure and the contents are lost.
func (d *Disk) FailMedia() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.failed = true
	d.blocks = nil
}

// Failed reports whether the disk has suffered a media failure.
func (d *Disk) Failed() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.failed
}

// ReadBlock returns a copy of block i, charging one random access. A block
// never written reads as all zeroes.
func (d *Disk) ReadBlock(i int) ([]byte, error) {
	d.arm.Lock()
	defer d.arm.Unlock()
	d.mu.Lock()
	if err := d.check(i, 1); err != nil {
		d.mu.Unlock()
		return nil, err
	}
	d.stats.Reads++
	out := make([]byte, BlockSize)
	copy(out, d.blocks[i])
	d.mu.Unlock()
	d.model.Sleep(d.model.DiskOp)
	return out, nil
}

// WriteBlock synchronously writes data (≤ BlockSize bytes, zero padded)
// to block i, charging one random access.
func (d *Disk) WriteBlock(i int, data []byte) error {
	return d.write(i, data, false)
}

// WriteBlockSeq writes like WriteBlock but charges only a short seek. The
// RPC directory service uses this for its intentions block, which lives at
// a fixed staging location near the head's resting position (DiskSeqOp in
// ARCHITECTURE.md's calibration table).
func (d *Disk) WriteBlockSeq(i int, data []byte) error {
	return d.write(i, data, true)
}

func (d *Disk) write(i int, data []byte, sequential bool) error {
	if len(data) > BlockSize {
		return fmt.Errorf("write block %d: %w (%d bytes)", i, ErrTooLarge, len(data))
	}
	return d.writeRun(i, data, sequential)
}

// WriteRun writes data across consecutive blocks starting at block start,
// charging one seek plus per-block transfer time. The Bullet server uses
// this to lay files out contiguously.
func (d *Disk) WriteRun(start int, data []byte) error {
	return d.writeRun(start, data, false)
}

// WriteRunSeq writes like WriteRun but charges only a short seek, for runs
// at a fixed staging location (e.g. the Bullet server's file table).
func (d *Disk) WriteRunSeq(start int, data []byte) error {
	return d.writeRun(start, data, true)
}

// SetWriteHook passes every later write, as whole blocks, through hook
// (nil removes it), which must not call the disk.
func (d *Disk) SetWriteHook(hook WriteHook) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.hook = hook
}

func (d *Disk) writeRun(start int, data []byte, sequential bool) error {
	n := max(blocksFor(len(data)), 1)
	d.arm.Lock()
	defer d.arm.Unlock()
	d.mu.Lock()
	if err := d.check(start, n); err != nil {
		d.mu.Unlock()
		return err
	}
	keep := n * BlockSize
	if d.hook != nil {
		img := make([]byte, keep)
		copy(img, data)
		keep = d.hook(start*BlockSize, img)
	}
	for lo := 0; lo < keep; lo += BlockSize {
		blk := make([]byte, BlockSize)
		if old := d.blocks[start+lo/BlockSize]; keep < lo+BlockSize && old != nil {
			copy(blk[keep-lo:], old[keep-lo:]) // torn in this block: new bytes, then old
		}
		copy(blk, data[min(lo, len(data)):min(keep, lo+BlockSize, len(data))])
		d.blocks[start+lo/BlockSize] = blk
	}
	seek := d.model.DiskOp
	if sequential {
		seek = d.model.DiskSeqOp
		d.stats.SeqWrites++
	} else {
		d.stats.Writes++
	}
	cost := seek + time.Duration(n-1)*d.model.DiskBlockXfer
	d.mu.Unlock()
	d.model.Sleep(cost)
	if keep < n*BlockSize {
		return ErrTorn
	}
	return nil
}

// ReadRun reads length bytes from consecutive blocks starting at start,
// charging one seek plus per-block transfer time.
func (d *Disk) ReadRun(start, length int) ([]byte, error) {
	n := blocksFor(length)
	if n == 0 {
		n = 1
	}
	d.arm.Lock()
	defer d.arm.Unlock()
	d.mu.Lock()
	if err := d.check(start, n); err != nil {
		d.mu.Unlock()
		return nil, err
	}
	out := make([]byte, n*BlockSize)
	for b := 0; b < n; b++ {
		copy(out[b*BlockSize:], d.blocks[start+b])
	}
	d.stats.Reads++
	cost := d.model.DiskOp + time.Duration(n-1)*d.model.DiskBlockXfer
	d.mu.Unlock()
	d.model.Sleep(cost)
	return out[:length], nil
}

// check must be called with d.mu held.
func (d *Disk) check(start, n int) error {
	if d.failed {
		return ErrMediaFailure
	}
	if start < 0 || n < 0 || start+n > len(d.blocks) {
		return fmt.Errorf("blocks [%d,%d): %w", start, start+n, ErrOutOfRange)
	}
	return nil
}

// blocksFor returns the number of blocks needed for n bytes.
func blocksFor(n int) int { return (n + BlockSize - 1) / BlockSize }
