package vdisk

import (
	"fmt"
	"sync"

	"dirsvc/internal/sim"
)

// DefaultNVRAMSize is the NVRAM capacity used in the paper (§4.1): 24 KB.
const DefaultNVRAMSize = 24 * 1024

// NVRAM simulates a battery-backed RAM region. Writes are charged at RAM
// speed and the contents survive fail-stop crashes (the simulated machine
// keeps the NVRAM object across restarts). The directory service layers an
// operation log with append/delete cancellation on top (internal/dirsvc).
type NVRAM struct {
	model *sim.LatencyModel

	mu      sync.Mutex
	buf     []byte
	onWrite func()
}

// NewNVRAM creates an NVRAM region of size bytes.
func NewNVRAM(model *sim.LatencyModel, size int) *NVRAM {
	return &NVRAM{
		model: model,
		buf:   make([]byte, size),
	}
}

// Size returns the region capacity in bytes.
func (n *NVRAM) Size() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.buf)
}

// Write stores data at offset off, charging one NVRAM write.
func (n *NVRAM) Write(off int, data []byte) error {
	n.mu.Lock()
	if off < 0 || off+len(data) > len(n.buf) {
		n.mu.Unlock()
		return fmt.Errorf("nvram write [%d,%d): %w", off, off+len(data), ErrTooLarge)
	}
	copy(n.buf[off:], data)
	onWrite := n.onWrite
	n.mu.Unlock()
	if onWrite != nil {
		onWrite()
	}
	n.model.Sleep(n.model.NVRAMWrite)
	return nil
}

// ObserveWrites makes every later Write call fn once its bytes are in the
// region. Crash tests use it to examine, through Snapshot, the image a
// power cut at that point would leave behind.
func (n *NVRAM) ObserveWrites(fn func()) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.onWrite = fn
}

// Read returns a copy of the region [off, off+length).
func (n *NVRAM) Read(off, length int) ([]byte, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if off < 0 || length < 0 || off+length > len(n.buf) {
		return nil, fmt.Errorf("nvram read [%d,%d): %w", off, off+length, ErrTooLarge)
	}
	out := make([]byte, length)
	copy(out, n.buf[off:])
	return out, nil
}

// Snapshot returns a copy of the whole region.
func (n *NVRAM) Snapshot() []byte {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]byte, len(n.buf))
	copy(out, n.buf)
	return out
}
