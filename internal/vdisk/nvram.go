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

	mu   sync.Mutex
	buf  []byte
	hook WriteHook
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
	hook, size := n.hook, len(n.buf)
	n.mu.Unlock()
	if off < 0 || off+len(data) > size {
		return fmt.Errorf("nvram write [%d,%d): %w", off, off+len(data), ErrTooLarge)
	}
	keep := len(data)
	if hook != nil {
		keep = hook(off, data)
	}
	n.mu.Lock()
	copy(n.buf[off:], data[:keep])
	n.mu.Unlock()
	n.model.Sleep(n.model.NVRAMWrite)
	if keep < len(data) {
		return ErrTorn
	}
	return nil
}

// SetWriteHook passes every later Write through hook (nil removes it),
// which may read the region.
func (n *NVRAM) SetWriteHook(hook WriteHook) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.hook = hook
}

// Snapshot returns a copy of the whole region.
func (n *NVRAM) Snapshot() []byte {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]byte, len(n.buf))
	copy(out, n.buf)
	return out
}
