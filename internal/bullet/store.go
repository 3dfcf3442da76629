// Package bullet implements a Bullet-style immutable file server
// [Van Renesse et al., ICDCS 1989], the file substrate of the directory
// service (paper Fig. 3).
//
// Bullet files are immutable: they are created in one operation with their
// full contents, read whole, and deleted. Files are laid out contiguously
// on disk and cached whole in RAM, so reads of cached files cost no disk
// operation — the property that makes directory read operations free of
// disk I/O in all three service implementations.
//
// The package separates the Store (disk layout, allocation, capability
// checking) from the Server (the RPC frontend directory servers and
// clients talk to).
package bullet

import (
	"errors"
	"fmt"
	"sync"

	"dirsvc/internal/capability"
	"dirsvc/internal/vdisk"
)

var (
	// ErrNotFound is returned for capabilities naming no live file.
	ErrNotFound = errors.New("bullet: file not found")
	// ErrNoSpace is returned when the store cannot allocate a run.
	ErrNoSpace = errors.New("bullet: out of disk space")
	// ErrTooBig is returned for files above the per-file size limit.
	ErrTooBig = errors.New("bullet: file too large")
)

// MaxFileSize bounds one Bullet file. Directories are small; user tmp
// files in the paper are 4 bytes.
const MaxFileSize = 256 * 1024

// tableBlocks is the on-disk region reserved for the file table at the
// start of the partition. The table is rewritten in place (short seek) as
// part of each create or delete.
const tableBlocks = 64

type fileEntry struct {
	object uint32
	start  int // first data block
	blocks int
	length int
	secret capability.Secret
}

// Store is the disk-backed file store of one Bullet server.
type Store struct {
	port    capability.Port
	storage vdisk.Storage

	mu      sync.Mutex
	files   map[uint32]*fileEntry
	cache   map[uint32][]byte // whole-file RAM cache (Bullet keeps files contiguous in RAM)
	free    []run             // free data-block runs, kept sorted by start
	nextObj uint32
}

type run struct {
	start, n int
}

// NewStore formats a fresh store on storage. The port is the service port
// capabilities will name.
func NewStore(port capability.Port, storage vdisk.Storage) (*Store, error) {
	if storage.Blocks() <= tableBlocks {
		return nil, fmt.Errorf("bullet: partition too small (%d blocks)", storage.Blocks())
	}
	s := &Store{
		port:    port,
		storage: storage,
		files:   make(map[uint32]*fileEntry),
		cache:   make(map[uint32][]byte),
		free:    []run{{start: tableBlocks, n: storage.Blocks() - tableBlocks}},
		nextObj: 1,
	}
	s.mu.Lock()
	table := s.encodeTableLocked()
	s.mu.Unlock()
	if err := storage.WriteRunSeq(0, table); err != nil {
		return nil, fmt.Errorf("format file table: %w", err)
	}
	return s, nil
}

// OpenStore recovers a store from an existing partition after a crash:
// the file table is read back from disk and the RAM cache repopulated
// lazily. This is what makes a restarted directory server's own
// directories readable again during recovery.
func OpenStore(port capability.Port, storage vdisk.Storage) (*Store, error) {
	raw, err := storage.ReadRun(0, tableBlocks*vdisk.BlockSize)
	if err != nil {
		return nil, fmt.Errorf("read file table: %w", err)
	}
	files, nextObj, err := decodeTable(raw)
	if err != nil {
		return nil, err
	}
	s := &Store{
		port:    port,
		storage: storage,
		files:   files,
		cache:   make(map[uint32][]byte),
		nextObj: nextObj,
	}
	s.rebuildFreeList()
	return s, nil
}

// Port returns the service port of this store.
func (s *Store) Port() capability.Port { return s.port }

// Create stores data as a new immutable file and returns its owner
// capability. The file is committed to disk before Create returns
// (write-through), costing one random disk access plus transfer, and the
// file table is updated with a short-seek write.
func (s *Store) Create(data []byte) (capability.Capability, error) {
	if len(data) > MaxFileSize {
		return capability.Capability{}, fmt.Errorf("%d bytes: %w", len(data), ErrTooBig)
	}
	s.mu.Lock()
	if len(s.files) >= maxFiles {
		s.mu.Unlock()
		return capability.Capability{}, fmt.Errorf("file table holds %d files: %w", maxFiles, ErrNoSpace)
	}
	object := s.nextObj
	s.nextObj++
	nblocks := blocksFor(len(data))
	start, ok := s.allocate(nblocks)
	if !ok {
		s.mu.Unlock()
		return capability.Capability{}, ErrNoSpace
	}
	entry := &fileEntry{
		object: object,
		start:  start,
		blocks: nblocks,
		length: len(data),
		secret: capability.NewSecret(fmt.Appendf(nil, "%v/%d", s.port, object)),
	}
	s.files[object] = entry
	cached := make([]byte, len(data))
	copy(cached, data)
	s.cache[object] = cached
	table := s.encodeTableLocked()
	s.mu.Unlock()

	// Write data and the updated file table. Data pays the full random
	// access; the table lives at the partition start and pays a short
	// seek.
	if err := s.storage.WriteRun(start, data); err != nil {
		return capability.Capability{}, fmt.Errorf("write file: %w", err)
	}
	if err := s.storage.WriteRunSeq(0, table); err != nil {
		return capability.Capability{}, fmt.Errorf("write file table: %w", err)
	}
	return capability.Mint(s.port, object, entry.secret), nil
}

// Read returns the file contents. Cached files cost no disk access.
func (s *Store) Read(c capability.Capability) ([]byte, error) {
	s.mu.Lock()
	entry, ok := s.files[c.Object]
	if !ok {
		s.mu.Unlock()
		return nil, ErrNotFound
	}
	if err := capability.Require(c, entry.secret, capability.RightRead); err != nil {
		s.mu.Unlock()
		return nil, err
	}
	if data, hit := s.cache[c.Object]; hit {
		out := make([]byte, len(data))
		copy(out, data)
		s.mu.Unlock()
		return out, nil
	}
	start, length := entry.start, entry.length
	s.mu.Unlock()

	data, err := s.storage.ReadRun(start, length)
	if err != nil {
		return nil, fmt.Errorf("read file: %w", err)
	}
	s.mu.Lock()
	if _, still := s.files[c.Object]; still {
		s.cache[c.Object] = data
	}
	s.mu.Unlock()
	out := make([]byte, len(data))
	copy(out, data)
	return out, nil
}

// Size returns the file length in bytes.
func (s *Store) Size(c capability.Capability) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	entry, ok := s.files[c.Object]
	if !ok {
		return 0, ErrNotFound
	}
	if err := capability.Require(c, entry.secret, capability.RightRead); err != nil {
		return 0, err
	}
	return entry.length, nil
}

// Delete destroys the file and frees its blocks. The file table update
// pays a short-seek write.
func (s *Store) Delete(c capability.Capability) error {
	s.mu.Lock()
	entry, ok := s.files[c.Object]
	if !ok {
		s.mu.Unlock()
		return ErrNotFound
	}
	if err := capability.Require(c, entry.secret, capability.RightDelete); err != nil {
		s.mu.Unlock()
		return err
	}
	delete(s.files, c.Object)
	delete(s.cache, c.Object)
	s.freeRun(run{start: entry.start, n: entry.blocks})
	table := s.encodeTableLocked()
	s.mu.Unlock()

	if err := s.storage.WriteRunSeq(0, table); err != nil {
		return fmt.Errorf("write file table: %w", err)
	}
	return nil
}

// Objects returns the number of live files.
func (s *Store) Objects() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.files)
}

// allocate finds a free run of n blocks (first fit). Must hold s.mu.
func (s *Store) allocate(n int) (int, bool) {
	if n == 0 {
		n = 1
	}
	for i := range s.free {
		if s.free[i].n >= n {
			start := s.free[i].start
			s.free[i].start += n
			s.free[i].n -= n
			if s.free[i].n == 0 {
				s.free = append(s.free[:i], s.free[i+1:]...)
			}
			return start, true
		}
	}
	return 0, false
}

// freeRun returns a run to the free list, merging neighbors. Must hold s.mu.
func (s *Store) freeRun(r run) {
	if r.n == 0 {
		r.n = 1
	}
	i := 0
	for i < len(s.free) && s.free[i].start < r.start {
		i++
	}
	s.free = append(s.free, run{})
	copy(s.free[i+1:], s.free[i:])
	s.free[i] = r
	// Merge adjacent runs.
	merged := s.free[:0]
	for _, cur := range s.free {
		if n := len(merged); n > 0 && merged[n-1].start+merged[n-1].n == cur.start {
			merged[n-1].n += cur.n
			continue
		}
		merged = append(merged, cur)
	}
	s.free = merged
}

// rebuildFreeList recomputes the free list from the file table. Must be
// called before the store is shared.
func (s *Store) rebuildFreeList() {
	used := make(map[int]bool)
	for _, e := range s.files {
		for b := 0; b < e.blocks; b++ {
			used[e.start+b] = true
		}
	}
	s.free = nil
	total := s.storage.Blocks()
	for b := tableBlocks; b < total; {
		if used[b] {
			b++
			continue
		}
		startRun := b
		for b < total && !used[b] {
			b++
		}
		s.free = append(s.free, run{start: startRun, n: b - startRun})
	}
}

func blocksFor(n int) int {
	b := (n + vdisk.BlockSize - 1) / vdisk.BlockSize
	if b == 0 {
		b = 1
	}
	return b
}
