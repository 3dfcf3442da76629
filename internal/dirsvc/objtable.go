package dirsvc

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sync"

	"dirsvc/internal/capability"
	"dirsvc/internal/codec"
	"dirsvc/internal/vdisk"
)

// ObjectEntry is one object table slot: which Bullet file holds the
// current version of the directory, the sequence number of its last
// change (paper Fig. 4's "blocks 1 to n−1"), and the per-object secret
// from which client capabilities are minted and verified.
type ObjectEntry struct {
	Cap    capability.Capability // Bullet file holding the directory image
	Seq    uint64
	Secret capability.Secret
}

// StubEntry is a forwarding stub left in a migrated object's slot: the
// shard now holding the object and the sequence number of the flip that
// moved it. The stub keeps the slot occupied (so the number is never
// re-allocated here) and gives in-flight clients their one-hop chase.
type StubEntry struct {
	Target int
	Seq    uint64
}

// entrySlot is the on-disk size of one slot:
// state(1) + cap(16) + seq(8) + secret(6).
// State 0 is free, 1 a used entry, 2 a forwarding stub (the cap field's
// first four bytes hold the target shard instead of a capability).
const entrySlot = 1 + capability.Size + 8 + 6

// Slot state bytes.
const (
	slotFree byte = 0
	slotUsed byte = 1
	slotStub byte = 2
)

// entriesPerBlock slots fit one 512-byte block behind its seal. A table
// block is a sealed frame (codec.Seal, generation = block number, so a
// block written to the wrong place does not open) whose body is its
// slots, in object order.
const entriesPerBlock = (vdisk.BlockSize - codec.Header) / entrySlot

var tableMagic = [4]byte{'O', 'B', 'T', '1'}

// ObjectTable maps directory object numbers to their entries. The table
// occupies blocks 1..k of the admin partition. Every mutator changes RAM
// only and marks the object dirty; FlushBlocks is the one way a slot
// reaches the disk, one write per block — the paper's "one disk operation
// to store the changed entry in the object table". When that write
// happens is the caller's persistence mode: at once (write-through), on
// the NVRAM flush, or never (the engine checkpoint is the durable copy).
type ObjectTable struct {
	admin vdisk.Storage

	mu         sync.Mutex
	entries    map[uint32]ObjectEntry
	stubs      map[uint32]StubEntry // forwarding stubs of migrated objects
	ramDirty   map[uint32]bool      // RAM-only changes not yet persisted to disk
	max        uint32               // highest object number the partition can hold
	allocMod   uint32               // active shards (allocation stride, ≥ 1)
	allocRes   uint32               // this shard's index s: allocates obj ≡ s+1 (mod stride)
	allocFloor uint32               // allocate only numbers above this (split targets)
}

// OpenObjectTable loads the table from the admin partition (blocks 1..end).
func OpenObjectTable(admin vdisk.Storage) (*ObjectTable, error) {
	blocks := admin.Blocks() - 1
	if blocks < 1 {
		return nil, fmt.Errorf("object table: admin partition too small")
	}
	t := &ObjectTable{
		admin:    admin,
		entries:  make(map[uint32]ObjectEntry),
		stubs:    make(map[uint32]StubEntry),
		ramDirty: make(map[uint32]bool),
		max:      uint32(blocks * entriesPerBlock),
		allocMod: 1,
	}
	// One sequential scan of the partition (boot/recovery only): a
	// single seek plus per-block transfers, like reading a raw
	// partition front to back.
	raw, err := admin.ReadRun(1, blocks*vdisk.BlockSize)
	if err != nil {
		return nil, fmt.Errorf("object table scan: %w", err)
	}
	for b := 1; b <= blocks; b++ {
		blk, err := codec.Open(raw[(b-1)*vdisk.BlockSize:b*vdisk.BlockSize], tableMagic, uint64(b))
		if err != nil {
			return nil, corrupt(fmt.Sprintf("object table block %d", b))
		}
		for s := range len(blk) / entrySlot {
			slot := blk[s*entrySlot : (s+1)*entrySlot]
			obj := uint32((b-1)*entriesPerBlock + s + 1)
			seq := binary.BigEndian.Uint64(slot[1+capability.Size:])
			switch slot[0] {
			case slotUsed: // written only with its Bullet file
				e := ObjectEntry{Seq: seq, Secret: capability.Secret(slot[1+capability.Size+8:])}
				if e.Cap, err = capability.Decode(slot[1 : 1+capability.Size]); err != nil || e.Cap.IsZero() {
					return nil, corrupt(fmt.Sprintf("object table slot %d", obj))
				}
				t.entries[obj] = e
			case slotStub: // the target shard in the capability's first bytes
				t.stubs[obj] = StubEntry{Target: int(binary.BigEndian.Uint32(slot[1:])), Seq: seq}
			}
		}
	}
	return t, nil
}

// Get returns the entry for obj.
func (t *ObjectTable) Get(obj uint32) (ObjectEntry, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	e, ok := t.entries[obj]
	return e, ok
}

// All returns a copy of every live entry.
func (t *ObjectTable) All() map[uint32]ObjectEntry {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[uint32]ObjectEntry, len(t.entries))
	for k, v := range t.entries {
		out[k] = v
	}
	return out
}

// Objects returns all live object numbers in ascending order.
func (t *ObjectTable) Objects() []uint32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]uint32, 0, len(t.entries))
	for k := range t.entries {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}

// ConfigureShard restricts allocation to one shard's residue class of
// the object-number space: shard s of G allocates only numbers obj with
// (obj-1) mod G == s, so an object number alone identifies its home
// shard (the routing rule behind dir.ShardOf) and numbers never collide
// across shards. Shard 0 owns the root object (1). Call before the
// table allocates; a no-op for unsharded deployments (shards ≤ 1).
func (t *ObjectTable) ConfigureShard(shard, shards int) {
	if shards <= 1 {
		return
	}
	t.mu.Lock()
	t.allocMod = uint32(shards)
	t.allocRes = uint32(shard)
	t.mu.Unlock()
}

// SetAllocFloor restricts allocation to object numbers strictly above f.
// A split target sets this to the source's highest-ever number in the
// moving class so the two sides can never mint the same number while the
// class is split across them.
func (t *ObjectTable) SetAllocFloor(f uint32) {
	t.mu.Lock()
	t.allocFloor = f
	t.mu.Unlock()
}

// ClassMax returns the highest object number in residue class
// (obj-1) mod mod == res that is used or stubbed — the allocation floor
// a split hands to its target. Deterministic across replicas because the
// table contents are.
func (t *ObjectTable) ClassMax(mod, res uint32) uint32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if mod == 0 {
		mod = 1
	}
	var maxObj uint32
	for obj := range t.entries {
		if (obj-1)%mod == res && obj > maxObj {
			maxObj = obj
		}
	}
	for obj := range t.stubs {
		if (obj-1)%mod == res && obj > maxObj {
			maxObj = obj
		}
	}
	return maxObj
}

// NextFree returns the lowest unused object number homed on this shard.
// Because every replica of a shard applies updates in the same total
// order to the same table, this choice is deterministic across the group.
func (t *ObjectTable) NextFree() uint32 { return t.NextFreeExcept(nil) }

// NextFreeExcept returns the lowest unused object number homed on this
// shard that skip (when non-nil) does not report — the allocator for
// staged creations, which must pick distinct numbers before any of them
// commits.
func (t *ObjectTable) NextFreeExcept(skip func(obj uint32) bool) uint32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	start := t.allocRes + 1
	if t.allocFloor >= start {
		// First in-class number strictly above the floor.
		k := (t.allocFloor-start)/t.allocMod + 1
		start += k * t.allocMod
	}
	for obj := start; obj <= t.max; obj += t.allocMod {
		_, used := t.entries[obj]
		_, stubbed := t.stubs[obj]
		if !used && !stubbed && (skip == nil || !skip(obj)) {
			return obj
		}
	}
	return 0
}

// MaxSeq returns the highest sequence number stored with any directory.
// Recovery combines this with the commit block's sequence number (§3).
func (t *ObjectTable) MaxSeq() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var maxSeq uint64
	for _, e := range t.entries {
		if e.Seq > maxSeq {
			maxSeq = e.Seq
		}
	}
	for _, s := range t.stubs {
		if s.Seq > maxSeq {
			maxSeq = s.Seq
		}
	}
	return maxSeq
}

// Holds reports whether obj is a slot of this table.
func (t *ObjectTable) Holds(obj uint32) bool { return obj >= 1 && obj <= t.max }

// SetStubRAM replaces obj's slot with a forwarding stub — the source
// side of a migration flip: the entry is gone, its number stays reserved,
// and in-flight clients are pointed at the new home.
func (t *ObjectTable) SetStubRAM(obj uint32, s StubEntry) {
	t.mu.Lock()
	defer t.mu.Unlock()
	delete(t.entries, obj)
	t.stubs[obj] = s
	t.ramDirty[obj] = true
}

// Stub returns obj's forwarding stub, if any.
func (t *ObjectTable) Stub(obj uint32) (StubEntry, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	s, ok := t.stubs[obj]
	return s, ok
}

// Stubs returns a copy of every live forwarding stub.
func (t *ObjectTable) Stubs() map[uint32]StubEntry {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[uint32]StubEntry, len(t.stubs))
	for k, v := range t.stubs {
		out[k] = v
	}
	return out
}

// StubCount returns the number of live forwarding stubs.
func (t *ObjectTable) StubCount() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.stubs)
}

// SetRAM updates obj's entry.
func (t *ObjectTable) SetRAM(obj uint32, e ObjectEntry) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.entries[obj] = e
	delete(t.stubs, obj)
	t.ramDirty[obj] = true
}

// DeleteRAM clears obj's slot, entry or stub.
func (t *ObjectTable) DeleteRAM(obj uint32) {
	t.mu.Lock()
	defer t.mu.Unlock()
	delete(t.entries, obj)
	delete(t.stubs, obj)
	t.ramDirty[obj] = true
}

// RAMDirtyObjects returns, in ascending order, every object whose RAM
// state (entry changed, created, or deleted) has not been persisted —
// the authoritative work list for a deferred flush. Unlike parsing the
// operation log, this covers creations (whose object numbers are
// assigned at apply time) and batch steps.
func (t *ObjectTable) RAMDirtyObjects() []uint32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]uint32, 0, len(t.ramDirty))
	for obj := range t.ramDirty {
		out = append(out, obj)
	}
	slices.Sort(out)
	return out
}

// FlushBlocks writes the blocks containing the given objects, each block
// once, and clears the objects' dirty marks — the commit point of the
// write protocol (Fig. 5) when called at once, the NVRAM flush when
// called later.
func (t *ObjectTable) FlushBlocks(objs []uint32) error {
	blocks := make([]int, 0, len(objs))
	for _, obj := range objs {
		blocks = append(blocks, blockOf(obj))
	}
	slices.Sort(blocks)
	for _, b := range slices.Compact(blocks) {
		t.mu.Lock()
		raw := t.encodeBlockLocked(b)
		t.mu.Unlock()
		if err := t.admin.WriteBlock(b, raw); err != nil {
			return err
		}
	}
	t.mu.Lock()
	for _, obj := range objs {
		delete(t.ramDirty, obj)
	}
	t.mu.Unlock()
	return nil
}

// blockOf returns the admin block holding obj's slot.
func blockOf(obj uint32) int {
	return 1 + int(obj-1)/entriesPerBlock
}

// encodeBlockLocked renders one table block. Must hold t.mu.
func (t *ObjectTable) encodeBlockLocked(block int) []byte {
	raw := make([]byte, codec.Header+entriesPerBlock*entrySlot)
	first := uint32((block-1)*entriesPerBlock + 1)
	for s := 0; s < entriesPerBlock; s++ {
		obj := first + uint32(s)
		off := codec.Header + s*entrySlot
		// An entry with no Bullet file yet (NVRAM mode; its log records
		// recreate it) stays free, lest a crash mid-flush strand it.
		if e, ok := t.entries[obj]; ok && !e.Cap.IsZero() {
			raw[off] = slotUsed
			e.Cap.Encode(raw[off+1 : off+1]) // in place: the slot has room
			binary.BigEndian.PutUint64(raw[off+1+capability.Size:], e.Seq)
			copy(raw[off+1+capability.Size+8:], e.Secret[:])
			continue
		}
		if st, ok := t.stubs[obj]; ok {
			raw[off] = slotStub
			binary.BigEndian.PutUint32(raw[off+1:], uint32(st.Target))
			binary.BigEndian.PutUint64(raw[off+1+capability.Size:], st.Seq)
		}
	}
	return codec.Seal(raw[:0], tableMagic, uint64(block), raw[codec.Header:])
}
