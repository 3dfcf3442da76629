package dirsvc

import (
	"errors"

	"dirsvc/internal/capability"
)

// Shard-map epochs layer elastic topology over the residue rule. A
// deployment provisions Total shards at boot but activates only Base of
// them; epoch e activates min(Base<<e, Total). An epoch bump is a
// power-of-two split: every active shard s pairs with its twin
// s+active(e), and exactly the objects with (obj-1) mod active(e+1) ==
// twin move — the residue classes of a doubled modulus nest, so no
// other object changes home. Objects then migrate one at a time through
// the two-phase machinery (OpMigOut at the source, OpMigIn at the
// target), leaving a forwarding stub at the source until the split is
// sealed.
//
// The split records an allocation floor at both sides: the highest
// object number the source had ever allocated in the moving class.
// Below the floor the source is authoritative for absence ("I would
// have had it"), so a miss does not bounce to the target; above it the
// target allocates fresh numbers, so the two sides can never mint the
// same object number. The floor is what keeps the one-hop forwarding
// chase loop-free while both sides still answer for the class.

// Migration phases of one shard's current split (TopoState.MigPhase).
const (
	// MigNone: no split in progress on this shard.
	MigNone byte = 0
	// MigSource: this shard is shedding the moving class; forwarding
	// stubs accumulate until OpDropStubs.
	MigSource byte = 1
	// MigTarget: this shard is receiving the moving class and has not
	// been sealed; misses at or below the floor chase to the source.
	MigTarget byte = 2
)

// ErrNotMine reports that the addressed shard does not own the object
// under the current shard-map epoch; the reply's NotMine blob names the
// owner so the client can chase one hop and refresh its map.
var ErrNotMine = errors.New("dirsvc: object not owned by this shard")

// ActiveShardsAt returns the number of active shards at an epoch: base
// doubled per epoch, capped at the provisioned total.
func ActiveShardsAt(epoch uint64, base, total int) int {
	if base <= 0 {
		base = 1
	}
	if total < base {
		total = base
	}
	active := base
	for e := uint64(0); e < epoch && active*2 <= total; e++ {
		active *= 2
	}
	return active
}

// HomeShardAt returns the owning shard of an object under the residue
// rule at an epoch.
func HomeShardAt(obj uint32, epoch uint64, base, total int) int {
	active := ActiveShardsAt(epoch, base, total)
	if active <= 1 || obj == 0 {
		return 0
	}
	return int((obj - 1) % uint32(active))
}

// TopoState is one shard's view of the elastic shard map: the epoch,
// the boot-time geometry, and the state of its current split (if any).
// It is mutated only under the applier's totally-ordered update stream,
// so every replica of a shard holds an identical copy.
type TopoState struct {
	Epoch uint64
	Shard int
	Base  int // active shards at epoch 0
	Total int // provisioned shards

	MigPhase byte   // MigNone | MigSource | MigTarget
	MigPeer  int    // twin shard of the split (source<->target)
	MigFloor uint32 // floor of the current split's moving class

	// AllocFloor survives the seal: a split target never allocates at or
	// below it, even long after the migration, so a hole left by a
	// deletion at the source can never be re-minted at the target while
	// stale clients might still route it to the source.
	AllocFloor uint32
}

// Active returns the active shard count at the state's epoch.
func (t *TopoState) Active() int { return ActiveShardsAt(t.Epoch, t.Base, t.Total) }

// Home returns the owning shard of obj at the state's epoch.
func (t *TopoState) Home(obj uint32) int { return HomeShardAt(obj, t.Epoch, t.Base, t.Total) }

// Clone returns a copy (for handing out under a different lock).
func (t *TopoState) Clone() TopoState { return *t }

// EncodeTopoState renders the state for the commit-block tail and the
// snapshot: epoch u64 | base u32 | total u32 | phase u8 |
// peer u32 | floor u32 | allocfloor u32. Fixed size (TopoStateLen); a
// decoder may be handed a longer buffer and ignores the tail.
func EncodeTopoState(t *TopoState) []byte {
	var w writer
	w.u64(t.Epoch)
	w.u32(uint32(t.Base))
	w.u32(uint32(t.Total))
	w.u8(t.MigPhase)
	w.u32(uint32(t.MigPeer))
	w.u32(t.MigFloor)
	w.u32(t.AllocFloor)
	return w.buf
}

// TopoStateLen is the encoded size of a TopoState.
const TopoStateLen = 8 + 4 + 4 + 1 + 4 + 4 + 4

// DecodeTopoState parses an EncodeTopoState blob (extra trailing bytes
// are ignored, so it can decode in place from a block tail).
func DecodeTopoState(raw []byte) (*TopoState, error) {
	r := byteReader{buf: raw}
	t := &TopoState{}
	t.Epoch = r.u64()
	t.Base = int(r.u32())
	t.Total = int(r.u32())
	t.MigPhase = r.u8()
	t.MigPeer = int(r.u32())
	t.MigFloor = r.u32()
	t.AllocFloor = r.u32()
	if r.failed {
		return nil, errors.New("dirsvc: bad topo state")
	}
	return t, nil
}

// EncodeNotMine renders the StatusNotMine reply blob: the replying
// shard's epoch and the shard it believes owns the object.
func EncodeNotMine(epoch uint64, shard int) []byte {
	var w writer
	w.u64(epoch)
	w.u32(uint32(shard))
	return w.buf
}

// DecodeNotMine parses a StatusNotMine reply blob.
func DecodeNotMine(raw []byte) (epoch uint64, shard int, err error) {
	r := byteReader{buf: raw}
	epoch = r.u64()
	shard = int(r.u32())
	if r.failed {
		return 0, 0, errors.New("dirsvc: bad notmine blob")
	}
	return epoch, shard, nil
}

// ShardMapInfo is the OpShardMap reply: the shard's topology view, its
// object count, and the objects it still holds that belong elsewhere
// under the current epoch (the migration work list).
type ShardMapInfo struct {
	Topo    TopoState
	Objects int      // used entries in the object table
	Stubs   int      // live forwarding stubs
	Moving  []uint32 // owned objects whose home is another shard
}

// EncodeShardMapInfo renders an OpShardMap reply blob.
func EncodeShardMapInfo(info *ShardMapInfo) []byte {
	var w writer
	w.bytes(EncodeTopoState(&info.Topo))
	w.u32(uint32(info.Objects))
	w.u32(uint32(info.Stubs))
	w.u32(uint32(len(info.Moving)))
	for _, obj := range info.Moving {
		w.u32(obj)
	}
	return w.buf
}

// DecodeShardMapInfo parses an OpShardMap reply blob.
func DecodeShardMapInfo(raw []byte) (*ShardMapInfo, error) {
	r := byteReader{buf: raw}
	topoRaw := r.lenBytes()
	if r.failed {
		return nil, errors.New("dirsvc: bad shard map blob")
	}
	topo, err := DecodeTopoState(topoRaw)
	if err != nil {
		return nil, err
	}
	info := &ShardMapInfo{Topo: *topo}
	info.Objects = int(r.u32())
	info.Stubs = int(r.u32())
	n := int(r.u32())
	if r.failed || n < 0 || n > 1<<20 {
		return nil, errors.New("dirsvc: bad shard map blob")
	}
	for i := 0; i < n; i++ {
		info.Moving = append(info.Moving, r.u32())
	}
	if r.failed {
		return nil, errors.New("dirsvc: bad shard map blob")
	}
	return info, nil
}

// MigImageBlob packs an OpMigIn step's payload: the object's per-object
// secret and its directory image, exactly as read from the source by
// OpMigRead. Each replica of the target mints its own Bullet capability
// from the image bytes, the same way recovery state transfer does.
func MigImageBlob(secret capability.Secret, image []byte) []byte {
	out := make([]byte, 0, len(secret)+len(image))
	out = append(out, secret[:]...)
	return append(out, image...)
}

// SplitMigImageBlob splits an OpMigIn payload back into secret and
// image.
func SplitMigImageBlob(raw []byte) (capability.Secret, []byte, error) {
	var secret capability.Secret
	if len(raw) < len(secret) {
		return secret, nil, errors.New("dirsvc: short migration image")
	}
	copy(secret[:], raw[:len(secret)])
	return secret, raw[len(secret):], nil
}
