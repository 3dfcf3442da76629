package dirsvc

import (
	"encoding/binary"
	"errors"

	"dirsvc/internal/capability"
	"dirsvc/internal/codec"
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
	b := binary.BigEndian.AppendUint64(make([]byte, 0, TopoStateLen), t.Epoch)
	b = binary.BigEndian.AppendUint32(b, uint32(t.Base))
	b = append(binary.BigEndian.AppendUint32(b, uint32(t.Total)), t.MigPhase)
	b = binary.BigEndian.AppendUint32(b, uint32(t.MigPeer))
	b = binary.BigEndian.AppendUint32(b, t.MigFloor)
	return binary.BigEndian.AppendUint32(b, t.AllocFloor)
}

// TopoStateLen is the encoded size of a TopoState.
const TopoStateLen = 8 + 4 + 4 + 1 + 4 + 4 + 4

// DecodeTopoState parses an EncodeTopoState blob (extra trailing bytes
// are ignored, so it can decode in place from a block tail).
func DecodeTopoState(raw []byte) (*TopoState, error) {
	rd := codec.NewReader(raw)
	t := &TopoState{
		Epoch:      rd.U64(),
		Base:       int(rd.U32()),
		Total:      int(rd.U32()),
		MigPhase:   rd.U8(),
		MigPeer:    int(rd.U32()),
		MigFloor:   rd.U32(),
		AllocFloor: rd.U32(),
	}
	if rd.Failed() {
		return nil, errors.New("dirsvc: bad topo state")
	}
	return t, nil
}

// EncodeNotMine renders the StatusNotMine reply blob: the replying
// shard's epoch and the shard it believes owns the object.
func EncodeNotMine(epoch uint64, shard int) []byte {
	return binary.BigEndian.AppendUint32(binary.BigEndian.AppendUint64(nil, epoch), uint32(shard))
}

// DecodeNotMine parses a StatusNotMine reply blob.
func DecodeNotMine(raw []byte) (epoch uint64, shard int, err error) {
	rd := codec.NewReader(raw)
	epoch, shard = rd.U64(), int(rd.U32())
	if rd.Failed() {
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
	b := codec.AppendBytes(nil, EncodeTopoState(&info.Topo))
	b = binary.BigEndian.AppendUint32(b, uint32(info.Objects))
	b = binary.BigEndian.AppendUint32(b, uint32(info.Stubs))
	b = binary.BigEndian.AppendUint32(b, uint32(len(info.Moving)))
	for _, obj := range info.Moving {
		b = binary.BigEndian.AppendUint32(b, obj)
	}
	return b
}

// DecodeShardMapInfo parses an OpShardMap reply blob.
func DecodeShardMapInfo(raw []byte) (*ShardMapInfo, error) {
	rd := codec.NewReader(raw)
	topo, err := DecodeTopoState(rd.Bytes())
	if err != nil {
		return nil, err
	}
	info := &ShardMapInfo{Topo: *topo, Objects: int(rd.U32()), Stubs: int(rd.U32())}
	for range rd.Count32(4) {
		info.Moving = append(info.Moving, rd.U32())
	}
	if rd.Failed() {
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
