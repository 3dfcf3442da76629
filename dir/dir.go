// Package dir defines the stable, transport-agnostic API of the
// fault-tolerant directory service: the paper's Fig. 2 operation set as
// a Go interface, with context-aware cancellation, typed sentinel
// errors, and atomic multi-step batches.
//
// Every backend — the triplicated group service (§3), its NVRAM variant
// (§4.1), the RPC-duplicated predecessor (§1), and the unreplicated
// baseline — is driven through the same Directory interface, so code
// written against it is oblivious to the replication strategy behind the
// service port. Later scaling work (sharding, caching, multi-backend)
// programs against this surface.
package dir

import (
	"context"
	"errors"

	"dirsvc/internal/capability"
	"dirsvc/internal/dirdata"
	"dirsvc/internal/dirsvc"
)

// Core types of the service, re-exported so users of the public API need
// no internal imports.
type (
	// Capability names an object and carries rights over it (Amoeba §2).
	Capability = capability.Capability
	// Rights is a per-column rights mask.
	Rights = capability.Rights
	// Row is one directory row: a name, a capability, and per-column
	// rights masks.
	Row = dirdata.Row
	// SetItem is one element of a lookup/replace set.
	SetItem = dirsvc.SetItem
)

// AllRights grants every right.
const AllRights = capability.AllRights

// MaxBatchSteps bounds one atomic batch.
const MaxBatchSteps = dirsvc.MaxBatchSteps

// Typed sentinel errors. Implementations return errors matching these
// via errors.Is, whatever the transport.
var (
	ErrNotFound      = dirsvc.ErrNotFound
	ErrExists        = dirsvc.ErrExists
	ErrNoMajority    = dirsvc.ErrNoMajority
	ErrConflict      = dirsvc.ErrConflict
	ErrBadRequest    = dirsvc.ErrBadRequest
	ErrServer        = dirsvc.ErrServer
	ErrBadCapability = capability.ErrBadCapability
	ErrNoRights      = capability.ErrNoRights
)

// ErrCrossShardBatch rejects a batch whose steps address directories on
// more than one shard when the caller opted out of distributed commit
// with Batch.SingleShard. By default a cross-shard batch is legal: the
// client runs a two-phase commit across the home shards and the batch
// is atomic deployment-wide. SingleShard restores the fail-fast
// contract for callers that want one-broadcast latency guaranteed; the
// client then detects the violation before any step executes, and the
// batch has no effect.
var ErrCrossShardBatch = errors.New("dir: batch spans more than one shard")

// ShardOf returns the home shard of a capability in a deployment of
// `shards` independent replica groups: shard s owns the object numbers
// ≡ s+1 (mod shards), so the object number alone routes a request. The
// root directory (object 1) is on shard 0. With shards ≤ 1 everything
// is on shard 0 — the unsharded service.
func ShardOf(c Capability, shards int) int {
	if shards <= 1 || c.Object == 0 {
		return 0
	}
	return int((c.Object - 1) % uint32(shards))
}

// ActiveShards returns the number of shards serving traffic at the
// given shard-map epoch in a deployment of total provisioned shards,
// base of them active at epoch zero. Each epoch doubles the active
// count until the provisioned total is reached (splits are always
// power-of-two, so residue classes nest and only twin classes move).
func ActiveShards(epoch uint64, base, total int) int {
	return dirsvc.ActiveShardsAt(epoch, base, total)
}

// HomeShard returns the home shard of an object number at the given
// shard-map epoch: the object's residue class modulo the epoch's active
// shard count. At epoch zero with base == total this is exactly
// ShardOf; later epochs route the split-off residue classes to the
// newly activated shards.
func HomeShard(obj uint32, epoch uint64, base, total int) int {
	return dirsvc.HomeShardAt(obj, epoch, base, total)
}

// BatchError reports the failing step of a rejected batch; the batch as
// a whole had no effect. Retrieve it with errors.As.
type BatchError = dirsvc.BatchError

// StepResult is the per-step outcome of an applied batch.
type StepResult = dirsvc.BatchStepResult

// Directory is the paper's Fig. 2 operation set. Every operation takes a
// context honored as deadline/cancellation down through the transport;
// an aborted wait returns ctx.Err().
//
// Reads (Root, List, Lookup, LookupSet) execute at one server without
// replication traffic. Updates are replicated according to the backend's
// protocol; Apply replicates an entire batch as a single unit — on the
// group backends, one totally-ordered broadcast regardless of the number
// of steps.
type Directory interface {
	// Root returns the root directory capability (bootstrap).
	Root(ctx context.Context) (Capability, error)
	// CreateDir creates a directory (Fig. 2: Create dir) and returns its
	// owner capability. Default columns apply when none are given.
	CreateDir(ctx context.Context, columns ...string) (Capability, error)
	// DeleteDir deletes a directory (Fig. 2: Delete dir).
	DeleteDir(ctx context.Context, dir Capability) error
	// List returns the rows visible through column col (Fig. 2: List dir).
	List(ctx context.Context, dir Capability, col int) ([]Row, error)
	// Append stores target under name in dir (Fig. 2: Append row); nil
	// masks mean full rights in every column.
	Append(ctx context.Context, dir Capability, name string, target Capability, masks []Rights) error
	// Delete removes the named row (Fig. 2: Delete row).
	Delete(ctx context.Context, dir Capability, name string) error
	// Chmod replaces the rights masks of the named row (Fig. 2: Chmod row).
	Chmod(ctx context.Context, dir Capability, name string, masks []Rights) error
	// Lookup resolves one name (a one-element Fig. 2 Lookup set).
	Lookup(ctx context.Context, dir Capability, name string) (Capability, error)
	// LookupSet resolves several names at once (Fig. 2: Lookup set);
	// missing names yield zero capabilities.
	LookupSet(ctx context.Context, dir Capability, names []string) ([]Capability, error)
	// ReplaceSet atomically replaces the capabilities of several rows
	// (Fig. 2: Replace set), returning the previous capabilities.
	ReplaceSet(ctx context.Context, dir Capability, items []SetItem) ([]Capability, error)
	// Apply executes an atomic batch: either every step takes effect, in
	// order, or none do. A failure carries a *BatchError naming the
	// offending step.
	//
	// A batch whose steps all live on one shard commits as a single
	// replicated update — on the group backends, one totally-ordered
	// broadcast regardless of the number of steps — under one service
	// sequence number. A batch naming directories on several shards
	// commits through a two-phase protocol the lowest participant shard
	// coordinates: every home shard stages and locks its steps
	// (PREPARE), then the decision is ordered on the coordinating
	// shard's stream and propagated (COMMIT/ABORT). The batch
	// is still all-or-nothing deployment-wide; each shard commits it
	// under its own sequence number, and readers of a staged directory
	// are held until the decision, so no reader observes one shard's
	// steps without the others'. Batch.SingleShard opts out of the
	// distributed path: a spanning batch then fails fast with
	// ErrCrossShardBatch before anything is sent.
	//
	// A cross-shard Apply that is cancelled once the batch was sent may
	// still commit: the resolver shard finishes the transaction whatever
	// becomes of the caller. Batches of only CreateDir steps have no home
	// and are placed like single CreateDir calls.
	Apply(ctx context.Context, b *Batch) (*BatchResult, error)
}

// Batch accumulates update steps for atomic application via
// Directory.Apply. The zero value is an empty batch; methods chain.
type Batch struct {
	steps  []*dirsvc.Request
	single bool
}

// NewBatch returns an empty batch.
func NewBatch() *Batch { return &Batch{} }

// Len returns the number of accumulated steps.
func (b *Batch) Len() int { return len(b.steps) }

// CreateDir adds a create-dir step. The new directory's capability is
// returned in the step's result after Apply.
func (b *Batch) CreateDir(columns ...string) *Batch {
	b.steps = append(b.steps, &dirsvc.Request{Op: dirsvc.OpCreateDir, Columns: columns})
	return b
}

// DeleteDir adds a delete-dir step.
func (b *Batch) DeleteDir(dir Capability) *Batch {
	b.steps = append(b.steps, &dirsvc.Request{Op: dirsvc.OpDeleteDir, Dir: dir})
	return b
}

// Append adds an append-row step; nil masks mean full rights in every
// column.
func (b *Batch) Append(dir Capability, name string, target Capability, masks []Rights) *Batch {
	if masks == nil {
		masks = []Rights{AllRights, AllRights, AllRights}
	}
	b.steps = append(b.steps, &dirsvc.Request{
		Op: dirsvc.OpAppendRow, Dir: dir, Name: name, Cap: target, Masks: masks,
	})
	return b
}

// Delete adds a delete-row step.
func (b *Batch) Delete(dir Capability, name string) *Batch {
	b.steps = append(b.steps, &dirsvc.Request{Op: dirsvc.OpDeleteRow, Dir: dir, Name: name})
	return b
}

// Chmod adds a chmod-row step.
func (b *Batch) Chmod(dir Capability, name string, masks []Rights) *Batch {
	b.steps = append(b.steps, &dirsvc.Request{Op: dirsvc.OpChmodRow, Dir: dir, Name: name, Masks: masks})
	return b
}

// ReplaceSet adds a replace-set step.
func (b *Batch) ReplaceSet(dir Capability, items []SetItem) *Batch {
	b.steps = append(b.steps, &dirsvc.Request{Op: dirsvc.OpReplaceSet, Dir: dir, Set: items})
	return b
}

// Objects returns the distinct directory object numbers named by the
// batch's steps, in first-appearance order. CreateDir steps name no
// directory and contribute nothing. Clients use this for fine-grained
// cache invalidation after a batch commits.
func (b *Batch) Objects() []uint32 {
	seen := make(map[uint32]bool, len(b.steps))
	var out []uint32
	for _, st := range b.steps {
		if st.Dir.Object == 0 || seen[st.Dir.Object] {
			continue
		}
		seen[st.Dir.Object] = true
		out = append(out, st.Dir.Object)
	}
	return out
}

// SingleShard opts the batch out of distributed (two-phase) commit:
// Apply then fails fast with ErrCrossShardBatch when the steps span
// shards, guaranteeing the one-broadcast fast path for a batch that
// commits at all. Methods chain.
func (b *Batch) SingleShard() *Batch {
	b.single = true
	return b
}

// SingleShardOnly reports whether SingleShard was requested.
func (b *Batch) SingleShardOnly() bool { return b.single }

// Steps returns the accumulated wire steps in submission order
// (transport clients, which split a batch by home shard; not needed by
// API users). The slice is the batch's backing store — do not mutate.
func (b *Batch) Steps() []*dirsvc.Request { return b.steps }

// Request encodes the batch as a single OpBatch wire request (transport
// clients; not needed by API users).
func (b *Batch) Request() *dirsvc.Request {
	return dirsvc.NewBatchRequest(b.steps)
}

// Shard returns the single home shard addressed by the batch's
// directory-bearing steps. ok is false when no step names a directory —
// a batch of only CreateDir steps may be committed on any shard. Steps
// naming directories on two different shards yield ErrCrossShardBatch.
func (b *Batch) Shard(shards int) (shard int, ok bool, err error) {
	for _, st := range b.steps {
		if st.Dir.Object == 0 {
			continue // CreateDir step: homed wherever the batch commits
		}
		s := ShardOf(st.Dir, shards)
		if !ok {
			shard, ok = s, true
		} else if s != shard {
			return 0, false, ErrCrossShardBatch
		}
	}
	return shard, ok, nil
}

// BatchResult is the outcome of a successfully applied batch.
type BatchResult struct {
	// Seq is the sequence number the batch committed under on its home
	// shard. A cross-shard batch commits under one sequence number per
	// involved shard (each shard numbers its own stream); Seq then
	// carries the resolver shard's — the one whose stream ratified the
	// decision.
	Seq uint64
	// Results holds one entry per step, in submission order.
	Results []StepResult
}
