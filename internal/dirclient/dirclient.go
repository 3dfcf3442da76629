// Package dirclient is the user-side library of the directory service:
// the wire implementation of the public dir.Directory interface, issued
// over Amoeba-style RPC against any of the server backends. By default
// server selection uses the RPC layer's port cache (first HEREIS wins,
// NOTHERE evicts), so a client sticks to one directory server until that
// server is busy or gone — the behavior behind Fig. 8's load
// distribution. With Options.ReadBalance the client instead spreads its
// reads across every replica of a shard (any replica holding a majority
// can answer a read locally, §3.1) and preserves session consistency by
// stamping each read with the shard's high-water applied sequence number
// (Request.MinSeq): a read landing on a replica lagging behind one the
// session already heard from waits there until the replica catches up.
// Writes always keep first-responder selection.
//
// In a sharded deployment the client is also the routing layer: every
// operation is sent to the replica group owning the directory it names,
// computed from the object number alone (dir.ShardOf). The root lives
// on shard 0; new directories are placed round-robin across shards for
// load spread. Each shard has its own rpc.Client — its own port cache
// and transaction slot — so operations on different shards proceed in
// parallel. A batch homed on one shard commits as a single replicated
// update; a spanning batch goes, as one request, to its resolver shard,
// which runs the two-phase commit (see twophase.go), unless the batch
// opted out with dir.Batch.SingleShard (dir.ErrCrossShardBatch then).
//
// The client can also cache reads (Options.Cache): List rows and
// looked-up capabilities are kept in a per-shard LRU cache and repeat
// reads are answered locally, with no RPC at all. Invalidation rides the
// sequence numbers every reply already carries — see dir.CacheOptions
// for the exact consistency model. The root capability is cached
// unconditionally (it can never change for a given service).
//
// Every operation takes a context.Context: cancellation or an expired
// deadline aborts the transaction, including an in-flight wait for a
// reply, and returns ctx.Err().
package dirclient

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"dirsvc/dir"
	"dirsvc/internal/capability"
	"dirsvc/internal/dirdata"
	"dirsvc/internal/dirsvc"
	"dirsvc/internal/flip"
	"dirsvc/internal/rpc"
)

// createSeq drives round-robin placement of new directories. It is
// shared by every client in the process, so concurrent clients spread
// their creations across shards instead of all starting on shard 0.
var createSeq atomic.Uint64

// conn is the client's endpoint to one shard: a dedicated RPC client
// (its own port cache and transaction serialization) and the shard's
// service port.
type conn struct {
	rpc  *rpc.Client
	port capability.Port
}

// Client talks to one directory service deployment — one replica group,
// or several when the service is sharded. It implements dir.Directory
// and is safe for concurrent use: the RPC transport multiplexes any
// number of in-flight transactions per shard, so concurrent operations —
// even on one shard — proceed in parallel.
type Client struct {
	conns   []conn     // one per shard; index = shard number
	cache   *readCache // nil = caching disabled
	balance bool       // spread reads across replicas, stamp MinSeq

	// base and total fix the deployment's shard geometry; epoch is the
	// highest shard-map epoch any NOTMINE bounce has taught this client.
	// Routing is epoch-aware (dir.HomeShard): a stale epoch costs at most
	// a one-hop chase per operation, never a wrong answer.
	base, total int
	epoch       atomic.Uint64

	// seqs tracks, per shard, the highest applied sequence number any
	// reply has shown this client — the session's freshness floor,
	// maintained even with the read cache off. Balanced reads carry it
	// as Request.MinSeq.
	seqs []atomic.Uint64

	mu      sync.Mutex
	root    capability.Capability        // cached root capability
	migHook atomic.Pointer[func() error] // fault-injection hook (SetMigrateHook)

	// Watch/lease state (see watch.go): the fan-out hub for dir.Watch
	// subscribers, one lease watcher per shard (started eagerly in
	// leases mode, lazily by Watch otherwise), and the shutdown latch.
	hub         *watchHub
	watchMu     sync.Mutex
	watchers    []*shardWatcher
	watchClosed bool
	watchStop   chan struct{}
}

// Options configure a Client beyond the service name (see NewWithOptions).
type Options struct {
	// Shards is the number of independent replica groups the service is
	// partitioned across (values below 1 mean unsharded).
	Shards int
	// ActiveShards is the number of shards serving traffic at epoch zero
	// (the rest are split targets the client routes to only after a
	// NOTMINE bounce raises its epoch). Zero means all Shards are active.
	ActiveShards int
	// Cache configures the client read cache (zero value: disabled).
	Cache dir.CacheOptions
	// ReadBalance spreads read operations across every replica of a
	// shard — least outstanding first — instead of pinning to the first
	// HEREIS responder, and stamps reads with the session's MinSeq
	// floor so read-your-writes and monotonic reads hold across
	// replicas. Off preserves the paper's §4.2 selection heuristic.
	ReadBalance bool
}

// Client is the wire-transport implementation of the public API.
var _ dir.Directory = (*Client)(nil)

// Client also serves the public event-stream API.
var _ dir.Watcher = (*Client)(nil)

// New creates a client for the named unsharded service on the given
// stack.
func New(stack *flip.Stack, service string) (*Client, error) {
	return NewWithOptions(stack, service, Options{})
}

// NewWithOptions creates a client for the named service with the full
// option set: sharding, read caching, and read balancing.
func NewWithOptions(stack *flip.Stack, service string, opts Options) (*Client, error) {
	shards := opts.Shards
	if shards < 1 {
		shards = 1
	}
	base := opts.ActiveShards
	if base <= 0 || base > shards {
		base = shards
	}
	c := &Client{
		conns:     make([]conn, shards),
		cache:     newReadCache(shards, opts.Cache),
		balance:   opts.ReadBalance,
		base:      base,
		total:     shards,
		seqs:      make([]atomic.Uint64, shards),
		hub:       newWatchHub(),
		watchers:  make([]*shardWatcher, shards),
		watchStop: make(chan struct{}),
	}
	for s := 0; s < shards; s++ {
		rc, err := rpc.NewClient(stack)
		if err != nil {
			for _, cn := range c.conns[:s] {
				cn.rpc.Close()
			}
			return nil, err
		}
		rc.SetReadBalance(opts.ReadBalance)
		rc.SetHedge(opts.ReadBalance)
		c.conns[s] = conn{
			rpc:  rc,
			port: dirsvc.ServicePort(dirsvc.ShardService(service, s, shards)),
		}
	}
	if opts.Cache.Enabled && opts.Cache.Leases {
		c.startLeases()
	}
	return c, nil
}

// Close releases the client's RPC endpoints, stopping the lease
// watchers and closing every Watch stream first.
func (c *Client) Close() {
	c.stopWatchers()
	for _, cn := range c.conns {
		cn.rpc.Close()
	}
}

// Shards returns the number of shards this client routes across.
func (c *Client) Shards() int { return len(c.conns) }

// CacheStats returns the read-cache counters (zero when the cache is
// disabled).
func (c *Client) CacheStats() dir.CacheStats { return c.cache.stats() }

// RPC exposes the shard-0 RPC client (for Bullet access sharing the
// same port cache).
func (c *Client) RPC() *rpc.Client { return c.conns[0].rpc }

// ReplicaStats returns the transport's per-replica latency and load view
// for one shard — smoothed RTT, last piggybacked load hint, outstanding
// requests, how long ago the replica was last heard from and how often a
// request to it was re-sent — in the shard's port-cache order. Empty
// until the shard has been located.
func (c *Client) ReplicaStats(shard int) []rpc.ReplicaStat {
	if shard < 0 || shard >= len(c.conns) {
		return nil
	}
	cn := c.conns[shard]
	return cn.rpc.ReplicaStats(cn.port)
}

// HedgeStats sums the hedged-read counters across every shard endpoint:
// hedges actually sent, and transactions won by the hedge rather than
// the primary.
func (c *Client) HedgeStats() (sent, wins uint64) {
	for _, cn := range c.conns {
		s, w := cn.rpc.HedgeStats()
		sent += s
		wins += w
	}
	return sent, wins
}

// FailoverStats sums the transport's failure-detection counters across
// every shard endpoint: probes sent, WORKING acks received, servers
// declared dead, and transactions a shared verdict failed over.
func (c *Client) FailoverStats() rpc.FailoverStats {
	var sum rpc.FailoverStats
	for _, cn := range c.conns {
		st := cn.rpc.FailoverStats()
		sum.Probes += st.Probes
		sum.Working += st.Working
		sum.Verdicts += st.Verdicts
		sum.Released += st.Released
	}
	return sum
}

// shardOf routes a directory capability to its home shard under the
// client's current shard-map epoch.
func (c *Client) shardOf(d capability.Capability) int {
	return c.homeOf(d.Object)
}

// homeOf routes an object number to its home shard under the client's
// current shard-map epoch.
func (c *Client) homeOf(obj uint32) int {
	return dir.HomeShard(obj, c.epoch.Load(), c.base, c.total)
}

// Epoch returns the highest shard-map epoch this client has learned.
func (c *Client) Epoch() uint64 { return c.epoch.Load() }

// Geometry returns the client's configured shard layout: the number of
// shards active at epoch zero and the number provisioned.
func (c *Client) Geometry() (base, total int) { return c.base, c.total }

// noteEpoch adopts a later shard-map epoch learned from a NOTMINE
// bounce (or a shard-map read) and rehomes object-scoped Watch
// subscriptions whose directory moved in the split. A moved
// subscription's resync marker waits for the new home's first lease, as
// Watch does: an update committed after the marker then reaches the
// stream.
func (c *Client) noteEpoch(epoch uint64) {
	for {
		cur := c.epoch.Load()
		if epoch <= cur {
			return
		}
		if c.epoch.CompareAndSwap(cur, epoch) {
			break
		}
	}
	for shard, ids := range c.hub.rehome(c.homeOf) {
		w := c.ensureWatcher(shard)
		if w == nil {
			return // closed
		}
		go func() {
			select {
			case <-w.ready:
				c.hub.resync(shard, ids)
			case <-c.watchStop:
			}
		}()
	}
}

// nextCreateShard picks the shard for a new directory: round-robin
// across the shards active at the client's epoch, shared process-wide.
func (c *Client) nextCreateShard() int {
	active := dir.ActiveShards(c.epoch.Load(), c.base, c.total)
	if active <= 1 {
		return 0
	}
	return int((createSeq.Add(1) - 1) % uint64(active))
}

// noteSeq advances the session's per-shard freshness floor to seq.
func (c *Client) noteSeq(shard int, seq uint64) {
	if seq == 0 {
		return
	}
	s := &c.seqs[shard]
	for {
		cur := s.Load()
		if seq <= cur || s.CompareAndSwap(cur, seq) {
			return
		}
	}
}

// SessionFloor returns this session's freshness floor for one shard:
// the highest applied sequence number any reply has shown it. Zero for
// an unknown shard or a fresh session.
func (c *Client) SessionFloor(shard int) uint64 {
	if shard < 0 || shard >= len(c.seqs) {
		return 0
	}
	return c.seqs[shard].Load()
}

// floor returns the MinSeq stamp for a read on shard: the session's
// high-water mark when read balancing is on (replicas may lag each
// other), zero — no floor — for the pinned legacy policy.
func (c *Client) floor(shard int) uint64 {
	if !c.balance {
		return 0
	}
	return c.seqs[shard].Load()
}

// decodeNoted decodes a raw transaction result into reply and feeds its
// sequence number into the session floor — the one reply pipeline both
// the pinned and balanced paths share.
func (c *Client) decodeNoted(shard int, raw []byte, err error, reply *dirsvc.Reply) error {
	if err != nil {
		return err
	}
	if err := dirsvc.DecodeReplyInto(reply, raw); err != nil {
		return err
	}
	c.noteSeq(shard, reply.Seq)
	return nil
}

// statusErr converts a reply's non-OK status to an error. Even a failed
// read carries the shard's sequence number and may prove commits the
// cache has not seen (e.g. the directory was deleted by another
// client), so the cache observes it before the error surfaces.
func (c *Client) statusErr(shard int, reply *dirsvc.Reply) error {
	err := reply.Status.Err()
	if err != nil {
		c.cache.noteReply(shard, reply.Seq)
	}
	return err
}

// maxChase bounds how many NOTMINE bounces one operation follows. Each
// bounce teaches the client a newer epoch and the object's owner, so a
// client more than one split behind converges in a few hops; the bound
// only guards against a routing bug turning into an infinite loop.
const maxChase = 8

// bounce inspects a reply for a NOTMINE redirect: the blob names the
// server's epoch — adopted into the client's shard map — and the
// object's owner, returned as the shard to retry at.
func (c *Client) bounce(reply *dirsvc.Reply, shard, hop int) (int, bool) {
	if reply.Status != dirsvc.StatusNotMine || hop >= maxChase {
		return 0, false
	}
	epoch, owner, err := dirsvc.DecodeNotMine(reply.Blob)
	if err != nil {
		return 0, false
	}
	c.noteEpoch(epoch)
	if owner < 0 || owner >= len(c.conns) || owner == shard {
		return 0, false
	}
	return owner, true
}

// trans performs an update transaction into reply, chasing NOTMINE
// bounces to the object's current home. It returns the shard that
// finally served the request, which callers must use for cache and
// session bookkeeping — after a migration it differs from the shard the
// request started at.
func (c *Client) trans(ctx context.Context, shard int, req *dirsvc.Request, reply *dirsvc.Reply) (int, error) {
	for hop := 0; ; hop++ {
		if err := c.transRaw(ctx, shard, req, reply); err != nil {
			return shard, err
		}
		if next, ok := c.bounce(reply, shard, hop); ok {
			shard = next
			continue
		}
		return shard, c.statusErr(shard, reply)
	}
}

// transRead performs a read transaction: server selection may balance
// across replicas (Options.ReadBalance), and the request carries the
// session's freshness floor so a lagging replica waits before answering.
//
// A balanced read retries a no-majority refusal a few times: unlike the
// pinned policy — which sticks to one healthy replica — balancing walks
// into every replica of the shard, including one that is transiently
// recovering or below its floor, and a sibling can usually serve the
// read. A service-wide majority loss still surfaces after the bounded
// retries.
func (c *Client) transRead(ctx context.Context, shard int, req *dirsvc.Request, reply *dirsvc.Reply) (int, error) {
	hops := 0
	for attempt := 0; ; attempt++ {
		req.MinSeq = c.floor(shard)
		if err := c.call(ctx, shard, req, true, reply); err != nil {
			return shard, err
		}
		if next, ok := c.bounce(reply, shard, hops); ok {
			// The object lives elsewhere: chase. The retry budget resets —
			// the new shard's majority state is independent — and the
			// MinSeq floor is re-sampled per shard above (sequence numbers
			// are per-shard domains).
			hops++
			shard = next
			attempt = 0
			continue
		}
		serr := c.statusErr(shard, reply)
		if serr == nil || !c.balance || attempt >= 3 || !errors.Is(serr, dirsvc.ErrNoMajority) {
			return shard, serr
		}
		select {
		case <-time.After(time.Duration(attempt+1) * 5 * time.Millisecond):
		case <-ctx.Done():
			return shard, ctx.Err()
		}
	}
}

// transRaw performs the transaction against one shard and decodes the
// reply without converting a non-OK status to an error (the batch path
// needs the reply's blob alongside the status).
func (c *Client) transRaw(ctx context.Context, shard int, req *dirsvc.Request, reply *dirsvc.Reply) error {
	return c.call(ctx, shard, req, false, reply)
}

// encodeBufs are the request encoders of calls in progress: the transport
// copies a request into its frame and keeps nothing of it, so the buffer
// is the call's scratch, handed to the next call when this one returns.
var encodeBufs = sync.Pool{New: func() any { return new([]byte) }}

// call is one transaction against shard — a read (server selection may
// balance) or an update — decoded through decodeNoted into reply, which
// the caller owns: a call site keeps it on its stack, so a warm call
// allocates only the lists the answer hands on (its capabilities or
// rows). Strings and the blob point into the reply frame, which no one
// changes.
func (c *Client) call(ctx context.Context, shard int, req *dirsvc.Request, read bool, reply *dirsvc.Reply) error {
	cn := c.conns[shard]
	buf := encodeBufs.Get().(*[]byte)
	*buf = req.AppendTo((*buf)[:0])
	var raw []byte
	var err error
	if read {
		raw, err = cn.rpc.TransReadCtx(ctx, cn.port, *buf)
	} else {
		raw, err = cn.rpc.TransCtx(ctx, cn.port, *buf)
	}
	if cap(*buf) <= maxPooledEncode {
		encodeBufs.Put(buf)
	}
	return c.decodeNoted(shard, raw, err, reply)
}

// maxPooledEncode is the largest encoder kept for reuse; a restore's
// snapshot is left to the collector.
const maxPooledEncode = 64 << 10

// Root returns (and caches) the root directory capability. The root is
// always homed on shard 0.
func (c *Client) Root(ctx context.Context) (capability.Capability, error) {
	c.mu.Lock()
	root := c.root
	c.mu.Unlock()
	if !root.IsZero() {
		return root, nil
	}
	var reply dirsvc.Reply
	_, err := c.transRead(ctx, 0, &dirsvc.Request{Op: dirsvc.OpGetRoot}, &reply)
	if err != nil {
		return capability.Capability{}, err
	}
	c.mu.Lock()
	c.root = reply.Cap
	c.mu.Unlock()
	return reply.Cap, nil
}

// CreateDir creates a new directory (Fig. 2: Create dir) and returns its
// owner capability. Default columns apply when none are given. In a
// sharded deployment the new directory is placed round-robin across the
// shards.
func (c *Client) CreateDir(ctx context.Context, columns ...string) (capability.Capability, error) {
	return c.CreateDirOn(ctx, c.nextCreateShard(), columns...)
}

// CreateDirOn creates a new directory homed on the given shard —
// explicit placement for tests, benchmarks, and locality-aware callers.
func (c *Client) CreateDirOn(ctx context.Context, shard int, columns ...string) (capability.Capability, error) {
	if shard < 0 || shard >= len(c.conns) {
		return capability.Capability{}, fmt.Errorf("shard %d of %d: %w", shard, len(c.conns), dirsvc.ErrBadRequest)
	}
	var reply dirsvc.Reply
	shard, err := c.trans(ctx, shard, &dirsvc.Request{Op: dirsvc.OpCreateDir, Columns: columns}, &reply)
	if err != nil {
		return capability.Capability{}, err
	}
	c.cache.noteWrite(shard, reply.Seq, reply.Cap.Object)
	return reply.Cap, nil
}

// DeleteDir deletes a directory (Fig. 2: Delete dir).
func (c *Client) DeleteDir(ctx context.Context, dir capability.Capability) error {
	var reply dirsvc.Reply
	shard, err := c.trans(ctx, c.shardOf(dir), &dirsvc.Request{Op: dirsvc.OpDeleteDir, Dir: dir}, &reply)
	if err != nil {
		return err
	}
	c.cache.noteWrite(shard, reply.Seq, dir.Object)
	return nil
}

// List returns the rows of a directory visible through column col
// (Fig. 2: List dir).
func (c *Client) List(ctx context.Context, dir capability.Capability, col int) ([]dirdata.Row, error) {
	shard := c.shardOf(dir)
	if rows, ok := c.cache.getList(shard, dir, col); ok {
		c.cache.hit()
		return rows, nil
	}
	epoch := c.cache.epochOf(shard)
	var reply dirsvc.Reply
	served, err := c.transRead(ctx, shard, &dirsvc.Request{Op: dirsvc.OpListDir, Dir: dir, Column: col}, &reply)
	if err != nil {
		return nil, err
	}
	if served != shard {
		// The directory migrated: refresh the cache generation cookie for
		// the shard actually holding it before filling.
		shard, epoch = served, c.cache.epochOf(served)
	}
	c.cache.miss()
	c.cache.fillList(shard, epoch, dir, col, reply.Rows, reply.ObjSeq, reply.Seq)
	return reply.Rows, nil
}

// Append stores target under name in dir (Fig. 2: Append row). masks
// gives the per-column rights; nil means full owner rights in every
// column. The target capability is stored opaquely, so rows may point
// at objects on any shard.
func (c *Client) Append(ctx context.Context, dir capability.Capability, name string, target capability.Capability, masks []capability.Rights) error {
	if masks == nil {
		masks = []capability.Rights{capability.AllRights, capability.AllRights, capability.AllRights}
	}
	var reply dirsvc.Reply
	shard, err := c.trans(ctx, c.shardOf(dir), &dirsvc.Request{
		Op:    dirsvc.OpAppendRow,
		Dir:   dir,
		Name:  name,
		Cap:   target,
		Masks: masks,
	}, &reply)
	if err != nil {
		return err
	}
	c.cache.noteWrite(shard, reply.Seq, dir.Object)
	return nil
}

// Delete removes the named row (Fig. 2: Delete row).
func (c *Client) Delete(ctx context.Context, dir capability.Capability, name string) error {
	var reply dirsvc.Reply
	shard, err := c.trans(ctx, c.shardOf(dir), &dirsvc.Request{Op: dirsvc.OpDeleteRow, Dir: dir, Name: name}, &reply)
	if err != nil {
		return err
	}
	c.cache.noteWrite(shard, reply.Seq, dir.Object)
	return nil
}

// Chmod replaces the rights masks of the named row (Fig. 2: Chmod row).
func (c *Client) Chmod(ctx context.Context, dir capability.Capability, name string, masks []capability.Rights) error {
	var reply dirsvc.Reply
	shard, err := c.trans(ctx, c.shardOf(dir), &dirsvc.Request{Op: dirsvc.OpChmodRow, Dir: dir, Name: name, Masks: masks}, &reply)
	if err != nil {
		return err
	}
	c.cache.noteWrite(shard, reply.Seq, dir.Object)
	return nil
}

// Lookup returns the capability stored under name (a one-element
// Fig. 2 Lookup set).
func (c *Client) Lookup(ctx context.Context, dir capability.Capability, name string) (capability.Capability, error) {
	one := lookupAnswers.Get().(*[1]capability.Capability)
	defer lookupAnswers.Put(one)
	caps, err := c.lookupSet(ctx, dir, []string{name}, one[:0])
	if err != nil {
		return capability.Capability{}, err
	}
	if caps[0].IsZero() {
		return capability.Capability{}, dirsvc.ErrNotFound
	}
	return caps[0], nil
}

// lookupAnswers hold one Lookup's answer while it is decoded and read:
// an array on Lookup's stack would move to the heap, since the decode
// leaks what its reply's lists point to.
var lookupAnswers = sync.Pool{New: func() any { return new([1]capability.Capability) }}

// LookupSet looks up several names at once (Fig. 2: Lookup set). Missing
// names yield zero capabilities. The set is answered from the cache only
// when every name is cached (including cached negatives); otherwise the
// whole set goes to the server and every name is cached from the reply.
func (c *Client) LookupSet(ctx context.Context, dir capability.Capability, names []string) ([]capability.Capability, error) {
	return c.lookupSet(ctx, dir, names, nil)
}

// lookupSet is LookupSet answering into dst's backing array, which it
// outgrows only for more names than dst has room for.
func (c *Client) lookupSet(ctx context.Context, dir capability.Capability, names []string, dst []capability.Capability) ([]capability.Capability, error) {
	shard := c.shardOf(dir)
	if c.cache != nil {
		caps := slices.Grow(dst[:0], len(names))[:len(names)]
		allCached := true
		for i, n := range names {
			cp, ok := c.cache.getLookup(shard, dir, n)
			if !ok {
				allCached = false
				break
			}
			caps[i] = cp
		}
		if allCached {
			c.cache.hit()
			return caps, nil
		}
	}
	epoch := c.cache.epochOf(shard)
	var one [1]dirsvc.SetItem // the request does not outlive the call: a single name needs no heap
	set := one[:0]
	if len(names) > 1 {
		set = make([]dirsvc.SetItem, 0, len(names))
	}
	for _, n := range names {
		set = append(set, dirsvc.SetItem{Name: n})
	}
	reply := dirsvc.Reply{Caps: dst}
	served, err := c.transRead(ctx, shard, &dirsvc.Request{Op: dirsvc.OpLookupSet, Dir: dir, Set: set}, &reply)
	if err != nil {
		return nil, err
	}
	if served != shard {
		shard, epoch = served, c.cache.epochOf(served)
	}
	c.cache.miss()
	c.cache.fillLookups(shard, epoch, dir, names, reply.Caps, reply.ObjSeq, reply.Seq)
	return reply.Caps, nil
}

// ReplaceSet atomically replaces the capabilities of several rows
// (Fig. 2: Replace set), returning the previous capabilities.
func (c *Client) ReplaceSet(ctx context.Context, dir capability.Capability, items []dirsvc.SetItem) ([]capability.Capability, error) {
	var reply dirsvc.Reply
	shard, err := c.trans(ctx, c.shardOf(dir), &dirsvc.Request{Op: dirsvc.OpReplaceSet, Dir: dir, Set: items}, &reply)
	if err != nil {
		return nil, err
	}
	c.cache.noteWrite(shard, reply.Seq, dir.Object)
	return reply.Caps, nil
}

// Backup captures a portable snapshot of one shard: every directory it
// stores (object-table entry plus Bullet image), its forwarding stubs
// and topology state, and the two-phase-commit ledger (in-doubt
// transactions and remembered decisions). The snapshot is the same
// encoding the storage engine checkpoints, so it restores into any
// backend kind via RestoreShard. Backups go through the read path —
// with read balancing they may be served by any replica of the shard.
func (c *Client) Backup(ctx context.Context, shard int) ([]byte, error) {
	if shard < 0 || shard >= len(c.conns) {
		return nil, fmt.Errorf("shard %d of %d: %w", shard, len(c.conns), dirsvc.ErrBadRequest)
	}
	var reply dirsvc.Reply
	_, err := c.transRead(ctx, shard, &dirsvc.Request{Op: dirsvc.OpBackup}, &reply)
	if err != nil {
		return nil, err
	}
	// The blob is a slice of the reply frame, which the server's duplicate
	// table may still resend from: the caller gets bytes it may change.
	return slices.Clone(reply.Blob), nil
}

// RestoreShard replaces one shard's state with a snapshot previously
// captured by Backup — disaster recovery, cloning a deployment, or
// seeding a test fixture. The restore is a single replicated update, so
// on the group backends every replica installs the snapshot at the same
// point in the total order. All existing state on the shard is
// discarded, including prepared transactions.
func (c *Client) RestoreShard(ctx context.Context, shard int, snapshot []byte) error {
	if shard < 0 || shard >= len(c.conns) {
		return fmt.Errorf("shard %d of %d: %w", shard, len(c.conns), dirsvc.ErrBadRequest)
	}
	var reply dirsvc.Reply
	shard, err := c.trans(ctx, shard, &dirsvc.Request{Op: dirsvc.OpRestoreShard, Blob: snapshot}, &reply)
	if err != nil {
		return err
	}
	// Everything cached for the shard may now be wrong; drop it wholesale.
	c.cache.dropShard(shard)
	c.cache.noteWrite(shard, reply.Seq)
	return nil
}

// Apply executes an atomic batch. A batch homed on one shard goes out
// as one wire request — on the group backends, one totally-ordered
// group broadcast regardless of the number of steps. A batch naming
// directories on several shards also goes out as one request, to its
// resolver shard (the lowest participant), whose replica group runs the
// two-phase commit (see applyTx) whatever becomes of this client —
// unless the batch opted out with dir.Batch.SingleShard, in which case
// it fails fast with dir.ErrCrossShardBatch before anything is sent.
// Either every step takes effect or none do; a rejected batch returns a
// *dir.BatchError naming the failing step. A batch of only CreateDir
// steps is placed round-robin, like single CreateDir calls.
func (c *Client) Apply(ctx context.Context, b *dir.Batch) (*dir.BatchResult, error) {
	if b.Len() == 0 {
		return &dir.BatchResult{}, nil
	}
	if b.Len() > dir.MaxBatchSteps {
		return nil, fmt.Errorf("batch of %d steps exceeds the %d-step limit: %w",
			b.Len(), dir.MaxBatchSteps, dir.ErrBadRequest)
	}
	plan := c.planBatch(b)
	if len(plan.shards) > 1 {
		if b.SingleShardOnly() {
			return nil, dir.ErrCrossShardBatch
		}
		return c.applyTx(ctx, b.Len(), plan)
	}
	var shard int
	if len(plan.shards) == 1 {
		shard = plan.shards[0]
	} else {
		shard = c.nextCreateShard() // all-create batch: no home, place round-robin
	}
	var reply dirsvc.Reply
	if err := c.transRaw(ctx, shard, b.Request(), &reply); err != nil {
		return nil, err
	}
	if serr := reply.Status.Err(); serr != nil {
		if idx, ok := dirsvc.DecodeBatchFailIndex(reply.Blob); ok {
			return nil, &dirsvc.BatchError{Index: idx, Err: serr}
		}
		return nil, serr
	}
	results, err := dirsvc.DecodeBatchResults(reply.Blob)
	if err != nil {
		return nil, err
	}
	// One batch commits under one sequence number: the touched
	// directories are the steps' targets plus any created ones.
	objs := b.Objects()
	for _, r := range results {
		if r.Cap.Object != 0 {
			objs = append(objs, r.Cap.Object)
		}
	}
	c.cache.noteWrite(shard, reply.Seq, objs...)
	return &dir.BatchResult{Seq: reply.Seq, Results: results}, nil
}
