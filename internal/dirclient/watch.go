package dirclient

import (
	"context"
	"sync"
	"time"

	"dirsvc/dir"
	"dirsvc/internal/capability"
	"dirsvc/internal/dirsvc"
	"dirsvc/internal/rpc"
)

// This file is the client half of the push-based coherence subsystem:
// one lease-holding watcher goroutine per shard, feeding two consumers —
// the read cache (pushed per-object invalidations replace the
// conservative Seq-jump heuristic while a lease is live) and the public
// Watch event streams (fan-out through the watch hub).
//
// The watcher's cursor is (log identity, next log index). Every batch
// the server sends — subscribe confirmation, push, renewal reply —
// carries both, so the watcher always knows whether it has the complete
// stream: a push whose index is ahead of the cursor means a lost push
// (recovered by an immediate renewal, which replays from the cursor),
// and a batch with a new identity or an explicit resync flag means the
// stream broke (the watcher drops the shard's cache entries and emits
// one dir.EventResync downstream).

// watchChanDepth buffers one Watch subscriber's channel. A consumer
// that falls this far behind gets a resync marker instead of the
// events it missed.
const watchChanDepth = 128

// watchSub is one Watch subscriber.
type watchSub struct {
	id    uint64
	shard int    // -1: all shards
	obj   uint32 // 0: all objects
	ch    chan dir.Event
	// owedResync marks shards whose events overflowed this subscriber's
	// channel; the debt is paid with one coalesced resync marker as soon
	// as the channel has room.
	owedResync map[int]bool
	closed     bool
}

// watchHub fans shard event streams out to Watch subscribers.
type watchHub struct {
	mu   sync.Mutex
	subs map[uint64]*watchSub
	next uint64
}

func newWatchHub() *watchHub {
	return &watchHub{subs: make(map[uint64]*watchSub)}
}

func (h *watchHub) subscribe(shard int, obj uint32) *watchSub {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.next++
	sub := &watchSub{
		id:         h.next,
		shard:      shard,
		obj:        obj,
		ch:         make(chan dir.Event, watchChanDepth),
		owedResync: make(map[int]bool),
	}
	h.subs[sub.id] = sub
	return sub
}

// remove unregisters one subscriber and closes its channel.
func (h *watchHub) remove(id uint64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if sub, ok := h.subs[id]; ok {
		delete(h.subs, id)
		sub.closed = true
		close(sub.ch)
	}
}

// rehome recomputes the home shard of every object-scoped subscription
// after a shard-map epoch advance. A subscription whose directory moved
// in a split switches to the new home's stream and owes its consumer a
// resync marker — events committed at the new home before the switch
// may have been missed. The returned subscriptions, keyed by new home,
// get that marker from resync once the home's watcher holds a lease
// (started by the client outside the hub lock).
func (h *watchHub) rehome(homeOf func(uint32) int) map[int][]uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	var moved map[int][]uint64
	for _, sub := range h.subs {
		if sub.shard == -1 || sub.obj == 0 {
			continue
		}
		home := homeOf(sub.obj)
		if home == sub.shard {
			continue
		}
		sub.shard = home
		if moved == nil {
			moved = make(map[int][]uint64)
		}
		moved[home] = append(moved[home], sub.id)
	}
	return moved
}

// resync sends shard's resync marker to the subscriptions ids that
// still watch it, or owes it to those whose channel is full.
func (h *watchHub) resync(shard int, ids []uint64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, id := range ids {
		sub := h.subs[id]
		if sub == nil || sub.shard != shard {
			continue // gone, or rehomed again
		}
		select {
		case sub.ch <- dir.Event{Shard: shard, Type: dir.EventResync}:
		default:
			sub.owedResync[shard] = true
		}
	}
}

// closeAll closes every subscriber channel (client shutdown).
func (h *watchHub) closeAll() {
	h.mu.Lock()
	defer h.mu.Unlock()
	for id, sub := range h.subs {
		delete(h.subs, id)
		sub.closed = true
		close(sub.ch)
	}
}

// deliver fans one event out to the matching subscribers. Sends never
// block: a full subscriber channel converts the event into a resync
// debt, delivered as one EventResync when space frees up — falling
// behind is surfaced, never silent.
func (h *watchHub) deliver(ev dir.Event) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, sub := range h.subs {
		if sub.shard != -1 && sub.shard != ev.Shard {
			continue
		}
		if ev.Type == dir.EventUpdate && sub.obj != 0 && !touchesObject(ev.Objects, sub.obj) {
			continue
		}
		if sub.owedResync[ev.Shard] {
			select {
			case sub.ch <- dir.Event{Shard: ev.Shard, Type: dir.EventResync}:
				delete(sub.owedResync, ev.Shard)
			default:
				continue // still no room; the debt subsumes this event too
			}
			if ev.Type == dir.EventResync {
				continue // the debt payment was this very marker
			}
		}
		select {
		case sub.ch <- ev:
		default:
			sub.owedResync[ev.Shard] = true
		}
	}
}

func touchesObject(objs []uint32, obj uint32) bool {
	for _, o := range objs {
		if o == obj {
			return true
		}
	}
	return false
}

// Watch implements dir.Watcher: it subscribes to committed updates,
// watching one directory's object (and shard) when d is non-zero, or
// every shard's full stream for the zero capability. Watch blocks until
// the subscription is established on every watched shard (bounded by
// ctx), so an update committed after Watch returns is guaranteed to
// reach the stream — as an event, or covered by a resync marker. See
// dir.Watcher for the ordering and resync guarantees. The channel
// closes when ctx is cancelled or the client is closed.
func (c *Client) Watch(ctx context.Context, d capability.Capability) (<-chan dir.Event, error) {
	shard, obj := -1, uint32(0)
	if d.Object != 0 {
		shard, obj = c.shardOf(d), d.Object
	}
	var watchers []*shardWatcher
	if shard == -1 {
		for s := range c.conns {
			watchers = append(watchers, c.ensureWatcher(s))
		}
	} else {
		watchers = append(watchers, c.ensureWatcher(shard))
	}
	for _, w := range watchers {
		if w == nil {
			return nil, rpc.ErrClosed
		}
		select {
		case <-w.ready:
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-c.watchStop:
			return nil, rpc.ErrClosed
		}
	}
	sub := c.hub.subscribe(shard, obj)
	go func() {
		select {
		case <-ctx.Done():
		case <-c.watchStop:
		}
		c.hub.remove(sub.id)
	}()
	return sub.ch, nil
}

// startLeases launches one watcher per shard eagerly — the cache-
// coherence mode, where every shard the client caches must be covered
// before its first read.
func (c *Client) startLeases() {
	for s := range c.conns {
		c.ensureWatcher(s)
	}
}

// ensureWatcher starts shard's lease watcher if it is not running and
// returns it (nil when the client is closed).
func (c *Client) ensureWatcher(shard int) *shardWatcher {
	c.watchMu.Lock()
	defer c.watchMu.Unlock()
	if c.watchClosed {
		return nil
	}
	if w := c.watchers[shard]; w != nil {
		return w
	}
	w := newShardWatcher(c, shard)
	c.watchers[shard] = w
	go w.run()
	return w
}

// stopWatchers tears down the lease watchers and every Watch stream
// (client shutdown).
func (c *Client) stopWatchers() {
	c.watchMu.Lock()
	if c.watchClosed {
		c.watchMu.Unlock()
		return
	}
	c.watchClosed = true
	watchers := make([]*shardWatcher, 0, len(c.watchers))
	for _, w := range c.watchers {
		if w != nil {
			watchers = append(watchers, w)
		}
	}
	c.watchMu.Unlock()
	close(c.watchStop)
	for _, w := range watchers {
		w.stopAndWait()
	}
	c.hub.closeAll()
}

// shardWatcher holds one shard's watch lease: it subscribes, consumes
// pushes, renews the lease at a third of its TTL, and re-subscribes
// (with catch-up when the server's log allows it) after any failure.
type shardWatcher struct {
	c      *Client
	shard  int
	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{}
	ready  chan struct{} // closed after the first established lease

	logID   uint64 // current event-log identity (0 before first contact)
	nextIdx uint64 // next log index the stream owes us
}

func newShardWatcher(c *Client, shard int) *shardWatcher {
	ctx, cancel := context.WithCancel(context.Background())
	return &shardWatcher{
		c: c, shard: shard, ctx: ctx, cancel: cancel,
		done: make(chan struct{}), ready: make(chan struct{}),
	}
}

func (w *shardWatcher) stopAndWait() {
	w.cancel()
	<-w.done
}

// run is the watcher loop: subscribe, serve the stream until it breaks,
// repeat with backoff.
func (w *shardWatcher) run() {
	defer close(w.done)
	backoff := 25 * time.Millisecond
	for {
		if w.ctx.Err() != nil {
			return
		}
		stream, batch, err := w.subscribe()
		if err != nil {
			if w.ctx.Err() != nil {
				return
			}
			if !w.sleep(backoff) {
				return
			}
			if backoff *= 2; backoff > time.Second {
				backoff = time.Second
			}
			continue
		}
		backoff = 25 * time.Millisecond
		ttl := time.Duration(batch.TTLMillis) * time.Millisecond
		if ttl <= 0 {
			ttl = 3 * time.Second
		}
		gap := w.processBatch(batch)
		w.c.cache.setLeased(w.shard, true)
		select { // first lease established: unblock Watch callers
		case <-w.ready:
		default:
			close(w.ready)
		}
		if gap {
			// The confirmation was outrun by a push (reordered consume):
			// renew immediately to replay the missed prefix.
			if batch, ok := w.renew(stream); ok {
				w.processBatch(batch)
			} else {
				w.lost(stream)
				continue
			}
		}
		w.serve(stream, ttl)
		if w.ctx.Err() != nil {
			w.c.cache.setLeased(w.shard, false)
			stream.Close()
			return
		}
		w.lost(stream)
	}
}

// lost handles a broken stream: without pushes the cache cannot trust
// entries beyond the cursor, so the shard's entries go and the pull-only
// heuristic takes back over until the next successful subscribe.
func (w *shardWatcher) lost(stream *rpc.Stream) {
	stream.Close()
	w.c.cache.setLeased(w.shard, false)
	w.c.cache.dropShard(w.shard)
}

func (w *shardWatcher) sleep(d time.Duration) bool {
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return true
	case <-w.ctx.Done():
		return false
	}
}

// subscribe establishes the lease, passing the current cursor so a
// server whose log still holds it replays the missed suffix instead of
// forcing a resync.
func (w *shardWatcher) subscribe() (*rpc.Stream, *dirsvc.EventBatch, error) {
	cn := w.c.conns[w.shard]
	req := &dirsvc.Request{Op: dirsvc.OpWatch, Seq: w.logID, MinSeq: w.nextIdx}
	stream, raw, err := cn.rpc.Subscribe(w.ctx, cn.port, req.Encode())
	if err != nil {
		return nil, nil, err
	}
	batch, err := decodeBatchReply(raw)
	if err != nil {
		stream.Close()
		return nil, nil, err
	}
	return stream, batch, nil
}

// renew refreshes the lease at the server holding it and returns the
// events the stream missed. ok=false means the lease could not be
// renewed there (expired, no majority, server gone) — re-subscribe.
func (w *shardWatcher) renew(stream *rpc.Stream) (*dirsvc.EventBatch, bool) {
	cn := w.c.conns[w.shard]
	req := &dirsvc.Request{Op: dirsvc.OpLeaseRenew, Seq: stream.Tx(), MinSeq: w.nextIdx}
	raw, err := cn.rpc.TransTo(w.ctx, stream.Server(), cn.port, req.Encode())
	if err != nil {
		return nil, false
	}
	batch, err := decodeBatchReply(raw)
	if err != nil {
		return nil, false
	}
	return batch, true
}

// decodeBatchReply unwraps Reply{Blob: EventBatch}, mapping any
// non-OK status to an error.
func decodeBatchReply(raw []byte) (*dirsvc.EventBatch, error) {
	reply, err := dirsvc.DecodeReply(raw)
	if err != nil {
		return nil, err
	}
	if reply.Status != dirsvc.StatusOK {
		return nil, reply.Status.Err()
	}
	return dirsvc.DecodeEventBatch(reply.Blob)
}

// processBatch folds one batch — confirmation, renewal reply, or push
// (they share one shape) — into the cursor, the cache, and the hub. It
// returns true when the batch's events start beyond the cursor: a gap
// the caller must repair with a renewal (or, failing that, surface as a
// resync).
func (w *shardWatcher) processBatch(batch *dirsvc.EventBatch) (gap bool) {
	discontinuity := batch.Resync || (w.logID != 0 && batch.LogID != w.logID)
	if discontinuity {
		// Events were (or may have been) missed for good: invalidate
		// everything cached for the shard and tell Watch consumers.
		w.c.cache.dropShard(w.shard)
		w.c.hub.deliver(dir.Event{Shard: w.shard, Type: dir.EventResync})
		w.logID = batch.LogID
		w.nextIdx = batch.FirstIdx
	} else if w.logID == 0 {
		// First contact: adopt the server's cursor, no resync — nothing
		// was promised before this point.
		w.logID = batch.LogID
		w.nextIdx = batch.FirstIdx
	} else if batch.FirstIdx > w.nextIdx {
		return true
	}
	for i, ev := range batch.Events {
		idx := batch.FirstIdx + uint64(i)
		if idx < w.nextIdx {
			continue // replay overlap (at-least-once): already delivered
		}
		w.deliverUpdate(ev)
		w.nextIdx = idx + 1
	}
	return false
}

// deliverUpdate applies one committed event: per-object cache
// invalidation, session-floor advance, hub fan-out.
func (w *shardWatcher) deliverUpdate(ev dirsvc.Event) {
	w.c.cache.invalidateObjects(w.shard, ev.Seq, ev.Objects)
	w.c.noteSeq(w.shard, ev.Seq)
	w.c.hub.deliver(dir.Event{
		Shard:   w.shard,
		Type:    dir.EventUpdate,
		Seq:     ev.Seq,
		Op:      ev.Op.String(),
		Objects: ev.Objects,
	})
}

// serve consumes the stream until it breaks (returning to the
// subscribe loop) or the watcher stops.
func (w *shardWatcher) serve(stream *rpc.Stream, ttl time.Duration) {
	renewEvery := ttl / 3
	if renewEvery < 10*time.Millisecond {
		renewEvery = 10 * time.Millisecond
	}
	ticker := time.NewTicker(renewEvery)
	defer ticker.Stop()
	cn := w.c.conns[w.shard]
	for {
		select {
		case <-w.ctx.Done():
			return
		case <-cn.rpc.Done():
			return
		case m := <-stream.Chan():
			payload, ok := rpc.PushPayload(m)
			if !ok {
				continue
			}
			batch, err := decodeBatchReply(payload)
			if err != nil {
				continue
			}
			if batch.Resync || batch.LogID != w.logID {
				// The server reset its log (crash recovery): re-subscribe
				// now instead of waiting for the renewal to fail.
				return
			}
			if gap := w.processBatch(batch); gap {
				// A push was lost (stream buffer overrun): replay the
				// missed span from the server's log.
				batch, ok := w.renew(stream)
				if !ok {
					return
				}
				if w.processBatch(batch) {
					return // still gapped: the log already dropped it
				}
			}
		case <-ticker.C:
			batch, ok := w.renew(stream)
			if !ok {
				return
			}
			if w.processBatch(batch) {
				return
			}
		}
	}
}
