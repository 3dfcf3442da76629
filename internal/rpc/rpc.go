// Package rpc implements Amoeba-style remote procedure call on top of the
// FLIP layer.
//
// An RPC costs three messages — REQUEST, REPLY, ACK — matching the paper's
// cost analysis (§3.1: "an RPC in Amoeba requires only 3 messages").
// Server location uses the mechanism described in §4.2: the first time a
// client performs an RPC with a service, it broadcasts a locate for the
// service port; every listening server answers HEREIS; the client caches
// all answers in arrival order. By default requests go to the first server
// that replied — the paper's deliberately imperfect heuristic behind the
// uneven load distribution of Fig. 8. If a request reaches a server with
// no thread blocked in GetRequest, the server answers NOTHERE; the client
// evicts that server from its port cache and selects another (or locates
// again). A server that stops answering altogether marks the cache stale,
// so the next selection re-locates and a recovered replica rejoins the
// candidate set immediately instead of waiting for the cache to drain
// empty; a TTL bounds staleness even without failures.
//
// "Stops answering" is one verdict per server, not one per transaction.
// An overdue reply is probed for — the request re-sent, first after twice
// the server's measured ~p95 round trip, then doubling up to the reply
// time-out — and a server with the request in progress answers WORKING,
// so slow is never taken for dead. Only retransmits+1 probes in a row
// with no frame of any kind from the server declare it dead, and that
// fails over every transaction parked on it at once.
//
// The transport is concurrent: one Client multiplexes any number of
// in-flight transactions over its single reply port. Replies are routed
// back to their transaction by id (a demux goroutine), so goroutines
// sharing a Client never serialize behind each other's round-trips — only
// transaction-id allocation and port-cache bookkeeping are under the
// client mutex. Read-mostly callers can additionally opt into replica
// balancing (SetReadBalance): TransRead then spreads requests across
// every cached HEREIS responder, which is what lets N replicas answer N
// reads in parallel (§3.1 — any replica holding a majority can answer a
// read locally).
//
// Balanced selection is adaptive rather than round-robin: the client
// keeps a per-replica EWMA of observed reply latency (TCP SRTT-style),
// folds in the load hint every server piggybacks on its replies and
// HEREIS answers, and picks by power-of-two-choices over the combined
// score. Replicas with no recent sample score as unknown and are probed
// rather than shunned, so a recovered server rejoins the rotation.
// Balanced reads may additionally be hedged (SetHedge): when a reply is
// slower than the replica's ~p95 (SRTT + 4·RTTVAR), the same request is
// re-issued to the next-best replica and the first reply wins. Reads are
// idempotent and MinSeq-guarded, so a hedge is always safe; a token
// bucket caps the added load.
package rpc

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"dirsvc/internal/capability"
	"dirsvc/internal/flip"
	"dirsvc/internal/sim"
)

// Operation codes on the wire.
const (
	opRequest = 1
	opReply   = 2
	opNotHere = 3
	opAck     = 4
	opWorking = 5 // server → client: the retransmitted request is still in progress
)

var (
	// ErrNoServer is returned when no server for the port can be located.
	ErrNoServer = errors.New("rpc: no server located for port")
	// ErrTimeout is returned when all attempts to transact failed.
	ErrTimeout = errors.New("rpc: transaction timed out")
	// ErrClosed is returned after the client or server has shut down.
	ErrClosed = errors.New("rpc: closed")
)

var clientSeq atomic.Uint64

// replyChanDepth buffers per-transaction reply routing; retransmissions
// can produce several replies for one transaction.
const replyChanDepth = 8

// maxFreeReplyChans bounds the client's recycled reply channels: about
// the number of transactions it has in flight at once.
const maxFreeReplyChans = 64

// timers recycles transactions' probe timers. A timer is scratch owned by
// the one transaction waiting on it, which returns it stopped; since Go
// 1.23 a stopped or reset timer's channel holds no stale tick, so the next
// owner's first expiry is its own.
var timers = sync.Pool{New: func() any { return time.NewTimer(time.Hour) }}

// portCache is the client's knowledge of one service port: the HEREIS
// responders of the last locate, in arrival order.
type portCache struct {
	servers []sim.NodeID
	// writable is the subset of servers whose HEREIS did not carry the
	// read-only flag: updates (and unbalanced picks) route only here,
	// while balanced reads spread over the full set including
	// checkpoint-fed secondary instances. Empty means every responder
	// announced read-only — updates then fall back to the full set and
	// let the server refuse, rather than failing to route at all.
	writable []sim.NodeID
	// recheckAt is when the entry next warrants a fresh locate: one TTL
	// after a successful fill; immediately when a cached server stopped
	// answering (so recovered or substitute replicas rejoin the
	// candidate set at the next selection instead of waiting for the
	// shrinking remainder to drain); one locate window after a re-locate
	// came up empty (serve from the remainder, but keep trying).
	recheckAt time.Time
}

// replicaStat is the client's adaptive-routing state for one replica of
// one port: smoothed reply latency (TCP RTO-style SRTT/RTTVAR), the load
// hint the server last piggybacked, and when the last latency sample
// landed (stale samples stop counting against a replica — see
// scoreLocked). probes counts the requests re-sent to it; down is the
// channel its dead verdict closes, nil until a transaction waits on it
// and nil again after a verdict (a re-located replica starts afresh).
type replicaStat struct {
	srtt    time.Duration
	rttvar  time.Duration
	hint    byte
	updated time.Time
	samples uint64
	probes  uint64
	down    chan struct{}
}

// target is one pick: the server, the channel its dead verdict will close
// and the wait before the first probe, all read under the pick's mutex.
type target struct {
	server sim.NodeID
	down   chan struct{}
	probe  time.Duration
}

// FailoverStats counts the transport's failure-detection events.
type FailoverStats struct {
	Probes   uint64 // requests re-sent because the reply was overdue
	Working  uint64 // WORKING acks received: the server still had the request in progress
	Verdicts uint64 // servers declared dead after retransmits+1 silent probes
	Released uint64 // transactions failed over by another transaction's verdict
}

// Hedging parameters: each balanced read refills hedgeRate tokens (cap
// hedgeBurst) and an actual hedge spends one, bounding steady-state
// hedge traffic to ~10% of reads.
const (
	hedgeRate  = 0.1
	hedgeBurst = 5
)

// Client issues transactions to servers located by port. A Client is safe
// for concurrent use and multiplexes any number of in-flight transactions
// over one reply port: replies are demultiplexed by transaction id, so
// concurrent callers proceed in parallel (unlike the Amoeba kernel, which
// had one transaction slot per thread).
type Client struct {
	stack     *flip.Stack
	replyPort capability.Port
	replies   *flip.Listener

	locateWindow time.Duration
	replyTimeout time.Duration // longest probe interval; × (retransmits+1), the longest wait on one server
	probeFloor   time.Duration // shortest probe interval: one group heartbeat period
	retransmits  int
	maxAttempts  int
	cacheTTL     time.Duration

	balance atomic.Bool
	hedge   atomic.Bool

	hedgesSent atomic.Uint64
	hedgeWins  atomic.Uint64

	mu       sync.Mutex
	cache    map[capability.Port]*portCache
	locating map[capability.Port]chan struct{}
	load     map[capability.Port]map[sim.NodeID]int          // in-flight requests per server
	stats    map[capability.Port]map[sim.NodeID]*replicaStat // adaptive-routing state
	pending  map[uint64]chan flip.Msg                        // reply routing by transaction id
	free     []chan flip.Msg                                 // drained reply channels of finished transactions
	heard    map[sim.NodeID]time.Time                        // last frame routed from each node
	failover FailoverStats
	txid     uint64
	rng      *rand.Rand // P2C candidate selection; guarded by mu
	tokens   float64    // hedge token bucket; guarded by mu

	closed chan struct{} // closed when the demux exits (Close or crash)
}

// NewClient creates a client endpoint on the given stack. Timeouts are
// derived from the network's latency model.
func NewClient(stack *flip.Stack) (*Client, error) {
	seq := clientSeq.Add(1)
	replyPort := capability.PortFromString(fmt.Sprintf("rpc-reply-%d-%d", stack.Node().ID(), seq))
	l, err := stack.Register(replyPort)
	if err != nil {
		return nil, fmt.Errorf("register reply port: %w", err)
	}
	model := stack.Model()
	replyTimeout := model.Timeout(15 * time.Second)
	if replyTimeout < 200*time.Millisecond {
		// With a zero-scale model, processing takes wall-clock time only
		// through goroutine scheduling; keep enough headroom that
		// retransmissions stay exceptional.
		replyTimeout = 200 * time.Millisecond
	}
	cacheTTL := model.Timeout(60 * time.Second)
	if cacheTTL < 5*time.Second {
		cacheTTL = 5 * time.Second
	}
	probeFloor := model.Timeout(150 * time.Millisecond)
	if probeFloor < 50*time.Millisecond {
		probeFloor = 50 * time.Millisecond // three probes must outlast a host scheduling stall
	}
	c := &Client{
		stack:        stack,
		replyPort:    replyPort,
		replies:      l,
		locateWindow: model.Timeout(15 * time.Millisecond),
		replyTimeout: replyTimeout,
		probeFloor:   probeFloor,
		retransmits:  2,
		maxAttempts:  8,
		cacheTTL:     cacheTTL,
		cache:        make(map[capability.Port]*portCache),
		locating:     make(map[capability.Port]chan struct{}),
		load:         make(map[capability.Port]map[sim.NodeID]int),
		stats:        make(map[capability.Port]map[sim.NodeID]*replicaStat),
		pending:      make(map[uint64]chan flip.Msg),
		heard:        make(map[sim.NodeID]time.Time),
		rng:          rand.New(rand.NewSource(int64(seq))),
		tokens:       hedgeBurst,
		// Transaction ids carry the client sequence number in the high
		// bits so that (node, tx) is globally unique even when several
		// clients share a host.
		txid:   seq << 32,
		closed: make(chan struct{}),
	}
	go c.demux()
	return c, nil
}

// Close releases the client's reply port and unblocks every in-flight
// transaction with ErrClosed.
func (c *Client) Close() { c.replies.Close() }

// SetReadBalance selects the server-selection policy TransRead uses:
// false (the default) pins reads to the first HEREIS responder like every
// other transaction — the paper's §4.2 heuristic, with Fig. 8's skew;
// true spreads reads across all cached responders by power-of-two-choices
// over each replica's latency EWMA × (1 + load hint), so N replicas serve
// reads in parallel and independent clients avoid dogpiling the replica
// that merely looks idle from their own counters.
func (c *Client) SetReadBalance(on bool) { c.balance.Store(on) }

// SetHedge enables hedged balanced reads: when a balanced read has waited
// past its replica's ~p95 latency estimate (SRTT + 4·RTTVAR), the same
// request is re-issued to the next-best replica and the first reply wins.
// Only TransRead/TransReadCtx with balancing active hedge; the rate is
// capped by a token bucket (hedgeRate per read, burst hedgeBurst).
func (c *Client) SetHedge(on bool) { c.hedge.Store(on) }

// HedgeStats reports how many hedge requests this client issued and how
// many transactions the hedged replica won.
func (c *Client) HedgeStats() (sent, wins uint64) {
	return c.hedgesSent.Load(), c.hedgeWins.Load()
}

// FailoverStats returns the failure-detection counters.
func (c *Client) FailoverStats() FailoverStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.failover
}

// ReplicaStat is one replica's routing state as seen by this client:
// smoothed latency, the load hint it last advertised, in-flight requests
// from this client, the age of its last latency sample, the age of its
// last frame of any kind (zero: never heard), and requests re-sent to it.
type ReplicaStat struct {
	Server   sim.NodeID
	SRTT     time.Duration
	RTTVar   time.Duration
	Hint     byte
	Inflight int
	Age      time.Duration
	Samples  uint64
	Heard    time.Duration
	Probes   uint64
}

// ReplicaStats returns the adaptive-routing state for every cached
// replica of port, in cache (HEREIS arrival) order. Replicas not yet
// sampled report zero SRTT and Samples.
func (c *Client) ReplicaStats(port capability.Port) []ReplicaStat {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.cache[port]
	if e == nil {
		return nil
	}
	now := time.Now()
	out := make([]ReplicaStat, 0, len(e.servers))
	for _, s := range e.servers {
		rs := ReplicaStat{Server: s, Inflight: c.load[port][s]}
		if at, ok := c.heard[s]; ok {
			rs.Heard = now.Sub(at)
		}
		if st := c.stats[port][s]; st != nil {
			rs.SRTT, rs.RTTVar, rs.Hint, rs.Samples, rs.Probes = st.srtt, st.rttvar, st.hint, st.samples, st.probes
			if !st.updated.IsZero() {
				rs.Age = now.Sub(st.updated)
			}
		}
		out = append(out, rs)
	}
	return out
}

// CachedServers returns the client's current port-cache entry, in
// preference order. Exposed for tests.
func (c *Client) CachedServers(port capability.Port) []sim.NodeID {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.cache[port]
	if e == nil {
		return nil
	}
	out := make([]sim.NodeID, len(e.servers))
	copy(out, e.servers)
	return out
}

// SetCacheTTL overrides the port-cache time-to-live (tests and tools;
// the default derives from the latency model). After the TTL the next
// server selection re-locates, so replicas that recovered without any
// failure being observed rejoin the candidate set. Entries already
// cached are re-clamped to the new TTL.
func (c *Client) SetCacheTTL(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.cacheTTL = d
	limit := time.Now().Add(d)
	for _, e := range c.cache {
		if e.recheckAt.After(limit) {
			e.recheckAt = limit
		}
	}
}

// demux routes incoming replies to their transaction by id and notes, for
// every frame, that its sender is alive (a WORKING ack says nothing else
// and ends here). The hand-off never blocks and happens under the mutex
// that registers and unregisters reply channels, so once a transaction
// has unregistered its channel nothing more arrives in it and the channel
// can serve the next transaction. It exits — closing c.closed, which
// unblocks every waiter — when the reply listener shuts down (Close or
// node crash).
func (c *Client) demux() {
	defer close(c.closed)
	for m := range c.replies.Chan() {
		if len(m.Payload) < 9 {
			continue
		}
		tx := binary.BigEndian.Uint64(m.Payload[1:9])
		now := time.Now()
		c.mu.Lock()
		c.heard[m.Src] = now
		if m.Payload[0] == opWorking {
			c.failover.Working++
		} else if ch := c.pending[tx]; ch != nil {
			select {
			case ch <- m:
			default: // waiter overrun: drop, retransmission recovers
			}
		}
		c.mu.Unlock()
	}
}

// Trans performs one transaction with any server of the service identified
// by port: it sends req and returns the server's reply. Semantics are
// at-most-once per server (duplicate suppression by transaction id); if a
// server stops replying the client fails over to another server, so an
// operation may execute twice across a crash — exactly the Amoeba
// contract the paper's services are built on (§2: "it does not support
// failure-free operations for clients"). req is copied into the request
// frame and not kept: the caller may reuse it once Trans returns, as it
// may with every other transaction entry point.
func (c *Client) Trans(port capability.Port, req []byte) ([]byte, error) {
	return c.TransCtx(context.Background(), port, req)
}

// TransCtx is Trans bounded by a context: cancellation or an expired
// deadline aborts the transaction — including an in-flight wait for a
// reply — and returns ctx.Err(). The Amoeba kernel had no such handle;
// every operation blocked until the kernel-level timeout fired.
func (c *Client) TransCtx(ctx context.Context, port capability.Port, req []byte) ([]byte, error) {
	_, reply, err := c.transact(ctx, port, req, route{})
	return reply, err
}

// TransRead is TransReadCtx with a background context.
func (c *Client) TransRead(port capability.Port, req []byte) ([]byte, error) {
	return c.TransReadCtx(context.Background(), port, req)
}

// TransReadCtx performs a read transaction: identical to TransCtx except
// that, with SetReadBalance(true), the server is picked by spreading load
// across every cached HEREIS responder instead of pinning to the first.
// Callers balancing reads should carry their session's freshness floor in
// the request payload (the directory protocol's MinSeq), since different
// replicas may lag one another.
func (c *Client) TransReadCtx(ctx context.Context, port capability.Port, req []byte) ([]byte, error) {
	_, reply, err := c.transact(ctx, port, req, route{balance: c.balance.Load()})
	return reply, err
}

// route is all the public entry points differ in.
type route struct {
	balance bool       // spread over every cached responder (TransRead, balancing on)
	fixed   bool       // go to server and nowhere else (TransTo)
	server  sim.NodeID // the fixed server
	keep    bool       // leave the reply channel registered after the reply (Subscribe)
}

// transact is the one attempt loop: register a reply channel, build the
// request frame, then pick a server, wait on it and act on the verdict
// until a reply arrives or the attempts run out. Every attempt, probe and
// hedge sends the same frame. A transaction is a Stream, usually closed
// after its first reply — its channel then serves a later transaction —
// and it comes back naming the server that answered.
func (c *Client) transact(ctx context.Context, port capability.Port, req []byte, r route) (s Stream, reply []byte, err error) {
	attempts := c.maxAttempts
	if r.fixed {
		attempts = 3
	}
	s = Stream{c: c}
	c.mu.Lock()
	c.txid++
	s.tx = c.txid
	switch n := len(c.free); {
	case r.keep:
		s.ch = make(chan flip.Msg, pushChanDepth)
	case n > 0:
		s.ch, c.free = c.free[n-1], c.free[:n-1]
	default:
		s.ch = make(chan flip.Msg, replyChanDepth)
	}
	c.pending[s.tx] = s.ch
	c.mu.Unlock()
	defer func() {
		switch {
		case !r.keep:
			s.recycle()
		case err != nil:
			s.Close()
		}
	}()
	wire := requestFrame(port, s.tx, c.replyPort, req)

	located, noServer := false, 0
loop:
	for attempt := 0; attempt < attempts; attempt++ {
		if err := ctx.Err(); err != nil {
			return s, nil, err
		}
		t, ok := c.pickServer(ctx, port, r, &located)
		if !ok {
			if err := ctx.Err(); err != nil {
				return s, nil, err
			}
			select {
			case <-c.closed:
				return s, nil, ErrClosed
			default:
			}
			// A locate can come up empty transiently (the HEREIS window is
			// one round-trip wide): each pick backs off one window first.
			if noServer++; noServer >= 3 {
				return s, nil, fmt.Errorf("port %v: %w", port, ErrNoServer)
			}
			continue
		}
		payload, from, v := c.transactOnce(ctx, t, port, s.tx, wire, s.ch, r.balance && c.hedge.Load())
		c.release(port, t.server)
		switch v {
		case verdictReply:
			s.server = from
			return s, payload, nil
		case verdictCanceled:
			return s, nil, ctx.Err()
		case verdictClosed:
			return s, nil, ErrClosed
		case verdictNotHere:
			// Busy: drain to the next cached candidate (§4.2), or wait.
			if !r.fixed {
				c.evict(port, t, v)
			} else if err := c.pause(ctx, c.locateWindow); err != nil {
				return s, nil, err
			}
		default:
			// Silent or stuck: the next pick re-locates, if it may.
			c.evict(port, t, v)
			if r.fixed {
				break loop
			}
		}
	}
	return s, nil, fmt.Errorf("port %v: %w", port, ErrTimeout)
}

// pause waits d, or less if the context or the client ends first.
func (c *Client) pause(ctx context.Context, d time.Duration) error {
	select {
	case <-time.After(d):
		return nil
	case <-ctx.Done():
		return ctx.Err()
	case <-c.closed:
		return ErrClosed
	}
}

type verdict int

const (
	verdictReply   verdict = iota + 1
	verdictNotHere         // no thread in GetRequest at the server
	verdictDead            // retransmits+1 probes and not a frame from the server: every waiter's verdict
	verdictSlow            // frames, but no reply in (retransmits+1) × replyTimeout: this transaction's alone
	verdictCanceled
	verdictClosed
)

// transactOnce sends the request frame to one server and waits for its
// routed replies. An overdue reply is probed for: the same frame (same id, so
// the server's duplicate suppression holds) goes out again after t.probe,
// then twice that, up to replyTimeout. retransmits+1 expiries in a row
// with no frame from the server since the last transmission are
// verdictDead — through evict and t.down, every waiter's; a server that
// is heard from is waited on for the old per-server bound.
//
// With hedge set, a reply slower than the server's ~p95 latency estimate
// triggers one hedge: the same wire frame goes to the next-best replica,
// and whichever reply arrives first wins — the demultiplexer already
// routes both to this channel, and the server-side duplicate-suppression
// table keys on (src, tx), so the loser is simply a second reply that the
// winner's return leaves unread. Runs without the client mutex.
func (c *Client) transactOnce(ctx context.Context, t target, port capability.Port, tx uint64, wire []byte, replies <-chan flip.Msg, hedge bool) ([]byte, sim.NodeID, verdict) {
	var (
		hedgeCh     <-chan time.Time
		hedged      bool // a hedge was actually sent (NodeID 0 is valid, so a flag, not the zero id)
		hedgeServer sim.NodeID
		hedgeSent   time.Time
	)
	if hedge {
		if d, ok := c.hedgeDelay(port, t.server); ok {
			hedgeCh = time.After(d)
		}
	}
	defer func() {
		if hedged {
			c.release(port, hedgeServer)
		}
	}()
	sentAt := time.Now() // first transmission, for Karn-safe RTT samples
	if err := c.stack.SendFrame(t.server, wire); err != nil {
		return nil, 0, verdictDead
	}
	var (
		probeAt  = sentAt // latest transmission
		interval = t.probe
		silent   = 0 // consecutive transmissions nothing came back for
		giveUp   = sentAt.Add(time.Duration(c.retransmits+1) * c.replyTimeout)
	)
	timer := timers.Get().(*time.Timer)
	timer.Reset(interval)
	defer func() {
		timer.Stop()
		timers.Put(timer)
	}()
	// onFrame acts on one routed frame; verdict 0 means keep waiting.
	onFrame := func(m flip.Msg) ([]byte, verdict) {
		op, _, hint, payload, err := decodeReply(m.Payload)
		switch {
		case err != nil:
		case op == opReply:
			// A reply is valid whichever server it came from: a server
			// this transaction already gave up on may answer late, and
			// its reply is still the result of this exact request
			// (at-most-once per server). Third message of the exchange:
			// acknowledge so the server can drop its duplicate entry.
			ack := binary.BigEndian.AppendUint64(append(flip.NewFrame(port, 9), opAck), tx)
			_ = c.stack.SendFrame(m.Src, ack)
			// RTT sampling follows Karn's rule: only replies
			// attributable to one transmission count — the primary's
			// before any probe, or the hedge's (it is sent once).
			switch {
			case hedged && m.Src == hedgeServer:
				c.hedgeWins.Add(1)
				c.noteReply(port, m.Src, time.Since(hedgeSent), hint)
			case m.Src == t.server && probeAt.Equal(sentAt):
				c.noteReply(port, m.Src, time.Since(sentAt), hint)
			default:
				c.noteHint(port, m.Src, hint)
			}
			return payload, verdictReply
		case op == opNotHere && m.Src == t.server:
			// (Not a stale NOTHERE from a server this transaction failed
			// over from, or from a busy hedge target.)
			c.noteHint(port, m.Src, hint)
			return nil, verdictNotHere
		}
		return nil, 0
	}
	for {
		select {
		case m := <-replies:
			if payload, v := onFrame(m); v != 0 {
				return payload, m.Src, v
			}
		case <-hedgeCh:
			hedgeCh = nil
			if hs, ok := c.takeHedge(port, t.server); ok {
				hedged, hedgeServer, hedgeSent = true, hs, time.Now()
				c.hedgesSent.Add(1)
				_ = c.stack.SendFrame(hs, wire)
			}
		case <-timer.C:
			// select picks at random between a fired timer and a ready
			// reply: take what has arrived before calling it silence.
			for len(replies) > 0 {
				m := <-replies
				if payload, v := onFrame(m); v != 0 {
					return payload, m.Src, v
				}
			}
			now := time.Now()
			if c.heardSince(t.server, probeAt) {
				silent = 0
			} else if silent++; silent > c.retransmits {
				return nil, 0, verdictDead
			}
			if !now.Before(giveUp) {
				return nil, 0, verdictSlow
			}
			c.mu.Lock()
			c.failover.Probes++
			c.statLocked(port, t.server).probes++
			c.mu.Unlock()
			if err := c.stack.SendFrame(t.server, wire); err != nil {
				return nil, 0, verdictDead
			}
			probeAt = now
			interval = min(2*interval, c.replyTimeout)
			timer.Reset(min(interval, giveUp.Sub(now)))
		case <-t.down:
			return nil, 0, verdictDead
		case <-ctx.Done():
			return nil, 0, verdictCanceled
		case <-c.closed:
			return nil, 0, verdictClosed
		}
	}
}

// heardSince reports whether any frame from server arrived at or after t:
// the evidence that an unanswered probe met a live server.
func (c *Client) heardSince(server sim.NodeID, t time.Time) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return !c.heard[server].Before(t) // never heard is the zero time
}

// hedgeDelay computes how long a balanced read waits on server before
// hedging: the replica's rtoLocked. It also refills the hedge token
// bucket — called once per hedge-eligible read, so the refill rate is
// hedgeRate tokens per read. No sample yet, or an estimate so large the
// probe path covers it, disables the hedge for this transaction.
func (c *Client) hedgeDelay(port capability.Port, server sim.NodeID) (time.Duration, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.tokens += hedgeRate; c.tokens > hedgeBurst {
		c.tokens = hedgeBurst
	}
	d, ok := c.rtoLocked(port, server)
	if !ok || d >= c.replyTimeout {
		return 0, false
	}
	return max(d, time.Millisecond), true
}

// rtoLocked is the replica's SRTT + 4·RTTVAR (~p95 under the TCP RTO
// model), or false while it has no sample: the hedge fires after one of
// these, the first probe after two. Must hold c.mu.
func (c *Client) rtoLocked(port capability.Port, server sim.NodeID) (time.Duration, bool) {
	st := c.stats[port][server]
	if st == nil || st.samples == 0 {
		return 0, false
	}
	return st.srtt + 4*st.rttvar, true
}

// aimLocked charges server one in-flight request and returns the target:
// the first probe comes after clamp(2·rto, probeFloor, replyTimeout), or
// 4 × probeFloor for a server never sampled. Must hold c.mu.
func (c *Client) aimLocked(port capability.Port, server sim.NodeID) target {
	if c.load[port] == nil {
		c.load[port] = make(map[sim.NodeID]int)
	}
	c.load[port][server]++
	st := c.statLocked(port, server)
	if st.down == nil {
		st.down = make(chan struct{})
	}
	probe := 4 * c.probeFloor
	if rto, ok := c.rtoLocked(port, server); ok {
		probe = max(2*rto, c.probeFloor)
	}
	return target{server: server, down: st.down, probe: min(probe, c.replyTimeout)}
}

// takeHedge spends one hedge token and picks the best-scored cached
// replica other than primary, charging it one in-flight request. It
// fails when the bucket is dry or no other replica is cached.
func (c *Client) takeHedge(port capability.Port, primary sim.NodeID) (sim.NodeID, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.tokens < 1 {
		return 0, false
	}
	e := c.cache[port]
	if e == nil {
		return 0, false
	}
	var (
		best      sim.NodeID
		bestScore float64
		found     bool
	)
	for _, s := range e.servers {
		if s == primary {
			continue
		}
		if sc := c.scoreLocked(port, s); !found || sc < bestScore {
			best, bestScore, found = s, sc, true
		}
	}
	if !found {
		return 0, false
	}
	c.tokens--
	return c.aimLocked(port, best).server, true
}

// noteReply folds one RTT sample and the piggybacked load hint into the
// replica's routing state (SRTT/RTTVAR per the TCP RTO estimator).
func (c *Client) noteReply(port capability.Port, server sim.NodeID, rtt time.Duration, hint byte) {
	if rtt < 0 {
		rtt = 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.statLocked(port, server)
	if st.samples == 0 {
		st.srtt = rtt
		st.rttvar = rtt / 2
	} else {
		dev := st.srtt - rtt
		if dev < 0 {
			dev = -dev
		}
		st.rttvar = st.rttvar - st.rttvar/4 + dev/4
		st.srtt = st.srtt - st.srtt/8 + rtt/8
	}
	st.samples++
	st.hint = hint
	st.updated = time.Now()
}

// noteHint records a piggybacked load hint without an RTT sample (late
// replies, NOTHERE, HEREIS seeding).
func (c *Client) noteHint(port capability.Port, server sim.NodeID, hint byte) {
	c.mu.Lock()
	c.statLocked(port, server).hint = hint
	c.mu.Unlock()
}

// statLocked returns (allocating if needed) the routing state of one
// replica. Must hold c.mu.
func (c *Client) statLocked(port capability.Port, server sim.NodeID) *replicaStat {
	m := c.stats[port]
	if m == nil {
		m = make(map[sim.NodeID]*replicaStat)
		c.stats[port] = m
	}
	st := m[server]
	if st == nil {
		st = &replicaStat{}
		m[server] = st
	}
	return st
}

// scoreLocked ranks a replica for balanced selection: lower is better.
// The score is the latency EWMA inflated by the server's advertised load
// hint and by this client's own in-flight requests to it. A replica with
// no sample — or whose last sample has gone stale — scores zero, so it
// is probed rather than shunned forever: that is how a recovered replica
// re-enters the rotation. Must hold c.mu.
func (c *Client) scoreLocked(port capability.Port, server sim.NodeID) float64 {
	st := c.stats[port][server]
	if st == nil || st.samples == 0 || time.Since(st.updated) > 2*c.replyTimeout {
		return 0
	}
	return float64(st.srtt) * (1 + float64(st.hint)/64) * float64(1+c.load[port][server])
}

// pickServer returns the route's fixed server or a server for port,
// locating the service when the cache is empty, stale after a failover,
// or past its TTL. Concurrent pickers share one locate (single-flight).
// located tracks whether this transaction already performed a locate,
// limiting it to one backoff round per attempt.
func (c *Client) pickServer(ctx context.Context, port capability.Port, r route, located *bool) (target, bool) {
	for {
		c.mu.Lock()
		e := c.cache[port]
		if r.fixed || (e != nil && len(e.servers) > 0 && time.Now().Before(e.recheckAt)) {
			t := c.chooseLocked(port, e, r)
			c.mu.Unlock()
			return t, true
		}
		if wait, inFlight := c.locating[port]; inFlight {
			c.mu.Unlock()
			select {
			case <-wait:
				continue // re-check the refreshed cache
			case <-ctx.Done():
				return target{}, false
			case <-c.closed:
				return target{}, false
			}
		}
		done := make(chan struct{})
		c.locating[port] = done
		c.mu.Unlock()

		found, ok := c.locate(ctx, port, located)

		c.mu.Lock()
		delete(c.locating, port)
		close(done)
		if !ok || len(found) == 0 {
			// Locate came up empty: fall back to the remainder the cache
			// still holds (those servers may well be alive; only the
			// refresh failed) — but only for a short grace, so the next
			// picks keep retrying the locate until the set is rebuilt.
			if e = c.cache[port]; e == nil || len(e.servers) == 0 {
				c.mu.Unlock()
				return target{}, false
			}
			e.recheckAt = time.Now().Add(c.locateWindow)
		} else {
			e = &portCache{servers: make([]sim.NodeID, len(found)), recheckAt: time.Now().Add(c.cacheTTL)}
			for i, h := range found {
				e.servers[i] = h.Src
				if !h.ReadOnly {
					e.writable = append(e.writable, h.Src)
				}
				// Seed each responder's routing state with the hint its
				// HEREIS piggybacked, so the first balanced picks already
				// steer away from loaded replicas.
				c.statLocked(port, h.Src).hint = h.Hint
			}
			c.cache[port] = e
		}
		t := c.chooseLocked(port, e, r)
		c.mu.Unlock()
		return t, true
	}
}

// locate broadcasts a LOCATE and collects the HEREIS responders with
// their piggybacked load hints. A second locate within one transaction
// waits one window first, giving servers time to come up.
func (c *Client) locate(ctx context.Context, port capability.Port, located *bool) ([]flip.HereIs, bool) {
	if *located && c.pause(ctx, c.locateWindow) != nil {
		return nil, false
	}
	*located = true
	found, err := c.stack.LocateHints(port, c.locateWindow, 0)
	if err != nil {
		return nil, false
	}
	return found, true
}

// chooseLocked picks the route's fixed server or one from the cache entry
// and charges it one in-flight request. First-responder order for
// unbalanced picks; power-of-two-choices over the adaptive score (EWMA ×
// load hint × in-flight) for balanced reads — two random candidates, keep the
// better, which spreads load almost as evenly as ranking every replica
// while staying O(1) and avoiding the herd behavior of always picking
// the global best. Candidates whose scores are within 50% of each other
// count as tied and split randomly, and a candidate that loses outright
// has its stored latency decayed: a replica only re-samples its latency
// when it is picked, so without the decay one unlucky early sample
// (cold caches, a scheduling hiccup) would freeze a replica out of the
// rotation forever. Must hold c.mu.
func (c *Client) chooseLocked(port capability.Port, e *portCache, r route) target {
	if r.fixed {
		return c.aimLocked(port, r.server)
	}
	// Unbalanced picks — all updates, plus reads from clients that opted
	// out of balancing — must land on a writable responder; read-only
	// secondaries join the pool only for balanced reads.
	pool := e.servers
	if !r.balance && len(e.writable) > 0 {
		pool = e.writable
	}
	server := pool[0]
	if r.balance && len(pool) > 1 {
		i := c.rng.Intn(len(pool))
		j := c.rng.Intn(len(pool) - 1)
		if j >= i {
			j++
		}
		best, worst := pool[i], pool[j]
		sBest, sWorst := c.scoreLocked(port, best), c.scoreLocked(port, worst)
		if sWorst < sBest {
			best, worst = worst, best
			sBest, sWorst = sWorst, sBest
		}
		server = best
		if sWorst <= sBest*3/2 {
			if c.rng.Intn(2) == 0 {
				server = worst
			}
		} else if st := c.stats[port][worst]; st != nil {
			st.srtt -= st.srtt / 4
		}
	}
	return c.aimLocked(port, server)
}

// release returns one in-flight charge for server.
func (c *Client) release(port capability.Port, server sim.NodeID) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if load := c.load[port]; load != nil {
		if load[server]--; load[server] <= 0 {
			delete(load, server)
		}
	}
}

// evict removes the server a transaction gave up on from the port cache.
// A NOTHERE keeps the paper's drain behavior; the other verdicts expire
// the entry so the next selection re-locates (failover refresh) instead
// of draining the shrinking remainder. verdictDead also closes the down
// channel: every transaction parked there returns the same verdict.
func (c *Client) evict(port capability.Port, t target, why verdict) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if why == verdictDead {
		st := c.statLocked(port, t.server)
		if st.down != t.down {
			c.failover.Released++
			return
		}
		close(st.down)
		st.down = nil
		c.failover.Verdicts++
	}
	e := c.cache[port]
	if e == nil {
		return
	}
	gone := func(s sim.NodeID) bool { return s == t.server }
	e.servers, e.writable = slices.DeleteFunc(e.servers, gone), slices.DeleteFunc(e.writable, gone)
	if why != verdictNotHere {
		e.recheckAt = time.Time{}
	}
}

// requestFrame builds a whole request frame for port in one buffer: the
// FLIP header, [op:1][tx:8][reply port:6], then the caller's payload.
func requestFrame(port capability.Port, tx uint64, replyPort capability.Port, payload []byte) []byte {
	buf := append(flip.NewFrame(port, 1+8+6+len(payload)), opRequest)
	buf = binary.BigEndian.AppendUint64(buf, tx)
	buf = append(buf, replyPort[:]...)
	return append(buf, payload...)
}

// decodeReply parses a server-to-client frame:
// [op:1][tx:8][hint:1][payload]. The hint byte is the server's load
// advertisement (see Server.hintByte), present on every reply, push and
// NOTHERE.
func decodeReply(buf []byte) (op byte, tx uint64, hint byte, payload []byte, err error) {
	if len(buf) < 10 {
		return 0, 0, 0, nil, errors.New("rpc: short reply")
	}
	return buf[0], binary.BigEndian.Uint64(buf[1:9]), buf[9], buf[10:], nil
}
