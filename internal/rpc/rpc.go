// Package rpc implements Amoeba-style remote procedure call on top of the
// FLIP layer.
//
// A warm RPC costs two frames, REQUEST and REPLY — one fewer than the
// paper's cost analysis (§3.1: "an RPC in Amoeba requires only 3
// messages"). The third, the client's ACK that lets the server drop the
// reply it keeps for retransmissions, was sent before Trans returned and
// received by the server just ahead of that client's next request, so
// each end's per-packet processing sat on the critical path of every
// transaction. The acknowledgement now rides the client's next REQUEST
// to the same server and port, as in Birrell and Nelson's RPC; only a
// client that sends nothing there for one probe floor acknowledges in an
// ACK frame of its own.
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
	opAck     = 4 // client → server: [op][tx:8]…, transactions finished while the client sent no request there
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

// requestHeader is a request frame's rpc header, [op][tx:8][replyPort:6]
// [n:1], which n acknowledged transaction ids and the payload follow.
const requestHeader = 1 + 8 + 6 + 1

// maxAcks is the most acknowledgements one request carries; the rest ride
// the next one.
const maxAcks = 255

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
	servers []*peer
	// recheckAt is when the entry next warrants a fresh locate: one TTL
	// after a successful fill; immediately when a cached server stopped
	// answering (so recovered or substitute replicas rejoin the
	// candidate set at the next selection instead of waiting for the
	// shrinking remainder to drain); one locate window after a re-locate
	// came up empty (serve from the remainder, but keep trying).
	recheckAt time.Time
}

// node is one host the client has sent to or heard from: when a frame
// from it last arrived — liveness is per host, so any frame counts for
// every port it serves — and its peer records, one per port.
type node struct {
	id    sim.NodeID
	heard time.Time
	peers []*peer
}

// peer is everything the client knows about one server of one port, the
// record the port cache points at; an evicted replica that is located
// again comes back to it. Guarded by the client mutex. srtt/rttvar are
// the TCP RTO-style smoothed reply latency, updated is when the last of
// samples landed (stale samples stop counting against a replica — see
// scoreLocked), hint is the load the server last piggybacked. down is
// the channel the dead verdict closes: nil until a transaction waits on
// the server, and nil again after a verdict, so a re-located replica is
// a fresh incarnation with its old latency history. owed holds the
// finished transactions the server still keeps duplicate entries for,
// since the oldest's end; the slice is kept when emptied, so a busy peer
// owes without allocating.
type peer struct {
	at           *node
	port         capability.Port
	srtt, rttvar time.Duration
	hint         byte
	updated      time.Time
	samples      uint64
	probes       uint64 // requests re-sent because a reply was overdue
	inflight     int
	down         chan struct{}
	owed         []uint64
	since        time.Time
}

// target is one pick: the peer, the channel its dead verdict will close
// and the wait before the first probe, all read under the pick's mutex.
type target struct {
	peer  *peer
	down  chan struct{}
	probe time.Duration
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
	nodes    map[sim.NodeID]*node     // every server sent to or heard from, with its peers
	pending  map[uint64]chan flip.Msg // reply routing by transaction id
	free     []chan flip.Msg          // drained reply channels of finished transactions
	ackTimer *time.Timer              // sends what has been owed for a probeFloor (flushAcks)
	ackArmed bool                     // ackTimer is set
	shut     bool                     // Close has sent what was owed: owe nothing more
	failover FailoverStats
	txid     uint64
	rng      *rand.Rand // P2C candidate selection; guarded by mu
	tokens   float64    // hedge token bucket; guarded by mu

	closed chan struct{} // closed when the demux exits (Close or crash)
}

// Patience is how long a client under model waits on a live server — one
// that answers WORKING — before it sends the request to another replica:
// (retransmits+1) reply time-outs. A request a server holds longer may
// run on two replicas.
func Patience(model *sim.LatencyModel) time.Duration {
	// With a zero-scale model, processing takes wall-clock time only
	// through goroutine scheduling; keep enough headroom that
	// retransmissions stay exceptional.
	return 3 * max(model.Timeout(15*time.Second), 200*time.Millisecond)
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
		replyTimeout: Patience(model) / 3,
		probeFloor:   probeFloor,
		retransmits:  2,
		maxAttempts:  8,
		cacheTTL:     cacheTTL,
		cache:        make(map[capability.Port]*portCache),
		locating:     make(map[capability.Port]chan struct{}),
		nodes:        make(map[sim.NodeID]*node),
		pending:      make(map[uint64]chan flip.Msg),
		rng:          rand.New(rand.NewSource(int64(seq))),
		tokens:       hedgeBurst,
		// Transaction ids carry the client sequence number in the high
		// bits so that (node, tx) is globally unique even when several
		// clients share a host.
		txid:   seq << 32,
		closed: make(chan struct{}),
	}
	c.ackTimer = time.AfterFunc(time.Hour, c.flushAcks)
	c.ackTimer.Stop()
	go c.demux()
	return c, nil
}

// Close sends the acknowledgements the client still owes (best effort,
// so that a short-lived client leaves no duplicate entries behind),
// releases its reply port and unblocks every in-flight transaction with
// ErrClosed.
func (c *Client) Close() {
	c.mu.Lock()
	c.shut = true
	c.ackTimer.Stop()
	frames, _ := c.takeAcksLocked(time.Now())
	c.mu.Unlock()
	c.sendAcks(frames)
	c.replies.Close()
}

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
	for _, p := range e.servers {
		rs := ReplicaStat{Server: p.at.id, SRTT: p.srtt, RTTVar: p.rttvar, Hint: p.hint, Inflight: p.inflight, Samples: p.samples, Probes: p.probes}
		if !p.at.heard.IsZero() {
			rs.Heard = now.Sub(p.at.heard)
		}
		if !p.updated.IsZero() {
			rs.Age = now.Sub(p.updated)
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
	for i, p := range e.servers {
		out[i] = p.at.id
	}
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
		c.nodeLocked(m.Src).heard = now
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

// transact is the one attempt loop: register a reply channel, then pick
// a server, wait on it and act on the verdict until a reply arrives or
// the attempts run out. The request frame is built for the first server
// picked, carrying what the client owes it, and every attempt, probe and
// hedge sends that same frame. When the transaction ends, every server it
// reached is owed its id. A transaction is a Stream, usually closed after
// its first reply — its channel then serves a later transaction — and it
// comes back naming the server that answered.
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
	var (
		wire      []byte
		reachedAt [4]*peer
		reached   = reachedAt[:0] // every server a frame went to, once each
	)
	defer func() {
		c.owe(s.tx, reached)
		switch {
		case !r.keep:
			s.recycle()
		case err != nil:
			s.Close()
		}
	}()
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
		if wire == nil {
			wire = c.request(t.peer, s.tx, req)
		}
		payload, from, hedgedTo, v := c.transactOnce(ctx, t, wire, s.ch, r.balance && c.hedge.Load())
		c.release(t.peer)
		if hedgedTo != t.peer {
			c.release(hedgedTo)
		}
		for _, p := range [...]*peer{t.peer, hedgedTo} {
			if !slices.Contains(reached, p) {
				reached = append(reached, p)
			}
		}
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
				c.evict(t, v)
			} else if err := c.pause(ctx, c.locateWindow); err != nil {
				return s, nil, err
			}
		default:
			// Silent or stuck: the next pick re-locates, if it may.
			c.evict(t, v)
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
// winner's return leaves unread. hedgedTo is the hedge's peer, charged
// one in-flight request for the caller to release, or t.peer when no
// hedge went out. Runs without the client mutex.
func (c *Client) transactOnce(ctx context.Context, t target, wire []byte, replies <-chan flip.Msg, hedge bool) (reply []byte, from sim.NodeID, hedgedTo *peer, v verdict) {
	var (
		hedgeCh   <-chan time.Time
		hedgeSent time.Time
		server    = t.peer.at.id
	)
	hedgedTo = t.peer
	if hedge {
		if d, ok := c.hedgeDelay(t.peer); ok {
			hedgeCh = time.After(d)
		}
	}
	sentAt := time.Now() // first transmission, for Karn-safe RTT samples
	if err := c.stack.SendFrame(server, wire); err != nil {
		return nil, 0, hedgedTo, verdictDead
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
			// (at-most-once per server). RTT sampling follows Karn's
			// rule: only replies attributable to one transmission count
			// — the primary's before any probe, or the hedge's (it is
			// sent once).
			switch {
			case hedgedTo != t.peer && m.Src == hedgedTo.at.id:
				c.hedgeWins.Add(1)
				c.noteReply(hedgedTo, time.Since(hedgeSent), hint)
			case m.Src == server && probeAt.Equal(sentAt):
				c.noteReply(t.peer, time.Since(sentAt), hint)
			case m.Src == server:
				c.noteHint(t.peer, hint)
			default: // an earlier attempt's server
				c.noteHint(c.peerOf(t.peer.port, m.Src), hint)
			}
			return payload, verdictReply
		case op == opNotHere && m.Src == server:
			// (Not a stale NOTHERE from a server this transaction failed
			// over from, or from a busy hedge target.)
			c.noteHint(t.peer, hint)
			return nil, verdictNotHere
		}
		return nil, 0
	}
	for {
		select {
		case m := <-replies:
			if payload, v := onFrame(m); v != 0 {
				return payload, m.Src, hedgedTo, v
			}
		case <-hedgeCh:
			hedgeCh = nil
			if p, ok := c.takeHedge(t.peer); ok {
				hedgedTo, hedgeSent = p, time.Now()
				c.hedgesSent.Add(1)
				_ = c.stack.SendFrame(p.at.id, wire)
			}
		case <-timer.C:
			// select picks at random between a fired timer and a ready
			// reply: take what has arrived before calling it silence.
			for len(replies) > 0 {
				m := <-replies
				if payload, v := onFrame(m); v != 0 {
					return payload, m.Src, hedgedTo, v
				}
			}
			now := time.Now()
			c.mu.Lock()
			heard := !t.peer.at.heard.Before(probeAt) // the evidence that the last transmission met a live server
			c.mu.Unlock()
			if heard {
				silent = 0
			} else if silent++; silent > c.retransmits {
				return nil, 0, hedgedTo, verdictDead
			}
			if !now.Before(giveUp) {
				return nil, 0, hedgedTo, verdictSlow
			}
			c.mu.Lock()
			c.failover.Probes++
			t.peer.probes++
			c.mu.Unlock()
			if err := c.stack.SendFrame(server, wire); err != nil {
				return nil, 0, hedgedTo, verdictDead
			}
			probeAt = now
			interval = min(2*interval, c.replyTimeout)
			timer.Reset(min(interval, giveUp.Sub(now)))
		case <-t.down:
			return nil, 0, hedgedTo, verdictDead
		case <-ctx.Done():
			return nil, 0, hedgedTo, verdictCanceled
		case <-c.closed:
			return nil, 0, hedgedTo, verdictClosed
		}
	}
}

// hedgeDelay computes how long a balanced read waits on p before
// hedging: the replica's rtoLocked. It also refills the hedge token
// bucket — called once per hedge-eligible read, so the refill rate is
// hedgeRate tokens per read. No sample yet, or an estimate so large the
// probe path covers it, disables the hedge for this transaction.
func (c *Client) hedgeDelay(p *peer) (time.Duration, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.tokens += hedgeRate; c.tokens > hedgeBurst {
		c.tokens = hedgeBurst
	}
	d, ok := p.rtoLocked()
	if !ok || d >= c.replyTimeout {
		return 0, false
	}
	return max(d, time.Millisecond), true
}

// rtoLocked is the replica's SRTT + 4·RTTVAR (~p95 under the TCP RTO
// model), or false while it has no sample: the hedge fires after one of
// these, the first probe after two. Must hold the client mutex.
func (p *peer) rtoLocked() (time.Duration, bool) {
	if p.samples == 0 {
		return 0, false
	}
	return p.srtt + 4*p.rttvar, true
}

// aimLocked charges p one in-flight request and returns the target: the
// first probe comes after clamp(2·rto, probeFloor, replyTimeout), or 4 ×
// probeFloor for a server never sampled. Must hold c.mu.
func (c *Client) aimLocked(p *peer) target {
	p.inflight++
	if p.down == nil {
		p.down = make(chan struct{})
	}
	probe := 4 * c.probeFloor
	if rto, ok := p.rtoLocked(); ok {
		probe = max(2*rto, c.probeFloor)
	}
	return target{peer: p, down: p.down, probe: min(probe, c.replyTimeout)}
}

// takeHedge spends one hedge token and picks the best-scored cached
// replica other than primary, charging it one in-flight request. It
// fails when the bucket is dry or no other replica is cached.
func (c *Client) takeHedge(primary *peer) (*peer, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.cache[primary.port]
	if c.tokens < 1 || e == nil {
		return nil, false
	}
	var (
		best      *peer
		bestScore float64
	)
	for _, p := range e.servers {
		if p == primary {
			continue
		}
		if sc := c.scoreLocked(p); best == nil || sc < bestScore {
			best, bestScore = p, sc
		}
	}
	if best == nil {
		return nil, false
	}
	c.tokens--
	return c.aimLocked(best).peer, true
}

// noteReply folds one RTT sample and the piggybacked load hint into the
// replica's routing state (SRTT/RTTVAR per the TCP RTO estimator).
func (c *Client) noteReply(p *peer, rtt time.Duration, hint byte) {
	if rtt < 0 {
		rtt = 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if p.samples == 0 {
		p.srtt = rtt
		p.rttvar = rtt / 2
	} else {
		dev := p.srtt - rtt
		if dev < 0 {
			dev = -dev
		}
		p.rttvar = p.rttvar - p.rttvar/4 + dev/4
		p.srtt = p.srtt - p.srtt/8 + rtt/8
	}
	p.samples++
	p.hint = hint
	p.updated = time.Now()
}

// noteHint records a piggybacked load hint without an RTT sample (late
// replies, NOTHERE).
func (c *Client) noteHint(p *peer, hint byte) {
	c.mu.Lock()
	p.hint = hint
	c.mu.Unlock()
}

// peerOf returns (creating if needed) the record of server on port.
func (c *Client) peerOf(port capability.Port, server sim.NodeID) *peer {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.peerLocked(port, server)
}

// peerLocked is peerOf under c.mu.
func (c *Client) peerLocked(port capability.Port, server sim.NodeID) *peer {
	n := c.nodeLocked(server)
	for _, p := range n.peers {
		if p.port == port {
			return p
		}
	}
	p := &peer{at: n, port: port}
	n.peers = append(n.peers, p)
	return p
}

// nodeLocked returns (creating if needed) the record of one host. Must
// hold c.mu.
func (c *Client) nodeLocked(id sim.NodeID) *node {
	n := c.nodes[id]
	if n == nil {
		n = &node{id: id}
		c.nodes[id] = n
	}
	return n
}

// scoreLocked ranks a replica for balanced selection: lower is better.
// The score is the latency EWMA inflated by the server's advertised load
// hint and by this client's own in-flight requests to it. A replica with
// no sample — or whose last sample has gone stale — scores zero, so it
// is probed rather than shunned forever: that is how a recovered replica
// re-enters the rotation. Must hold c.mu.
func (c *Client) scoreLocked(p *peer) float64 {
	if p.samples == 0 || time.Since(p.updated) > 2*c.replyTimeout {
		return 0
	}
	return float64(p.srtt) * (1 + float64(p.hint)/64) * float64(1+p.inflight)
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
			e = &portCache{servers: make([]*peer, len(found)), recheckAt: time.Now().Add(c.cacheTTL)}
			for i, h := range found {
				// Seed each responder's routing state with the hint its
				// HEREIS piggybacked, so the first balanced picks already
				// steer away from loaded replicas.
				p := c.peerLocked(port, h.Src)
				p.hint = h.Hint
				e.servers[i] = p
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
		return c.aimLocked(c.peerLocked(port, r.server))
	}
	pool := e.servers
	if !r.balance {
		// Unbalanced picks — all updates, plus reads from clients that
		// opted out of balancing — land on the first responder.
		return c.aimLocked(pool[0])
	}
	server := pool[0]
	if len(pool) > 1 {
		i := c.rng.Intn(len(pool))
		j := c.rng.Intn(len(pool) - 1)
		if j >= i {
			j++
		}
		best, worst := pool[i], pool[j]
		sBest, sWorst := c.scoreLocked(best), c.scoreLocked(worst)
		if sWorst < sBest {
			best, worst = worst, best
			sBest, sWorst = sWorst, sBest
		}
		server = best
		if sWorst <= sBest*3/2 {
			if c.rng.Intn(2) == 0 {
				server = worst
			}
		} else {
			worst.srtt -= worst.srtt / 4
		}
	}
	return c.aimLocked(server)
}

// release returns one in-flight charge for p.
func (c *Client) release(p *peer) {
	c.mu.Lock()
	p.inflight--
	c.mu.Unlock()
}

// evict removes the server a transaction gave up on from the port cache.
// A NOTHERE keeps the paper's drain behavior; the other verdicts expire
// the entry so the next selection re-locates (failover refresh) instead
// of draining the shrinking remainder. verdictDead also closes the down
// channel: every transaction parked there returns the same verdict.
func (c *Client) evict(t target, why verdict) {
	c.mu.Lock()
	defer c.mu.Unlock()
	p := t.peer
	if why == verdictDead {
		if p.down != t.down {
			c.failover.Released++
			return
		}
		close(p.down)
		p.down = nil
		c.failover.Verdicts++
	}
	e := c.cache[p.port]
	if e == nil {
		return
	}
	e.servers = slices.DeleteFunc(e.servers, func(q *peer) bool { return q == p })
	if why != verdictNotHere {
		e.recheckAt = time.Time{}
	}
}

// owe records that transaction tx has ended: each server it reached may
// drop its duplicate entry, since the client never sends tx again. The id
// rides the next request to that server and port, or goes out in an ACK
// frame once it has waited a probeFloor (flushAcks).
func (c *Client) owe(tx uint64, reached []*peer) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.shut || len(reached) == 0 {
		return
	}
	now := time.Now()
	for _, p := range reached {
		if len(p.owed) == 0 {
			p.since = now
		}
		p.owed = append(p.owed, tx)
	}
	if !c.ackArmed {
		c.ackArmed = true
		c.ackTimer.Reset(c.probeFloor)
	}
}

// request builds transaction tx's request frame for p, carrying up to
// maxAcks of the ids owed there.
func (c *Client) request(p *peer, tx uint64, payload []byte) []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	acks := p.owed[:min(len(p.owed), maxAcks)]
	wire := requestFrame(p.port, tx, c.replyPort, acks, payload)
	p.owed = p.owed[:copy(p.owed, p.owed[len(acks):])]
	return wire
}

// flushAcks is the idle timer: ids owed for a probeFloor, with no request
// to carry them, go out in one ACK frame per server and port, and the
// timer is set again for the oldest of the rest.
func (c *Client) flushAcks() {
	c.mu.Lock()
	c.ackArmed = false
	if c.shut {
		c.mu.Unlock()
		return
	}
	now := time.Now()
	frames, oldest := c.takeAcksLocked(now.Add(-c.probeFloor))
	if !oldest.IsZero() {
		c.ackArmed = true
		c.ackTimer.Reset(oldest.Add(c.probeFloor).Sub(now))
	}
	c.mu.Unlock()
	c.sendAcks(frames)
}

// ackFrame is an ACK frame and its destination.
type ackFrame struct {
	dst   sim.NodeID
	frame []byte
}

// takeAcksLocked removes the ids of every peer owed since cutoff or
// before and returns them as ACK frames, along with when the oldest debt
// left began (zero if none). Must hold c.mu.
func (c *Client) takeAcksLocked(cutoff time.Time) (frames []ackFrame, oldest time.Time) {
	for _, n := range c.nodes {
		for _, p := range n.peers {
			switch {
			case len(p.owed) == 0:
			case p.since.After(cutoff):
				if oldest.IsZero() || p.since.Before(oldest) {
					oldest = p.since
				}
			default:
				frame := append(flip.NewFrame(p.port, 1+8*len(p.owed)), opAck)
				for _, id := range p.owed {
					frame = binary.BigEndian.AppendUint64(frame, id)
				}
				frames = append(frames, ackFrame{n.id, frame})
				p.owed = p.owed[:0]
			}
		}
	}
	return frames, oldest
}

// sendAcks sends frames, best effort. Never called under c.mu: a send
// charges the host's per-packet CPU.
func (c *Client) sendAcks(frames []ackFrame) {
	for _, f := range frames {
		_ = c.stack.SendFrame(f.dst, f.frame)
	}
}

// requestFrame builds a whole request frame for port in one buffer: the
// FLIP header, [op:1][tx:8][reply port:6][n:1], the n acknowledged
// transaction ids acks, 8 bytes each, then the caller's payload.
func requestFrame(port capability.Port, tx uint64, replyPort capability.Port, acks []uint64, payload []byte) []byte {
	buf := append(flip.NewFrame(port, requestHeader+8*len(acks)+len(payload)), opRequest)
	buf = binary.BigEndian.AppendUint64(buf, tx)
	buf = append(buf, replyPort[:]...)
	buf = append(buf, byte(len(acks)))
	for _, id := range acks {
		buf = binary.BigEndian.AppendUint64(buf, id)
	}
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
