package rpc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"dirsvc/internal/capability"
	"dirsvc/internal/flip"
	"dirsvc/internal/sim"
)

// Request is one client transaction awaiting a reply.
type Request struct {
	Src     sim.NodeID
	Payload []byte

	srv       *Server
	tx        uint64
	replyPort capability.Port
	replied   bool
	accepted  time.Time // when the dispatcher handed the request to a worker
}

// Reply sends the reply to the client and records it for duplicate
// suppression until the client's ACK arrives. Reply must be called exactly
// once per request. payload is copied into the reply frame, which is what
// the duplicate table keeps: the caller may reuse payload once Reply
// returns.
func (r *Request) Reply(payload []byte) error {
	if r.replied {
		return errors.New("rpc: duplicate Reply")
	}
	r.replied = true
	r.srv.noteHandled(time.Since(r.accepted))
	frame := replyFrame(r.replyPort, opReply, r.tx, r.srv.hintByte(), payload)
	r.srv.recordReply(r, frame[len(frame)-len(payload):])
	return r.srv.stack.SendFrame(r.Src, frame)
}

// PushAddr is a client's long-lived notification endpoint: the reply
// channel of the transaction that established a subscription. Frames
// pushed to it are framed exactly like replies to that transaction, so
// the client's existing demultiplexer routes them to the subscriber
// with no new wire machinery.
type PushAddr struct {
	Src       sim.NodeID
	ReplyPort capability.Port
	Tx        uint64
}

// PushAddr captures the request's reply channel for later server-
// initiated pushes. Only meaningful for subscription requests whose
// client keeps the transaction's reply channel registered.
func (r *Request) PushAddr() PushAddr {
	return PushAddr{Src: r.Src, ReplyPort: r.replyPort, Tx: r.tx}
}

// Push sends a one-way server-initiated message to a subscribed
// client. Unlike Reply it may be called any number of times, is not
// recorded for duplicate suppression, and is not acknowledged: a lost
// push is recovered by the subscription's own lease-renewal protocol.
func (s *Server) Push(addr PushAddr, payload []byte) error {
	return s.stack.SendFrame(addr.Src, replyFrame(addr.ReplyPort, opReply, addr.Tx, s.hintByte(), payload))
}

// dupKey identifies one transaction. Transaction ids are globally unique
// per client endpoint (the high bits carry the client sequence number), so
// (src, tx) cannot collide across clients sharing a node.
type dupKey struct {
	src sim.NodeID
	tx  uint64
}

type dupEntry struct {
	done    bool
	payload []byte // the reply, inside the frame that carried it
	order   uint64 // insertion order: the lowest is evicted first
}

// maxDupEntries bounds the duplicate-suppression table's live entries.
const maxDupEntries = 4096

// dupTable is the duplicate-suppression table: one entry per transaction
// not yet acknowledged. The bound counts live entries only — an entry the
// client's ACK deleted stops counting at once, so an unacknowledged
// request is forgotten after maxDupEntries later unacknowledged ones,
// never after so many requests.
type dupTable struct {
	entries map[dupKey]dupEntry
	next    uint64 // order of the next new entry
}

func newDupTable() dupTable {
	return dupTable{entries: make(map[dupKey]dupEntry)}
}

// put records e under key. A new key takes the next order, evicting the
// oldest entry first when the table is full; a known one keeps its order.
func (d *dupTable) put(key dupKey, e dupEntry) {
	if old, ok := d.entries[key]; ok {
		e.order = old.order
	} else {
		if len(d.entries) >= maxDupEntries {
			d.evictOldest()
		}
		e.order = d.next
		d.next++
	}
	d.entries[key] = e
}

// evictOldest deletes the entry with the lowest order. It scans the whole
// table, which only a server with maxDupEntries unacknowledged
// transactions at once ever asks for.
func (d *dupTable) evictOldest() {
	var oldest dupKey
	lowest := d.next
	for key, e := range d.entries {
		if e.order < lowest {
			oldest, lowest = key, e.order
		}
	}
	delete(d.entries, oldest)
}

// Server accepts transactions on one port. Worker threads call GetRequest
// and Reply, mirroring Amoeba's getreq/putrep server loop. If a REQUEST
// arrives while no worker is blocked in GetRequest, the server answers
// NOTHERE — the behavior that drives the paper's port-cache heuristic.
type Server struct {
	stack    *flip.Stack
	port     capability.Port
	listener *flip.Listener
	reqCh    chan Request

	mu     sync.Mutex
	dups   dupTable
	closed bool

	// Load-hint state: the byte piggybacked on every reply and HEREIS so
	// clients steer around loaded replicas without probing them.
	inflight  atomic.Int64  // requests handed to workers, not yet replied
	handleEWM atomic.Uint64 // EWMA of handle time, microseconds
	lagFn     atomic.Value  // func() int: backend-supplied lag units

	done chan struct{}
}

// SetLagFunc installs the backend's contribution to the load hint: a
// non-negative lag measure (e.g. buffered-but-unapplied group entries,
// or stored peer intentions) sampled on every reply. fn must not block;
// nil (the default) contributes zero.
func (s *Server) SetLagFunc(fn func() int) {
	if fn == nil {
		fn = func() int { return 0 }
	}
	s.lagFn.Store(fn)
}

// noteHandled folds one request's handle time into the server's EWMA
// (α = 1/8, like TCP's SRTT) and releases its in-flight slot.
func (s *Server) noteHandled(d time.Duration) {
	s.inflight.Add(-1)
	us := uint64(d.Microseconds())
	for {
		old := s.handleEWM.Load()
		next := us
		if old != 0 {
			next = old - old/8 + us/8
		}
		if s.handleEWM.CompareAndSwap(old, next) {
			return
		}
	}
}

// hintByte composes the load hint: worker-queue depth, the backend's lag
// units, and the handle-time EWMA, clamped to a byte. Clients treat it as
// a relative multiplier, so only the ordering across replicas matters.
func (s *Server) hintByte() byte {
	h := int64(s.inflight.Load()) * 24
	if fn, ok := s.lagFn.Load().(func() int); ok && fn != nil {
		if lag := fn(); lag > 0 {
			h += int64(lag) * 8
		}
	}
	// Handle-time EWMA contributes one unit per 2 ms, capped so queue
	// depth and lag stay visible on slow models.
	ewmaUnits := int64(s.handleEWM.Load()) / 2000
	if ewmaUnits > 64 {
		ewmaUnits = 64
	}
	h += ewmaUnits
	if h > 255 {
		h = 255
	}
	return byte(h)
}

// NewServer registers port on the stack and starts the dispatcher.
func NewServer(stack *flip.Stack, port capability.Port) (*Server, error) {
	l, err := stack.Register(port)
	if err != nil {
		return nil, fmt.Errorf("rpc server: %w", err)
	}
	s := &Server{
		stack:    stack,
		port:     port,
		listener: l,
		reqCh:    make(chan Request), // unbuffered: handoff only to a blocked GetRequest
		dups:     newDupTable(),
		done:     make(chan struct{}),
	}
	// HEREIS answers for this port carry the same load hint as replies,
	// so a client ranks replicas before its first request reaches them.
	l.SetHint(s.hintByte)
	go s.dispatch()
	return s, nil
}

// SetReadOnly marks this server's HEREIS answers with the read-only
// flag: locating clients then route updates to other responders on the
// same port (see portCache.writable).
func (s *Server) SetReadOnly(ro bool) {
	s.listener.SetReadOnly(ro)
}

// Port returns the service port.
func (s *Server) Port() capability.Port { return s.port }

// Close stops the server and unblocks all GetRequest callers.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	s.listener.Close()
	<-s.done
}

// GetRequest blocks until a client transaction arrives. It returns
// ErrClosed after Close (or node crash).
func (s *Server) GetRequest() (*Request, error) {
	req, ok := <-s.reqCh
	if !ok {
		return nil, ErrClosed
	}
	return &req, nil
}

// ServeFunc starts workers goroutines that loop GetRequest → handler →
// Reply with the handler's result. It returns a stop function that waits
// for the workers to exit (the server itself must be Closed separately).
// The *Request is the worker's own and good until handler returns.
func (s *Server) ServeFunc(workers int, handler func(*Request) []byte) (stop func()) {
	return s.ServeAppend(workers, func(req *Request, _ []byte) []byte { return handler(req) })
}

// maxScratch is the largest reply buffer a ServeAppend worker keeps for
// the next request; a larger one (a snapshot) is left to the collector.
const maxScratch = 64 << 10

// ServeAppend is ServeFunc for handlers that append their reply to dst, a
// buffer the worker owns and hands back, emptied, with every request:
// Reply copies the reply into its frame, so the buffer is scratch and a
// steady stream of requests encodes its replies without allocating.
func (s *Server) ServeAppend(workers int, handler func(req *Request, dst []byte) []byte) (stop func()) {
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var (
				req     Request // one per worker: the handler's pointer escapes
				scratch []byte
				ok      bool
			)
			for {
				if req, ok = <-s.reqCh; !ok {
					return
				}
				scratch = handler(&req, scratch[:0])
				_ = req.Reply(scratch)
				if cap(scratch) > maxScratch {
					scratch = nil
				}
			}
		}()
	}
	return wg.Wait
}

func (s *Server) dispatch() {
	defer close(s.done)
	defer close(s.reqCh)
	for {
		m, ok := s.listener.Recv()
		if !ok {
			return
		}
		if len(m.Payload) < 9 {
			continue
		}
		op := m.Payload[0]
		tx := binary.BigEndian.Uint64(m.Payload[1:9])
		switch op {
		case opRequest:
			s.handleRequest(m, tx)
		case opAck:
			s.mu.Lock()
			delete(s.dups.entries, dupKey{src: m.Src, tx: tx})
			s.mu.Unlock()
		}
	}
}

func (s *Server) handleRequest(m flip.Msg, tx uint64) {
	if len(m.Payload) < 15 {
		return
	}
	var replyPort capability.Port
	copy(replyPort[:], m.Payload[9:15])
	key := dupKey{src: m.Src, tx: tx}

	s.mu.Lock()
	if e, seen := s.dups.entries[key]; seen {
		s.mu.Unlock()
		if e.done {
			// Retransmitted request whose reply was lost: resend it.
			_ = s.stack.SendFrame(m.Src, replyFrame(replyPort, opReply, tx, s.hintByte(), e.payload))
		} else {
			// In progress: alive and working on it; Reply will follow.
			_ = s.stack.SendFrame(m.Src, replyFrame(replyPort, opWorking, tx, s.hintByte(), nil))
		}
		return
	}
	// The entry is made under the same hold of the mutex as the hand-off
	// (which never blocks), the in-flight count before it: a worker that
	// replies at once must find the entry there to mark done, not have a
	// late "in progress" one put over it, nor take the count below zero.
	s.inflight.Add(1)
	select {
	case s.reqCh <- Request{
		Src:       m.Src,
		Payload:   m.Payload[15:],
		srv:       s,
		tx:        tx,
		replyPort: replyPort,
		accepted:  time.Now(),
	}:
		s.dups.put(key, dupEntry{})
		s.mu.Unlock()
	default:
		s.mu.Unlock()
		s.inflight.Add(-1)
		// No thread blocked in GetRequest: the kernel answers NOTHERE
		// (paper §4.2), prompting the client to try another server.
		_ = s.stack.SendFrame(m.Src, replyFrame(replyPort, opNotHere, tx, s.hintByte(), nil))
	}
}

func (s *Server) recordReply(r *Request, payload []byte) {
	s.mu.Lock()
	s.dups.put(dupKey{src: r.Src, tx: r.tx}, dupEntry{done: true, payload: payload})
	s.mu.Unlock()
}

// Server-to-client frames are [op:1][tx:8][hint:1][payload]: every
// reply, push, NOTHERE and WORKING piggybacks the server's current load
// hint, which the client folds into its replica-selection scores.
// replyFrame builds one such frame for the client's reply port, whole.
func replyFrame(replyPort capability.Port, op byte, tx uint64, hint byte, payload []byte) []byte {
	buf := appendServerHeader(flip.NewFrame(replyPort, 1+8+1+len(payload)), op, tx, hint)
	return append(buf, payload...)
}

func appendServerHeader(dst []byte, op byte, tx uint64, hint byte) []byte {
	dst = binary.BigEndian.AppendUint64(append(dst, op), tx)
	return append(dst, hint)
}
