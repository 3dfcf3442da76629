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
// once per request.
func (r *Request) Reply(payload []byte) error {
	if r.replied {
		return errors.New("rpc: duplicate Reply")
	}
	r.replied = true
	r.srv.noteHandled(time.Since(r.accepted))
	r.srv.recordReply(r, payload)
	return r.srv.stack.Send(r.Src, r.replyPort, encodeReply(r.tx, r.srv.hintByte(), payload))
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
	return s.stack.Send(addr.Src, addr.ReplyPort, encodeReply(addr.Tx, s.hintByte(), payload))
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
	payload []byte
}

// maxDupEntries bounds the duplicate-suppression table.
const maxDupEntries = 4096

// Server accepts transactions on one port. Worker threads call GetRequest
// and Reply, mirroring Amoeba's getreq/putrep server loop. If a REQUEST
// arrives while no worker is blocked in GetRequest, the server answers
// NOTHERE — the behavior that drives the paper's port-cache heuristic.
type Server struct {
	stack    *flip.Stack
	port     capability.Port
	listener *flip.Listener
	reqCh    chan *Request

	mu       sync.Mutex
	dups     map[dupKey]*dupEntry
	dupOrder []dupKey
	closed   bool

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
		reqCh:    make(chan *Request), // unbuffered: handoff only to a blocked GetRequest
		dups:     make(map[dupKey]*dupEntry),
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
	return req, nil
}

// ServeFunc starts workers goroutines that loop GetRequest → handler →
// Reply with the handler's result. It returns a stop function that waits
// for the workers to exit (the server itself must be Closed separately).
func (s *Server) ServeFunc(workers int, handler func(*Request) []byte) (stop func()) {
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				req, err := s.GetRequest()
				if err != nil {
					return
				}
				_ = req.Reply(handler(req))
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
			delete(s.dups, dupKey{src: m.Src, tx: tx})
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
	if e, seen := s.dups[key]; seen {
		done, payload := e.done, e.payload
		s.mu.Unlock()
		if done {
			// Retransmitted request whose reply was lost: resend it.
			_ = s.stack.Send(m.Src, replyPort, encodeReply(tx, s.hintByte(), payload))
		} else {
			// In progress: alive and working on it; Reply will follow.
			_ = s.stack.Send(m.Src, replyPort, encodeStatus(opWorking, tx, s.hintByte()))
		}
		return
	}
	// The entry is made under the same hold of the mutex as the hand-off
	// (which never blocks), the in-flight count before it: a worker that
	// replies at once must find the entry there to mark done, not have a
	// late "in progress" one put over it, nor take the count below zero.
	s.inflight.Add(1)
	select {
	case s.reqCh <- &Request{
		Src:       m.Src,
		Payload:   m.Payload[15:],
		srv:       s,
		tx:        tx,
		replyPort: replyPort,
		accepted:  time.Now(),
	}:
		s.insertDupLocked(key, &dupEntry{})
		s.mu.Unlock()
	default:
		s.mu.Unlock()
		s.inflight.Add(-1)
		// No thread blocked in GetRequest: the kernel answers NOTHERE
		// (paper §4.2), prompting the client to try another server.
		_ = s.stack.Send(m.Src, replyPort, encodeStatus(opNotHere, tx, s.hintByte()))
	}
}

func (s *Server) recordReply(r *Request, payload []byte) {
	key := dupKey{src: r.Src, tx: r.tx}
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.dups[key]; ok {
		e.done = true
		e.payload = payload
		return
	}
	s.insertDupLocked(key, &dupEntry{done: true, payload: payload})
}

// insertDupLocked adds a duplicate-suppression entry, evicting the oldest
// when the table is full. Must be called with s.mu held.
func (s *Server) insertDupLocked(key dupKey, e *dupEntry) {
	if len(s.dupOrder) >= maxDupEntries {
		evict := s.dupOrder[0]
		s.dupOrder = s.dupOrder[1:]
		delete(s.dups, evict)
	}
	s.dups[key] = e
	s.dupOrder = append(s.dupOrder, key)
}

// Server-to-client frames are [op:1][tx:8][hint:1][payload]: every
// reply, push, and NOTHERE piggybacks the server's current load hint,
// which the client folds into its replica-selection scores.
func encodeReply(tx uint64, hint byte, payload []byte) []byte {
	buf := make([]byte, 1+8+1+len(payload))
	buf[0] = opReply
	binary.BigEndian.PutUint64(buf[1:9], tx)
	buf[9] = hint
	copy(buf[10:], payload)
	return buf
}

// encodeStatus frames the two payload-less answers, NOTHERE and WORKING.
func encodeStatus(op byte, tx uint64, hint byte) []byte {
	buf := make([]byte, 1+8+1)
	buf[0] = op
	binary.BigEndian.PutUint64(buf[1:9], tx)
	buf[9] = hint
	return buf
}
