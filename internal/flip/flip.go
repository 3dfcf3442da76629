// Package flip implements a FLIP-like communication layer on top of the
// simulated Ethernet (internal/sim): location-transparent 48-bit ports,
// port-addressed unicast and multicast, and a broadcast locate mechanism
// (LOCATE / HEREIS) that the RPC layer's port cache heuristic builds on.
//
// Amoeba implemented its RPC and group communication primitives on top of
// the FLIP internetwork protocol [Kaashoek et al., ACM TOCS 1993]; this
// package plays that role here. Each simulated host runs one Stack, which
// dispatches incoming frames to per-port listeners.
package flip

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"time"

	"dirsvc/internal/capability"
	"dirsvc/internal/sim"
)

// Msg is a port-addressed message delivered to a listener.
type Msg struct {
	Src     sim.NodeID
	Payload []byte
}

// HereIs is one HEREIS response to a locate: the responding host plus
// the load hint it piggybacked (see Listener.SetHint). Hint is 0 for
// responders that advertise none.
type HereIs struct {
	Src  sim.NodeID
	Hint byte
}

// Frame kinds on the wire.
const (
	kindData   = 1 // port-addressed unicast
	kindMcast  = 2 // port-addressed broadcast (Ethernet multicast)
	kindLocate = 3 // broadcast: who listens on this port?
	kindHereIs = 4 // unicast reply to a locate
)

const headerSize = 1 + 6 // kind + port

var (
	// ErrClosed is returned when the stack or listener has shut down.
	ErrClosed = errors.New("flip: stack closed")
	// ErrPortInUse is returned when registering a port twice on one stack.
	ErrPortInUse = errors.New("flip: port already registered")
)

const listenerDepth = 1024

// Listener receives messages addressed to one port on one host.
type Listener struct {
	stack *Stack
	port  capability.Port
	ch    chan Msg
	// fn, when set, is invoked synchronously from the dispatcher instead
	// of queueing on ch. See Stack.RegisterFunc.
	fn func(Msg)

	mu     sync.Mutex
	closed bool
	// hint, when set, supplies the load byte piggybacked on every HEREIS
	// this port answers. It runs on the dispatcher and must not block.
	hint func() byte
}

// SetHint installs the load-hint source piggybacked on this port's
// HEREIS answers (0..255, higher = more loaded). fn runs on the
// dispatcher thread for every locate and must not block; nil removes it.
func (l *Listener) SetHint(fn func() byte) {
	l.mu.Lock()
	l.hint = fn
	l.mu.Unlock()
}

// hintByte samples the listener's advertised load hint.
func (l *Listener) hintByte() byte {
	l.mu.Lock()
	fn := l.hint
	l.mu.Unlock()
	if fn == nil {
		return 0
	}
	return fn()
}

// Port returns the port the listener is bound to.
func (l *Listener) Port() capability.Port { return l.port }

// Recv blocks until a message arrives. ok is false after Close or stack
// shutdown.
func (l *Listener) Recv() (Msg, bool) {
	m, ok := <-l.ch
	return m, ok
}

// RecvTimeout waits up to d for a message. It returns ok=false both on
// timeout and on close; timedOut distinguishes the two.
func (l *Listener) RecvTimeout(d time.Duration) (m Msg, ok, timedOut bool) {
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case m, ok = <-l.ch:
		return m, ok, false
	case <-timer.C:
		return Msg{}, false, true
	}
}

// Chan exposes the receive channel for use in select loops.
func (l *Listener) Chan() <-chan Msg { return l.ch }

// Close deregisters the listener. Pending messages are discarded.
func (l *Listener) Close() {
	l.stack.deregister(l)
}

// deliver enqueues m unless the listener is closed or full. Must not block
// for function listeners' queueing; fn itself runs synchronously.
func (l *Listener) deliver(m Msg) {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return
	}
	fn := l.fn
	l.mu.Unlock()
	if fn != nil {
		fn(m)
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return
	}
	select {
	case l.ch <- m:
	default: // receiver overrun: drop, like a real kernel buffer
	}
}

func (l *Listener) markClosed() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.closed {
		l.closed = true
		close(l.ch)
	}
}

// Stack is the FLIP endpoint of one simulated host.
type Stack struct {
	node *sim.Node

	mu        sync.Mutex
	listeners map[capability.Port]*Listener
	locates   map[uint64]chan HereIs
	nextLoc   uint64
	closed    bool

	done chan struct{}
}

// NewStack attaches a FLIP stack to a node and starts its dispatcher. The
// stack runs until the node crashes or Close is called.
func NewStack(node *sim.Node) *Stack {
	s := &Stack{
		node:      node,
		listeners: make(map[capability.Port]*Listener),
		locates:   make(map[uint64]chan HereIs),
		done:      make(chan struct{}),
	}
	go s.dispatch()
	return s
}

// Node returns the underlying simulated host.
func (s *Stack) Node() *sim.Node { return s.node }

// Model returns the network latency model.
func (s *Stack) Model() *sim.LatencyModel { return s.node.Network().Model() }

// Close shuts the stack down and unblocks all listeners. The underlying
// node is left running; a crashed node shuts its stack down automatically.
func (s *Stack) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	ls := make([]*Listener, 0, len(s.listeners))
	for _, l := range s.listeners {
		ls = append(ls, l)
	}
	s.listeners = make(map[capability.Port]*Listener)
	s.mu.Unlock()
	for _, l := range ls {
		l.markClosed()
	}
	// Unblock the dispatcher if it is waiting in Recv: crash-restart the
	// node's inbox generation by crashing only the stack; the dispatcher
	// also exits when the node itself crashes. We nudge it with a
	// self-addressed frame.
	_ = s.node.Unicast(s.node.ID(), nil)
}

// Register binds a listener to port. At most one listener per port per
// stack.
func (s *Stack) Register(port capability.Port) (*Listener, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	if _, dup := s.listeners[port]; dup {
		return nil, fmt.Errorf("port %v: %w", port, ErrPortInUse)
	}
	l := &Listener{
		stack: s,
		port:  port,
		ch:    make(chan Msg, listenerDepth),
	}
	s.listeners[port] = l
	return l, nil
}

// RegisterFunc binds fn to port; fn runs synchronously in the dispatcher
// for every message addressed to the port. This mirrors Amoeba's kernel
// processing group protocol packets at interrupt time: bookkeeping done in
// fn is guaranteed to be visible before any later-arriving frame (e.g. a
// client read request) is dispatched, the property §3.1's GetInfoGroup
// read check relies on. fn must not block.
func (s *Stack) RegisterFunc(port capability.Port, fn func(Msg)) (*Listener, error) {
	l, err := s.Register(port)
	if err != nil {
		return nil, err
	}
	l.mu.Lock()
	l.fn = fn
	l.mu.Unlock()
	return l, nil
}

func (s *Stack) deregister(l *Listener) {
	s.mu.Lock()
	if s.listeners[l.port] == l {
		delete(s.listeners, l.port)
	}
	s.mu.Unlock()
	l.markClosed()
}

// Send delivers payload to the listener on port at host dst.
func (s *Stack) Send(dst sim.NodeID, port capability.Port, payload []byte) error {
	return s.SendFrame(dst, append(NewFrame(port, len(payload)), payload...))
}

// NewFrame starts a unicast frame for port: the FLIP header, with room
// behind it for size payload bytes the caller appends. The layers above
// append their own headers and bodies to it, so one request or reply is
// one allocation from the directory codec down to the wire; SendFrame
// sends it as is.
func NewFrame(port capability.Port, size int) []byte {
	return newFrame(kindData, port, size)
}

// NewMcastFrame is NewFrame for MulticastFrame.
func NewMcastFrame(port capability.Port, size int) []byte {
	return newFrame(kindMcast, port, size)
}

func newFrame(kind byte, port capability.Port, size int) []byte {
	buf := make([]byte, headerSize, headerSize+size)
	buf[0] = kind
	copy(buf[1:headerSize], port[:])
	return buf
}

// SendFrame sends a frame built by NewFrame to host dst. From this call
// on the frame belongs to its receivers, which may keep slices of it
// (see ARCHITECTURE.md, "Buffer ownership on the wire"): the caller must
// not change it, though it may send the same frame again.
func (s *Stack) SendFrame(dst sim.NodeID, frame []byte) error {
	return s.node.Unicast(dst, frame)
}

// MulticastFrame delivers a frame built by NewMcastFrame to every host
// listening on its port, in a single Ethernet transmission. The sender's
// own listener does not receive it (matching the simulated Ethernet,
// which never loops frames back). Ownership passes as with SendFrame.
func (s *Stack) MulticastFrame(frame []byte) error {
	return s.node.Broadcast(frame)
}

// Locate broadcasts a request for hosts listening on port and collects
// HEREIS replies, in arrival order, until the window elapses or max
// replies arrive (max ≤ 0 means unlimited). The arrival order is what the
// RPC layer's "first server to reply" heuristic keys on.
func (s *Stack) Locate(port capability.Port, window time.Duration, max int) ([]sim.NodeID, error) {
	found, err := s.LocateHints(port, window, max)
	if err != nil {
		return nil, err
	}
	out := make([]sim.NodeID, len(found))
	for i, h := range found {
		out[i] = h.Src
	}
	return out, nil
}

// LocateHints is Locate returning, alongside each responder, the load
// hint the responder piggybacked on its HEREIS (see Listener.SetHint) —
// the seed for latency-aware server selection before any reply has been
// observed.
func (s *Stack) LocateHints(port capability.Port, window time.Duration, max int) ([]HereIs, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrClosed
	}
	s.nextLoc++
	id := s.nextLoc
	ch := make(chan HereIs, 64)
	s.locates[id] = ch
	s.mu.Unlock()

	defer func() {
		s.mu.Lock()
		delete(s.locates, id)
		s.mu.Unlock()
	}()

	frame := binary.BigEndian.AppendUint64(newFrame(kindLocate, port, 8), id)
	if err := s.node.Broadcast(frame); err != nil {
		return nil, err
	}

	timer := time.NewTimer(window)
	defer timer.Stop()
	var found []HereIs
	for {
		select {
		case h := <-ch:
			found = append(found, h)
			if max > 0 && len(found) >= max {
				return found, nil
			}
		case <-timer.C:
			return found, nil
		}
	}
}

// dispatch routes incoming frames to listeners and answers locates. It
// charges the per-packet receive CPU cost, which is part of what limits a
// single server's throughput in Fig. 8.
func (s *Stack) dispatch() {
	defer close(s.done)
	for {
		frame, ok := s.node.Recv()
		if !ok {
			s.Close()
			return
		}
		s.mu.Lock()
		closed := s.closed
		s.mu.Unlock()
		if closed {
			return
		}
		kind, port, payload, err := decodeFrame(frame.Payload)
		if err != nil {
			continue // malformed frame: drop
		}
		s.node.CPU().Charge(s.Model().PacketCPU)
		switch kind {
		case kindData, kindMcast:
			s.mu.Lock()
			l := s.listeners[port]
			s.mu.Unlock()
			if l != nil {
				l.deliver(Msg{Src: frame.Src, Payload: payload})
			}
		case kindLocate:
			if len(payload) != 8 {
				continue
			}
			s.mu.Lock()
			l := s.listeners[port]
			s.mu.Unlock()
			if l != nil {
				// Echo the locate id back so the requester can correlate
				// the reply, and piggyback the listener's load hint.
				reply := append(newFrame(kindHereIs, port, 9), payload...)
				reply = append(reply, l.hintByte())
				_ = s.node.Unicast(frame.Src, reply)
			}
		case kindHereIs:
			// id (8 bytes) plus an optional load-hint byte.
			if len(payload) < 8 {
				continue
			}
			id := binary.BigEndian.Uint64(payload[:8])
			var hint byte
			if len(payload) >= 9 {
				hint = payload[8]
			}
			s.mu.Lock()
			ch := s.locates[id]
			s.mu.Unlock()
			if ch != nil {
				select {
				case ch <- HereIs{Src: frame.Src, Hint: hint}:
				default:
				}
			}
		}
	}
}

func decodeFrame(buf []byte) (kind byte, port capability.Port, payload []byte, err error) {
	if len(buf) < headerSize {
		return 0, capability.Port{}, nil, errors.New("flip: short frame")
	}
	kind = buf[0]
	copy(port[:], buf[1:7])
	return kind, port, buf[7:], nil
}
