package rpc

import (
	"context"

	"dirsvc/internal/capability"
	"dirsvc/internal/flip"
	"dirsvc/internal/sim"
)

// This file adds one-to-many server push to the Amoeba transaction
// model. A subscription is an ordinary transaction whose reply channel
// is never torn down: the server answers it once (the confirmation) and
// then keeps sending frames framed as replies to the same transaction
// id, which the client's existing demultiplexer routes to the stream
// with no new wire ops at this layer.

// pushChanDepth buffers a stream's incoming pushes. A subscriber that
// falls further behind than this loses pushes — which the lease
// protocol recovers at the next renewal, or reports as a resync.
const pushChanDepth = 256

// Stream is a long-lived subscription: the reply channel of one
// transaction, kept registered after its first reply so the server can
// keep pushing. Msgs arrive in the order the serving node sent them
// (the simulated network is per-sender FIFO); individual pushes may
// still be lost to buffer overrun, which the subscription's own
// protocol must tolerate.
type Stream struct {
	c      *Client
	tx     uint64
	ch     chan flip.Msg
	server sim.NodeID
}

// Chan returns the stream's incoming frames. Decode pushes with
// PushPayload. The channel is never closed; callers multiplex it with
// their own stop signal (and Client.Done for endpoint shutdown).
func (s *Stream) Chan() <-chan flip.Msg { return s.ch }

// Server returns the node that accepted the subscription. Renewals
// must go to this exact server (TransTo): the lease lives there.
func (s *Stream) Server() sim.NodeID { return s.server }

// Tx returns the subscription's transaction id — the subscription id
// the server knows the lease by.
func (s *Stream) Tx() uint64 { return s.tx }

// Close unregisters the stream from the demultiplexer. The channel
// itself is left open (a concurrent push may still be in flight); it
// simply stops receiving.
func (s *Stream) Close() {
	s.c.mu.Lock()
	if s.c.pending[s.tx] == s.ch {
		delete(s.c.pending, s.tx)
	}
	s.c.mu.Unlock()
}

// PushPayload extracts the payload of a pushed frame. ok is false for
// frames that are not pushes (e.g. a stray NOTHERE), which callers
// should ignore.
func PushPayload(m flip.Msg) (payload []byte, ok bool) {
	op, _, _, payload, err := decodeReply(m.Payload)
	if err != nil || op != opReply {
		return nil, false
	}
	return payload, true
}

// Done returns a channel closed when the client endpoint shuts down
// (Close or node crash); stream consumers multiplex it with Chan.
func (c *Client) Done() <-chan struct{} { return c.closed }

// Subscribe performs one transaction whose reply channel stays
// registered: the server's first reply (returned here along with the
// responding server) confirms the subscription, and every later push
// the server sends for the same transaction arrives on the stream.
// The caller must Close the stream when done with it.
func (c *Client) Subscribe(ctx context.Context, port capability.Port, req []byte) (*Stream, []byte, error) {
	s, reply, err := c.transact(ctx, port, req, route{keep: true})
	if err != nil {
		return nil, nil, err
	}
	return &s, reply, nil
}

// TransTo performs one transaction against a specific server instead
// of a located one — the lease-renewal path, which must reach the
// server holding the lease. A busy server (NOTHERE) is retried with a
// short backoff; a silent one fails with ErrTimeout so the caller can
// re-subscribe elsewhere.
func (c *Client) TransTo(ctx context.Context, server sim.NodeID, port capability.Port, req []byte) ([]byte, error) {
	_, reply, err := c.transact(ctx, port, req, route{fixed: true, server: server})
	return reply, err
}
