// Package localdir is the unreplicated comparator of the paper's
// evaluation: a single directory server with SunOS/NFS-like semantics —
// one synchronous metadata write per update, reads from the RAM cache,
// and no fault tolerance whatsoever ("NFS does not provide any fault
// tolerance or consistency", §4.1).
//
// Directory images live only in RAM; the single disk write per update
// models the local filesystem's synchronous directory-block update that
// dominated the paper's /usr/tmp measurements.
package localdir

import (
	"fmt"
	"sync"
	"time"

	"dirsvc/internal/bullet"
	"dirsvc/internal/dirsvc"
	"dirsvc/internal/flip"
	"dirsvc/internal/rpc"
)

// nfsExtraLookup models NFS's slightly slower lookup path (6 ms vs the
// directory service's 5 ms in Fig. 7).
const nfsExtraLookup = time.Millisecond

// Config describes the single server: where it sits and how its request
// pipeline is sized. ServerID, Bullet and ExtraLookupCPU are filled in by
// NewServer.
type Config struct {
	dirsvc.FrontConfig
}

// Server is the unreplicated directory server.
type Server struct {
	// front is the shared request pipeline and the replica state it
	// serves from; this server is its Backend.
	front *dirsvc.FrontEnd

	mu sync.Mutex // serializes updates
}

// NewServer boots the server on stack.
func NewServer(stack *flip.Stack, cfg Config) (*Server, error) {
	rc, err := rpc.NewClient(stack)
	if err != nil {
		return nil, err
	}
	cfg.ServerID = 1
	cfg.Bullet = bullet.NewClient(rc, dirsvc.BulletPort(cfg.Service, 1))
	cfg.ExtraLookupCPU = nfsExtraLookup
	front, err := dirsvc.NewFrontEnd(stack, cfg.FrontConfig)
	if err != nil {
		return nil, fmt.Errorf("localdir: %w", err)
	}
	s := &Server{front: front}
	err = front.Applier.FormatRoot(false /* metadata only */)
	if err == nil {
		err = front.Table.FlushBlocks([]uint32{dirsvc.RootObject})
	}
	if err != nil {
		front.Close()
		return nil, err
	}
	// The unreplicated server never recovers, so its event log keeps one
	// identity for the server's whole life, floored at the boot cursor.
	front.StartEvents()
	if err := front.Serve(s); err != nil {
		front.Close()
		return nil, err
	}
	return s, nil
}

// Front returns the server's request pipeline (fault-injection hooks).
func (s *Server) Front() *dirsvc.FrontEnd { return s.front }

// Close stops the server.
func (s *Server) Close() { s.front.Close() }

// The three dirsvc.Backend hooks follow.

// Ready always admits: there is nobody to form a majority with.
func (s *Server) Ready() bool { return true }

// WaitFloor has nothing to catch up on: with a single server, every
// floor a client session carries came from this server's own replies, so
// the sequence number is always at or past it.
func (s *Server) WaitFloor(uint32, uint64) bool { return true }

// Replicate applies the operation with exactly one synchronous disk
// write — the metadata block — like a local Unix filesystem updating a
// directory block. The directory contents stay in RAM (the OS buffer
// cache); there is no second copy to make.
func (s *Server) Replicate(req *dirsvc.Request, reply *dirsvc.Reply) { *reply = *s.replicate(req) }

func (s *Server) replicate(req *dirsvc.Request) *dirsvc.Reply {
	s.mu.Lock()
	defer s.mu.Unlock()
	seq := s.front.Applier.AppliedSeq() + 1
	res, err := s.front.Applier.ApplyUpdate(req, seq, false /* RAM apply */)
	if err != nil {
		return dirsvc.ErrorReply(err)
	}
	// The one synchronous write: the directory's metadata block.
	if err := s.front.Table.FlushBlocks(res.DirtyObjects); err != nil {
		return &dirsvc.Reply{Status: dirsvc.StatusError}
	}
	if res.TopoChanged {
		s.front.PersistTopology()
	}
	return res.Reply
}
