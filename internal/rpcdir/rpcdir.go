// Package rpcdir reproduces the paper's previous directory service: two
// servers coordinated by remote procedure call (§1).
//
// Reads execute at either server without communication. An update
// received at one server is first proposed to the other over RPC; the
// peer checks for a conflicting operation, stores the intentions on its
// disk (a short-seek write to a fixed staging block), and answers OK.
// The originating server then performs the update — new Bullet file plus
// object table write — and replies to the client. The second copy is
// created lazily in the background (the peer applies its stored
// intention). The service assumes network partitions do not happen; with
// one server down the survivor continues alone, which is exactly the
// weaker failure model the paper criticizes.
package rpcdir

import (
	"encoding/binary"
	"fmt"
	"sync"

	"dirsvc/internal/bullet"
	"dirsvc/internal/capability"
	"dirsvc/internal/codec"
	"dirsvc/internal/dirsvc"
	"dirsvc/internal/flip"
	"dirsvc/internal/rpc"
	"dirsvc/internal/vdisk"
)

// PeerPort is the server-to-server port of rpcdir server id.
func PeerPort(service string, id int) capability.Port {
	return capability.PortFromString(fmt.Sprintf("rpcdir-peer:%s:%d", service, id))
}

// Config describes one of the two servers.
type Config struct {
	// FrontConfig places the server and sizes its request pipeline;
	// ServerID is 1 or 2. Bullet is filled in by NewServer.
	dirsvc.FrontConfig
	// Staging is the fixed intentions block (same disk as Admin, short
	// seek).
	Staging vdisk.Storage
}

// pendingIntention is an update the peer has proposed and we have
// promised to apply. It stays in the pending table until its copy is
// made, so that a read, or the peer's next intention, waits for an apply
// already under way instead of overtaking it.
type pendingIntention struct {
	seq  uint64
	req  *dirsvc.Request
	busy bool          // an apply (or drop) is under way
	done chan struct{} // closed when it is over
}

// Server is one of the two RPC directory servers.
type Server struct {
	cfg Config
	// front is the shared request pipeline and the replica state it
	// serves from; this server is its Backend.
	front   *dirsvc.FrontEnd
	peerSrv *rpc.Server
	peerRPC *rpc.Client

	mu       sync.Mutex
	updateMu sync.Mutex // updates are serialized (paper §4.2)
	pending  map[uint32]*pendingIntention

	wg       sync.WaitGroup
	stopPeer func() // waits for the peer-port workers
}

// NewServer boots one rpcdir server. If the peer is reachable and ahead,
// the server syncs its state from the peer before serving.
func NewServer(stack *flip.Stack, cfg Config) (*Server, error) {
	if cfg.ServerID != 1 && cfg.ServerID != 2 {
		return nil, fmt.Errorf("rpcdir: server id must be 1 or 2, got %d", cfg.ServerID)
	}
	rc, err := rpc.NewClient(stack)
	if err != nil {
		return nil, err
	}
	peerRPC, err := rpc.NewClient(stack)
	if err != nil {
		return nil, err
	}
	cfg.Bullet = bullet.NewClient(rc, dirsvc.BulletPort(cfg.Service, cfg.ServerID))
	front, err := dirsvc.NewFrontEnd(stack, cfg.FrontConfig)
	if err != nil {
		return nil, fmt.Errorf("rpcdir: %w", err)
	}
	s := &Server{
		cfg:     cfg,
		front:   front,
		peerRPC: peerRPC,
		pending: make(map[uint32]*pendingIntention),
	}
	if err := s.bootstrap(); err != nil {
		front.Close()
		return nil, err
	}
	// Events recorded on this server carry its own apply order: the pair
	// applies updates at possibly different times (lazy copies), so the
	// log index — not the agreed Seq — is the stream cursor here. The
	// identity is per boot; bootstrap's replayed history is not recorded.
	front.StartEvents()

	if s.peerSrv, err = rpc.NewServer(stack, PeerPort(cfg.Service, cfg.ServerID)); err != nil {
		front.Close()
		return nil, err
	}
	s.stopPeer = s.peerSrv.ServeFunc(2, s.handlePeerRPC)
	if err := front.Serve(s); err != nil {
		s.Close()
		return nil, err
	}
	return s, nil
}

// bootstrap loads local state, replays a stored intention, and pulls
// newer state from the peer when available.
func (s *Server) bootstrap() error {
	applier := s.front.Applier
	if err := applier.LoadAll(); err != nil {
		return err
	}

	// Replay an intention that was promised before a crash.
	if raw, err := s.cfg.Staging.ReadBlock(0); err == nil {
		intent, seq, err := decodeIntention(raw)
		if err != nil {
			return err
		}
		if intent != nil && seq > applier.AppliedSeq() {
			_, _ = applier.ApplyUpdate(intent, seq, true)
			_ = s.cfg.Staging.WriteBlockSeq(0, nil)
		}
	}

	// Sync from the peer if it is ahead (lazy copies we missed).
	peer := 3 - s.cfg.ServerID
	req := &dirsvc.Request{Op: dirsvc.OpSyncPull, Server: s.cfg.ServerID}
	if raw, err := s.peerRPC.Trans(PeerPort(s.cfg.Service, peer), req.Encode()); err == nil {
		if reply, err := dirsvc.DecodeReply(raw); err == nil && reply.Status == dirsvc.StatusOK && reply.Seq > applier.AppliedSeq() {
			if err := s.installState(reply.Blob); err != nil {
				return err
			}
		}
	}
	return applier.FormatRoot(true)
}

// Close stops the server (fail-stop; disk contents survive).
func (s *Server) Close() {
	s.front.Close()
	s.peerSrv.Close()
	s.stopPeer()
	s.wg.Wait()
}

// Read serves one read request exactly as a serving thread would, without
// the RPC transport, so tests and tools can interrogate this server.
func (s *Server) Read(req *dirsvc.Request) *dirsvc.Reply { return s.front.Read(req) }

// The four dirsvc.Backend hooks follow, LagHinter's Lag included.

// Ready always admits: the service assumes partitions do not happen, and
// a lone survivor keeps serving.
func (s *Server) Ready() bool { return true }

// WaitFloor applies any intention the peer proposed for the directory
// that we have not applied yet, so the read observes every acknowledged
// update; creates and batches pend under object 0, so that slot is
// always drained. A read whose session floor (Request.MinSeq, stamped by
// read-balancing clients) is ahead drains every stored intention; the
// front end then waits for the peer's lazy applies to reach the floor,
// so a read landing on the server that did not originate the write
// still observes it.
func (s *Server) WaitFloor(obj uint32, minSeq uint64) bool {
	s.applyPendingFor(0)
	if obj != 0 {
		s.applyPendingFor(obj)
	}
	if minSeq > s.front.Applier.AppliedSeq() {
		s.applyAllPending()
	}
	return true
}

// Lag is the load hint's lag measure: stored-but-unapplied peer
// intentions (the lazy applies a read may have to wait out).
func (s *Server) Lag() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.pending)
}

// Replicate is the paper's §1 write protocol.
func (s *Server) Replicate(req *dirsvc.Request, reply *dirsvc.Reply) { *reply = *s.replicate(req) }

func (s *Server) replicate(req *dirsvc.Request) *dirsvc.Reply {
	s.updateMu.Lock()
	defer s.updateMu.Unlock()

	seq := s.front.Applier.AppliedSeq() + 1

	// Phase 1: inform the other server of the intended update; it
	// stores the intentions on disk and answers OK (§1).
	peer := 3 - s.cfg.ServerID
	intention := &dirsvc.Request{
		Op:     dirsvc.OpIntention,
		Seq:    seq,
		Server: s.cfg.ServerID,
		Blob:   req.Encode(),
	}
	agreedSeq := seq
	peerUp := true
	raw, err := s.peerRPC.Trans(PeerPort(s.cfg.Service, peer), intention.Encode())
	if err != nil {
		// Peer down: continue alone. The RPC service cannot tell a
		// partition from a crash — the weakness §2 calls out.
		peerUp = false
	} else {
		reply, derr := dirsvc.DecodeReply(raw)
		if derr != nil {
			return &dirsvc.Reply{Status: dirsvc.StatusError}
		}
		if reply.Status == dirsvc.StatusConflict {
			return &dirsvc.Reply{Status: dirsvc.StatusConflict}
		}
		if reply.Status != dirsvc.StatusOK {
			return &dirsvc.Reply{Status: reply.Status}
		}
		if reply.Seq > agreedSeq {
			agreedSeq = reply.Seq
		}
	}

	// Phase 2: perform the update locally (Bullet file + object table).
	res, aerr := s.front.Applier.ApplyUpdate(req, agreedSeq, true)
	if aerr != nil {
		// Tell the peer to forget the intention.
		if peerUp {
			drop := &dirsvc.Request{Op: dirsvc.OpApplyLazy, Seq: agreedSeq, Server: s.cfg.ServerID, Column: 1}
			_, _ = s.peerRPC.Trans(PeerPort(s.cfg.Service, peer), drop.Encode())
		}
		return dirsvc.ErrorReply(aerr)
	}
	s.applied(res)

	// Phase 3 (background): the peer creates its copy lazily.
	if peerUp {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			lazy := &dirsvc.Request{Op: dirsvc.OpApplyLazy, Seq: agreedSeq, Server: s.cfg.ServerID}
			_, _ = s.peerRPC.Trans(PeerPort(s.cfg.Service, peer), lazy.Encode())
		}()
	}
	return res.Reply
}

// handlePeerRPC serves the server-to-server protocol.
func (s *Server) handlePeerRPC(req *rpc.Request) []byte {
	dreq, err := dirsvc.DecodeRequest(req.Payload)
	if err != nil {
		return (&dirsvc.Reply{Status: dirsvc.StatusBadRequest}).Encode()
	}
	switch dreq.Op {
	case dirsvc.OpIntention:
		return s.handleIntention(dreq).Encode()
	case dirsvc.OpApplyLazy:
		return s.handleApplyLazy(dreq).Encode()
	case dirsvc.OpSyncPull:
		return s.handleSyncPull().Encode()
	default:
		return (&dirsvc.Reply{Status: dirsvc.StatusBadRequest}).Encode()
	}
}

// handleIntention stores the proposed update on disk after checking for
// conflicts (§1: "If the other server is not busy performing a
// conflicting operation, it stores the intentions on disk").
func (s *Server) handleIntention(dreq *dirsvc.Request) *dirsvc.Reply {
	inner, err := dirsvc.DecodeRequest(dreq.Blob)
	if err != nil {
		return &dirsvc.Reply{Status: dirsvc.StatusBadRequest}
	}
	obj := inner.Dir.Object

	// An intention still stored is one of the peer's earlier updates —
	// the peer replicates one update at a time — whose copy has not been
	// made yet: make it first, so that copies are made in the peer's order
	// (an append must not overtake the create of its directory).
	s.applyAllPending()
	s.mu.Lock()
	if _, busy := s.pending[obj]; busy {
		s.mu.Unlock()
		return &dirsvc.Reply{Status: dirsvc.StatusConflict}
	}
	agreed := max(dreq.Seq, s.front.Applier.AppliedSeq()+1)
	s.pending[obj] = &pendingIntention{seq: agreed, req: inner, done: make(chan struct{})}
	s.mu.Unlock()

	// Store the intentions on disk: one short-seek write to the fixed
	// staging block. A shard-restore snapshot does not fit in the 512-byte
	// block; it is kept in RAM only and applied immediately below — if this
	// server crashes before the apply, bootstrap's peer sync re-fetches the
	// restored state instead of the staging block replaying it.
	if staged := encodeIntention(inner, agreed); len(staged) <= vdisk.BlockSize {
		if err := s.cfg.Staging.WriteBlockSeq(0, staged); err != nil {
			s.mu.Lock()
			delete(s.pending, obj)
			s.mu.Unlock()
			return &dirsvc.Reply{Status: dirsvc.StatusError}
		}
	}
	// Create the second copy in the background immediately, overlapping
	// with the originator's own apply — otherwise the next intention's
	// disk write would queue behind this op's lazy copy and the client
	// would see both servers' disk times serialized, which is not what
	// the paper measured (192 ms/pair ≈ one overlapped disk path). The
	// apply is deterministic, so originator and peer reach the same
	// outcome.
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		s.applyPendingFor(obj)
	}()
	return &dirsvc.Reply{Status: dirsvc.StatusOK, Seq: agreed}
}

// handleApplyLazy applies (or drops, Column=1) a stored intention — the
// lazy creation of the second copy.
func (s *Server) handleApplyLazy(dreq *dirsvc.Request) *dirsvc.Reply {
	s.mu.Lock()
	for obj, p := range s.pending {
		if p.seq == dreq.Seq {
			s.mu.Unlock()
			s.settle(obj, p, dreq.Column == 1) // Column 1: the drop marker
			return &dirsvc.Reply{Status: dirsvc.StatusOK}
		}
	}
	s.mu.Unlock()
	return &dirsvc.Reply{Status: dirsvc.StatusOK} // already applied or dropped
}

// applyIntention creates this server's copy of an update the peer
// proposed and clears the staging block. A failed apply still uses up
// the agreed sequence number: the originator's failed the same way.
func (s *Server) applyIntention(intent *pendingIntention) {
	if res, err := s.front.Applier.ApplyUpdate(intent.req, intent.seq, true); err != nil {
		s.front.Applier.Advance(intent.seq)
	} else {
		s.applied(res)
	}
	_ = s.cfg.Staging.WriteBlockSeq(0, nil)
}

// applied finishes one successful apply: a changed topology reaches the
// commit block, and superseded files are queued for deletion.
func (s *Server) applied(res *dirsvc.ApplyResult) {
	if res.TopoChanged {
		s.front.PersistTopology()
	}
	s.front.ScheduleCleanup(res.OldBullet)
}

// applyAllPending applies every pending intention, or waits for the
// applies under way.
func (s *Server) applyAllPending() {
	for {
		s.mu.Lock()
		var (
			obj uint32
			p   *pendingIntention
		)
		for obj, p = range s.pending {
			break
		}
		s.mu.Unlock()
		if p == nil {
			return
		}
		s.settle(obj, p, false)
	}
}

// applyPendingFor applies a pending intention touching obj before a read,
// or waits for the apply under way.
func (s *Server) applyPendingFor(obj uint32) {
	s.mu.Lock()
	p := s.pending[obj]
	s.mu.Unlock()
	if p != nil {
		s.settle(obj, p, false)
	}
}

// settle applies the pending intention p for obj — or discards it, with
// drop — and then removes it from the table; if another caller is doing
// so already, it waits for that.
func (s *Server) settle(obj uint32, p *pendingIntention, drop bool) {
	s.mu.Lock()
	if p.busy {
		s.mu.Unlock()
		<-p.done
		return
	}
	p.busy = true
	s.mu.Unlock()
	if drop {
		_ = s.cfg.Staging.WriteBlockSeq(0, nil)
	} else {
		s.applyIntention(p)
	}
	s.mu.Lock()
	if s.pending[obj] == p {
		delete(s.pending, obj)
	}
	s.mu.Unlock()
	close(p.done)
}

// handleSyncPull ships the full state to a restarting peer as one
// snapshot (dirsvc.Snapshot) — images, stubs, topology, and the prepared
// and decided transactions, so the peer can answer the same decision
// queries — with the sequence number it covers in Seq.
func (s *Server) handleSyncPull() *dirsvc.Reply {
	s.updateMu.Lock()
	defer s.updateMu.Unlock()
	seq := s.front.Applier.AppliedSeq()
	return &dirsvc.Reply{Status: dirsvc.StatusOK, Seq: seq, Blob: s.front.Applier.SnapshotState(seq, 0).Encode()}
}

// installState replaces local state with a peer snapshot, written
// through to our own Bullet store and object table.
func (s *Server) installState(blob []byte) error {
	snap, err := dirsvc.DecodeSnapshot(blob)
	if err != nil {
		return err
	}
	if err := s.front.Applier.InstallSnapshot(snap, true); err != nil {
		return err
	}
	if snap.Topo != nil {
		s.front.PersistTopology()
	}
	return nil
}

// The intention block is a sealed frame of seq u64 | request bytes.
var intentionMagic = [4]byte{'I', 'N', 'T', '1'}

func encodeIntention(req *dirsvc.Request, seq uint64) []byte {
	buf := binary.BigEndian.AppendUint64(make([]byte, codec.Header, codec.Header+64), seq)
	return codec.Seal(buf[:0], intentionMagic, 0, req.AppendTo(buf)[codec.Header:])
}

// decodeIntention returns the stored intention, none for a zeroed block,
// or an error wrapping codec.ErrCorrupt.
func decodeIntention(raw []byte) (*dirsvc.Request, uint64, error) {
	switch body, err := codec.Open(raw, intentionMagic, 0); {
	case body == nil && err == nil:
		return nil, 0, nil
	case err == nil && len(body) > 8:
		if req, err := dirsvc.DecodeRequest(body[8:]); err == nil {
			return req, binary.BigEndian.Uint64(body), nil
		}
	}
	return nil, 0, fmt.Errorf("rpcdir: intention block: %w", codec.ErrCorrupt)
}
