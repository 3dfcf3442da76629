package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"dirsvc/internal/codec"
	"dirsvc/internal/dirsvc"
	"dirsvc/internal/group"
	"dirsvc/internal/lastfail"
	"dirsvc/internal/rpc"
	"dirsvc/internal/sim"
)

// beginEraLocked starts a recovery era: waiting initiators exit on the
// era change, answering NoMajority, and their records go with it, so
// nothing fills them later — not the sender failing a broadcast, nor the
// group thread applying an update of the old era that is still in the
// stream. An update still queued for the sender has no record now and is
// dropped. Callers hold s.mu.
func (s *Server) beginEraLocked() {
	s.era++
	clear(s.waiters)
}

// recover runs the Fig. 6 recovery protocol until this server is a
// member of a majority group holding the latest directory state. It is
// called at boot and whenever the group cannot be rebuilt with a
// majority.
func (s *Server) recover() error {
	s.applyMu.Lock()
	logged := s.persist.settle()
	s.applyMu.Unlock()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return errors.New("core: server closed")
	}
	s.recovering = true
	s.beginEraLocked()
	// Stop recording events while recovery replays or pulls state: the
	// replayed history predates every live subscription, and the applied
	// cursor may jump. Subscribers are told to resync (best effort) and
	// the log gets a fresh identity when recovery completes.
	s.front.Applier.AttachEvents(nil)
	old := s.member
	s.member = nil
	s.memberHint.Store((*group.Member)(nil))
	// Derive the recovery sequence number before touching anything:
	// max over per-directory seqnos, the commit block, and the NVRAM or
	// engine log (§3). If the recovering flag was already set, a previous
	// recovery was interrupted and our state may be inconsistent —
	// force the sequence number to zero so nobody syncs from us (§3).
	mySeq := max(s.front.StoredSeq(), logged)
	if s.commit.Recovering {
		mySeq = 0
	}
	s.recoverySeq = mySeq
	mourned := lastfail.MournedFromConfig(allServerIDs(s.cfg.Replicas), upSet(s.commit))
	stayedUp := s.neverDown
	s.cond.Broadcast()
	s.mu.Unlock()

	if old != nil {
		// Never normal here (failed, excluded or dissolved), so no
		// sequencer would order a leave: just close it.
		old.Close()
	}

	// Mark that recovery is in progress, so a crash mid-recovery is
	// detected next boot (Fig. 4's recovering field).
	s.mu.Lock()
	s.commit.Recovering = true
	commit := *s.commit
	s.mu.Unlock()
	if err := commit.Write(s.cfg.Admin); err != nil {
		return fmt.Errorf("write recovering flag: %w", err)
	}

	rc, err := rpc.NewClient(s.stack)
	if err != nil {
		return err
	}
	defer rc.Close()

	// One member serves every round while it stays normal: a round that
	// fails tries again in the same group (Fig. 6: "try again") once the
	// member's view changes — a server joins or leaves, the group resets
	// or dissolves. A round that failed on the view itself waits for that
	// alone (a beat at most, to notice Close); one that failed on a peer,
	// whose state may come good without a view change, a third of a beat
	// at most. Only a member that dissolved into a larger group, was
	// excluded from a view or failed is replaced.
	var member *group.Member
	for {
		s.mu.Lock()
		closed := s.closed
		s.mu.Unlock()
		if member != nil {
			if st := member.Info().State; closed || st == group.StateLeft || st == group.StateFailed {
				member.Close()
				member = nil
			}
		}
		if closed {
			return errors.New("core: server closed during recovery")
		}
		if member == nil {
			if member, err = group.JoinOrCreate(s.stack, s.groupConfig()); err != nil {
				time.Sleep(s.beat)
				continue
			}
		}
		view := member.Info()
		syncedTo, err := s.recoverRound(rc, view, mySeq, mourned, stayedUp)
		if err != nil {
			wait := s.beat / 3
			if errors.Is(err, errAwaitView) {
				wait = s.beat
			}
			member.AwaitChange(view, wait)
			continue
		}
		// Seal the recovered state into a fresh engine checkpoint: a
		// pulled snapshot obsoletes what the engine held, and a replayed
		// suffix must not replay twice. Nothing applies yet, so the cut is
		// consistent; on a write failure the recovering flag still set
		// makes a crash before the next checkpoint resync from a peer.
		_ = s.Checkpoint()

		// Success: install the new member and resume normal operation.
		// The applied cursor starts at the stream position our state
		// actually covers (the snapshot cut, or our join point when our
		// own state was freshest) — NOT at the member's buffered
		// position, which may include queued messages the group thread
		// has yet to apply. Messages at or below the cursor are skipped
		// by the group thread; later ones apply normally.
		s.mu.Lock()
		s.member = member
		s.memberHint.Store(member)
		s.recovering = false
		s.neverDown = true
		info := member.Info()
		s.updateConfigVectorLocked(info.Members)
		s.commit.Recovering = false
		s.groupResume = syncedTo
		s.groupSeq = syncedTo
		s.appliedGroup.Store(syncedTo)
		commit := *s.commit
		s.cond.Broadcast()
		s.mu.Unlock()
		// The replica's state is current again: restart the event log at
		// the applied sequence number (a fresh identity — surviving
		// subscribers get a resync push) and resume recording.
		s.front.StartEvents()
		if err := commit.Write(s.cfg.Admin); err != nil {
			return fmt.Errorf("write commit block: %w", err)
		}
		return nil
	}
}

// errAwaitView marks a recovery round that only another view can let
// pass: too few members joined, or the last set is not among them.
var errAwaitView = errors.New("core: recovery waits for the view to change")

// recoverRound performs one round of Fig. 6 on the member's view info:
// check that a majority has joined, run Skeen's exchange, verify the last
// set and fetch the latest state. It returns the stream position the
// state covers, or an error when the round must be tried again.
func (s *Server) recoverRound(
	rc *rpc.Client,
	info group.Info,
	mySeq uint64,
	myMourned lastfail.Set,
	stayedUp bool,
) (uint64, error) {
	// Fig. 6: "while (minority && !timeout) wait" — the caller waits.
	if info.State != group.StateNormal || len(info.Members) < s.majorityNeeded() {
		return 0, fmt.Errorf("%w: no majority joined", errAwaitView)
	}

	// Exchange mourned sets and sequence numbers with every other
	// member over RPC (Fig. 6).
	nodeToServer := make(map[sim.NodeID]int, len(s.cfg.Peers))
	for id, nd := range s.cfg.Peers {
		nodeToServer[nd] = id
	}
	state := lastfail.NewState(allServerIDs(s.cfg.Replicas), s.cfg.ServerID, myMourned)
	seqnos := map[int]uint64{s.cfg.ServerID: mySeq}
	stayedUpServer := -1
	if stayedUp {
		stayedUpServer = s.cfg.ServerID
	}
	for _, nd := range info.Members {
		peer, ok := nodeToServer[nd]
		if !ok || peer == s.cfg.ServerID {
			continue
		}
		req := &dirsvc.Request{Op: dirsvc.OpExchange, Server: s.cfg.ServerID, Seq: mySeq}
		raw, err := rc.Trans(dirsvc.RecoveryPort(s.cfg.Service, peer), req.Encode())
		if err != nil {
			continue // unreachable peer: simply not part of the exchange
		}
		reply, err := dirsvc.DecodeReply(raw)
		if err != nil || reply.Status != dirsvc.StatusOK {
			continue
		}
		theirMourned, theirStayedUp, err := decodeExchange(reply.Blob)
		if err != nil {
			continue
		}
		state.Exchange(peer, theirMourned)
		seqnos[peer] = reply.Seq
		if theirStayedUp {
			stayedUpServer = peer
		}
	}

	// Condition 2: the last set must be covered (§3.2), possibly via
	// the sequence-number improvement.
	recoverable := state.CanRecover()
	if !recoverable && !s.cfg.DisableImprovement {
		recoverable = state.CanRecoverWithImprovement(seqnos, stayedUpServer)
	}
	if !recoverable && s.forced.Load() {
		// Administrator override (§3.1's escape): proceed with whatever
		// survives, accepting that the latest updates may be lost.
		recoverable = true
	}
	if !recoverable {
		return 0, fmt.Errorf("%w: last set %v not in new group %v", errAwaitView,
			state.LastSet().Sorted(), state.NewGroup().Sorted())
	}

	// Fetch the latest directories from the member with the highest
	// sequence number (Fig. 6: "s = HighestSeq; get copies from s").
	src, srcSeq := s.cfg.ServerID, mySeq
	for id, seq := range seqnos {
		if seq > srcSeq || (seq == srcSeq && id < src) {
			src, srcSeq = id, seq
		}
	}
	// joinSeq is the stream position our membership started at: the
	// member's queue buffers everything after it, nothing before it.
	// (Nothing Receives from the member until recovery installs it, so
	// Delivered still reads the welcome position.)
	joinSeq := info.Delivered
	if srcSeq <= mySeq {
		// Even with the highest seq we must have our cache loaded. Our
		// state covers exactly the stream up to our join point: no peer
		// holds an update we lack (srcSeq <= mySeq), so no application
		// message sits in the gap between our crash and our join.
		err := s.loadLocalState()
		if !errors.Is(err, codec.ErrCorrupt) {
			return joinSeq, err
		}
		// Our images or checkpoint do not open, but mySeq did: only a peer
		// as fresh may replace them; an older one would lose updates.
		src = 0
		for id, seq := range seqnos {
			if id != s.cfg.ServerID && seq == mySeq && (src == 0 || id < src) {
				src = id
			}
		}
		if src == 0 {
			return 0, fmt.Errorf("%w: %w, and no peer is at sequence number %d", errAwaitView, err, mySeq)
		}
	}
	// The snapshot must be cut at or past our join point: a source whose
	// apply cursor lags the stream would hand us images missing messages
	// our member never buffered — a silent gap. A member's cursor always
	// catches up (our own join is in its stream), so a later round pulls
	// again.
	cutSeq, err := s.pullState(rc, src)
	if err != nil {
		return 0, fmt.Errorf("pull state from server %d: %w", src, err)
	}
	if cutSeq < joinSeq {
		return 0, fmt.Errorf("state source %d at stream position %d, before our join point %d", src, cutSeq, joinSeq)
	}
	return cutSeq, nil
}

// loadLocalState rebuilds the replica from its own stable storage.
// Replayed OpPrepare records re-stage the in-doubt transaction (locks and
// all) as it stood before the crash; a following OpDecide record then
// resolves it, and one still undecided is left for the resolution loop.
func (s *Server) loadLocalState() error {
	s.front.Applier.ResetTx()
	s.front.Applier.InvalidateCache()
	if err := s.persist.load(); err != nil {
		return err
	}
	// The commit block also counts numbers no surviving record carries.
	s.mu.Lock()
	floor := s.commit.Seq
	s.mu.Unlock()
	s.front.Applier.Advance(floor)
	return nil
}

// installSnapshot replaces the replica's state with snap and adopts its
// shard-map state into the commit block, which recovery's end persists.
func (s *Server) installSnapshot(snap *dirsvc.Snapshot, durable bool) error {
	if err := s.front.Applier.InstallSnapshot(snap, durable); err != nil {
		return err
	}
	if snap.Topo != nil {
		t := *snap.Topo
		s.mu.Lock()
		s.commit.Topo = &t
		s.mu.Unlock()
	}
	return nil
}

// pullState transfers the full replica state from server src as one
// snapshot — in-doubt transactions and remembered outcomes included, so
// this replica holds the same votes and answers the same decision
// queries — and returns the group-stream position it was cut at.
func (s *Server) pullState(rc *rpc.Client, src int) (uint64, error) {
	req := &dirsvc.Request{Op: dirsvc.OpSyncPull, Server: s.cfg.ServerID}
	raw, err := rc.Trans(dirsvc.RecoveryPort(s.cfg.Service, src), req.Encode())
	if err != nil {
		return 0, err
	}
	reply, err := dirsvc.DecodeReply(raw)
	if err != nil {
		return 0, err
	}
	if reply.Status != dirsvc.StatusOK {
		return 0, reply.Status.Err()
	}
	snap, err := dirsvc.DecodeSnapshot(reply.Blob)
	if err != nil {
		return 0, err
	}
	if snap.AppliedSeq == 0 && snap.CommitSeq == 0 && len(snap.Objects) == 0 {
		// Defensive: an empty snapshot means the source had nothing to
		// offer (it should have refused); installing it would wipe us.
		return 0, errors.New("core: source returned an empty state snapshot")
	}

	// Discard stale local state, then install the transferred images.
	if err := s.persist.install(snap); err != nil {
		return 0, err
	}
	s.mu.Lock()
	s.commit.Seq = snap.CommitSeq
	s.mu.Unlock()
	return reply.Seq, nil
}

// handleRecoveryRPC serves the server-to-server recovery operations.
func (s *Server) handleRecoveryRPC(req *rpc.Request) []byte {
	dreq, err := dirsvc.DecodeRequest(req.Payload)
	if err != nil {
		return (&dirsvc.Reply{Status: dirsvc.StatusBadRequest}).Encode()
	}
	switch dreq.Op {
	case dirsvc.OpExchange:
		return s.handleExchange(dreq).Encode()
	case dirsvc.OpSyncPull:
		return s.handleSyncPull().Encode()
	case dirsvc.OpReadDir:
		return s.handleReadDir(dreq).Encode()
	case dirsvc.OpStatus:
		st := s.Status()
		return (&dirsvc.Reply{Status: dirsvc.StatusOK, Seq: st.AppliedSeq}).Encode()
	default:
		return (&dirsvc.Reply{Status: dirsvc.StatusBadRequest}).Encode()
	}
}

// handleExchange answers a mourned-set exchange (Fig. 6). While this
// server is itself recovering it advertises the sequence number derived
// from stable storage at recovery entry — forced to zero if the previous
// recovery was interrupted (§3, the recovering flag) — and its live
// counter once it is back in service.
func (s *Server) handleExchange(req *dirsvc.Request) *dirsvc.Reply {
	s.mu.Lock()
	mySeq := s.front.Applier.AppliedSeq()
	if s.recovering {
		mySeq = s.recoverySeq
	}
	mourned := lastfail.MournedFromConfig(allServerIDs(s.cfg.Replicas), upSet(s.commit))
	stayedUp := s.neverDown
	s.mu.Unlock()
	return &dirsvc.Reply{
		Status: dirsvc.StatusOK,
		Seq:    mySeq,
		Blob:   encodeExchange(mourned, stayedUp),
	}
}

// handleSyncPull answers a full state transfer with a snapshot in the
// reply Blob and the group-stream position it was cut at in Seq, which
// the puller must neither re-apply below nor accept short of its own join
// point. A server still recovering refuses: its half-built state would
// hand the puller an empty or stale replica to serve as current.
func (s *Server) handleSyncPull() *dirsvc.Reply {
	// Hold the batch lock while cutting the snapshot so the images and
	// the advertised stream position are consistent.
	s.applyMu.Lock()
	defer s.applyMu.Unlock()
	s.mu.Lock()
	if s.recovering {
		s.mu.Unlock()
		return &dirsvc.Reply{Status: dirsvc.StatusConflict}
	}
	commitSeq := s.commit.Seq
	groupSeq := s.groupSeq
	s.mu.Unlock()
	snap := s.front.Applier.SnapshotState(s.front.Applier.AppliedSeq(), commitSeq)
	return &dirsvc.Reply{Status: dirsvc.StatusOK, Seq: groupSeq, Blob: snap.Encode()}
}

// handleReadDir returns one directory image (diagnostics).
func (s *Server) handleReadDir(req *dirsvc.Request) *dirsvc.Reply {
	d, ok := s.front.Applier.Directory(req.Dir.Object)
	if !ok {
		return &dirsvc.Reply{Status: dirsvc.StatusNotFound}
	}
	return &dirsvc.Reply{Status: dirsvc.StatusOK, Blob: d.Encode(), Seq: d.Seq}
}

func allServerIDs(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i + 1
	}
	return out
}

func upSet(c *dirsvc.CommitBlock) lastfail.Set {
	up := lastfail.NewSet()
	for i, on := range c.Up {
		if on {
			up[i+1] = true
		}
	}
	return up
}

// Exchange blob: count u16, ids…, stayedUp u8.
func encodeExchange(mourned lastfail.Set, stayedUp bool) []byte {
	ids := mourned.Sorted()
	buf := binary.BigEndian.AppendUint16(make([]byte, 0, 3+len(ids)), uint16(len(ids)))
	for _, id := range ids {
		buf = append(buf, byte(id))
	}
	return codec.AppendBool(buf, stayedUp)
}

func decodeExchange(blob []byte) (lastfail.Set, bool, error) {
	rd := codec.NewReader(blob)
	mourned := lastfail.NewSet()
	for range rd.Count16(1) {
		mourned[int(rd.U8())] = true
	}
	stayedUp := rd.Bool()
	if !rd.Done() {
		return nil, false, errors.New("core: bad exchange blob")
	}
	return mourned, stayedUp, nil
}
