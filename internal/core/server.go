// Package core implements the paper's primary contribution: the
// fault-tolerant directory service built on totally-ordered group
// communication (paper §3).
//
// Each directory server runs:
//
//   - Initiator threads (the RPC workers): they receive client requests,
//     refuse them without a majority, answer reads locally after waiting
//     out buffered group messages, and broadcast writes to the group with
//     resilience degree r = N-1 (Fig. 5, left).
//   - One group thread: it receives the totally-ordered stream, applies
//     each update to the replica (Bullet file + object table write — the
//     commit point), wakes the initiator, and drives ResetGroup and the
//     recovery protocol after failures (Fig. 5, right).
//
// The service keeps one-copy serializability through the total order and
// the accessible-copies majority rule, and recovers using Skeen's
// last-to-fail algorithm over commit-block configuration vectors
// (Fig. 6), including the paper's §3.2 sequence-number improvement.
package core

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"dirsvc/internal/bullet"
	"dirsvc/internal/dirsvc"
	"dirsvc/internal/flip"
	"dirsvc/internal/group"
	"dirsvc/internal/rpc"
	"dirsvc/internal/sim"
	"dirsvc/internal/vdisk"
)

// Config describes one directory server replica.
type Config struct {
	// FrontConfig places the replica and sizes its request pipeline.
	// ServerID is this server's 1-based id and Replicas the replication
	// degree N (3 in the paper, but any N ≥ 1 works — §3: "though four or
	// more replicas are also possible, without changing the protocol");
	// Admin is the raw partition holding the commit block and object table
	// (Fig. 4). Bullet is filled in by NewServer.
	dirsvc.FrontConfig
	// Peers maps server ids (1..N) to their host node ids, so config
	// vectors can be kept when group membership changes.
	Peers map[int]sim.NodeID
	// NVRAM, when non-nil, enables the §4.1 NVRAM variant: updates are
	// logged to battery-backed RAM and flushed to disk in the
	// background.
	NVRAM *vdisk.NVRAM
	// Engine, when non-nil, enables the disk-backed storage engine:
	// applies go to RAM, its write-ahead log carries the critical-path
	// durability, and background checkpoints of the shard state, not the
	// object table and Bullet store, are the durable copy. Mutually
	// exclusive with NVRAM.
	Engine *dirsvc.Engine
	// DisableImprovement turns off the §3.2 recovery refinement, for the
	// ablation experiments.
	DisableImprovement bool
	// HeartbeatInterval tunes the group failure detector (tests).
	HeartbeatInterval time.Duration
	// IdleFlush is how long the NVRAM variant waits for quiet before
	// flushing the log (default 20× heartbeat).
	IdleFlush time.Duration
}

// Server is one replica of the group directory service.
type Server struct {
	cfg    Config
	stack  *flip.Stack
	beat   time.Duration // the group's heartbeat
	recSrv *rpc.Server
	// front is the shared request pipeline and the replica state it
	// serves from (object table, applier, notifier); this server is its
	// Backend. Recovery detaches the notifier while it replays state.
	front *dirsvc.FrontEnd
	// persist makes applied updates durable: write-through, NVRAM log or
	// storage engine, chosen once by NewServer.
	persist persister

	// applyMu serializes whole group-message batches against state
	// snapshots: handleSyncPull holds it while cutting one, so the
	// transferred images and the group-stream position it advertises are
	// always batch-aligned (never half a coalesced packet). It also guards
	// persist and tailed, which is set while a readonly secondary tails
	// the server's disk (SetTailed): every batch then syncs as it applies.
	applyMu sync.Mutex
	tailed  bool

	mu          sync.Mutex
	cond        *sync.Cond
	member      *group.Member
	commit      *dirsvc.CommitBlock
	groupSeq    uint64 // last group-stream seq applied (incl. membership)
	groupResume uint64 // stream position the recovery snapshot covered; older messages are skipped, not re-applied
	recovering  bool
	recoverySeq uint64 // seq advertised in exchanges while recovering (§3)
	era         uint64 // bumped on every recovery, wakes stuck initiators
	neverDown   bool   // true while this process has been up since its last recovery
	lastUpdate  time.Time
	results     map[uint64]*dirsvc.Reply
	sendAcked   map[uint64]bool // broadcast reached its resilience degree
	opCounter   uint64
	closed      bool

	forced atomic.Bool // ForceRecover invoked: serve without a majority

	groupSends atomic.Uint64 // successful group broadcasts (write path)

	// Lock-free mirrors for the RPC load hint (sampled from reply and
	// dispatcher paths, which must not contend on s.mu): the current
	// group member and the last group-stream seq applied.
	memberHint   atomic.Value  // *group.Member (possibly typed nil)
	appliedGroup atomic.Uint64 // mirror of groupSeq

	// processGroupMsg's scratch, the group thread's alone. req is each
	// entry's decode target; the applier copies what it keeps of one.
	entries []groupEntry
	local   []localReply
	req     dirsvc.Request

	sendCh  chan coalesceOp
	stop    chan struct{}
	wg      sync.WaitGroup
	stopRec func() // waits for the recovery-port workers
}

// coalesceOp is one client update queued for the coalescing sender.
type coalesceOp struct {
	opID uint64
	era  uint64 // server era at submission; stale ops are dropped
	raw  []byte // encoded dirsvc.Request
}

// localReply is the result of an update this server initiated, held
// until its group message is fully applied and, with an engine, logged.
type localReply struct {
	opID  uint64
	reply *dirsvc.Reply
}

// NewServer boots a directory server replica on stack. It formats fresh
// state on an empty admin partition, or reloads existing state, then runs
// the recovery protocol to (re)join the service before accepting
// requests.
func NewServer(stack *flip.Stack, cfg Config) (*Server, error) {
	if cfg.Replicas < 1 || cfg.ServerID < 1 || cfg.ServerID > cfg.Replicas {
		return nil, fmt.Errorf("core: bad server id %d of %d", cfg.ServerID, cfg.Replicas)
	}
	if cfg.NVRAM != nil && cfg.Engine != nil {
		return nil, errors.New("core: the NVRAM log and the storage engine are mutually exclusive")
	}
	beat := group.HeartbeatFor(stack.Model(), group.Config{HeartbeatInterval: cfg.HeartbeatInterval})
	if cfg.IdleFlush <= 0 {
		cfg.IdleFlush = 20 * beat
	}

	rc, err := rpc.NewClient(stack)
	if err != nil {
		return nil, err
	}
	cfg.Bullet = bullet.NewClient(rc, dirsvc.BulletPort(cfg.Service, cfg.ServerID))
	front, err := dirsvc.NewFrontEnd(stack, cfg.FrontConfig)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:       cfg,
		stack:     stack,
		beat:      beat,
		front:     front,
		commit:    front.Commit,
		results:   make(map[uint64]*dirsvc.Reply),
		sendAcked: make(map[uint64]bool),
		sendCh:    make(chan coalesceOp, 4*maxCoalesce),
		stop:      make(chan struct{}),
	}
	s.cond = sync.NewCond(&s.mu)
	var every time.Duration // the persister's tick; write-through has none
	switch {
	case cfg.NVRAM != nil:
		log, err := dirsvc.OpenNVLog(cfg.NVRAM)
		if err != nil {
			front.Close()
			return nil, fmt.Errorf("open nvram log: %w", err)
		}
		s.persist, every = &nvramLog{s: s, log: log}, cfg.IdleFlush/2
	case cfg.Engine != nil:
		s.persist, every = &engineLog{s: s, eng: cfg.Engine, ckptTicks: max(1, int(cfg.IdleFlush/2/beat))}, beat
	default:
		s.persist = writeThrough{s}
	}

	// Recovery servers answer even while we recover ourselves.
	if s.recSrv, err = rpc.NewServer(stack, dirsvc.RecoveryPort(cfg.Service, cfg.ServerID)); err != nil {
		front.Close()
		return nil, err
	}
	s.stopRec = s.recSrv.ServeFunc(2, s.handleRecoveryRPC)

	// Run recovery to (re)join the service — this blocks until we are part
	// of a majority group with up-to-date state (Fig. 6) — and only then
	// open the client-facing port.
	if err = s.recover(); err == nil {
		err = front.Serve(s)
	}
	if err != nil {
		s.shutdownRPC()
		return nil, err
	}

	s.wg.Add(2)
	go s.groupThread()
	go s.sendLoop()
	if every > 0 {
		s.wg.Add(1)
		go s.flushLoop(every)
	}
	return s, nil
}

func (s *Server) groupConfig() group.Config {
	return group.Config{
		Port:              dirsvc.GroupPort(s.cfg.Service),
		Resilience:        s.cfg.Replicas - 1,
		HeartbeatInterval: s.cfg.HeartbeatInterval,
	}
}

// majorityNeeded returns the minimum group size for service (⌈(N+1)/2⌉),
// or 1 after an administrator invoked ForceRecover.
func (s *Server) majorityNeeded() int {
	if s.forced.Load() {
		return 1
	}
	return s.cfg.Replicas/2 + 1
}

// ForceRecover is the system administrators' escape hatch the paper
// mentions (§3.1): when the other servers have lost their data forever
// (e.g. head crashes), the surviving server can be forced to serve
// without a majority. This abandons the partition guarantee — exactly
// why it is manual.
func (s *Server) ForceRecover() {
	s.forced.Store(true)
	s.mu.Lock()
	s.cond.Broadcast()
	s.mu.Unlock()
}

// Close shuts the server down without the leave protocol (fail-stop).
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	member := s.member
	close(s.stop)
	s.cond.Broadcast()
	s.mu.Unlock()
	if member != nil {
		member.Close()
	}
	s.shutdownRPC()
	s.wg.Wait()
}

func (s *Server) shutdownRPC() {
	s.front.Close()
	s.recSrv.Close()
	s.stopRec()
}

// Status is a monitoring snapshot (cmd/dird).
type Status struct {
	ID         int
	Recovering bool
	AppliedSeq uint64
	Members    int
	Epoch      uint64
	NVRAMUsed  int
	// ShardEpoch is the elastic shard-map epoch (distinct from the
	// group-communication epoch above); Objects and Stubs count this
	// shard's live object-table slots and forwarding stubs.
	ShardEpoch uint64
	Objects    int
	Stubs      int
	// CheckpointSeq and EngineLog describe the storage engine (zero
	// without one): the sequence number the last checkpoint covers, and
	// the number of write-ahead records appended past it.
	CheckpointSeq uint64
	EngineLog     int
}

// Status returns a snapshot of the replica.
func (s *Server) Status() Status {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Status{
		ID:         s.cfg.ServerID,
		Recovering: s.recovering,
		AppliedSeq: s.front.Applier.AppliedSeq(),
	}
	if s.member != nil {
		info := s.member.Info()
		st.Members = len(info.Members)
		st.Epoch = info.Epoch
	}
	s.persist.status(&st)
	if topo, ok := s.front.Applier.Topology(); ok {
		st.ShardEpoch = topo.Epoch
	}
	info := s.front.Applier.ShardMapInfo()
	st.Objects = info.Objects
	st.Stubs = info.Stubs
	return st
}

// The four dirsvc.Backend hooks follow, LagHinter's Lag included: what
// the group kinds contribute to the shared request pipeline (Fig. 5,
// left side).

// Ready is the majority gate, for reads and updates alike.
func (s *Server) Ready(dirsvc.OpCode) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.majorityLocked()
}

// WaitFloor waits until every group message buffered at request arrival
// has been applied, guaranteeing the read sees all preceding writes
// (§3.1); the front end then holds a read-balancing client's read until
// the replica reaches its session floor.
func (s *Server) WaitFloor(uint32, uint64) bool {
	member, _ := s.memberHint.Load().(*group.Member)
	if member == nil {
		// Past the gate without a member: recovery began in between and
		// the replica's state is about to be rebuilt.
		return false
	}
	_, _, buffered := member.Summary()
	return s.waitApplied(buffered)
}

// Lag is the applied-cursor lag behind the load hint: group messages
// buffered but not yet applied, read from lock-free mirrors so sampling
// on the reply path never contends on s.mu.
func (s *Server) Lag() int {
	m, _ := s.memberHint.Load().(*group.Member)
	if m == nil {
		return 0
	}
	_, _, buffered := m.Summary()
	if applied := s.appliedGroup.Load(); buffered > applied {
		return int(buffered - applied)
	}
	return 0
}

// Read serves one read request exactly as an initiator thread would —
// majority check, buffered-stream wait, session floor — without going
// through the RPC transport. Fault-injection tests and monitoring tools
// use it to interrogate one specific replica.
func (s *Server) Read(req *dirsvc.Request) *dirsvc.Reply {
	if req.Op.IsUpdate() {
		return &dirsvc.Reply{Status: dirsvc.StatusBadRequest}
	}
	return s.front.Read(req)
}

// Replicate is the group kinds' replication step: hand the update to the
// coalescing sender (which packs it — alone or with concurrent updates —
// into one totally-ordered group broadcast with resilience degree r),
// wait until our own group thread has applied the operation, and return
// its result (Fig. 5).
func (s *Server) Replicate(req *dirsvc.Request) *dirsvc.Reply {
	s.mu.Lock()
	era := s.era
	s.opCounter++
	opID := uint64(s.cfg.ServerID)<<48 | s.opCounter
	s.mu.Unlock()

	select {
	case s.sendCh <- coalesceOp{opID: opID, era: era, raw: req.Encode()}:
	case <-s.stop:
		return &dirsvc.Reply{Status: dirsvc.StatusNoMajority}
	}

	// Wait until the group thread has received and executed the request
	// AND the broadcast has reached its resilience degree — the local
	// apply can precede the peers' accepts, and replying then would
	// acknowledge an update that might not survive this server (§3).
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if reply, ok := s.results[opID]; ok && s.sendAcked[opID] {
			delete(s.results, opID)
			delete(s.sendAcked, opID)
			return reply
		}
		if s.closed || s.era != era {
			// Recovery intervened; the client must retry elsewhere.
			delete(s.results, opID)
			delete(s.sendAcked, opID)
			return &dirsvc.Reply{Status: dirsvc.StatusNoMajority}
		}
		s.cond.Wait()
	}
}

// GroupSends returns the number of group broadcasts this server has
// issued on the write path (benchmark instrumentation: batches and
// coalescing make this ≪ the number of updates).
func (s *Server) GroupSends() uint64 { return s.groupSends.Load() }

// ReadsServed returns the number of read operations this replica has
// answered — the per-server load-distribution measurement behind the
// Fig. 8 reproduction and the read-balancing experiments.
func (s *Server) ReadsServed() uint64 { return s.front.ReadsServed() }

// majorityLocked: at least ⌈(N+1)/2⌉ servers must be up and in our group.
func (s *Server) majorityLocked() bool {
	if s.recovering || s.member == nil {
		return false
	}
	state, members, _ := s.member.Summary()
	return state == group.StateNormal && members >= s.majorityNeeded()
}

// waitApplied blocks until the group thread has applied all messages up
// to groupSeq. Returns false if recovery interrupts.
func (s *Server) waitApplied(groupSeq uint64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	era := s.era
	for s.groupSeq < groupSeq {
		if s.closed || s.era != era {
			return false
		}
		s.cond.Wait()
	}
	return true
}

// groupThread is the single per-server thread processing the totally
// ordered stream (Fig. 5, right side).
func (s *Server) groupThread() {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		// Recovery nils the member while it rejoins (and broadcasts once
		// a new one is installed): wait instead of receiving on nothing.
		for s.member == nil && !s.closed {
			s.cond.Wait()
		}
		member := s.member
		closed := s.closed
		s.mu.Unlock()
		if closed {
			return
		}
		msg, err := member.Receive()
		switch {
		case err == nil:
			s.processGroupMsg(msg)
		case errors.Is(err, group.ErrGroupFailure):
			// Rebuild the group; the new view arrives in the stream as a
			// KindView. Without a majority, enter recovery (Fig. 5: "if
			// (group rebuild failed) enter recovery"); it fails only on
			// shutdown, which the next turn sees.
			if _, err := member.Reset(s.majorityNeeded()); err != nil {
				_ = s.recover()
			}
		case errors.Is(err, group.ErrClosed), errors.Is(err, group.ErrLeft):
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return
			}
			// The member left under us (its group yielded to a larger
			// one on the port): run recovery to rejoin.
			if err := s.recover(); err != nil {
				return
			}
		}
	}
}

// updateConfigVectorLocked rewrites the Up bits from a group member list.
func (s *Server) updateConfigVectorLocked(members []sim.NodeID) {
	clear(s.commit.Up)
	for id, nd := range s.cfg.Peers {
		s.commit.Up[id-1] = slices.Contains(members, nd)
	}
}

// advanceGroupCursorLocked moves the applied group-stream cursor
// forward; it never regresses (after recovery the cursor starts at the
// snapshot position, ahead of the oldest queued messages).
func (s *Server) advanceGroupCursorLocked(seq uint64) {
	if seq > s.groupSeq {
		s.groupSeq = seq
	}
	if seq > s.appliedGroup.Load() {
		s.appliedGroup.Store(seq)
	}
}

// processGroupMsg applies one totally-ordered message. A view change —
// a join, a leave or a reset's new view — rewrites the configuration
// vector on disk from the members it carries, the view at its place in
// the stream. Delivery is view-synchronous, so every message of the old
// view is applied by then, and the block's write syncs their records
// first: no block stops naming a server ahead of that server's records.
func (s *Server) processGroupMsg(msg group.Msg) {
	switch msg.Kind {
	case group.KindJoin, group.KindLeave, group.KindView:
		s.applyMu.Lock()
		defer s.applyMu.Unlock()
		s.mu.Lock()
		s.updateConfigVectorLocked(msg.Members)
		s.advanceGroupCursorLocked(msg.Seq)
		commit := *s.commit
		s.cond.Broadcast()
		s.mu.Unlock()
		_ = s.writeCommitLocked(commit)
		return
	case group.KindApp:
	default:
		return
	}
	s.mu.Lock()
	resume := s.groupResume
	s.lastUpdate = time.Now()
	s.mu.Unlock()
	entries, err := unpackGroupEntries(s.entries[:0], msg.Payload)
	if msg.Seq <= resume || err != nil {
		// Already reflected in the snapshot this replica pulled during
		// recovery (the state transfer was cut at or past this stream
		// position, so re-applying would double-apply), or unparseable:
		// just advance, so reads waiting on buffered messages go on.
		s.mu.Lock()
		s.advanceGroupCursorLocked(msg.Seq)
		s.cond.Broadcast()
		s.mu.Unlock()
		return
	}
	s.entries = entries

	// One broadcast may carry several updates (a coalesced packet); each
	// entry is applied in order under its own service sequence number.
	// The batch and the cursor bump form one snapshot-atomic unit.
	s.applyMu.Lock()
	defer s.applyMu.Unlock()
	local := s.local[:0]
	req := &s.req
	for _, ent := range entries {
		if dirsvc.DecodeRequestInto(req, ent.raw) != nil {
			continue
		}
		reply := s.applyUpdate(req, s.front.Applier.AppliedSeq()+1)
		if req.Server == s.cfg.ServerID {
			local = append(local, localReply{opID: ent.opID, reply: reply})
		}
	}
	// Group commit (the engine's; record made the others durable): an
	// update this server initiated is answered once it is on this disk,
	// and the one sync carries every record queued since the last. Others
	// wait for a local update, a commit-block write or a tick, except on a
	// tailed disk, which feeds a secondary that reads only what is on disk.
	if len(local) > 0 || s.tailed {
		if err := s.persist.sync(); err != nil {
			for i := range local {
				local[i].reply = dirsvc.ErrorReply(err)
			}
		}
	}

	s.mu.Lock()
	for _, l := range local {
		s.results[l.opID] = l.reply
		// Bound the table against abandoned initiators.
		if len(s.results) > 10000 {
			s.results = map[uint64]*dirsvc.Reply{l.opID: l.reply}
		}
	}
	s.advanceGroupCursorLocked(msg.Seq)
	s.cond.Broadcast()
	s.mu.Unlock()
	clear(local)
	s.local = local[:0]
}

// applyUpdate executes the update against the replica (the commit,
// Fig. 5) and hands it to the persister. Callers hold applyMu.
func (s *Server) applyUpdate(req *dirsvc.Request, seq uint64) *dirsvc.Reply {
	res, err := s.front.Applier.ApplyUpdate(req, seq, s.persist.beforeApply())
	if err != nil {
		// The group backend consumes a sequence number even for a failed
		// apply; record an empty filler event so the event log's index
		// stream (and its Seq correspondence) stays gap-free.
		s.front.Notifier.Record(dirsvc.Event{Seq: seq, Op: req.Op})
		s.front.Applier.Advance(seq)
		return dirsvc.ErrorReply(err)
	}
	if err := s.persist.record(req, res, seq); err != nil {
		return dirsvc.ErrorReply(err)
	}
	return res.Reply
}

// commitAppliedLocked writes the commit block at the applied sequence
// number (past the update's own only after a shard restore), adopting the
// shard-map state when topo is set. Every mode persists a topology change
// at once: splits are rare, and recovery must never come back up routing
// under the old epoch. Callers hold applyMu.
func (s *Server) commitAppliedLocked(topo bool) {
	seq := s.front.Applier.AppliedSeq()
	t, ok := s.front.Applier.Topology()
	s.mu.Lock()
	s.commit.Seq = seq
	if topo && ok {
		s.commit.Topo = &t
	}
	commit := *s.commit
	s.mu.Unlock()
	_ = s.writeCommitLocked(commit)
}

// writeCommitLocked syncs the persister, then writes the commit block:
// the one place of the run-before-block rule group commit rests on. A
// server acknowledges an update once its record is on its own disk, but
// others log it lazily, so no block — above all no configuration vector
// that stops naming a server — may reach a disk ahead of records that
// server could have acknowledged. View-synchronous delivery applies all of
// them before the view change that drops the server. A failed sync writes
// no block. Callers hold applyMu.
func (s *Server) writeCommitLocked(commit dirsvc.CommitBlock) error {
	if err := s.persist.sync(); err != nil {
		return err
	}
	return commit.Write(s.cfg.Admin)
}

// Checkpoint forces one synchronous checkpoint of the storage engine —
// for tests, tools and benchmarks; the flush loop cuts them in the
// background. A no-op (nil) without an engine.
func (s *Server) Checkpoint() error {
	s.applyMu.Lock()
	defer s.applyMu.Unlock()
	return s.persist.checkpoint()
}

// SetTailed tells the server whether a readonly secondary tails its
// engine partition. While one does, every batch syncs as it applies, not
// when an update of the server's own waits, so the secondary finds the
// whole applied stream on disk; switching on syncs at once.
func (s *Server) SetTailed(on bool) {
	s.applyMu.Lock()
	defer s.applyMu.Unlock()
	s.tailed = on
	if on {
		_ = s.persist.sync()
	}
}

// flushLoop runs the persister's background work every tick: the NVRAM
// log's flush (§4.1), or the engine's run write and checkpoint, when the
// server is idle or the log passes its threshold.
func (s *Server) flushLoop(every time.Duration) {
	defer s.wg.Done()
	ticker := time.NewTicker(every)
	defer ticker.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-ticker.C:
		}
		s.mu.Lock()
		idle := time.Since(s.lastUpdate) >= s.cfg.IdleFlush
		recovering := s.recovering
		s.mu.Unlock()
		if !recovering {
			s.applyMu.Lock()
			s.persist.tick(idle)
			s.applyMu.Unlock()
		}
	}
}
