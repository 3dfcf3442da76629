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
	// applies go to RAM, the engine's write-ahead log carries the
	// critical-path durability, and a background checkpoint of the whole
	// shard state bounds recovery to checkpoint + log suffix instead of a
	// full replay. With an engine the object table and Bullet store are no
	// longer written on the update path — the checkpoint is the durable
	// copy. Mutually exclusive with NVRAM.
	Engine *dirsvc.Engine
	// Resilience overrides the group resilience degree (default N-1).
	Resilience int
	// DisableImprovement turns off the §3.2 recovery refinement, for the
	// ablation experiments.
	DisableImprovement bool
	// DisableReadMajorityCheck lets reads bypass the majority rule — an
	// ablation that recreates the §3.1 anomaly where a partitioned
	// server serves deleted directories.
	DisableReadMajorityCheck bool
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
	model  *sim.LatencyModel
	recSrv *rpc.Server
	// front is the shared request pipeline and the replica state it
	// serves from (object table, applier, notifier); this server is its
	// Backend. The notifier is detached from the applier while recovery
	// replays state and restarted when recovery completes.
	front *dirsvc.FrontEnd
	// nvlog and engine are mutually exclusive: NVRAM log + background
	// table flush (§4.1), or engine write-ahead log + checkpoints.
	nvlog  *dirsvc.NVLog
	engine *dirsvc.Engine

	// applyMu serializes whole group-message batches against state
	// snapshots: handleSyncPull holds it while cutting one, so the
	// transferred images and the group-stream position it advertises are
	// always batch-aligned (never half a coalesced packet).
	applyMu sync.Mutex

	mu          sync.Mutex
	cond        *sync.Cond
	member      *group.Member
	commit      *dirsvc.CommitBlock
	appliedSeq  uint64 // service update counter (stamped on directories)
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

	entries []groupEntry // processGroupMsg's scratch, the group thread's alone

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

// NewServer boots a directory server replica on stack. It formats fresh
// state on an empty admin partition, or reloads existing state, then runs
// the recovery protocol to (re)join the service before accepting
// requests.
func NewServer(stack *flip.Stack, cfg Config) (*Server, error) {
	if cfg.Resilience == 0 {
		cfg.Resilience = cfg.Replicas - 1
	}
	if cfg.Replicas < 1 || cfg.ServerID < 1 || cfg.ServerID > cfg.Replicas {
		return nil, fmt.Errorf("core: bad server id %d of %d", cfg.ServerID, cfg.Replicas)
	}
	if cfg.NVRAM != nil && cfg.Engine != nil {
		return nil, errors.New("core: the NVRAM log and the storage engine are mutually exclusive")
	}
	model := stack.Model()
	if cfg.IdleFlush <= 0 {
		cfg.IdleFlush = 20 * heartbeat(model, cfg)
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
		model:     model,
		front:     front,
		commit:    front.Commit,
		engine:    cfg.Engine,
		results:   make(map[uint64]*dirsvc.Reply),
		sendAcked: make(map[uint64]bool),
		sendCh:    make(chan coalesceOp, 4*maxCoalesce),
		stop:      make(chan struct{}),
	}
	s.cond = sync.NewCond(&s.mu)
	if cfg.NVRAM != nil {
		if s.nvlog, err = dirsvc.OpenNVLog(cfg.NVRAM); err != nil {
			front.Close()
			return nil, fmt.Errorf("open nvram log: %w", err)
		}
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
	if s.nvlog != nil || s.engine != nil {
		s.wg.Add(1)
		go s.flushLoop()
	}
	return s, nil
}

func heartbeat(model *sim.LatencyModel, cfg Config) time.Duration {
	if cfg.HeartbeatInterval > 0 {
		return cfg.HeartbeatInterval
	}
	base := model.Timeout(150 * time.Millisecond)
	if base < 15*time.Millisecond {
		base = 15 * time.Millisecond
	}
	return base
}

func (s *Server) groupConfig() group.Config {
	return group.Config{
		Port:              dirsvc.GroupPort(s.cfg.Service),
		Resilience:        s.cfg.Resilience,
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
		AppliedSeq: s.appliedSeq,
	}
	if s.member != nil {
		info := s.member.Info()
		st.Members = len(info.Members)
		st.Epoch = info.Epoch
	}
	if s.nvlog != nil {
		st.NVRAMUsed = s.nvlog.UsedBytes()
	}
	if s.engine != nil {
		st.CheckpointSeq = s.engine.CheckpointSeq()
		st.EngineLog = s.engine.LogLen()
	}
	if topo, ok := s.front.Applier.Topology(); ok {
		st.ShardEpoch = topo.Epoch
	}
	info := s.front.Applier.ShardMapInfo()
	st.Objects = info.Objects
	st.Stubs = info.Stubs
	return st
}

// The five dirsvc.Backend hooks follow: what the group kinds contribute
// to the shared request pipeline (Fig. 5, left side).

// Ready is the majority gate. Reads, watches and lease renewals may
// bypass it under the DisableReadMajorityCheck ablation; updates never.
func (s *Server) Ready(op dirsvc.OpCode) bool {
	s.mu.Lock()
	ok := s.majorityLocked()
	s.mu.Unlock()
	return ok || (s.cfg.DisableReadMajorityCheck && !op.IsUpdate())
}

// WaitFloor waits until every group message buffered at request arrival
// has been applied — guaranteeing the read sees all preceding writes
// (§3.1) — and then until the applied cursor reaches the session floor a
// read-balancing client stamped, so landing on a lagging replica cannot
// violate read-your-writes or monotonic reads.
func (s *Server) WaitFloor(_ uint32, minSeq uint64) bool {
	member, _ := s.memberHint.Load().(*group.Member)
	if member == nil {
		// Past the gate without a member: the ablation, or recovery began
		// in between and the replica's state is about to be rebuilt.
		return s.cfg.DisableReadMajorityCheck
	}
	if _, _, buffered := member.Summary(); !s.waitApplied(buffered) {
		return false
	}
	return minSeq == 0 || s.waitMinSeq(minSeq)
}

// AppliedSeq returns the service update counter.
func (s *Server) AppliedSeq() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.appliedSeq
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

// waitMinSeq blocks until the replica's applied sequence number reaches
// the client's session floor. It gives up — returning false so the
// client retries elsewhere — after a bounded wait or on shutdown. A
// recovery (era bump) during the wait is ridden out rather than bailed
// on: the applied cursor survives recovery and usually reaches the
// floor the moment the replica has caught up.
func (s *Server) waitMinSeq(min uint64) bool {
	deadline := time.Now().Add(s.front.MinSeqWait)
	wake := time.AfterFunc(s.front.MinSeqWait, func() {
		s.mu.Lock()
		s.cond.Broadcast()
		s.mu.Unlock()
	})
	defer wake.Stop()
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.appliedSeq < min {
		if s.closed || time.Now().After(deadline) {
			return false
		}
		s.cond.Wait()
	}
	return true
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
			s.handleGroupFailure(member)
		case errors.Is(err, group.ErrClosed), errors.Is(err, group.ErrLeft):
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return
			}
			// The member dissolved under us (e.g. excluded from a
			// view): run recovery to rejoin.
			if err := s.recover(); err != nil {
				return
			}
		}
	}
}

// handleGroupFailure rebuilds the group; when no majority can be
// assembled, the server falls back to full recovery (Fig. 5: "if (group
// rebuild failed) enter recovery").
func (s *Server) handleGroupFailure(member *group.Member) {
	info, err := member.Reset(s.majorityNeeded())
	if err == nil {
		// Majority rebuilt: update the configuration vector on disk.
		s.mu.Lock()
		s.updateConfigVectorLocked(info.Members)
		commit := *s.commit
		s.mu.Unlock()
		_ = commit.Write(s.cfg.Admin)
		return
	}
	if err := s.recover(); err != nil {
		// Unrecoverable (shutdown); groupThread exits via closed check.
		return
	}
}

// updateConfigVectorLocked rewrites the Up bits from a group member list.
func (s *Server) updateConfigVectorLocked(members []sim.NodeID) {
	nodeToServer := make(map[sim.NodeID]int, len(s.cfg.Peers))
	for id, nd := range s.cfg.Peers {
		nodeToServer[nd] = id
	}
	for i := range s.commit.Up {
		s.commit.Up[i] = false
	}
	for _, nd := range members {
		if id, ok := nodeToServer[nd]; ok {
			s.commit.Up[id-1] = true
		}
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

// processGroupMsg applies one totally-ordered message.
func (s *Server) processGroupMsg(msg group.Msg) {
	switch msg.Kind {
	case group.KindJoin, group.KindLeave:
		s.mu.Lock()
		if s.member != nil {
			s.updateConfigVectorLocked(s.member.Info().Members)
		}
		s.advanceGroupCursorLocked(msg.Seq)
		commit := *s.commit
		s.cond.Broadcast()
		s.mu.Unlock()
		_ = commit.Write(s.cfg.Admin)
		return
	case group.KindApp:
	default:
		return
	}
	s.mu.Lock()
	resume := s.groupResume
	s.mu.Unlock()
	if msg.Seq <= resume {
		// Already reflected in the snapshot this replica pulled during
		// recovery: the state transfer was cut at or past this stream
		// position, so re-applying would double-apply. Just advance.
		s.mu.Lock()
		s.advanceGroupCursorLocked(msg.Seq)
		s.cond.Broadcast()
		s.mu.Unlock()
		return
	}
	entries, err := unpackGroupEntries(s.entries[:0], msg.Payload)
	if err != nil {
		// Unparseable payload: still advance the group cursor so reads
		// waiting on buffered messages are not stuck forever.
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
	for _, ent := range entries {
		req, err := dirsvc.DecodeRequest(ent.raw)
		if err != nil {
			continue
		}
		s.mu.Lock()
		seq := s.appliedSeq + 1
		s.lastUpdate = time.Now()
		s.mu.Unlock()

		reply, advance := s.applyUpdate(req, seq)
		if advance > seq {
			// A shard restore installed a snapshot whose own counters run
			// past this stream position; the service counter jumps with it
			// so freshly minted sequence numbers stay monotonic.
			seq = advance
		}

		s.mu.Lock()
		s.appliedSeq = seq
		if req.Server == s.cfg.ServerID {
			s.results[ent.opID] = reply
			// Bound the table against abandoned initiators.
			if len(s.results) > 10000 {
				s.results = map[uint64]*dirsvc.Reply{ent.opID: reply}
			}
		}
		s.cond.Broadcast()
		s.mu.Unlock()
	}

	s.mu.Lock()
	s.advanceGroupCursorLocked(msg.Seq)
	s.cond.Broadcast()
	s.mu.Unlock()
}

// applyUpdate executes the update against the replica: in the durable
// variant this creates the new directory on the Bullet server and writes
// the object table entry (the commit, Fig. 5); in the NVRAM variant it
// updates RAM and logs the operation to NVRAM (§4.1); with a storage
// engine it updates RAM and appends the operation to the engine's
// write-ahead log (the checkpoint picks the state up later). The second
// return value is the sequence number the service counter must advance
// to — above seq only when a shard restore installed a snapshot with
// higher counters.
func (s *Server) applyUpdate(req *dirsvc.Request, seq uint64) (*dirsvc.Reply, uint64) {
	durable := s.nvlog == nil && s.engine == nil
	if s.nvlog != nil && s.nvlog.NeedsFlush() {
		// Live records fill the log (cancelled ones it compacts away by
		// itself): make room first.
		_ = s.flushNVRAM() // on disk trouble the log stays and Append below decides
	}
	res, err := s.front.Applier.ApplyUpdate(req, seq, durable)
	if err != nil {
		// The group backend consumes a sequence number even for a failed
		// apply; record an empty filler event so the event log's index
		// stream (and its Seq correspondence) stays gap-free.
		s.front.Notifier.Record(dirsvc.Event{Seq: seq, Op: req.Op})
		return dirsvc.ErrorReply(err), seq
	}
	effSeq := seq
	if res.AdvanceSeq > effSeq {
		effSeq = res.AdvanceSeq
	}
	if res.TopoChanged {
		// Persist the new shard-map state immediately, NVRAM mode
		// included: a split is rare (one extra disk write), and recovery
		// must never come back up routing under the old epoch. The seq
		// also advances, covering sequence numbers dropped with stubs.
		topo, ok := s.front.Applier.Topology()
		s.mu.Lock()
		s.commit.Seq = effSeq
		if ok {
			t := topo
			s.commit.Topo = &t
		}
		commit := *s.commit
		s.mu.Unlock()
		_ = commit.Write(s.cfg.Admin)
	}
	switch {
	case durable:
		if res.DeletedDir && !res.TopoChanged {
			// The deletion removed the per-directory record; remember
			// the update in the commit block (§3, Fig. 4).
			s.mu.Lock()
			s.commit.Seq = effSeq
			commit := *s.commit
			s.mu.Unlock()
			_ = commit.Write(s.cfg.Admin)
		}
		s.front.ScheduleCleanup(res.OldBullet)
	case s.nvlog != nil:
		if req.Op == dirsvc.OpRestoreShard {
			// The installed snapshot dwarfs any log budget; flush it
			// through now so a crash cannot lose the restore.
			if err := s.flushNVRAM(); err != nil {
				return dirsvc.ErrorReply(err), effSeq
			}
			break
		}
		if _, err := s.nvlog.Append(dirsvc.PinAllocation(req, res.Reply), seq); err != nil {
			// The record does not fit below the region's end (a large
			// batch, or live records up to the brim). RAM already holds
			// the update, so flushing it through makes it durable; an
			// update acknowledged with neither a log record nor a flush
			// would leave a hole under the log's maxSeq after a crash.
			if err := s.flushNVRAM(); err != nil {
				return dirsvc.ErrorReply(err), effSeq
			}
		}
	default: // engine write-ahead log
		if req.Op == dirsvc.OpRestoreShard {
			_ = s.checkpointNow(effSeq)
			break
		}
		if err := s.engine.AppendLog(seq, dirsvc.PinAllocation(req, res.Reply).Encode()); err != nil {
			// Log region full (or write trouble): fold the update into a
			// fresh checkpoint instead — it covers this apply's effects,
			// and the flip truncates the log.
			_ = s.checkpointNow(effSeq)
		}
	}
	return res.Reply, effSeq
}

// checkpointNow cuts a snapshot of the whole shard state and writes it
// to the engine's checkpoint area (atomic double-buffer swap), which also
// truncates the write-ahead log. Callers must hold applyMu — or be the
// group thread mid-batch, which holds it already — so the snapshot never
// splits a coalesced packet. minSeq raises the applied counter stamped
// into the snapshot when the caller is mid-apply and s.appliedSeq has
// not caught up yet.
func (s *Server) checkpointNow(minSeq uint64) error {
	s.mu.Lock()
	applied := s.appliedSeq
	commitSeq := s.commit.Seq
	s.mu.Unlock()
	if minSeq > applied {
		applied = minSeq
	}
	snap := s.front.Applier.SnapshotState(applied, commitSeq)
	return s.engine.WriteCheckpoint(snap.MaxSeq(), snap.Encode())
}

// Checkpoint forces one synchronous checkpoint of the storage engine —
// for tests, tools and benchmarks; the flush loop cuts them
// in the background. A no-op (nil) without an engine.
func (s *Server) Checkpoint() error {
	if s.engine == nil {
		return nil
	}
	s.applyMu.Lock()
	defer s.applyMu.Unlock()
	return s.checkpointNow(0)
}

// flushLoop is the background flusher: it writes the NVRAM log through
// to disk (§4.1), or cuts an engine checkpoint, when the server is idle
// or the log passes its threshold — which the NVRAM log, compacting
// cancelled records away on its own, passes only when bound by live ones.
func (s *Server) flushLoop() {
	defer s.wg.Done()
	ticker := time.NewTicker(s.cfg.IdleFlush / 2)
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
		if recovering {
			continue
		}
		// The batch lock keeps the flush or checkpoint snapshot-atomic
		// against the group thread. The loop runs with exactly one of
		// nvlog and engine.
		switch {
		case s.nvlog != nil:
			if s.nvlog.NeedsFlush() || (idle && s.nvlog.Len() > 0) {
				s.applyMu.Lock()
				_ = s.flushNVRAM() // disk trouble: the log is kept, retry next tick
				s.applyMu.Unlock()
			}
		case s.engine.NeedsCheckpoint() || (idle && s.engine.LogLen() > 0):
			s.applyMu.Lock()
			_ = s.checkpointNow(0)
			s.applyMu.Unlock()
		}
	}
}

// flushNVRAM writes every dirty directory through to Bullet and the
// object table, then clears the log. It runs when live records fill the
// log (space held by cancelled records the log reclaims itself, with no
// disk write), when a record does not fit at all, and when the server
// idles with live records logged. The work list comes from the object
// table's RAM-dirty set, which — unlike parsing the logged requests —
// also covers created directories (object numbers assigned at apply
// time), batch steps, and deletions. On disk trouble the log is kept, so
// a later round can retry.
func (s *Server) flushNVRAM() error {
	for _, obj := range s.front.Table.RAMDirtyObjects() {
		olds, err := s.front.Applier.FlushObject(obj)
		if err != nil {
			return err
		}
		s.front.ScheduleCleanup(olds)
	}
	if err := s.nvlog.Clear(); err != nil {
		return err
	}
	s.relogTxState()
	return nil
}

// relogTxState re-appends the two-phase-commit state to a just-cleared
// NVRAM log (after a flush, after a state transfer). Prepare records of
// still-undecided transactions are the only durable trace of the staged
// state: a whole-shard crash must find them so Fig. 6 recovery
// reinstates the in-doubt transaction instead of silently dropping a
// vote. Recent decisions ride along: a whole-shard crash right after a
// flushed commit must still answer an orphaned peer's decision query
// with "committed", or the peer would presume abort a transaction
// another shard already exposed.
func (s *Server) relogTxState() {
	for _, tx := range s.front.Applier.InDoubtTxs() {
		_, _ = s.nvlog.Append(tx.Req, tx.Seq)
	}
	// An orphaned peer resolves an in-doubt transaction within one
	// presumed-abort horizon plus two strike ticks, so outcomes three
	// horizons old can no longer be asked about — without the age limit
	// the log would re-append every decision it ever saw on every flush.
	for _, d := range s.front.Applier.RecentDecided(recentDecidedKept, 3*s.front.TxAbort) {
		req := &dirsvc.Request{
			Op:   dirsvc.OpDecide,
			Blob: dirsvc.EncodeDecide(&dirsvc.Decide{ID: d.ID, Commit: d.Commit}),
		}
		_, _ = s.nvlog.Append(req, d.Seq)
	}
}

// recentDecidedKept bounds how many decided outcomes are re-logged to
// NVRAM across flushes (each record is ~40 bytes of the 24 KB region).
const recentDecidedKept = 32
