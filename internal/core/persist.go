package core

import (
	"errors"
	"time"

	"dirsvc/internal/dirsvc"
)

// persister makes applied updates durable in one of the modes NewServer
// picks: write-through (§3), NVRAM log (§4.1) or storage engine. Callers
// hold applyMu, but for status (mu) and recovery's load and install.
type persister interface {
	// beforeApply readies the store for one more update and reports
	// whether the apply writes it through to Bullet and the object table.
	beforeApply() (durable bool)
	// record makes an applied update durable or queues it for sync; on an
	// error it must not be acknowledged. Each mode orders a topology
	// change's commit-block write against its record.
	record(req *dirsvc.Request, res *dirsvc.ApplyResult, seq uint64) error
	// sync writes what record queued, before a reply to an update this
	// server initiated and before every commit-block write.
	sync() error
	// tick is the flush loop's work; quiet is how long no update came.
	tick(quiet time.Duration)
	checkpoint() error // Server.Checkpoint
	// settle starts recovery: sync, drop what cannot be written, and
	// return the highest sequence number the log holds.
	settle() uint64
	load() error                         // rebuild from own stable storage
	install(snap *dirsvc.Snapshot) error // adopt a peer's state transfer
	status(st *Status)
}

// writeThrough is the paper's base mode: the apply writes the directory
// to Bullet and its object-table entry, which is the commit (§3).
type writeThrough struct{ s *Server }

func (w writeThrough) beforeApply() bool { return true }

func (w writeThrough) record(_ *dirsvc.Request, res *dirsvc.ApplyResult, _ uint64) error {
	// A deletion removed the per-directory record: remember the update in
	// the commit block (§3, Fig. 4).
	if res.TopoChanged || res.DeletedDir {
		w.s.commitAppliedLocked(res.TopoChanged)
	}
	w.s.front.ScheduleCleanup(res.OldBullet)
	return nil
}

func (w writeThrough) sync() error                         { return nil }
func (w writeThrough) tick(time.Duration)                  {}
func (w writeThrough) checkpoint() error                   { return nil }
func (w writeThrough) settle() uint64                      { return 0 }
func (w writeThrough) install(snap *dirsvc.Snapshot) error { return w.s.installSnapshot(snap, true) }
func (w writeThrough) status(*Status)                      {}

func (w writeThrough) load() error {
	if err := w.s.front.Applier.LoadAll(); err != nil {
		return err
	}
	return w.s.front.Applier.FormatRoot(true)
}

// nvramLog is §4.1's variant: the apply updates RAM, record logs the
// operation to NVRAM, and flush writes dirty directories through to disk.
type nvramLog struct {
	s   *Server
	log *dirsvc.NVLog
}

func (n *nvramLog) beforeApply() bool {
	if n.log.NeedsFlush() {
		// Live records fill the log (cancelled ones it compacts away by
		// itself): make room first.
		_ = n.flush() // on disk trouble the log stays and record decides
	}
	return false
}

func (n *nvramLog) record(req *dirsvc.Request, res *dirsvc.ApplyResult, seq uint64) error {
	if res.TopoChanged {
		n.s.commitAppliedLocked(true)
	}
	if req.Op != dirsvc.OpRestoreShard {
		if _, err := n.log.Append(dirsvc.PinAllocation(req, res.Reply), seq); err == nil {
			return nil
		}
	}
	// A restored snapshot dwarfs any log budget, and a record may not fit
	// (a large batch, or live records up to the brim): flushing RAM through
	// makes the update durable, where acknowledging it unlogged would leave
	// a hole under the log's maxSeq after a crash. A prepare's record, which
	// flush re-logs, is the only durable trace of its staged steps: one too
	// big for the cleared log fails the flush, and the vote is refused.
	return n.flush()
}

func (n *nvramLog) sync() error       { return nil }
func (n *nvramLog) checkpoint() error { return nil }
func (n *nvramLog) settle() uint64    { return n.log.MaxSeq() }
func (n *nvramLog) status(st *Status) { st.NVRAMUsed = n.log.UsedBytes() }

// tick flushes a log past 3/4, one with records after IdleFlush of quiet,
// and one past half after a tenth of that: a flush stalls the apply path,
// so a lull is the time for one due soon (ARCHITECTURE.md, "The two
// flushes that remain").
func (n *nvramLog) tick(quiet time.Duration) {
	idle := n.s.cfg.IdleFlush
	if n.log.NeedsFlush() || (quiet >= idle && n.log.Len() > 0) || (quiet >= idle/10 && n.log.PastHalf()) {
		_ = n.flush() // disk trouble: the log is kept, retry next tick
	}
}

// flush writes every RAM-dirty directory through to Bullet and the object
// table (creations, batch steps and deletions included), then clears the
// log and re-logs the two-phase-commit state. On disk trouble the log is
// kept, so a later round can retry.
func (n *nvramLog) flush() error {
	olds, err := n.s.front.Applier.FlushObjects(n.s.front.Table.RAMDirtyObjects())
	if err != nil {
		return err
	}
	n.s.front.ScheduleCleanup(olds)
	if err := n.log.Clear(); err != nil {
		return err
	}
	return n.relogTxState()
}

// relogTxState re-appends the two-phase-commit state to the cleared log
// and returns the error of a record that does not fit. Undecided prepares
// must survive a whole-shard crash, so Fig. 6 recovery reinstates the
// in-doubt transaction instead of dropping a vote. Recent decisions ride
// along, so a participant asking a resolver after such a crash still
// hears "committed", not "unknown" (which it reads as abort), about a
// transaction another shard already exposed.
func (n *nvramLog) relogTxState() (err error) {
	relog := func(req *dirsvc.Request, seq uint64) {
		if _, aerr := n.log.Append(req, seq); aerr != nil {
			err = aerr
		}
	}
	a := n.s.front.Applier
	for _, tx := range a.InDoubtTxs() {
		relog(tx.Req, tx.Seq)
	}
	for _, d := range a.RecentDecided(recentDecidedKept) {
		relog(&dirsvc.Request{
			Op:   dirsvc.OpDecide,
			Blob: dirsvc.EncodeDecide(&dirsvc.Decide{ID: d.ID, Commit: d.Commit}),
		}, d.Seq)
	}
	return err
}

// recentDecidedKept bounds how many decided outcomes are re-logged to
// NVRAM across flushes (each record is ~40 bytes of the 24 KB region).
const recentDecidedKept = 32

func (n *nvramLog) load() error {
	a := n.s.front.Applier
	if err := a.LoadAll(); err != nil {
		return err
	}
	if err := a.FormatRoot(false); err != nil {
		return err
	}
	reqs, seqs, err := n.log.Live()
	if err != nil {
		return err
	}
	for i, req := range reqs {
		a.Replay(req, seqs[i])
	}
	// The log also counts the numbers no surviving record carries.
	a.Advance(n.log.MaxSeq())
	return nil
}

// install writes the images through, so the log starts over.
func (n *nvramLog) install(snap *dirsvc.Snapshot) error {
	if err := n.log.Clear(); err != nil {
		return err
	}
	if err := n.s.installSnapshot(snap, true); err != nil {
		return err
	}
	_ = n.relogTxState()
	return nil
}

// engineLog is the storage engine: the apply updates RAM, record queues
// the operation on the pending write-ahead run, sync writes the run, and
// a checkpoint of the shard state bounds recovery to its log suffix.
type engineLog struct {
	s   *Server
	eng *dirsvc.Engine
	run []dirsvc.LogRec // applied but not yet on disk, in stream order
	// buf holds the run's payloads back to back; the engine copies what
	// it keeps, so buf is reused once the run is written.
	buf []byte
	// Every ckptTicks-th heartbeat tick (IdleFlush/2) may checkpoint.
	ticks, ckptTicks int
}

func (e *engineLog) beforeApply() bool { return false }

func (e *engineLog) record(req *dirsvc.Request, res *dirsvc.ApplyResult, seq uint64) error {
	restore := req.Op == dirsvc.OpRestoreShard
	if !restore {
		// Queued before the commit-block write below, which syncs first:
		// the block's sequence number never runs ahead of the log. Should
		// buf grow, earlier payloads stay in the array they were written to.
		at := len(e.buf)
		e.buf = dirsvc.PinAllocation(req, res.Reply).AppendTo(e.buf)
		e.run = append(e.run, dirsvc.LogRec{Seq: seq, Payload: e.buf[at:len(e.buf):len(e.buf)]})
	}
	if res.TopoChanged {
		e.s.commitAppliedLocked(true)
	}
	if restore {
		// The installed snapshot dwarfs the log: checkpoint it now, which
		// covers the pending run too.
		return e.checkpoint()
	}
	return nil
}

// sync writes the pending run to the log in one sequential write. A run
// the log cannot take (region full, write trouble) is folded into a fresh
// checkpoint instead, which covers every applied record; when that fails
// too, the run stays pending for the next attempt.
func (e *engineLog) sync() error {
	if len(e.run) == 0 {
		return nil
	}
	if err := e.eng.AppendRun(e.run); err != nil {
		return e.checkpoint()
	}
	e.drop()
	return nil
}

// drop empties the pending run once the log or a checkpoint holds it.
func (e *engineLog) drop() {
	clear(e.run)
	e.run, e.buf = e.run[:0], e.buf[:0]
}

// checkpoint writes a snapshot of the shard state to the checkpoint area
// (atomic double-buffer swap), which truncates the log and covers the
// run. applyMu keeps the cut from splitting a coalesced packet.
func (e *engineLog) checkpoint() error {
	e.s.mu.Lock()
	commitSeq := e.s.commit.Seq
	e.s.mu.Unlock()
	a := e.s.front.Applier
	snap := a.SnapshotState(a.AppliedSeq(), commitSeq)
	if err := e.eng.WriteCheckpoint(snap.MaxSeq(), snap.Encode()); err != nil {
		return err
	}
	e.drop()
	return nil
}

func (e *engineLog) tick(quiet time.Duration) {
	idle := quiet >= e.s.cfg.IdleFlush
	// No update of this server's own came along to carry the run (a
	// replica without clients): write it anyway, so its disk trails the
	// stream by a heartbeat at most.
	_ = e.sync()
	if e.ticks++; e.ticks%e.ckptTicks == 0 &&
		(e.eng.NeedsCheckpoint() || (idle && (e.eng.LogLen() > 0 || len(e.run) > 0))) {
		_ = e.checkpoint()
	}
}

// settle puts what this replica applied on the disk recovery rebuilds it
// from; what still fails to get there is gone from this replica.
func (e *engineLog) settle() uint64 {
	_ = e.sync()
	e.drop()
	return e.eng.MaxSeq()
}

func (e *engineLog) status(st *Status) {
	st.CheckpointSeq = e.eng.CheckpointSeq()
	st.EngineLog = e.eng.LogLen()
}

// load installs the last checkpoint wholesale and replays only the log
// suffix past it.
func (e *engineLog) load() error {
	ckptSeq, payload, err := e.eng.Checkpoint()
	switch {
	case err == nil:
		snap, err := dirsvc.DecodeSnapshot(payload)
		if err != nil {
			return err
		}
		if err := e.s.installSnapshot(snap, false); err != nil {
			return err
		}
	case !errors.Is(err, dirsvc.ErrNoCheckpoint): // a fresh engine starts empty
		return err
	}
	if err := e.s.front.Applier.FormatRoot(false); err != nil {
		return err
	}
	for _, rec := range e.eng.LogSuffix(ckptSeq) {
		if req, err := dirsvc.DecodeRequest(rec.Payload); err == nil {
			e.s.front.Applier.Replay(req, rec.Seq)
		}
	}
	return nil
}

// install is RAM-only: recover() seals the state into a fresh checkpoint
// before the replica serves anything.
func (e *engineLog) install(snap *dirsvc.Snapshot) error {
	return e.s.installSnapshot(snap, false)
}
