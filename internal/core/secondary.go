package core

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"dirsvc/internal/dirsvc"
	"dirsvc/internal/flip"
)

// SecondaryConfig describes one readonly secondary instance: a
// directory server that serves balanced reads from a primary replica's
// storage-engine partition (checkpoint + log tail) without joining the
// replica group — it holds no vote, takes no updates, and grants no
// leases. It is the scale-out read tier: clients with read balancing
// enabled spread reads over primaries and secondaries alike, while the
// session floor (Request.MinSeq) keeps read-your-writes intact — a
// secondary that has not caught up to the floor refuses, and the client
// fails over to a writable replica.
type SecondaryConfig struct {
	// FrontConfig names the service whose port this secondary answers on
	// (alongside the primaries) and places it in a sharded deployment,
	// mirroring Config. Admin is a scratch partition backing the instance's
	// object-table mirror; it is never a durability source (state installs
	// are RAM-only), and Bullet stays nil.
	dirsvc.FrontConfig
	// View is the read-only attachment to the primary's engine partition.
	View *dirsvc.EngineView
	// Refresh is the poll interval for tailing the primary's engine
	// partition (zero: a model-scaled default).
	Refresh time.Duration
}

// Secondary is a readonly directory service instance fed from a
// primary's storage engine.
type Secondary struct {
	cfg SecondaryConfig
	// front is the shared request pipeline; the secondary is a Backend
	// whose gate admits reads only.
	front *dirsvc.FrontEnd

	// refreshMu serializes state refreshes (the poll loop and on-demand
	// refreshes triggered by session floors).
	refreshMu sync.Mutex

	mu        sync.Mutex
	ckptGen   uint64
	haveState bool
	closed    bool

	refresh time.Duration

	stop chan struct{}
	wg   sync.WaitGroup
}

// NewSecondary boots a readonly secondary on stack. It installs the
// primary's current checkpoint if one exists; until the primary has
// checkpointed, the instance answers StatusNoMajority and clients fail
// over to the primaries.
func NewSecondary(stack *flip.Stack, cfg SecondaryConfig) (*Secondary, error) {
	if cfg.View == nil {
		return nil, errors.New("core: secondary needs an engine view")
	}
	front, err := dirsvc.NewFrontEnd(stack, cfg.FrontConfig)
	if err != nil {
		return nil, fmt.Errorf("secondary: %w", err)
	}
	sec := &Secondary{
		cfg:     cfg,
		front:   front,
		refresh: cfg.Refresh,
		stop:    make(chan struct{}),
	}
	if sec.refresh <= 0 {
		sec.refresh = stack.Model().Timeout(250 * time.Millisecond)
		if sec.refresh < 10*time.Millisecond {
			sec.refresh = 10 * time.Millisecond
		}
	}

	// Best-effort initial catch-up; "no checkpoint yet" is not fatal.
	_ = sec.refreshNow()

	if err := front.Serve(sec); err != nil {
		front.Close()
		return nil, err
	}
	// Announce read-only on HEREIS so locating clients keep updates away.
	front.RPC().SetReadOnly(true)

	sec.wg.Add(1)
	go sec.refreshLoop()
	return sec, nil
}

// Close shuts the secondary down.
func (sec *Secondary) Close() {
	sec.mu.Lock()
	if sec.closed {
		sec.mu.Unlock()
		return
	}
	sec.closed = true
	sec.mu.Unlock()
	close(sec.stop)
	sec.front.Close()
	sec.wg.Wait()
}

// AppliedSeq returns the service sequence number the instance has
// caught up to (0 before the first checkpoint lands).
func (sec *Secondary) AppliedSeq() uint64 { return sec.front.Applier.AppliedSeq() }

// ReadsServed returns the number of reads this instance has answered —
// the read-tier share in the load-distribution measurements.
func (sec *Secondary) ReadsServed() uint64 { return sec.front.ReadsServed() }

// Read serves one read request exactly as a serving thread would, without
// the RPC transport, so tests and tools can interrogate this instance.
func (sec *Secondary) Read(req *dirsvc.Request) *dirsvc.Reply { return sec.front.Read(req) }

// Refresh forces one synchronous catch-up against the primary's engine
// partition (tests and tools; the poll loop does this continuously).
func (sec *Secondary) Refresh() error { return sec.refreshNow() }

func (sec *Secondary) refreshLoop() {
	defer sec.wg.Done()
	ticker := time.NewTicker(sec.refresh)
	defer ticker.Stop()
	for {
		select {
		case <-sec.stop:
			return
		case <-ticker.C:
		}
		_ = sec.refreshNow()
	}
}

// refreshNow brings the instance's RAM state up to the primary's engine
// partition: a checkpoint-generation change installs the new checkpoint
// wholesale, and the log tail past the applied sequence number replays on
// top.
// Torn reads (racing the primary's checkpoint flip) and missing
// checkpoints surface as errors; the next poll retries.
func (sec *Secondary) refreshNow() error {
	sec.refreshMu.Lock()
	defer sec.refreshMu.Unlock()
	m, err := sec.cfg.View.Manifest()
	if err != nil {
		return err
	}
	if m.CkptGen == 0 {
		return dirsvc.ErrNoCheckpoint
	}
	sec.mu.Lock()
	curGen, have := sec.ckptGen, sec.haveState
	sec.mu.Unlock()
	if m.CkptGen != curGen || !have {
		payload, err := sec.cfg.View.Checkpoint(m)
		if err != nil {
			return err
		}
		snap, err := dirsvc.DecodeSnapshot(payload)
		if err != nil {
			return err
		}
		if err := sec.front.Applier.InstallSnapshot(snap, false); err != nil {
			return err
		}
	}
	recs, err := sec.cfg.View.LogSince(m, sec.front.Applier.AppliedSeq())
	replayLog(sec.front.Applier, recs) // none on error
	sec.mu.Lock()
	sec.ckptGen = m.CkptGen
	sec.haveState = true
	sec.mu.Unlock()
	return err
}

// Ready admits reads only, and only once a checkpoint has been
// installed (trying one on-demand refresh first). No votes, no writes,
// no leases: a lease here would mask foreign commits the instance has
// not tailed yet, and an update could never reach the group stream. The
// refused client fails over to a primary.
func (sec *Secondary) Ready(op dirsvc.OpCode) bool {
	if op.IsUpdate() || op == dirsvc.OpWatch || op == dirsvc.OpLeaseRenew {
		return false
	}
	sec.mu.Lock()
	have := sec.haveState
	sec.mu.Unlock()
	return have || sec.refreshNow() == nil
}

// WaitFloor answers a session floor above the applied sequence number
// with one on-demand refresh; if the instance is still behind, it refuses
// and the client fails over to a replica that has the write. Objects
// locked by a prepared transaction tailed from the primary then hold
// their readers in the pipeline just like on a primary: the decide
// arrives with the log tail.
func (sec *Secondary) WaitFloor(_ uint32, minSeq uint64) bool {
	if minSeq > sec.AppliedSeq() {
		_ = sec.refreshNow()
	}
	return minSeq <= sec.AppliedSeq()
}

// Replicate is never reached: Ready refuses every update.
func (sec *Secondary) Replicate(_ *dirsvc.Request, reply *dirsvc.Reply) {
	*reply = dirsvc.Reply{Status: dirsvc.StatusNoMajority}
}
