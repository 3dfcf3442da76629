package group

import (
	"fmt"
	"time"

	"dirsvc/internal/sim"
)

// ballotNodeBits is the width of the node-id field packed into the low
// bits of every reset epoch. Epochs form Paxos-style ballots
// (round, node): unique per coordinator, totally ordered, monotone.
const ballotNodeBits = 16

// ballotEpoch returns the smallest epoch this node may propose that is
// strictly greater than after.
func ballotEpoch(after uint64, node sim.NodeID) uint64 {
	round := (after >> ballotNodeBits) + 1
	return round<<ballotNodeBits | uint64(node)&(1<<ballotNodeBits-1)
}

// Reset rebuilds the group after a failure (paper Fig. 1: ResetGroup).
// The caller acts as coordinator: it invites all reachable members of the
// same group instance, and if at least minSize answer (including itself)
// it commits a new view whose sequencer is the member with the most
// complete message history, so no stabilized message is lost. Concurrent
// resets are resolved by proposal ordering — the highest (epoch, node)
// proposal wins and the losers adopt its commit.
//
// On success the member is back in StateNormal and the returned Info
// describes the new view. If no view of minSize could be assembled before
// the deadline, Reset returns ErrResetFailed with the best information it
// has; the member stays failed, and the application is expected to leave
// and run its recovery protocol (paper §3.2).
func (m *Member) Reset(minSize int) (Info, error) {
	if minSize < 1 {
		minSize = 1
	}
	deadline := time.Now().Add(16 * m.retryEvery)
	for time.Now().Before(deadline) {
		m.mu.Lock()
		switch {
		case m.closed:
			m.mu.Unlock()
			return Info{}, ErrClosed
		case m.state == StateLeft:
			m.mu.Unlock()
			return Info{}, ErrLeft
		case m.state == StateNormal && len(m.members) >= minSize:
			// Either our own commit below or another coordinator's
			// reset already rebuilt the group.
			m.unreported = false
			info := m.infoLocked()
			m.mu.Unlock()
			return info, nil
		}

		// Become coordinator with a ballot above everything seen. The
		// low bits of the epoch carry our node id, so two coordinators
		// proposing concurrently can never mint the same epoch: their
		// commits are totally ordered, and a member stranded in the
		// losing view sees traffic from a strictly newer epoch and
		// fails over through the ordinary staleness checks.
		prev := m.epoch
		if m.curProposal.epoch > prev {
			prev = m.curProposal.epoch
		}
		propEpoch := ballotEpoch(prev, m.me)
		p := proposal{epoch: propEpoch, node: m.me}
		m.curProposal = p
		if m.state != StateResetting {
			m.state = StateResetting
		}
		m.resettingSince = time.Now()
		m.resetAcks = map[sim.NodeID]uint64{m.me: m.nextSeq - 1}
		invite := &wireMsg{kind: wireInvite, gid: m.gid, epoch: propEpoch, from: m.me}
		m.mu.Unlock()

		// Two invite rounds per proposal to ride out frame loss.
		for round := 0; round < 2; round++ {
			_ = m.multicast(invite)
			time.Sleep(m.ackWindow)
			m.mu.Lock()
			superseded := m.curProposal != p
			enough := len(m.resetAcks) >= minSize
			m.mu.Unlock()
			if superseded || enough {
				break
			}
		}

		m.mu.Lock()
		if m.state == StateLeft {
			m.mu.Unlock()
			continue // closed meanwhile: a commit would revive it
		}
		if m.curProposal != p {
			// A higher proposal took over; wait for its commit.
			m.waitLocked(time.Now().Add(m.ackWindow))
			m.mu.Unlock()
			continue
		}
		if len(m.resetAcks) < minSize {
			m.mu.Unlock()
			continue // next proposal round
		}

		// Commit: sequencer = member with the highest contiguous
		// sequence number (ties to the lowest id), so the new sequencer
		// owns every message that survives into the view.
		var (
			maxSeq uint64
			seqr   sim.NodeID = -1
		)
		for nd, s := range m.resetAcks {
			switch {
			case seqr == -1, s > maxSeq, s == maxSeq && nd < seqr:
				maxSeq = s
				seqr = nd
			}
		}
		commit := &wireMsg{
			kind:    wireCommit,
			gid:     m.gid,
			epoch:   p.epoch,
			from:    m.me,
			node:    seqr,
			seq2:    maxSeq,
			members: membersSorted(m.resetAcks),
		}
		m.resetAcks = nil
		// Install locally through the same path members use, then tell
		// everyone. epoch precondition holds: p.epoch > m.epoch.
		m.applyCommitLocked(commit)
		m.unreported = false
		info := m.infoLocked()
		m.mu.Unlock()

		frame := m.mcastFrame(commit)
		_ = m.stack.MulticastFrame(frame)
		_ = m.stack.MulticastFrame(frame) // repeat for loss tolerance
		return info, nil
	}

	m.mu.Lock()
	if m.state == StateResetting {
		m.state = StateFailed
		m.cond.Broadcast()
	}
	info := m.infoLocked()
	m.mu.Unlock()
	return info, fmt.Errorf("assembled %d of %d members: %w", len(info.Members), minSize, ErrResetFailed)
}
