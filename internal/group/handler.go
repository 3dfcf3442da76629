package group

import (
	"slices"
	"sort"
	"time"

	"dirsvc/internal/flip"
	"dirsvc/internal/sim"
)

// historyWindow bounds how many sequenced messages every member retains
// for retransmission and sequencer takeover.
const historyWindow = 8192

// retransBatch caps the number of messages answered per retransmission
// request.
const retransBatch = 512

// handle processes one group protocol message. It runs synchronously in
// the FLIP dispatcher of this node (the analogue of Amoeba's kernel
// protocol processing), so it must never block on the network or sleep.
// The message is decoded onto the dispatcher's stack; the handlers copy
// what they keep (an ORD, into the history ring, or onto the heap when it
// arrives out of order).
func (m *Member) handle(fm flip.Msg) {
	var msg wireMsg
	if decodeWire(fm.Payload, &msg) != nil {
		return
	}
	w := &msg
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed || m.state == StateLeft {
		return
	}

	// Join requests carry no group id (the joiner does not know it yet);
	// welcomes establish it. Everything else must match our instance.
	switch w.kind {
	case wireJoinReq:
		switch {
		case m.state == StateNormal:
			// Every member answers with its heartbeat, the view as it was
			// before this join: a prober that hears a group does not
			// create one, even while its welcome is lost.
			alive := m.aliveLocked()
			if m.sequencer == m.me {
				m.sequencerHandleJoinLocked(w)
			}
			_ = m.send(w.from, alive)
		case m.state == StateJoining && w.from < m.me:
			// A lower prober: let it create.
			if now := time.Now(); now.After(m.heardAt) {
				m.heardAt = now
			}
		}
		return
	case wireWelcome:
		m.handleWelcomeLocked(w)
		return
	}
	if m.state == StateJoining {
		if w.kind == wireAlive {
			// A group: hold off creating for two beats. A group not heard
			// for a beat is news, a new one announcing itself: ask to join
			// now rather than at the next probe. (The answers to that
			// request are not news, so they do not ask again.)
			now := time.Now()
			if !m.heardAt.After(now) {
				_ = m.multicast(&wireMsg{kind: wireJoinReq, from: m.me})
			}
			m.heardAt = now.Add(m.heartbeat)
		}
		return
	}
	if w.gid != m.gid {
		if w.kind == wireAlive && m.state == StateNormal && m.outrankedLocked(w) {
			// Yield to the larger group without a sequenced leave: its
			// sequencer's heartbeat reaches every member here. Receive and
			// Send return ErrLeft; the application rejoins through
			// JoinOrCreate.
			m.state = StateLeft
			m.cond.Broadcast()
			gtrace("node %d gid=%x YIELD to gid=%x of %d members", m.me, uint64(m.gid), uint64(w.gid), w.seq2)
		}
		return
	}
	if contains(m.members, fm.Src) {
		m.lastSeen[fm.Src] = time.Now() // any frame of a member is its heartbeat
	}

	switch w.kind {
	case wireSendReq:
		if m.state == StateNormal && m.sequencer == m.me {
			m.sequencerHandleSendLocked(w)
		}
	case wireOrd:
		m.handleOrdLocked(w)
	case wireAccept:
		m.handleAcceptLocked(w)
	case wireDone:
		m.handleDoneLocked(w)
	case wireLeave:
		if m.state == StateNormal && m.sequencer == m.me {
			m.sequencerHandleLeaveLocked(w)
		}
	case wireRetrans:
		m.handleRetransLocked(w)
	case wireAlive:
		m.handleAliveLocked(w)
	case wireInvite:
		m.handleInviteLocked(w)
	case wireResetAck:
		m.handleResetAckLocked(w)
	case wireCommit:
		m.applyCommitLocked(w)
	}
}

// sequencerHandleSendLocked assigns the next sequence number to a send
// request and multicasts it (the PB method). Duplicate requests (sender
// retries) are answered from the sequenced table.
func (m *Member) sequencerHandleSendLocked(w *wireMsg) {
	if !contains(m.members, w.from) {
		return
	}
	if seqs := m.sequenced[w.from]; seqs != nil {
		if s, dup := seqs[w.msgID]; dup {
			m.answerDuplicateLocked(w, s)
			return
		}
	}
	m.seqCounter++
	s := m.seqCounter
	ord := wireMsg{
		kind:    wireOrd,
		gid:     m.gid,
		epoch:   m.epoch,
		seq:     s,
		from:    w.from,
		msgID:   w.msgID,
		ordKind: w.ordKind,
		node:    w.node,
		payload: w.payload,
	}
	frame := m.mcastFrame(&ord)
	_ = m.stack.MulticastFrame(frame)
	if len(ord.payload) > 0 {
		// What the history and the local delivery keep is the sent frame's
		// copy, not the sender's buffer: Send's caller may reuse that.
		ord.payload = frame[len(frame)-len(ord.payload):]
	}
	m.processOrdLocked(&ord) // multicast does not loop back
	pd := &m.historyAt(s).done
	*pd = doneState{open: true, sender: w.from, msgID: w.msgID, needed: m.neededLocked()}
	pd.acked = pd.ackedBuf[:0]
	m.settleLocked(s, pd)
}

// neededLocked is the number of members besides the sequencer that must
// hold a message before its send completes: the resilience degree,
// capped by the view.
func (m *Member) neededLocked() int {
	return min(m.cfg.Resilience, len(m.members)-1)
}

// answerDuplicateLocked handles a retried send request whose message was
// already sequenced at seq s.
func (m *Member) answerDuplicateLocked(w *wireMsg, s uint64) {
	if s <= m.syncedSeq {
		// Stabilized across a reset: every member of the view has it.
		m.replyDoneLocked(w.from, w.msgID, s)
		return
	}
	pd := m.pendingDoneAt(s)
	if pd == nil || len(pd.acked) >= pd.needed {
		m.replyDoneLocked(w.from, w.msgID, s)
		return
	}
	// Not known to be stable: a member's send is acknowledged to its
	// sender alone, and that ACCEPT may have been lost. Re-send the ORD to
	// the members that have not acknowledged it here; they hold it now,
	// so they ACCEPT it to the sequencer, and the sender gets a DONE once
	// the resilience degree is in (settleLocked).
	pd.retried = true
	if h := m.historyAt(s); h != nil {
		ord := &h.ord
		frame := ord.appendTo(flip.NewFrame(m.cfg.Port, ord.size()))
		for _, nd := range m.members {
			if nd != m.me && !contains(pd.acked, nd) {
				_ = m.stack.SendFrame(nd, frame)
			}
		}
	}
}

// handleOrdLocked buffers a sequenced message and delivers everything
// that has become contiguous.
func (m *Member) handleOrdLocked(w *wireMsg) {
	if m.curProposal.epoch > m.epoch {
		// This member reported its position to a reset coordinator and
		// holds it until a commit: a message it took in now could be cut
		// by that commit after its sender had counted it held.
		return
	}
	if w.epoch > m.epoch {
		// We missed a view change; the application must reset.
		m.failLocked("saw ord from newer epoch")
		return
	}
	if w.epoch < m.epoch && w.seq > m.syncedSeq {
		// Stale traffic from a superseded view that did not survive the
		// reset: ignore it (messages ≤ syncedSeq were carried over).
		return
	}
	if w.seq < m.nextSeq {
		// Duplicate of something already processed: the sequencer re-sent
		// it for a retried send, or lost our ACCEPT of its own.
		m.acceptLocked(w, true)
		return
	}
	_, again := m.pending[w.seq]
	inOrder := false
	switch {
	case again:
	case w.seq == m.nextSeq && (m.view == nil || m.view.Seq >= w.seq):
		inOrder = true // processed below, straight into the history
	default:
		kept := *w // held on the heap until it is next in order
		m.pending[w.seq] = &kept
	}
	m.acceptLocked(w, again)
	if inOrder {
		m.processOrdLocked(w)
	}
	m.drainPendingLocked()
	if w.seq >= m.nextSeq && m.pending[m.nextSeq] == nil {
		m.maybeRequestRetransLocked(w.seq - 1)
	}
}

// acceptLocked acknowledges receipt of ord where a send waits on it. An
// application message another non-sequencer member sent is acknowledged
// to that sender, which counts it towards its send's resilience degree.
// The sequencer hears only of its own sends, and of an ORD received again
// (again): it re-sends one only to answer a retried send request.
func (m *Member) acceptLocked(ord *wireMsg, again bool) {
	if m.sequencer == m.me {
		return
	}
	accept := wireMsg{kind: wireAccept, gid: m.gid, epoch: m.epoch, seq: ord.seq, from: m.me, msgID: ord.msgID, node: ord.from}
	if again || ord.ordKind == ordApp && ord.from == m.sequencer {
		_ = m.sendSeq(m.sequencer, &accept)
	}
	if ord.ordKind == ordApp && ord.from != m.me && ord.from != m.sequencer {
		_ = m.send(ord.from, &accept)
	}
}

// drainPendingLocked promotes contiguous pending messages into the
// delivery queue, applying membership changes as they pass, and queues a
// committed reset's KindView once the member holds every old-view message
// the commit kept.
func (m *Member) drainPendingLocked() {
	for {
		if m.view != nil && m.nextSeq-1 == m.view.Seq {
			m.queue = append(m.queue, *m.view)
			m.view = nil
		}
		ord := m.pending[m.nextSeq]
		if ord == nil {
			return
		}
		delete(m.pending, m.nextSeq)
		m.processOrdLocked(ord)
	}
}

// processOrdLocked records and delivers one in-order message, copying
// it into the history. ord.seq must equal m.nextSeq.
func (m *Member) processOrdLocked(ord *wireMsg) {
	s := ord.seq
	if m.histLo == 0 {
		m.histLo = s
	}
	if s-m.histLo >= historyWindow {
		m.histLo = s - historyWindow + 1 // the window passes the oldest
	}
	if s-m.histLo >= uint64(len(m.history)) {
		m.growHistoryLocked(s)
	}
	m.history[s&uint64(len(m.history)-1)] = histSlot{ord: *ord}
	if seqs := m.sequenced[ord.from]; seqs == nil {
		m.sequenced[ord.from] = map[uint64]uint64{ord.msgID: s}
	} else {
		seqs[ord.msgID] = s
		if len(seqs) > 2*historyWindow {
			trimSequenced(seqs)
		}
	}

	m.nextSeq = s + 1 // first: a successor to a leaving sequencer numbers on past the leave
	msg := Msg{Seq: s, Sender: ord.from}
	switch ord.ordKind {
	case ordApp:
		msg.Kind = KindApp
		msg.Payload = ord.payload
		if call := m.waiting[ord.msgID]; ord.from == m.me && call != nil && m.sequencer != m.me {
			call.seq = s // this member's own send: it holds the message now
			m.completeIfStableLocked(call)
		}
	case ordJoin:
		msg.Kind = KindJoin
		msg.Node = ord.node
		if !contains(m.members, ord.node) {
			m.members = append(m.members, ord.node)
			sort.Slice(m.members, func(i, j int) bool { return m.members[i] < m.members[j] })
			m.lastSeen[ord.node] = time.Now()
		}
		msg.Members = slices.Clone(m.members)
	case ordLeave:
		msg.Kind = KindLeave
		msg.Node = ord.node
		m.removeMemberLocked(ord.node)
		msg.Members = slices.Clone(m.members)
	}
	m.queue = append(m.queue, msg)
	m.cond.Broadcast()
}

// historyAt returns the history slot of seq, or nil when the history
// does not hold seq.
func (m *Member) historyAt(seq uint64) *histSlot {
	if m.histLo == 0 || seq < m.histLo || seq >= m.nextSeq {
		return nil
	}
	if h := &m.history[seq&uint64(len(m.history)-1)]; h.ord.seq == seq {
		return h
	}
	return nil
}

// pendingDoneAt returns the open acknowledgement record of seq, or nil.
func (m *Member) pendingDoneAt(seq uint64) *doneState {
	if h := m.historyAt(seq); h != nil && h.done.open {
		return &h.done
	}
	return nil
}

// growHistoryLocked doubles the history ring until it holds histLo
// through seq, moving the slots it holds. historyWindow is a power of
// two, so the ring never outgrows it.
func (m *Member) growHistoryLocked(seq uint64) {
	n := max(len(m.history), 32)
	for seq-m.histLo >= uint64(n) {
		n *= 2
	}
	ring := make([]histSlot, n)
	for i := range m.history {
		old := &m.history[i]
		if m.historyAt(old.ord.seq) != old {
			continue
		}
		h := &ring[old.ord.seq&uint64(n-1)]
		*h = *old
		// acked may point into the old slot's buffer.
		if len(old.done.acked) <= len(h.done.ackedBuf) {
			h.done.acked = append(h.done.ackedBuf[:0], old.done.acked...)
		}
	}
	m.history = ring
}

func (m *Member) removeMemberLocked(nd sim.NodeID) {
	kept := m.members[:0]
	for _, x := range m.members {
		if x != nd {
			kept = append(kept, x)
		}
	}
	m.members = kept
	delete(m.lastSeen, nd)
	if nd == m.me {
		m.state = StateLeft
		m.cond.Broadcast()
		return
	}
	if nd == m.sequencer && len(m.members) > 0 {
		// Deterministic succession: lowest surviving member id.
		m.sequencer = m.members[0]
		if m.sequencer == m.me {
			m.seqCounter = m.nextSeq - 1
		}
		m.seenAllLocked()
	}
}

// handleAcceptLocked counts resilience acknowledgements: at the
// sequencer for its own sends and for ORDs it re-sent, elsewhere for this
// member's own sends.
func (m *Member) handleAcceptLocked(w *wireMsg) {
	if m.sequencer != m.me {
		m.countDirectAcceptLocked(w)
		return
	}
	pd := m.pendingDoneAt(w.seq)
	if pd == nil || contains(pd.acked, w.from) || !contains(m.members, w.from) {
		return
	}
	pd.acked = append(pd.acked, w.from)
	m.settleLocked(w.seq, pd)
}

// settleLocked completes the sequencer's own send of seq once it holds
// the resilience degree, or answers a member that retried its send with a
// DONE then, and forgets seq once every member has acknowledged it; a
// retried send request is answered with a DONE from then on.
func (m *Member) settleLocked(seq uint64, pd *doneState) {
	if len(pd.acked) < pd.needed {
		return
	}
	if len(pd.acked) == pd.needed {
		switch {
		case pd.sender == m.me:
			m.completeSendLocked(pd.msgID, seq)
		case pd.retried:
			m.replyDoneLocked(pd.sender, pd.msgID, seq)
		}
	}
	if len(pd.acked) >= len(m.members)-1 {
		pd.open = false
	}
}

// countDirectAcceptLocked counts an ACCEPT another non-sequencer member
// of the current view sent for one of this member's sends, in the
// current epoch and once per member.
func (m *Member) countDirectAcceptLocked(w *wireMsg) {
	call := m.waiting[w.msgID]
	if call == nil || w.node != m.me || w.epoch != m.epoch || w.from == m.sequencer || !contains(m.members, w.from) {
		return
	}
	if call.epoch != m.epoch {
		call.epoch, call.acked = m.epoch, call.ackedBuf[:0]
	}
	if contains(call.acked, w.from) {
		return
	}
	call.acked = append(call.acked, w.from)
	m.completeIfStableLocked(call)
}

// completeIfStableLocked completes a send of this member, not the
// sequencer, once the message is held by the sequencer, by this member
// and by enough others that the three together make the resilience
// degree.
func (m *Member) completeIfStableLocked(call *sendCall) {
	acked := 0
	if call.epoch == m.epoch {
		acked = len(call.acked)
	}
	if call.seq != 0 && acked+1 >= m.neededLocked() {
		select {
		case call.done <- call.seq:
		default:
		}
	}
}

func (m *Member) replyDoneLocked(sender sim.NodeID, msgID, seq uint64) {
	if sender == m.me {
		m.completeSendLocked(msgID, seq)
		return
	}
	_ = m.send(sender, &wireMsg{kind: wireDone, gid: m.gid, epoch: m.epoch, seq: seq, msgID: msgID, from: m.me})
}

// handleDoneLocked completes one of our outstanding Send calls.
func (m *Member) handleDoneLocked(w *wireMsg) { m.completeSendLocked(w.msgID, w.seq) }

// completeSendLocked hands seq to the Send call waiting on msgID, if any.
func (m *Member) completeSendLocked(msgID, seq uint64) {
	if call := m.waiting[msgID]; call != nil {
		select {
		case call.done <- seq:
		default:
		}
	}
}

// sequencerHandleJoinLocked admits a new member: the join is woven into
// the total order and the joiner receives a welcome snapshot.
func (m *Member) sequencerHandleJoinLocked(w *wireMsg) {
	node := w.from
	if contains(m.members, node) {
		// Re-join from a member that lost its welcome (or its state):
		// answer with the current position.
		m.sendWelcomeLocked(node, m.seqCounter)
		return
	}
	m.seqCounter++
	s := m.seqCounter
	ord := &wireMsg{
		kind:    wireOrd,
		gid:     m.gid,
		epoch:   m.epoch,
		seq:     s,
		from:    m.me,
		ordKind: ordJoin,
		node:    node,
	}
	_ = m.multicast(ord)
	m.processOrdLocked(ord)
	m.sendWelcomeLocked(node, s)
}

func (m *Member) sendWelcomeLocked(node sim.NodeID, joinSeq uint64) {
	members := make([]sim.NodeID, len(m.members))
	copy(members, m.members)
	welcome := &wireMsg{
		kind:    wireWelcome,
		gid:     m.gid,
		epoch:   m.epoch,
		seq:     joinSeq,
		from:    m.me,
		members: members,
	}
	_ = m.send(node, welcome)
}

// handleWelcomeLocked installs the group snapshot at a joining member.
func (m *Member) handleWelcomeLocked(w *wireMsg) {
	if m.state != StateJoining {
		if w.gid != m.gid {
			// The answer to a join request this member sent before it
			// joined another group: leave that one at once. Until failure
			// detection dropped it, that group's view would count a
			// member that is not there, and outrank the group it is in.
			_ = m.send(w.from, &wireMsg{kind: wireLeave, gid: w.gid, from: m.me, node: m.me})
		}
		return
	}
	m.gid = w.gid
	m.epoch = w.epoch
	m.members = append([]sim.NodeID(nil), w.members...)
	m.sequencer = w.from
	m.nextSeq = w.seq + 1
	m.delivered = w.seq // the joiner's stream starts after its join
	m.seqCounter = w.seq
	m.syncedSeq = w.seq
	m.curProposal = proposal{epoch: w.epoch, node: w.from}
	m.state = StateNormal
	m.seenAllLocked()
	gtrace("node %d gid=%x WELCOME epoch=%d seq=%d members=%v sequencer=%d", m.me, uint64(m.gid), m.epoch, w.seq, m.members, m.sequencer)
	m.cond.Broadcast()
}

// sequencerHandleLeaveLocked weaves a departure into the total order.
func (m *Member) sequencerHandleLeaveLocked(w *wireMsg) {
	if !contains(m.members, w.node) {
		return
	}
	m.seqCounter++
	s := m.seqCounter
	ord := &wireMsg{
		kind:    wireOrd,
		gid:     m.gid,
		epoch:   m.epoch,
		seq:     s,
		from:    w.from,
		ordKind: ordLeave,
		node:    w.node,
	}
	_ = m.multicast(ord)
	m.processOrdLocked(ord)
}

// handleRetransLocked answers a gap-repair request from history.
func (m *Member) handleRetransLocked(w *wireMsg) {
	from, to := w.seq, w.seq2
	if to > from+retransBatch {
		to = from + retransBatch
	}
	for s := from; s <= to; s++ {
		h := m.historyAt(s)
		if h == nil {
			continue
		}
		// Re-stamp with the current epoch: retransmitted messages are
		// valid in the view that inherited them.
		copyOrd := h.ord
		copyOrd.epoch = m.epoch
		_ = m.send(w.from, &copyOrd)
	}
}

// handleAliveLocked triggers gap repair when the sequencer's heartbeat
// shows the group is ahead of us.
func (m *Member) handleAliveLocked(w *wireMsg) {
	if w.epoch > m.epoch {
		m.failLocked("saw heartbeat from newer epoch")
		return
	}
	if w.epoch == m.epoch && w.seq > m.nextSeq-1 && w.from == m.sequencer {
		m.maybeRequestRetransLocked(w.seq)
	}
}

// outrankedLocked reports whether the group whose heartbeat w is ranks
// above this member's: a larger view first, then the lower gid, so one
// group per port survives. A rival disjoint from a majority is smaller
// than it, so a serving group never yields, whatever the epochs.
func (m *Member) outrankedLocked(w *wireMsg) bool {
	mine := uint64(len(m.members))
	return w.seq2 > mine || w.seq2 == mine && w.gid < m.gid
}

// maybeRequestRetransLocked asks the sequencer for missing messages,
// rate-limited to one request per half heartbeat.
func (m *Member) maybeRequestRetransLocked(upTo uint64) {
	if m.sequencer == m.me || upTo < m.nextSeq {
		return
	}
	now := time.Now()
	if now.Sub(m.lastRetransAt) < m.heartbeat/2 {
		return
	}
	m.lastRetransAt = now
	_ = m.sendSeq(m.sequencer, &wireMsg{kind: wireRetrans, gid: m.gid, epoch: m.epoch, seq: m.nextSeq, seq2: upTo, from: m.me})
}

// handleInviteLocked reacts to a reset proposal: higher proposals win.
func (m *Member) handleInviteLocked(w *wireMsg) {
	p := proposal{epoch: w.epoch, node: w.from}
	if w.epoch <= m.epoch {
		return
	}
	if m.curProposal.less(p) {
		m.curProposal = p
		if m.state == StateNormal || m.state == StateFailed {
			m.state = StateResetting
			m.resettingSince = time.Now()
		}
		m.resetAcks = nil // abandon our own coordination attempt
		m.cond.Broadcast()
	}
	if m.curProposal == p {
		_ = m.send(w.from, &wireMsg{kind: wireResetAck, gid: m.gid, epoch: w.epoch, seq: m.nextSeq - 1, from: m.me})
	}
}

// handleResetAckLocked collects acknowledgements for our own proposal.
func (m *Member) handleResetAckLocked(w *wireMsg) {
	if m.resetAcks == nil || m.curProposal.node != m.me || m.curProposal.epoch != w.epoch {
		return
	}
	m.resetAcks[w.from] = w.seq
}

// applyCommitLocked installs a new view, triggering catch-up from the new
// sequencer when we are behind.
func (m *Member) applyCommitLocked(w *wireMsg) {
	if w.epoch <= m.epoch {
		return
	}
	// Note: a commit below our current proposal is still installed.
	// Ballot-unique epochs make every commit distinct and totally
	// ordered, so the higher coordinator's commit (if it ever happens)
	// simply supersedes this view; refusing here would strand us
	// viewless if that coordinator gave up, forcing a needless full
	// recovery.
	if !contains(w.members, m.me) || w.seq2+1 < m.nextSeq {
		// Excluded from the new view, or holding old-view messages past
		// the last one it keeps (a lower commit lifted the hold on the
		// position this member reported, and the stream moved on): the
		// view numbers its own messages from seq2+1, so force the
		// application into recovery (it will leave and re-join).
		m.state = StateFailed
		m.cond.Broadcast()
		return
	}
	m.epoch = w.epoch
	m.members = append([]sim.NodeID(nil), w.members...)
	m.sequencer = w.node
	m.curProposal = proposal{epoch: w.epoch, node: w.from}
	m.resetAcks = nil
	if w.seq2 > m.syncedSeq {
		m.syncedSeq = w.seq2
	}
	m.seqCounter = w.seq2 // the new sequencer numbers on from seq2, also below an earlier commit's
	// Messages sequenced beyond the stabilized point in the old view may
	// exist nowhere in this view; their senders will re-send them. Drop
	// buffered copies so they cannot be delivered twice under two
	// sequence numbers.
	for s := range m.pending {
		if s > w.seq2 {
			delete(m.pending, s)
		}
	}
	m.view = &Msg{Seq: w.seq2, Kind: KindView, Sender: w.from, Members: slices.Clone(w.members)}
	m.drainPendingLocked()
	for i := range m.history {
		m.history[i].done.open = false
	}
	m.seenAllLocked()
	m.state = StateNormal
	m.resettingSince = time.Time{}
	gtrace("node %d gid=%x COMMIT epoch=%d members=%v sequencer=%d seq2=%d nextSeq=%d", m.me, uint64(m.gid), m.epoch, m.members, m.sequencer, w.seq2, m.nextSeq)
	m.cond.Broadcast()
	if m.nextSeq-1 < w.seq2 {
		m.lastRetransAt = time.Time{}
		m.maybeRequestRetransLocked(w.seq2)
	}
}

// trimSequenced keeps the highest historyWindow msgIDs in a dedup map.
func trimSequenced(seqs map[uint64]uint64) {
	ids := make([]uint64, 0, len(seqs))
	for id := range seqs {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids[:len(ids)-historyWindow] {
		delete(seqs, id)
	}
}
