// Package group implements Amoeba's reliable, totally-ordered group
// communication (Kaashoek & Tanenbaum, ICDCS 1991) on top of the FLIP
// layer — the substrate the paper's directory service is built on.
//
// The mapping to the paper's Fig. 1 primitives:
//
//	CreateGroup      → Create
//	JoinGroup        → Join (or JoinOrCreate)
//	LeaveGroup       → Member.Leave
//	SendToGroup      → Member.Send
//	ReceiveFromGroup → Member.Receive
//	ResetGroup       → Member.Reset
//	GetInfoGroup     → Member.Info
//
// Total order comes from a sequencer (the PB method): a member sends its
// message point-to-point to the sequencer, which assigns the next sequence
// number and multicasts it to the group in a single Ethernet frame. With
// resilience degree r, Send returns only once r members besides the
// sequencer hold the message, so it survives r processor failures. The
// sequencer's own sends count its members' ACCEPTs. Any other member's
// send counts itself, once it has delivered its own ORD, and the
// ACCEPTs the remaining members send it directly; nobody ACCEPTs it to
// the sequencer unless the sender retries. The sequencer then re-sends
// the ORD, every member that receives it again ACCEPTs it to the
// sequencer, and the sequencer answers with a DONE once r are in. For a
// triplicated service with r = 2 a member's send costs three messages —
// REQUEST, ORD multicast, the third member's ACCEPT to the sender —
// where the paper's §3.1 count is five: it also sends both members'
// ACCEPTs to the sequencer, which no send waits on.
//
// Views change in the stream. A join or leave is sequenced like a
// message; a reset commits a new view, which every member of it receives
// as one KindView after the old view's messages the reset kept and before
// the new view's own — virtual synchrony. Every view change carries the
// member list in force from its place in the stream. A member that has
// reported its position to a reset's coordinator takes in no message
// until a commit; a commit keeping fewer messages than the member holds
// fails it, as one that excludes it does.
//
// Failure detection is a star around the sequencer. The sequencer
// multicasts its heartbeat every beat and watches every member; any
// other member watches the sequencer alone and unicasts its heartbeat to
// it, unless it sent the sequencer another frame that beat. Any frame
// from a member is its heartbeat. A member silent for six beats fails
// the view at the watcher's next tick: detection takes at most seven.
//
// All protocol bookkeeping runs synchronously in the FLIP dispatcher (the
// analogue of Amoeba's kernel processing packets at interrupt time), so
// Info's buffered sequence number is always current with respect to
// frames that arrived earlier — the property the directory service's read
// protocol depends on.
package group

import (
	"errors"
	"fmt"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"dirsvc/internal/capability"
	"dirsvc/internal/flip"
	"dirsvc/internal/sim"
)

// groupDebug enables protocol tracing (GROUP_DEBUG=1).
var groupDebug = os.Getenv("GROUP_DEBUG") != ""

func gtrace(format string, args ...any) {
	if groupDebug {
		fmt.Printf("group: "+format+"\n", args...)
	}
}

var (
	// ErrGroupFailure is returned by Receive and Send when a member
	// failure (or a newer view) has been detected; the application must
	// call Reset (paper Fig. 5).
	ErrGroupFailure = errors.New("group: member failure detected")
	// ErrResetFailed is returned by Reset when no view of the required
	// minimum size could be assembled (paper: minority after partition).
	ErrResetFailed = errors.New("group: reset could not assemble minimum group")
	// ErrNoGroup is returned by Join when no sequencer answered.
	ErrNoGroup = errors.New("group: no existing group found")
	// ErrLeft is returned after the member has left the group.
	ErrLeft = errors.New("group: member has left the group")
	// ErrClosed is returned after Close.
	ErrClosed = errors.New("group: closed")
)

// State of a member's view of the group.
type State int

// Member states.
const (
	StateJoining State = iota + 1
	StateNormal
	StateResetting
	StateFailed
	StateLeft
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case StateJoining:
		return "joining"
	case StateNormal:
		return "normal"
	case StateResetting:
		return "resetting"
	case StateFailed:
		return "failed"
	case StateLeft:
		return "left"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// MsgKind classifies messages delivered by Receive.
type MsgKind int

// Delivered message kinds. Join and Leave are membership changes woven
// into the total order; View is a committed reset's new view, delivered
// after the last old-view message the reset kept.
const (
	KindApp MsgKind = iota + 1
	KindJoin
	KindLeave
	KindView
)

// Msg is one message delivered in the group's total order.
type Msg struct {
	Seq     uint64 // KindView: the last old-view message's, as it takes none
	Kind    MsgKind
	Sender  sim.NodeID // originating member; KindView: the reset's coordinator
	Node    sim.NodeID // KindJoin/KindLeave: the member joining/leaving
	Payload []byte     // KindApp only
	// Members is the view in force from this message on (KindJoin,
	// KindLeave and KindView): where it sits in the stream, not where
	// the member is now.
	Members []sim.NodeID
}

// Info is a snapshot of the member's group state (GetInfoGroup).
type Info struct {
	GID       uint64
	Epoch     uint64
	State     State
	Members   []sim.NodeID
	Sequencer sim.NodeID
	// Buffered is the highest sequence number received contiguously by
	// this member's kernel — including messages the application has not
	// yet consumed via Receive. The paper's read protocol compares this
	// against the application's applied counter (§3.1).
	Buffered uint64
	// Delivered is the sequence number of the last message handed to the
	// application by Receive.
	Delivered uint64
}

// Config parameterizes a group member.
type Config struct {
	// Port identifies the group; all members use the same port.
	Port capability.Port
	// Resilience is the degree r: Send returns only after r members
	// besides the sequencer hold the message (capped at group size - 1).
	Resilience int
	// HeartbeatInterval overrides the failure-detection base period
	// (default derived from the latency model).
	HeartbeatInterval time.Duration
}

var gidCounter atomic.Uint64

// doneState tracks resilience acknowledgements for one sequenced message
// at the sequencer, while open: until every member's ACCEPT is in or the
// history window passes it. Members ACCEPT to the sequencer only its own
// sends and ORDs it re-sent, so for another member's send acked stays
// empty unless that sender retried.
type doneState struct {
	open     bool
	sender   sim.NodeID
	msgID    uint64
	needed   int
	retried  bool         // the sender asked again: DONE it once needed is in
	acked    []sim.NodeID // members whose ACCEPT counted; backed by ackedBuf up to four
	ackedBuf [4]sim.NodeID
}

// histSlot is one message of a member's history, kept by value, with the
// sequencer's acknowledgement record of it.
type histSlot struct {
	ord  wireMsg
	done doneState
}

// sendCall is what a Send call registers while it waits: the channel its
// sequence number arrives on once the send is stable, and at a member
// other than the sequencer what makes it so — its own ORD's delivery and
// the direct ACCEPTs of the other non-sequencer members.
type sendCall struct {
	done     chan uint64
	seq      uint64       // the own ORD's sequence number once delivered here, else 0
	epoch    uint64       // the epoch acked was counted in
	acked    []sim.NodeID // backed by ackedBuf up to four
	ackedBuf [4]sim.NodeID
}

// timers and sendCalls recycle what a Send call owns while it waits: its
// retry timer (since Go 1.23 a stopped timer's channel holds no stale
// tick) and its sendCall, whose channel is drained once the call has
// unregistered it under the member mutex every completion is delivered
// under.
var (
	timers    = sync.Pool{New: func() any { return time.NewTimer(time.Hour) }}
	sendCalls = sync.Pool{New: func() any { return &sendCall{done: make(chan uint64, 1)} }}
)

// Member is one process's membership in a group.
type Member struct {
	stack    *flip.Stack
	cfg      Config
	me       sim.NodeID
	model    *sim.LatencyModel
	listener *flip.Listener

	// Failure-detection and retry periods, all multiples of the base
	// heartbeat so they stay consistent at any latency scale.
	heartbeat   time.Duration
	failTimeout time.Duration
	retryEvery  time.Duration
	ackWindow   time.Duration

	mu   sync.Mutex
	cond *sync.Cond

	state     State
	gid       groupID
	epoch     uint64
	members   []sim.NodeID
	sequencer sim.NodeID

	nextSeq   uint64 // next sequence number expected in order
	delivered uint64
	queue     []Msg // delivered in order; queue[qHead:] not yet received
	qHead     int
	pending   map[uint64]*wireMsg // out-of-order ORDs

	// Sequencer / supplier state. Every member maintains history and the
	// sequenced table so that any member can take over as sequencer
	// after a reset. history is a ring holding the messages histLo up to
	// nextSeq-1 (none while histLo is 0), seq s in slot s mod its length,
	// a power of two that doubles up to historyWindow as it fills.
	history    []histSlot
	histLo     uint64
	seqCounter uint64
	sequenced  map[sim.NodeID]map[uint64]uint64 // sender → msgID → seq
	syncedSeq  uint64                           // seqs ≤ syncedSeq are at all members (last reset)

	msgCounter uint64               // last msgID used; starts at the incarnation's start time
	waiting    map[uint64]*sendCall // Send calls by msgID: each gets its seq once the send is stable

	lastSeen      map[sim.NodeID]time.Time
	spoke         atomic.Bool // a frame went to the sequencer since the last beat
	lastRetransAt time.Time
	// heardAt is, while joining, a beat before JoinOrCreate may create:
	// when it started, last heard a lower prober's join request, or a
	// beat after it last heard a group's heartbeat. Past it, no group has
	// been heard for a beat.
	heardAt time.Time

	curProposal    proposal
	resetAcks      map[sim.NodeID]uint64
	resettingSince time.Time
	// view is the last committed reset's KindView until it is queued,
	// right after view.Seq, the last old-view message the commit kept.
	view *Msg

	closed bool
	stop   chan struct{}
	wg     sync.WaitGroup
}

// Create creates a new group with this process as its only member and
// sequencer (paper Fig. 1: CreateGroup).
func Create(stack *flip.Stack, cfg Config) (*Member, error) {
	m, err := newMember(stack, cfg)
	if err != nil {
		return nil, err
	}
	m.mu.Lock()
	announce := m.foundLocked()
	m.mu.Unlock()
	m.start()
	_ = m.multicast(announce)
	return m, nil
}

// foundLocked makes m the only member and the sequencer of a new group.
// It returns the heartbeat that announces the group at once, a beat
// before the first tick, to the servers still probing for one.
func (m *Member) foundLocked() *wireMsg {
	m.gid = newGID(m.me)
	m.epoch = 1
	m.members = []sim.NodeID{m.me}
	m.sequencer = m.me
	m.state = StateNormal
	m.curProposal = proposal{epoch: 1, node: m.me}
	gtrace("node %d gid=%x CREATE", m.me, uint64(m.gid))
	return m.aliveLocked()
}

// Join joins an existing group on cfg.Port, retrying the join request
// until timeout (paper Fig. 1: JoinGroup). It returns ErrNoGroup when no
// sequencer answered.
func Join(stack *flip.Stack, cfg Config, timeout time.Duration) (*Member, error) {
	m, err := newMember(stack, cfg)
	if err != nil {
		return nil, err
	}
	return m.join(timeout, false)
}

// JoinOrCreate joins the group on cfg.Port if one exists, otherwise
// creates it — as an MSCS node tries to join its cluster before it forms
// one. It probes at once and every quarter beat, and creates the group
// after one quiet beat: at least a beat after it started, a beat after
// the last join request of a prober with a lower node id, and two beats
// after it last heard a group. Every member of a group answers a probe
// with its heartbeat, so a prober hears a group that exists within a
// round trip, whether or not the sequencer's welcome arrives. A lower
// prober keeps it waiting while it probes, so of the servers that start
// together the lowest creates, a beat after it started, and the others
// defer to it. A new group announces itself at once (its first
// heartbeat), and a prober that had heard no group for a beat asks to
// join on that heartbeat, without waiting for its next probe. A lower
// prober that stops probing without creating holds the others up one
// beat past its last probe. Probes lost on the way can still leave two
// groups; the smaller then yields to the larger (outrankedLocked).
func JoinOrCreate(stack *flip.Stack, cfg Config) (*Member, error) {
	m, err := newMember(stack, cfg)
	if err != nil {
		return nil, err
	}
	return m.join(0, true)
}

// join multicasts a join request at once and every quarter beat until a
// sequencer's welcome lands. Join gives up once timeout has passed;
// JoinOrCreate (orCreate) founds the group once heardAt is a beat past,
// at a probe slot it reached on time or right after one it did not.
func (m *Member) join(timeout time.Duration, orCreate bool) (*Member, error) {
	start := time.Now()
	deadline := start.Add(timeout)
	m.mu.Lock()
	m.state = StateJoining
	m.heardAt = start
	m.mu.Unlock()
	skipped := false
	for {
		if err := m.multicast(&wireMsg{kind: wireJoinReq, from: m.me}); err != nil {
			m.destroy()
			return nil, err
		}
		probed := time.Now()
		m.mu.Lock()
		next := probed.Add(m.heartbeat / 4)
		if !orCreate && deadline.Before(next) {
			next = deadline
		}
		for m.state == StateJoining && time.Now().Before(next) {
			m.waitLocked(next)
		}
		// A prober that overslept its slot (the host stalled it) probes
		// once more before it decides: what arrived meanwhile may not be
		// dispatched yet. Only once: a host late at every slot still
		// decides at every other one.
		now := time.Now()
		skipped = !skipped && now.Sub(probed) >= m.heartbeat/2
		var announce *wireMsg
		if orCreate && !skipped && m.state == StateJoining && now.Sub(m.heardAt) >= m.heartbeat {
			announce = m.foundLocked()
		}
		// Welcomed or founded — or welcomed and already out again (it
		// yielded or failed before this loop looked): the caller handles
		// that member as it handles any other that leaves its group.
		joined := m.state != StateJoining
		m.mu.Unlock()
		if joined {
			m.start()
			if announce != nil {
				_ = m.multicast(announce)
			}
			return m, nil
		}
		if !orCreate && !now.Before(deadline) {
			m.destroy()
			return nil, ErrNoGroup
		}
	}
}

func newMember(stack *flip.Stack, cfg Config) (*Member, error) {
	if cfg.Port.IsZero() {
		return nil, errors.New("group: config must name a port")
	}
	if cfg.Resilience < 0 {
		return nil, errors.New("group: negative resilience degree")
	}
	model := stack.Model()
	base := HeartbeatFor(model, cfg)
	m := &Member{
		stack:       stack,
		cfg:         cfg,
		me:          stack.Node().ID(),
		model:       model,
		heartbeat:   base,
		failTimeout: 6 * base,
		retryEvery:  3 * base,
		ackWindow:   2 * base,
		nextSeq:     1, // sequence numbers start at 1; Buffered = nextSeq-1
		// Message ids continue past every id an earlier incarnation of
		// this process can have used (one id per Send, each far longer
		// than a nanosecond), so the group's duplicate table never takes
		// a restarted process's sends for retries of its old ones —
		// whether or not its crash was noticed before it joined again.
		msgCounter: uint64(time.Now().UnixNano()),
		pending:    make(map[uint64]*wireMsg),
		sequenced:  make(map[sim.NodeID]map[uint64]uint64),
		waiting:    make(map[uint64]*sendCall),
		lastSeen:   make(map[sim.NodeID]time.Time),
		stop:       make(chan struct{}),
	}
	m.cond = sync.NewCond(&m.mu)
	l, err := stack.RegisterFunc(cfg.Port, m.handle)
	if err != nil {
		return nil, fmt.Errorf("group: %w", err)
	}
	m.listener = l
	return m, nil
}

// HeartbeatFor is the failure detector's heartbeat period for cfg:
// HeartbeatInterval if set, else the model's scaled 150 ms, at least
// 15 ms. Services on top of the group pace their own timers with it.
func HeartbeatFor(model *sim.LatencyModel, cfg Config) time.Duration {
	if cfg.HeartbeatInterval > 0 {
		return cfg.HeartbeatInterval
	}
	base := model.Timeout(150 * time.Millisecond)
	if base < 15*time.Millisecond {
		base = 15 * time.Millisecond
	}
	return base
}

func newGID(node sim.NodeID) groupID {
	return groupID(uint64(node)<<40 | gidCounter.Add(1))
}

// start launches the heartbeat/failure-detection loop.
func (m *Member) start() {
	m.mu.Lock()
	m.seenAllLocked()
	m.mu.Unlock()
	m.wg.Add(1)
	go m.heartbeatLoop()
}

// destroy releases resources of a member that never became operational.
func (m *Member) destroy() {
	m.listener.Close()
	m.mu.Lock()
	m.closed = true
	m.state = StateLeft
	m.cond.Broadcast()
	m.mu.Unlock()
}

// Close shuts the member down without the leave protocol (process death).
func (m *Member) Close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	m.state = StateLeft
	close(m.stop)
	m.cond.Broadcast()
	m.mu.Unlock()
	m.listener.Close()
	m.wg.Wait()
}

// Me returns this member's node id.
func (m *Member) Me() sim.NodeID { return m.me }

// Info returns a snapshot of the group state (paper Fig. 1: GetInfoGroup).
func (m *Member) Info() Info {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.infoLocked()
}

// Summary is the part of Info read on every client request — state,
// view size and buffered position — under the same lock, without
// copying the member list.
func (m *Member) Summary() (state State, members int, buffered uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.state, len(m.members), m.nextSeq - 1
}

// AwaitChange blocks until the member's view — its group, epoch, state
// or members — is no longer prev's, or until d has passed, and returns
// the view then. Recovery waits on it for a view its next round can use.
func (m *Member) AwaitChange(prev Info, d time.Duration) Info {
	// The deadline is taken first, so the wake-up never fires before it.
	deadline := time.Now().Add(d)
	wake := time.AfterFunc(d, func() {
		m.mu.Lock()
		m.cond.Broadcast()
		m.mu.Unlock()
	})
	defer wake.Stop()
	m.mu.Lock()
	defer m.mu.Unlock()
	for !m.closed && time.Now().Before(deadline) &&
		uint64(m.gid) == prev.GID && m.epoch == prev.Epoch && m.state == prev.State && slices.Equal(m.members, prev.Members) {
		m.cond.Wait()
	}
	return m.infoLocked()
}

func (m *Member) infoLocked() Info {
	members := make([]sim.NodeID, len(m.members))
	copy(members, m.members)
	return Info{
		GID:       uint64(m.gid),
		Epoch:     m.epoch,
		State:     m.state,
		Members:   members,
		Sequencer: m.sequencer,
		Buffered:  m.nextSeq - 1,
		Delivered: m.delivered,
	}
}

// Receive blocks until the next message in the total order is available
// (paper Fig. 1: ReceiveFromGroup). Delivery is view-synchronous: every
// member of a reset's new view receives the old-view messages the reset
// kept, then one KindView, then the new view's messages, whoever
// coordinated the reset. A member that detected the failure itself gets
// ErrGroupFailure first, so its application calls Reset.
func (m *Member) Receive() (Msg, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for {
		switch {
		case m.state == StateFailed:
			return Msg{}, ErrGroupFailure
		case m.state == StateLeft:
			if m.closed {
				return Msg{}, ErrClosed
			}
			return Msg{}, ErrLeft
		}
		if m.qHead < len(m.queue) && m.state == StateNormal {
			msg := m.queue[m.qHead]
			m.queue[m.qHead] = Msg{}
			if m.qHead++; m.qHead == len(m.queue) {
				m.queue, m.qHead = m.queue[:0], 0 // drained: reuse the array
			}
			m.delivered = msg.Seq
			return msg, nil
		}
		m.cond.Wait()
	}
}

// Send multicasts payload to the group in total order (paper Fig. 1:
// SendToGroup). It returns the assigned sequence number once the
// configured resilience degree is satisfied: at the sequencer once enough
// members' ACCEPTs are in, anywhere else once this member has delivered
// the message and enough other members have ACCEPTed it here, or once a
// retry's DONE says so. During failures it blocks
// until the group is reset (by the application's group thread) and then
// completes against the new view.
func (m *Member) Send(payload []byte) (uint64, error) {
	m.mu.Lock()
	if m.state == StateLeft {
		err := ErrLeft
		if m.closed {
			err = ErrClosed
		}
		m.mu.Unlock()
		return 0, err
	}
	m.msgCounter++
	msgID := m.msgCounter
	call := sendCalls.Get().(*sendCall)
	call.seq, call.epoch, call.acked = 0, 0, call.ackedBuf[:0]
	m.waiting[msgID] = call
	m.mu.Unlock()

	timer := timers.Get().(*time.Timer)
	defer func() {
		timer.Stop()
		timers.Put(timer)
		m.mu.Lock()
		delete(m.waiting, msgID)
		m.mu.Unlock()
		select {
		case <-call.done: // a completion that lost the race with the first
		default:
		}
		sendCalls.Put(call)
	}()

	for {
		m.mu.Lock()
		state, seqNode, gid := m.state, m.sequencer, m.gid
		m.mu.Unlock()
		switch state {
		case StateLeft:
			return 0, ErrLeft
		case StateNormal:
			req := wireMsg{
				kind:    wireSendReq,
				gid:     gid,
				from:    m.me,
				msgID:   msgID,
				ordKind: ordApp,
				payload: payload,
			}
			if seqNode == m.me {
				m.mu.Lock()
				m.sequencerHandleSendLocked(&req)
				m.mu.Unlock()
			} else if err := m.sendSeq(seqNode, &req); err != nil {
				return 0, err
			}
		}
		// Wait for stability (or a state change that warrants a resend).
		timer.Reset(m.retryEvery)
		select {
		case seq := <-call.done:
			return seq, nil
		case <-m.stop:
			return 0, ErrClosed
		case <-timer.C:
		}
	}
}

// Leave removes this member from the group via a sequenced leave message
// (paper Fig. 1: LeaveGroup), then shuts the member down.
func (m *Member) Leave() error {
	deadline := time.Now().Add(10 * m.retryEvery)
	for time.Now().Before(deadline) {
		m.mu.Lock()
		if m.state == StateLeft {
			m.mu.Unlock()
			m.Close()
			return nil
		}
		state, seqNode, gid := m.state, m.sequencer, m.gid
		single := len(m.members) <= 1
		m.mu.Unlock()

		if state == StateNormal {
			if single || seqNode == m.me {
				// Last member (or the sequencer itself): dissolve. A
				// leaving sequencer hands the group over by sequencing
				// its own leave below; a singleton simply vanishes.
				req := &wireMsg{kind: wireLeave, gid: gid, from: m.me, node: m.me}
				m.mu.Lock()
				if m.sequencer == m.me {
					m.sequencerHandleLeaveLocked(req)
				}
				if single {
					m.state = StateLeft
					m.cond.Broadcast()
				}
				m.mu.Unlock()
			} else {
				_ = m.sendSeq(seqNode, &wireMsg{kind: wireLeave, gid: gid, from: m.me, node: m.me})
			}
		}
		m.mu.Lock()
		windowEnd := time.Now().Add(m.retryEvery)
		for m.state != StateLeft && time.Now().Before(windowEnd) {
			m.waitLocked(windowEnd)
		}
		left := m.state == StateLeft
		m.mu.Unlock()
		if left {
			m.Close()
			return nil
		}
	}
	// Could not get the leave sequenced (e.g. group failed): force.
	m.Close()
	return nil
}

// waitLocked briefly releases the lock so a state change can land, waking
// up no later than deadline. Join/Leave/Reset use this for their timed
// waits; the hot paths (Send, Receive) use the condition variable.
func (m *Member) waitLocked(deadline time.Time) {
	remain := time.Until(deadline)
	if remain <= 0 {
		return
	}
	nap := 2 * time.Millisecond
	if remain < nap {
		nap = remain
	}
	m.mu.Unlock()
	time.Sleep(nap)
	m.mu.Lock()
}

// heartbeatLoop beats and detects failures, in the star the package
// comment describes.
func (m *Member) heartbeatLoop() {
	defer m.wg.Done()
	ticker := time.NewTicker(m.heartbeat)
	defer ticker.Stop()
	for {
		select {
		case <-m.stop:
			return
		case <-ticker.C:
		}
		m.mu.Lock()
		if m.state == StateResetting && !m.resettingSince.IsZero() &&
			time.Since(m.resettingSince) > 8*m.ackWindow {
			// The coordinator that invited us died mid-reset: report a
			// failure so the application initiates its own reset.
			m.state = StateFailed
			m.resettingSince = time.Time{}
			m.cond.Broadcast()
		}
		now, seq := time.Now(), m.sequencer
		for _, nd := range m.members {
			if m.state == StateNormal && nd != m.me && (seq == m.me || nd == seq) && now.Sub(m.lastSeen[nd]) > m.failTimeout {
				m.failLocked(fmt.Sprintf("member %d silent for %v", nd, m.failTimeout))
			}
		}
		if m.state != StateNormal {
			m.mu.Unlock()
			continue
		}
		alive := m.aliveLocked()
		m.mu.Unlock()
		switch {
		case seq == m.me:
			_ = m.multicast(alive)
		case !m.spoke.Swap(false):
			_ = m.send(seq, alive)
		}
	}
}

// seenAllLocked restarts the failure detector's clock for every member
// as a view or a sequencer begins: until then their frames went elsewhere.
func (m *Member) seenAllLocked() {
	now := time.Now()
	for _, nd := range m.members {
		m.lastSeen[nd] = now
	}
}

// aliveLocked is the member's heartbeat: its group, epoch, buffered
// position and view size.
func (m *Member) aliveLocked() *wireMsg {
	return &wireMsg{kind: wireAlive, gid: m.gid, epoch: m.epoch, seq: m.nextSeq - 1, seq2: uint64(len(m.members)), from: m.me}
}

// send unicasts w to dst in a frame of its own, and multicast multicasts
// it: one buffer from the FLIP header to the payload.
func (m *Member) send(dst sim.NodeID, w *wireMsg) error {
	return m.stack.SendFrame(dst, w.appendTo(flip.NewFrame(m.cfg.Port, w.size())))
}

// sendSeq sends w to seq, the sequencer, in place of this beat's heartbeat.
func (m *Member) sendSeq(seq sim.NodeID, w *wireMsg) error {
	m.spoke.Store(true)
	return m.send(seq, w)
}

func (m *Member) multicast(w *wireMsg) error {
	return m.stack.MulticastFrame(m.mcastFrame(w))
}

func (m *Member) mcastFrame(w *wireMsg) []byte {
	return w.appendTo(flip.NewMcastFrame(m.cfg.Port, w.size()))
}

// failLocked transitions to the failed state; Receive and Reset take over.
func (m *Member) failLocked(reason string) {
	if m.state != StateNormal {
		return
	}
	m.state = StateFailed
	m.cond.Broadcast()
	gtrace("node %d gid=%x epoch=%d FAIL: %s", m.me, uint64(m.gid), m.epoch, reason)
}

func contains(list []sim.NodeID, nd sim.NodeID) bool {
	for _, x := range list {
		if x == nd {
			return true
		}
	}
	return false
}
