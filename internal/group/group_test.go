package group

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dirsvc/internal/capability"
	"dirsvc/internal/flip"
	"dirsvc/internal/sim"
)

const testHeartbeat = 15 * time.Millisecond

func testConfig(r int) Config {
	return Config{
		Port:              capability.PortFromString("group-test"),
		Resilience:        r,
		HeartbeatInterval: testHeartbeat,
	}
}

// cluster is a set of group members on one simulated network.
type cluster struct {
	net     *sim.Network
	stacks  []*flip.Stack
	members []*Member
}

// newCluster creates n members: the first creates the group, the rest join.
func newCluster(t testing.TB, n, resilience int) *cluster {
	t.Helper()
	return newClusterWith(t, n, testConfig(resilience))
}

// newClusterWith is newCluster with the members' configuration given.
func newClusterWith(t testing.TB, n int, cfg Config) *cluster {
	t.Helper()
	c := &cluster{net: sim.NewNetwork(sim.FastModel(), 1)}
	for i := 0; i < n; i++ {
		c.stacks = append(c.stacks, flip.NewStack(c.net.AddNode(fmt.Sprintf("m%d", i))))
	}
	first, err := Create(c.stacks[0], cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.members = append(c.members, first)
	for i := 1; i < n; i++ {
		m, err := Join(c.stacks[i], cfg, 5*time.Second)
		if err != nil {
			t.Fatalf("member %d join: %v", i, err)
		}
		c.members = append(c.members, m)
	}
	// Drain the join events everywhere so tests start from a quiet state.
	for idx, m := range c.members {
		for {
			info := m.Info()
			if len(info.Members) == n && info.Delivered == info.Buffered && info.Buffered >= uint64(n-1) {
				break
			}
			if info.Buffered > info.Delivered {
				if _, err := m.Receive(); err != nil {
					t.Fatalf("member %d draining joins: %v", idx, err)
				}
				continue
			}
			time.Sleep(time.Millisecond)
		}
	}
	t.Cleanup(func() {
		for _, m := range c.members {
			m.Close()
		}
		for _, s := range c.stacks {
			s.Close()
		}
	})
	return c
}

// consumeAll keeps every member's Receive drained for the test's life.
func (c *cluster) consumeAll() {
	for _, m := range c.members {
		go func(m *Member) {
			for {
				if _, err := m.Receive(); err != nil && !errors.Is(err, ErrGroupFailure) {
					return
				}
			}
		}(m)
	}
}

// receiveApp receives messages until an application message arrives.
func receiveApp(t *testing.T, m *Member) Msg {
	t.Helper()
	for {
		msg, err := m.Receive()
		if err != nil {
			t.Fatalf("member %d Receive: %v", m.Me(), err)
		}
		if msg.Kind == KindApp {
			return msg
		}
	}
}

func TestCreateSingletonSendReceive(t *testing.T) {
	c := newCluster(t, 1, 0)
	m := c.members[0]
	seq, err := m.Send([]byte("solo"))
	if err != nil {
		t.Fatalf("Send: %v", err)
	}
	msg := receiveApp(t, m)
	if msg.Seq != seq || string(msg.Payload) != "solo" {
		t.Fatalf("got %+v, want seq %d", msg, seq)
	}
}

func TestAllMembersReceiveInOrder(t *testing.T) {
	c := newCluster(t, 3, 2)
	const n = 20
	for i := 0; i < n; i++ {
		if _, err := c.members[i%3].Send([]byte{byte(i)}); err != nil {
			t.Fatalf("Send %d: %v", i, err)
		}
	}
	var orders [3][]byte
	for mi, m := range c.members {
		for len(orders[mi]) < n {
			msg := receiveApp(t, m)
			orders[mi] = append(orders[mi], msg.Payload[0])
		}
	}
	if string(orders[0]) != string(orders[1]) || string(orders[1]) != string(orders[2]) {
		t.Fatalf("members disagree on order:\n%v\n%v\n%v", orders[0], orders[1], orders[2])
	}
}

// TestTotalOrderUnderConcurrency is the core safety property: concurrent
// senders from all members, every member sees the identical sequence.
func TestTotalOrderUnderConcurrency(t *testing.T) {
	c := newCluster(t, 3, 2)
	const perSender = 30

	var wg sync.WaitGroup
	for mi, m := range c.members {
		wg.Add(1)
		go func(mi int, m *Member) {
			defer wg.Done()
			for i := 0; i < perSender; i++ {
				payload := []byte{byte(mi), byte(i)}
				if _, err := m.Send(payload); err != nil {
					t.Errorf("member %d send %d: %v", mi, i, err)
					return
				}
			}
		}(mi, m)
	}

	total := perSender * 3
	var orders [3][]string
	var rg sync.WaitGroup
	for mi, m := range c.members {
		rg.Add(1)
		go func(mi int, m *Member) {
			defer rg.Done()
			for len(orders[mi]) < total {
				msg, err := m.Receive()
				if err != nil {
					t.Errorf("member %d receive: %v", mi, err)
					return
				}
				if msg.Kind != KindApp {
					continue
				}
				orders[mi] = append(orders[mi], fmt.Sprintf("%d-%d@%d", msg.Payload[0], msg.Payload[1], msg.Seq))
			}
		}(mi, m)
	}
	wg.Wait()
	rg.Wait()

	for mi := 1; mi < 3; mi++ {
		if len(orders[mi]) != total {
			t.Fatalf("member %d received %d messages, want %d", mi, len(orders[mi]), total)
		}
		for i := range orders[0] {
			if orders[0][i] != orders[mi][i] {
				t.Fatalf("order diverges at %d: member0=%s member%d=%s", i, orders[0][i], mi, orders[mi][i])
			}
		}
	}
	// Per-sender FIFO: member k's messages must appear in send order.
	for mi := 0; mi < 3; mi++ {
		last := -1
		for _, s := range orders[0] {
			var sender, idx, seq int
			if _, err := fmt.Sscanf(s, "%d-%d@%d", &sender, &idx, &seq); err != nil {
				t.Fatal(err)
			}
			if sender != mi {
				continue
			}
			if idx != last+1 {
				t.Fatalf("sender %d messages out of FIFO order: %d after %d", mi, idx, last)
			}
			last = idx
		}
	}
}

func TestResilienceMessageCount(t *testing.T) {
	// SendToGroup with r=2 from a non-sequencer member costs 3 frames:
	// REQ, ORD multicast, and the third member's ACCEPT to the sender,
	// which completes the send on its own delivery and that ACCEPT. The
	// paper's count (§3.1) is 5: it also sends both members' ACCEPTs to
	// the sequencer, which no send waits on.
	c := newCluster(t, 3, 2)
	sender := c.members[1] // member 0 created the group and is sequencer
	if sender.Info().Sequencer == sender.Me() {
		t.Fatal("test setup: sender must not be the sequencer")
	}
	// The count leaves out heartbeats (multicast ALIVEs, at each member's
	// own phase) and counts each transmission once: a multicast at its
	// delivery to the lowest-numbered other node, not once per receiver.
	first, second := c.stacks[0].Node().ID(), c.stacks[1].Node().ID()
	var frames atomic.Int64
	c.net.SetDropFilter(func(src, dst sim.NodeID, frame []byte) bool {
		kind := wireKind(frame)
		if kind == 0 || kind == wireAlive || kind > wireLeave {
			return false
		}
		if frame[0] != flipMcast || dst == first || (src == first && dst == second) {
			frames.Add(1)
		}
		return false
	})
	// The least of five sends: a retransmission under load is not the
	// protocol's cost.
	best := int64(1 << 62)
	for try := 0; try < 5; try++ {
		frames.Store(0)
		if _, err := sender.Send([]byte("count me")); err != nil {
			t.Fatal(err)
		}
		// Let the trailing ACCEPTs drain.
		time.Sleep(5 * time.Millisecond)
		best = min(best, frames.Load())
	}
	if best != 3 {
		t.Fatalf("SendToGroup(r=2) used %d frames, want 3", best)
	}
}

func TestInfoBufferedAdvancesBeforeReceive(t *testing.T) {
	c := newCluster(t, 3, 2)
	m := c.members[1]
	before := m.Info()
	if _, err := c.members[2].Send([]byte("x")); err != nil {
		t.Fatal(err)
	}
	// After the sender's Send returned with r=2, every member has the
	// message buffered — GetInfoGroup must show it even though the
	// application has not called Receive yet (paper §3.1 read check).
	deadline := time.Now().Add(time.Second)
	for {
		info := m.Info()
		if info.Buffered > before.Buffered {
			if info.Delivered != before.Delivered {
				t.Fatal("Delivered advanced without Receive")
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("Buffered never advanced")
		}
		time.Sleep(time.Millisecond)
	}
	receiveApp(t, m)
	if info := m.Info(); info.Delivered != info.Buffered {
		t.Fatalf("after Receive: delivered %d, buffered %d", info.Delivered, info.Buffered)
	}
}

func TestJoinDeliversJoinEvent(t *testing.T) {
	c := newCluster(t, 2, 1)
	cfg := testConfig(1)
	stack := flip.NewStack(c.net.AddNode("joiner"))
	t.Cleanup(stack.Close)
	m3, err := Join(stack, cfg, 5*time.Second)
	if err != nil {
		t.Fatalf("Join: %v", err)
	}
	t.Cleanup(m3.Close)

	msg, err := c.members[0].Receive()
	if err != nil {
		t.Fatal(err)
	}
	if msg.Kind != KindJoin || msg.Node != m3.Me() {
		t.Fatalf("got %+v, want join of %d", msg, m3.Me())
	}
	if got := len(c.members[0].Info().Members); got != 3 {
		t.Fatalf("member count = %d, want 3", got)
	}
	// The joiner receives messages sent after its join.
	if _, err := c.members[1].Send([]byte("hello new member")); err != nil {
		t.Fatal(err)
	}
	got := receiveApp(t, m3)
	if string(got.Payload) != "hello new member" {
		t.Fatalf("joiner got %q", got.Payload)
	}
}

func TestJoinNoGroup(t *testing.T) {
	net := sim.NewNetwork(sim.FastModel(), 1)
	stack := flip.NewStack(net.AddNode("lonely"))
	t.Cleanup(stack.Close)
	_, err := Join(stack, testConfig(0), 100*time.Millisecond)
	if !errors.Is(err, ErrNoGroup) {
		t.Fatalf("err = %v, want ErrNoGroup", err)
	}
}

func TestLeaveDeliversLeaveEvent(t *testing.T) {
	c := newCluster(t, 3, 1)
	leaver := c.members[2]
	if err := leaver.Leave(); err != nil {
		t.Fatalf("Leave: %v", err)
	}
	msg, err := c.members[0].Receive()
	if err != nil {
		t.Fatal(err)
	}
	if msg.Kind != KindLeave || msg.Node != leaver.Me() {
		t.Fatalf("got %+v, want leave of %d", msg, leaver.Me())
	}
	if got := len(c.members[0].Info().Members); got != 2 {
		t.Fatalf("member count = %d, want 2", got)
	}
	// The remaining pair still functions.
	if _, err := c.members[1].Send([]byte("still here")); err != nil {
		t.Fatal(err)
	}
	receiveApp(t, c.members[0])
}

func TestMemberCrashDetectedAndReset(t *testing.T) {
	c := newCluster(t, 3, 2)
	// Crash a non-sequencer member.
	crashed := c.members[2]
	c.net.Node(crashed.Me()).Crash()

	// The survivors detect the failure via Receive.
	for _, m := range c.members[:2] {
		if _, err := m.Receive(); !errors.Is(err, ErrGroupFailure) {
			t.Fatalf("member %d: err = %v, want ErrGroupFailure", m.Me(), err)
		}
	}
	// Both survivors reset concurrently, as the paper's group threads do.
	var wg sync.WaitGroup
	for _, m := range c.members[:2] {
		wg.Add(1)
		go func(m *Member) {
			defer wg.Done()
			info, err := m.Reset(2)
			if err != nil {
				t.Errorf("member %d reset: %v", m.Me(), err)
				return
			}
			if len(info.Members) != 2 {
				t.Errorf("member %d: new view has %d members", m.Me(), len(info.Members))
			}
		}(m)
	}
	wg.Wait()

	// The pair must be able to send again.
	if _, err := c.members[0].Send([]byte("after reset")); err != nil {
		t.Fatalf("Send after reset: %v", err)
	}
	for _, m := range c.members[:2] {
		msg := receiveApp(t, m)
		if string(msg.Payload) != "after reset" {
			t.Fatalf("member %d got %q", m.Me(), msg.Payload)
		}
	}
}

// TestResetCoordinatedElsewhereIsReported: a member pulled into a reset
// by another coordinator's invitation, before it noticed a failure
// itself, learns the new view from the KindView Receive delivers once the
// view is in, and its own Reset then returns that view at once. Without
// the KindView its application would never record the new membership.
func TestResetCoordinatedElsewhereIsReported(t *testing.T) {
	c := newCluster(t, 2, 1)
	coord, m := c.members[0], c.members[1]
	m.mu.Lock()
	epoch := ballotEpoch(m.epoch, coord.Me())
	seq2 := m.nextSeq - 1
	m.handleInviteLocked(&wireMsg{kind: wireInvite, gid: m.gid, epoch: epoch, from: coord.Me()})
	m.applyCommitLocked(&wireMsg{
		kind: wireCommit, gid: m.gid, epoch: epoch, from: coord.Me(), node: coord.Me(),
		seq2: seq2, members: []sim.NodeID{coord.Me(), m.Me()},
	})
	m.mu.Unlock()

	msg, err := receiveWithin(m, 2*time.Second)
	if err != nil || msg.Kind != KindView || msg.Seq != seq2 || msg.Sender != coord.Me() {
		t.Fatalf("Receive after a reset coordinated elsewhere: %+v, %v; want the KindView at seq %d from %d", msg, err, seq2, coord.Me())
	}
	if info, err := m.Reset(2); err != nil || info.Epoch != epoch {
		t.Fatalf("Reset = epoch %d, %v; want the coordinated view's epoch %d at once", info.Epoch, err, epoch)
	}
}

// TestCommitDropsOldViewMessagesPastTheCut: a commit keeps the old view's
// stream up to seq2 and nothing after it. An ORD of the old sequencer
// that arrives after the member acknowledged the invitation is not taken
// in, nor is one of a view whose commit a higher invitation then
// supersedes. The new view numbers its own messages from seq2+1;
// delivering the stale one there, and dropping the new one as its
// duplicate, would fork the stream.
func TestCommitDropsOldViewMessagesPastTheCut(t *testing.T) {
	for _, tc := range []struct {
		name       string
		superseded bool // the stale ORD belongs to a view a second commit replaces
	}{{"acked invite", false}, {"superseded view", true}} {
		t.Run(tc.name, func(t *testing.T) {
			c := newCluster(t, 2, 1)
			coord, m := c.members[0], c.members[1]
			m.mu.Lock()
			k := m.nextSeq - 1
			ord := func(epoch, msgID uint64, payload string) {
				m.handleOrdLocked(&wireMsg{
					kind: wireOrd, gid: m.gid, epoch: epoch, seq: k + 1, from: coord.Me(),
					msgID: msgID, ordKind: ordApp, payload: []byte(payload),
				})
			}
			reset := func() uint64 {
				epoch := ballotEpoch(max(m.epoch, m.curProposal.epoch), coord.Me())
				m.handleInviteLocked(&wireMsg{kind: wireInvite, gid: m.gid, epoch: epoch, from: coord.Me()})
				return epoch
			}
			commit := func(epoch uint64) {
				m.applyCommitLocked(&wireMsg{
					kind: wireCommit, gid: m.gid, epoch: epoch, from: coord.Me(), node: coord.Me(),
					seq2: k, members: []sim.NodeID{coord.Me(), m.Me()},
				})
			}
			epoch := reset()
			if tc.superseded {
				commit(epoch)
				epoch = reset()
			}
			ord(m.epoch, 1, "stale")
			commit(epoch)
			buffered := m.nextSeq - 1
			ord(epoch, 2, "new view")
			m.mu.Unlock()
			if buffered != k {
				t.Fatalf("buffered %d after a commit keeping %d", buffered, k)
			}

			for {
				msg, err := receiveWithin(m, 2*time.Second)
				if err != nil {
					t.Fatal(err)
				}
				if msg.Kind == KindApp {
					if msg.Seq != k+1 || string(msg.Payload) != "new view" {
						t.Fatalf("first message past the cut: %q at seq %d, want the new view's at %d", msg.Payload, msg.Seq, k+1)
					}
					return
				}
				if msg.Kind != KindView || msg.Seq != k {
					t.Fatalf("before the new view's first message: %+v, want KindViews at seq %d", msg, k)
				}
			}
		})
	}
}

// TestCommitBelowHeldMessagesFailsMember: a member acknowledges
// invitation A, then the higher B, and installs A's commit, which lifts
// its hold on the position it reported; it takes in view A's message k+1.
// B's commit then keeps the stream only up to k. The member cannot rewind
// a message it may have delivered, so it fails, as an excluded member
// does, rather than take the new view's k+1 as well.
func TestCommitBelowHeldMessagesFailsMember(t *testing.T) {
	c := newCluster(t, 2, 1)
	coord, m := c.members[0], c.members[1]
	m.mu.Lock()
	k := m.nextSeq - 1
	invite := func(after uint64) uint64 {
		epoch := ballotEpoch(after, coord.Me())
		m.handleInviteLocked(&wireMsg{kind: wireInvite, gid: m.gid, epoch: epoch, from: coord.Me()})
		return epoch
	}
	commit := func(epoch uint64) {
		m.applyCommitLocked(&wireMsg{
			kind: wireCommit, gid: m.gid, epoch: epoch, from: coord.Me(), node: coord.Me(),
			seq2: k, members: []sim.NodeID{coord.Me(), m.Me()},
		})
	}
	a := invite(m.epoch)
	b := invite(a)
	commit(a)
	m.handleOrdLocked(&wireMsg{
		kind: wireOrd, gid: m.gid, epoch: a, seq: k + 1, from: coord.Me(),
		msgID: 1, ordKind: ordApp, payload: []byte("view A"),
	})
	held := m.nextSeq - 1
	commit(b)
	m.mu.Unlock()
	if held != k+1 {
		t.Fatalf("held %d in view A, want %d", held, k+1)
	}
	if info := m.Info(); info.State != StateFailed || info.Epoch != a || info.Buffered != k+1 {
		t.Fatalf("after a commit keeping %d of the %d held: %+v, want failed in epoch %d", k, k+1, info, a)
	}
	if _, err := m.Receive(); !errors.Is(err, ErrGroupFailure) {
		t.Fatalf("Receive: err = %v, want ErrGroupFailure", err)
	}
}

// TestViewChangesCarryTheirMembers: each KindView names the members of
// its own view, not those of the member's view when the application
// reads it. A view that drops x is queued behind x's message of the view
// before; an application recording membership from the live view would
// drop x ahead of that message.
func TestViewChangesCarryTheirMembers(t *testing.T) {
	c := newCluster(t, 3, 1)
	coord, m, x := c.members[0], c.members[1], c.members[2]
	m.mu.Lock()
	k := m.nextSeq - 1
	reset := func(seq2 uint64, members ...sim.NodeID) uint64 {
		epoch := ballotEpoch(m.epoch, coord.Me())
		m.handleInviteLocked(&wireMsg{kind: wireInvite, gid: m.gid, epoch: epoch, from: coord.Me()})
		m.applyCommitLocked(&wireMsg{
			kind: wireCommit, gid: m.gid, epoch: epoch, from: coord.Me(), node: coord.Me(),
			seq2: seq2, members: members,
		})
		return epoch
	}
	all, kept := []sim.NodeID{coord.Me(), m.Me(), x.Me()}, []sim.NodeID{coord.Me(), m.Me()}
	a := reset(k, all...)
	m.handleOrdLocked(&wireMsg{
		kind: wireOrd, gid: m.gid, epoch: a, seq: k + 1, from: x.Me(),
		msgID: 1, ordKind: ordApp, payload: []byte("from x"),
	})
	reset(k+1, kept...)
	m.mu.Unlock()

	for i, want := range []Msg{
		{Seq: k, Kind: KindView, Members: all},
		{Seq: k + 1, Kind: KindApp, Sender: x.Me()},
		{Seq: k + 1, Kind: KindView, Members: kept},
	} {
		msg, err := receiveWithin(m, 2*time.Second)
		if err != nil || msg.Seq != want.Seq || msg.Kind != want.Kind || !slices.Equal(msg.Members, want.Members) ||
			want.Kind == KindApp && msg.Sender != want.Sender {
			t.Fatalf("message %d: %+v, %v; want %+v", i, msg, err, want)
		}
	}
}

// TestViewSynchronousDelivery: the sequencer crashes while k ordered
// messages wait undelivered at a survivor. That survivor's Receive
// reports the failure, and after the reset delivers all k messages, then
// the new view's KindView, and only then the new view's first message.
func TestViewSynchronousDelivery(t *testing.T) {
	c := newCluster(t, 3, 2)
	seqNode := c.members[0].Info().Sequencer
	var survivors []*Member
	for _, m := range c.members {
		if m.Me() != seqNode {
			survivors = append(survivors, m)
		}
	}
	stalled, other := survivors[0], survivors[1]
	const k = 5
	var sent []uint64
	for i := 0; i < k; i++ {
		seq, err := other.Send([]byte{byte(i)})
		if err != nil {
			t.Fatal(err)
		}
		sent = append(sent, seq)
	}
	c.net.Node(seqNode).Crash()
	if info := stalled.Info(); info.Buffered < sent[k-1] || info.Delivered >= sent[0] {
		t.Fatalf("stalled survivor %+v, want messages %v queued undelivered", info, sent)
	}

	for deadline := time.Now().Add(2 * time.Second); stalled.Info().State != StateFailed; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("stalled survivor never noticed the sequencer's crash: %+v", stalled.Info())
		}
	}
	if _, err := stalled.Receive(); !errors.Is(err, ErrGroupFailure) {
		t.Fatalf("stalled survivor: err = %v, want ErrGroupFailure first", err)
	}
	// Its application resets (paper Fig. 1); the invitation pulls the
	// other survivor into the new view.
	if _, err := stalled.Reset(2); err != nil {
		t.Fatalf("reset: %v", err)
	}
	newSeq, err := other.Send([]byte("new view"))
	if err != nil {
		t.Fatal(err)
	}

	var old []uint64
	for {
		msg, err := receiveWithin(stalled, 2*time.Second)
		if err != nil {
			t.Fatalf("after %v: %v", old, err)
		}
		if msg.Kind == KindView {
			break
		}
		if msg.Kind != KindApp || int(msg.Payload[0]) != len(old) {
			t.Fatalf("after %v: %+v, want the old view's message %d", old, msg, len(old))
		}
		old = append(old, msg.Seq)
	}
	if !slices.Equal(old, sent) {
		t.Fatalf("delivered %v before the KindView, want all of %v", old, sent)
	}
	if msg := receiveApp(t, stalled); msg.Seq != newSeq || string(msg.Payload) != "new view" {
		t.Fatalf("after the KindView: %q at seq %d, want the new view's at %d", msg.Payload, msg.Seq, newSeq)
	}
}

func TestSequencerCrashNewSequencerTakesOver(t *testing.T) {
	c := newCluster(t, 3, 2)
	seqNode := c.members[0].Info().Sequencer

	// Send a few messages so there is history to inherit.
	for i := 0; i < 5; i++ {
		if _, err := c.members[1].Send([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	var survivors []*Member
	for _, m := range c.members {
		if m.Me() == seqNode {
			c.net.Node(m.Me()).Crash()
		} else {
			survivors = append(survivors, m)
		}
	}

	// Each survivor's whole history of app messages, from the first: a
	// survivor may take the pre-crash messages before it notices the
	// failure or after its reset, but it takes all of them either way.
	var got [2][]string
	for mi, m := range survivors {
		got[mi] = drainUntilFailure(t, m)
	}
	var wg sync.WaitGroup
	for _, m := range survivors {
		wg.Add(1)
		go func(m *Member) {
			defer wg.Done()
			if _, err := m.Reset(2); err != nil {
				t.Errorf("reset: %v", err)
			}
		}(m)
	}
	wg.Wait()

	info := survivors[0].Info()
	if info.Sequencer == seqNode {
		t.Fatalf("sequencer still the crashed node %d", seqNode)
	}
	// All pre-crash messages plus new ones must deliver in one order.
	if _, err := survivors[1].Send([]byte("post-crash")); err != nil {
		t.Fatal(err)
	}
	for mi, m := range survivors {
		for {
			msg := receiveAppAllowingReset(t, m, 2)
			got[mi] = append(got[mi], string(msg.Payload))
			if string(msg.Payload) == "post-crash" {
				break
			}
		}
	}
	want := []string{"\x00", "\x01", "\x02", "\x03", "\x04", "post-crash"}
	for mi := range got {
		if !slices.Equal(got[mi], want) {
			t.Fatalf("survivor %d delivered %q, want %q", survivors[mi].Me(), got[mi], want)
		}
	}
}

// drainUntilFailure consumes messages until the failure surfaces:
// ErrGroupFailure, or the KindView of a reset another member coordinated
// before this one noticed. It returns the app payloads it consumed.
func drainUntilFailure(t *testing.T, m *Member) []string {
	t.Helper()
	var app []string
	for {
		msg, err := m.Receive()
		if errors.Is(err, ErrGroupFailure) || err == nil && msg.Kind == KindView {
			return app
		}
		if err != nil {
			t.Fatalf("member %d: %v", m.Me(), err)
		}
		if msg.Kind == KindApp {
			app = append(app, string(msg.Payload))
		}
	}
}

// receiveAppAllowingReset receives the next app message, transparently
// resetting the group (to minSize) when failures surface.
func receiveAppAllowingReset(t *testing.T, m *Member, minSize int) Msg {
	t.Helper()
	for {
		msg, err := m.Receive()
		if errors.Is(err, ErrGroupFailure) {
			if _, err := m.Reset(minSize); err != nil {
				t.Fatalf("member %d reset: %v", m.Me(), err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("member %d: %v", m.Me(), err)
		}
		if msg.Kind == KindApp {
			return msg
		}
	}
}

func TestMinorityResetFails(t *testing.T) {
	c := newCluster(t, 3, 2)
	// Partition member 2 alone.
	lone := c.members[2]
	var rest []sim.NodeID
	for _, m := range c.members[:2] {
		rest = append(rest, m.Me())
	}
	c.net.Partition([]sim.NodeID{lone.Me()}, rest)

	drainUntilFailure(t, lone)
	if _, err := lone.Reset(2); !errors.Is(err, ErrResetFailed) {
		t.Fatalf("minority reset: err = %v, want ErrResetFailed", err)
	}

	// The majority side recovers fine.
	for _, m := range c.members[:2] {
		drainUntilFailure(t, m)
	}
	var wg sync.WaitGroup
	for _, m := range c.members[:2] {
		wg.Add(1)
		go func(m *Member) {
			defer wg.Done()
			if _, err := m.Reset(2); err != nil {
				t.Errorf("majority reset: %v", err)
			}
		}(m)
	}
	wg.Wait()
	if _, err := c.members[0].Send([]byte("majority lives")); err != nil {
		t.Fatal(err)
	}
}

func TestSendBlocksAcrossResetAndCompletes(t *testing.T) {
	c := newCluster(t, 3, 2)
	crashed := c.members[2]
	c.net.Node(crashed.Me()).Crash()

	// Start a send immediately; with the third member dead it cannot
	// reach r=2, so it must block until the reset and then complete
	// against the two-member view.
	sendDone := make(chan error, 1)
	go func() {
		_, err := c.members[1].Send([]byte("during failure"))
		sendDone <- err
	}()

	// Count every delivery of the message at member 0 — whether it
	// arrives before the failure is detected or after the reset.
	count := 0
	m := c.members[0]
	countUntilFailure := func() {
		for {
			msg, err := m.Receive()
			if errors.Is(err, ErrGroupFailure) {
				return
			}
			if err != nil {
				t.Fatalf("receive: %v", err)
			}
			if msg.Kind == KindApp && string(msg.Payload) == "during failure" {
				count++
			}
		}
	}
	countUntilFailure()
	drainUntilFailure(t, c.members[1])

	var wg sync.WaitGroup
	for _, mm := range c.members[:2] {
		wg.Add(1)
		go func(mm *Member) {
			defer wg.Done()
			if _, err := mm.Reset(2); err != nil {
				t.Errorf("reset: %v", err)
			}
		}(mm)
	}
	wg.Wait()

	select {
	case err := <-sendDone:
		if err != nil {
			t.Fatalf("send across reset: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("send never completed after reset")
	}
	// Drain whatever is still queued at member 0.
	deadline := time.Now().Add(500 * time.Millisecond)
	for time.Now().Before(deadline) {
		info := m.Info()
		if info.Delivered >= info.Buffered {
			time.Sleep(2 * time.Millisecond)
			continue
		}
		msg, err := m.Receive()
		if err != nil {
			t.Fatalf("post-reset receive: %v", err)
		}
		if msg.Kind == KindApp && string(msg.Payload) == "during failure" {
			count++
		}
	}
	if count != 1 {
		t.Fatalf("message delivered %d times, want exactly 1", count)
	}
}

func TestLossyNetworkMaintainsTotalOrder(t *testing.T) {
	c := newCluster(t, 3, 2)
	c.net.SetDropRate(0.05)

	const n = 30
	// Each member runs a "group thread" that receives app messages and
	// transparently resets on failures, mirroring the paper's Fig. 5
	// structure. It exits only when the member is closed.
	appMsgs := make([]chan byte, 3)
	for mi, m := range c.members {
		appMsgs[mi] = make(chan byte, n)
		go func(m *Member, out chan<- byte) {
			for {
				msg, err := m.Receive()
				if errors.Is(err, ErrGroupFailure) {
					_, _ = m.Reset(3) // retried via the next failure if it misfires
					continue
				}
				if err != nil {
					return // closed at test end
				}
				if msg.Kind == KindApp {
					out <- msg.Payload[0]
				}
			}
		}(m, appMsgs[mi])
	}

	sendErrs := make(chan error, 1)
	go func() {
		for i := 0; i < n; i++ {
			if _, err := c.members[i%3].Send([]byte{byte(i)}); err != nil {
				sendErrs <- fmt.Errorf("send %d: %w", i, err)
				return
			}
		}
		sendErrs <- nil
	}()

	var orders [3][]byte
	for mi := range c.members {
		for len(orders[mi]) < n {
			select {
			case b := <-appMsgs[mi]:
				orders[mi] = append(orders[mi], b)
			case <-time.After(30 * time.Second):
				t.Fatalf("member %d stalled at %d/%d messages", mi, len(orders[mi]), n)
			}
		}
	}
	if err := <-sendErrs; err != nil {
		t.Fatal(err)
	}
	c.net.SetDropRate(0)
	if string(orders[0]) != string(orders[1]) || string(orders[1]) != string(orders[2]) {
		t.Fatalf("divergent orders under loss:\n%v\n%v\n%v", orders[0], orders[1], orders[2])
	}
}

func TestJoinOrCreateConverges(t *testing.T) {
	net := sim.NewNetwork(sim.FastModel(), 1)
	cfg := testConfig(1)
	var stacks []*flip.Stack
	for i := 0; i < 3; i++ {
		stacks = append(stacks, flip.NewStack(net.AddNode(fmt.Sprintf("s%d", i))))
	}
	results := make(chan *Member, 3)
	for _, s := range stacks {
		go func(s *flip.Stack) {
			m, err := JoinOrCreate(s, cfg)
			if err != nil {
				t.Errorf("JoinOrCreate: %v", err)
				results <- nil
				return
			}
			results <- m
		}(s)
	}
	var members []*Member
	for i := 0; i < 3; i++ {
		m := <-results
		if m == nil {
			t.FailNow()
		}
		members = append(members, m)
	}
	t.Cleanup(func() {
		for _, m := range members {
			m.Close()
		}
		for _, s := range stacks {
			s.Close()
		}
	})
	// All three must have landed in one group of three.
	deadline := time.Now().Add(5 * time.Second)
	for {
		ok := true
		gid := members[0].Info().GID
		for _, m := range members {
			info := m.Info()
			if info.GID != gid || len(info.Members) != 3 {
				ok = false
			}
		}
		if ok {
			break
		}
		if time.Now().After(deadline) {
			for _, m := range members {
				t.Logf("member %d: %+v", m.Me(), m.Info())
			}
			t.Fatal("JoinOrCreate did not converge to one group of 3")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestResilienceZeroStillOrders(t *testing.T) {
	c := newCluster(t, 3, 0)
	for i := 0; i < 10; i++ {
		if _, err := c.members[i%3].Send([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	var first []byte
	for mi, m := range c.members {
		var got []byte
		for len(got) < 10 {
			got = append(got, receiveApp(t, m).Payload[0])
		}
		if mi == 0 {
			first = got
		} else if string(got) != string(first) {
			t.Fatalf("order diverges with r=0")
		}
	}
}

func TestCloseUnblocksReceiveAndSend(t *testing.T) {
	c := newCluster(t, 2, 1)
	m := c.members[1]
	recvErr := make(chan error, 1)
	go func() {
		_, err := m.Receive()
		recvErr <- err
	}()
	time.Sleep(10 * time.Millisecond)
	m.Close()
	select {
	case err := <-recvErr:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("Receive after close: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Receive did not unblock on Close")
	}
	if _, err := m.Send([]byte("x")); !errors.Is(err, ErrClosed) {
		t.Fatalf("Send after close: %v", err)
	}
}

// TestRejoinedMemberSendsAreDelivered: a process that crashes and joins
// again is a fresh Member. The group must take its sends as new
// messages, not answer them as retries of its previous life's (which it
// once did: Send returned an old sequence number and the message was
// never delivered).
func TestRejoinedMemberSendsAreDelivered(t *testing.T) {
	testRejoinedMemberSends(t, true)
}

// TestRestartedMemberRejoinsBeforeDetection is the same restart with no
// failure detected in between: the survivors still count the process as
// a member when its new incarnation joins, so the sequencer only
// re-welcomes it and orders no join.
func TestRestartedMemberRejoinsBeforeDetection(t *testing.T) {
	testRejoinedMemberSends(t, false)
}

// testRejoinedMemberSends crashes member 2 of three after it has sent
// three messages, restarts it (after the survivors reset without it when
// resetFirst), joins again and sends "new", which a survivor must
// receive at the sequence number Send returned.
func testRejoinedMemberSends(t *testing.T, resetFirst bool) {
	c := newCluster(t, 3, 2)
	old := c.members[2]
	for i := 0; i < 3; i++ {
		if _, err := old.Send([]byte(fmt.Sprintf("old-%d", i))); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	node := c.net.Node(old.Me())
	node.Crash()
	old.Close()
	survivors := c.members[:2]
	if resetFirst {
		for _, m := range survivors {
			drainUntilFailure(t, m)
		}
		var wg sync.WaitGroup
		for _, m := range survivors {
			wg.Add(1)
			go func(m *Member) {
				defer wg.Done()
				if _, err := m.Reset(2); err != nil {
					t.Errorf("member %d reset: %v", m.Me(), err)
				}
			}(m)
		}
		wg.Wait()
	}

	node.Restart()
	stack := flip.NewStack(node)
	c.stacks = append(c.stacks, stack)
	reborn, err := Join(stack, testConfig(2), 5*time.Second)
	if err != nil {
		t.Fatalf("rejoin: %v", err)
	}
	c.members = append(c.members, reborn)
	before := survivors[0].Info().Buffered
	seq, err := reborn.Send([]byte("new"))
	if err != nil {
		t.Fatalf("send after rejoin: %v", err)
	}
	if seq <= before {
		t.Fatalf("send after rejoin returned seq %d, not past the group's %d: taken for a retry", seq, before)
	}
	got := make(chan Msg, 1)
	go func() {
		for {
			// Without a reset the old messages are still queued first.
			if msg := receiveAppAllowingReset(t, survivors[0], 2); !bytes.HasPrefix(msg.Payload, []byte("old-")) {
				got <- msg
				return
			}
		}
	}()
	select {
	case msg := <-got:
		if string(msg.Payload) != "new" || msg.Seq != seq {
			t.Fatalf("survivor received %q at seq %d, want \"new\" at %d", msg.Payload, msg.Seq, seq)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the rejoined member's message never reached a survivor")
	}
}
