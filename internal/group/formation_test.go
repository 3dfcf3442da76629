package group

import (
	"fmt"
	"testing"
	"time"

	"dirsvc/internal/capability"
	"dirsvc/internal/flip"
	"dirsvc/internal/sim"
)

// formationBeat is the heartbeat of the formation tests: long enough that
// the host scheduler's noise is a small part of the two beats they allow.
const formationBeat = 40 * time.Millisecond

// formationHosts returns a network whose host 0 is a client and whose
// hosts 1..n are servers, as in a cluster, with the servers' stacks.
func formationHosts(t *testing.T, n int) (*sim.Network, []*flip.Stack) {
	t.Helper()
	net := sim.NewNetwork(sim.FastModel(), 1)
	client := flip.NewStack(net.AddNode("client"))
	stacks := make([]*flip.Stack, n)
	for i := range stacks {
		stacks[i] = flip.NewStack(net.AddNode(fmt.Sprintf("server%d", i+1)))
	}
	t.Cleanup(func() {
		client.Close()
		for _, s := range stacks {
			s.Close()
		}
	})
	return net, stacks
}

func formationConfig() Config {
	return Config{Port: capability.PortFromString("group-formation"), Resilience: 1, HeartbeatInterval: formationBeat}
}

// probe is one JoinOrCreate call's outcome.
type probe struct {
	m   *Member
	err error
}

// startProbers runs JoinOrCreate on every stack at once; the channels
// yield the outcomes in stack order.
func startProbers(t *testing.T, stacks []*flip.Stack) []chan probe {
	t.Helper()
	outs := make([]chan probe, len(stacks))
	for i, s := range stacks {
		outs[i] = make(chan probe, 1)
		go func(s *flip.Stack, out chan<- probe) {
			m, err := JoinOrCreate(s, formationConfig())
			out <- probe{m, err}
		}(s, outs[i])
	}
	return outs
}

// member waits for a JoinOrCreate outcome, fails the test on an error,
// and closes the member when the test ends.
func member(t *testing.T, out <-chan probe) *Member {
	t.Helper()
	select {
	case p := <-out:
		if p.err != nil {
			t.Fatalf("JoinOrCreate: %v", p.err)
		}
		t.Cleanup(p.m.Close)
		return p.m
	case <-time.After(50 * formationBeat):
		t.Fatal("JoinOrCreate did not return")
		return nil
	}
}

// awaitOneGroup waits until every member is normal in one group of
// exactly them, failing the test if that takes past deadline; it returns
// the group's view.
func awaitOneGroup(t *testing.T, members []*Member, deadline time.Time) Info {
	t.Helper()
	for {
		info := members[0].Info()
		one := info.State == StateNormal && len(info.Members) == len(members)
		for _, m := range members[1:] {
			mi := m.Info()
			one = one && mi.State == StateNormal && mi.GID == info.GID && len(mi.Members) == len(members)
		}
		late := time.Now().After(deadline)
		if one && !late {
			return info
		}
		if late {
			for _, m := range members {
				t.Logf("member %d: %+v", m.Me(), m.Info())
			}
			t.Fatalf("no single group of %d by the deadline", len(members))
		}
		time.Sleep(time.Millisecond)
	}
}

// TestFreshProbersFormOneGroupWithinTwoBeats: three servers that start
// together form one group within two beats — the lowest creates after
// one quiet beat, the other two defer to it and join on its first
// heartbeat — and the lowest is its sequencer.
func TestFreshProbersFormOneGroupWithinTwoBeats(t *testing.T) {
	_, stacks := formationHosts(t, 3)
	start := time.Now()
	outs := startProbers(t, stacks)
	members := []*Member{member(t, outs[0]), member(t, outs[1]), member(t, outs[2])}
	info := awaitOneGroup(t, members, start.Add(2*formationBeat))
	if low := stacks[0].Node().ID(); info.Sequencer != low {
		t.Fatalf("sequencer is node %d, want the lowest prober, node %d", info.Sequencer, low)
	}
	t.Logf("one group of 3 after %v (beat %v)", time.Since(start), formationBeat)
}

// TestLowestProberGoneBeforeCreating: the lowest prober's host fails
// half a beat in, before it creates. The next prober creates one beat
// after the lowest one's last probe, the third joins it, all within two
// beats, and every JoinOrCreate call returns.
func TestLowestProberGoneBeforeCreating(t *testing.T) {
	net, stacks := formationHosts(t, 3)
	start := time.Now()
	outs := startProbers(t, stacks)
	time.Sleep(formationBeat / 2)
	net.Node(stacks[0].Node().ID()).Crash()
	members := []*Member{member(t, outs[1]), member(t, outs[2])}
	info := awaitOneGroup(t, members, start.Add(2*formationBeat))
	if next := stacks[1].Node().ID(); info.Sequencer != next {
		t.Fatalf("sequencer is node %d, want the next prober, node %d", info.Sequencer, next)
	}
	select {
	case p := <-outs[0]:
		if p.err == nil {
			p.m.Close()
		}
	case <-time.After(50 * formationBeat):
		t.Fatal("the failed host's JoinOrCreate did not return")
	}
}

// TestLateProberJoinsAndNeverCreates: a server that starts after a
// group exists joins that group, even as the lowest node and with its
// welcomes lost for four beats: the group's heartbeats hold it off
// creating.
func TestLateProberJoinsAndNeverCreates(t *testing.T) {
	net, stacks := formationHosts(t, 3)
	outs := startProbers(t, stacks[1:])
	group := []*Member{member(t, outs[0]), member(t, outs[1])}
	view := awaitOneGroup(t, group, time.Now().Add(50*formationBeat))

	late := stacks[0].Node().ID()
	lossEnds := time.Now().Add(4 * formationBeat)
	net.SetDropFilter(func(_, dst sim.NodeID, frame []byte) bool {
		return dst == late && wireKind(frame) == wireWelcome && time.Now().Before(lossEnds)
	})
	m := member(t, startProbers(t, stacks[:1])[0])
	if info := m.Info(); info.GID != view.GID {
		t.Fatalf("late prober is in group %x, want the existing group %x", info.GID, view.GID)
	}
	awaitOneGroup(t, append(group, m), time.Now().Add(10*formationBeat))
	if time.Now().Before(lossEnds) {
		t.Fatal("joined while every welcome was dropped")
	}
}

// TestAwaitChangeEndsAtItsDeadline: with nothing changing, AwaitChange
// returns once its time is up, however short, and at once when the view
// has already moved on. A wake-up that fired before the deadline it
// checks left the wait blocked until the next change of any kind.
func TestAwaitChangeEndsAtItsDeadline(t *testing.T) {
	_, stacks := formationHosts(t, 1)
	m, err := Create(stacks[0], formationConfig())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	view := m.Info()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := range 500 {
			m.AwaitChange(view, time.Duration(i%5)*time.Microsecond)
		}
		m.AwaitChange(Info{}, time.Hour) // another view: no wait
	}()
	select {
	case <-done:
	case <-time.After(50 * formationBeat):
		t.Fatal("AwaitChange blocked past its deadline")
	}
}

// TestLateWelcomeIsAnsweredWithLeave: a welcome that reaches a member of
// another group — the answer to a join request it sent before it joined
// there — is answered with a leave to the welcoming sequencer, so that
// group's view drops the member at once, not when failure detection
// finds it silent six beats on.
func TestLateWelcomeIsAnsweredWithLeave(t *testing.T) {
	net, stacks := formationHosts(t, 2)
	seq, x := stacks[0], stacks[1]
	m, err := Create(x, formationConfig())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	const otherGID = groupID(1<<40 | 12345)
	leaves := make(chan wireMsg, 1)
	net.SetDropFilter(func(src, dst sim.NodeID, frame []byte) bool {
		var w wireMsg
		if src == m.Me() && dst == seq.Node().ID() && wireKind(frame) == wireLeave && decodeWire(frame[flipHeader:], &w) == nil {
			select {
			case leaves <- w:
			default:
			}
		}
		return false
	})
	welcome := &wireMsg{kind: wireWelcome, gid: otherGID, epoch: 1, seq: 1, from: seq.Node().ID(), members: []sim.NodeID{seq.Node().ID(), m.Me()}}
	if err := seq.SendFrame(m.Me(), welcome.appendTo(flip.NewFrame(formationConfig().Port, welcome.size()))); err != nil {
		t.Fatal(err)
	}
	select {
	case w := <-leaves:
		if w.gid != otherGID || w.node != m.Me() {
			t.Fatalf("leave for gid %x of node %d, want gid %x of node %d", uint64(w.gid), w.node, uint64(otherGID), m.Me())
		}
	case <-time.After(2 * formationBeat):
		t.Fatal("no leave answered the late welcome")
	}
	if info := m.Info(); info.State != StateNormal || len(info.Members) != 1 {
		t.Fatalf("member after the late welcome: %+v", info)
	}
}

// TestWelcomedProberThatLeavesAtOnceReturns: a prober welcomed into a
// group that then yields to a larger one before the probe loop looks —
// both frames handled inside one wait — is returned as it is, left, for
// the caller to replace. The loop used to keep probing a member that was
// no longer joining, spinning without a wait.
func TestWelcomedProberThatLeavesAtOnceReturns(t *testing.T) {
	net, stacks := formationHosts(t, 2)
	fake, prober := stacks[0], stacks[1]
	probing := make(chan struct{}, 1)
	net.SetDropFilter(func(src, _ sim.NodeID, frame []byte) bool {
		if src == prober.Node().ID() && wireKind(frame) == wireJoinReq {
			select {
			case probing <- struct{}{}:
			default:
			}
		}
		return false
	})
	out := startProbers(t, []*flip.Stack{prober})[0]
	<-probing
	port := formationConfig().Port
	welcome := &wireMsg{kind: wireWelcome, gid: groupID(1<<40 | 1), epoch: 1, seq: 1, from: fake.Node().ID(), members: []sim.NodeID{fake.Node().ID(), prober.Node().ID()}}
	larger := &wireMsg{kind: wireAlive, gid: groupID(1<<40 | 2), epoch: 1, seq2: 5, from: fake.Node().ID()}
	for _, w := range []*wireMsg{welcome, larger} {
		if err := fake.SendFrame(prober.Node().ID(), w.appendTo(flip.NewFrame(port, w.size()))); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case p := <-out:
		if p.err != nil {
			t.Fatal(p.err)
		}
		defer p.m.Close()
		if st := p.m.Info().State; st != StateLeft {
			t.Fatalf("returned member is %v, want left", st)
		}
	case <-time.After(10 * formationBeat):
		t.Fatal("JoinOrCreate did not return a member that left its group")
	}
}
