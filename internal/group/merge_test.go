package group

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"dirsvc/internal/flip"
	"dirsvc/internal/sim"
)

var errNoMessage = errors.New("no message")

// receiveWithin is Receive bounded by d; it returns errNoMessage when
// nothing arrived. The Receive left behind ends when m is closed.
func receiveWithin(m *Member, d time.Duration) (Msg, error) {
	type result struct {
		msg Msg
		err error
	}
	ch := make(chan result, 1)
	go func() {
		msg, err := m.Receive()
		ch <- result{msg, err}
	}()
	select {
	case r := <-ch:
		return r.msg, r.err
	case <-time.After(d):
		return Msg{}, errNoMessage
	}
}

// createOn creates a singleton group on a new host of net.
func createOn(t *testing.T, net *sim.Network, cfg Config, name string) *Member {
	t.Helper()
	stack := flip.NewStack(net.AddNode(name))
	m, err := Create(stack, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		m.Close()
		stack.Close()
	})
	return m
}

// TestSuccessorSequencerNumbersPastTheLeave: a sequencer that leaves
// hands the group to the lowest member, whose first ORD takes the seq
// after the leave. Taking the leave's own seq, every other member drops
// it as a duplicate, yet ACCEPTs it, so the send completes undelivered.
func TestSuccessorSequencerNumbersPastTheLeave(t *testing.T) {
	c := newCluster(t, 3, 1)
	leaver, successor, third := c.members[0], c.members[1], c.members[2]
	if err := leaver.Leave(); err != nil {
		t.Fatalf("Leave: %v", err)
	}
	var leaveSeq uint64
	for _, m := range []*Member{successor, third} {
		msg, err := m.Receive()
		if err != nil || msg.Kind != KindLeave {
			t.Fatalf("member %d: got %+v, %v; want the leave", m.Me(), msg, err)
		}
		leaveSeq = msg.Seq
	}
	seq, err := successor.Send([]byte("after"))
	if err != nil {
		t.Fatal(err)
	}
	if seq <= leaveSeq {
		t.Fatalf("successor's send got seq %d, leave was %d", seq, leaveSeq)
	}
	for _, m := range []*Member{successor, third} {
		msg, err := receiveWithin(m, 20*testHeartbeat)
		if err != nil || msg.Seq != seq || string(msg.Payload) != "after" {
			t.Fatalf("member %d: got %+v, %v; want %q at seq %d", m.Me(), msg, err, "after", seq)
		}
	}
}

// TestMergeSingletonsLowerGIDSurvives: of two singleton groups on one
// port, the one with the higher gid yields on the other's heartbeat.
func TestMergeSingletonsLowerGIDSurvives(t *testing.T) {
	net := sim.NewNetwork(sim.FastModel(), 1)
	a := createOn(t, net, testConfig(0), "a")
	b := createOn(t, net, testConfig(0), "b")
	winner, loser := a, b
	if b.Info().GID < a.Info().GID {
		winner, loser = b, a
	}
	if _, err := receiveWithin(loser, 20*testHeartbeat); !errors.Is(err, ErrLeft) {
		t.Fatalf("higher-gid singleton: Receive = %v, want ErrLeft", err)
	}
	if _, err := loser.Send([]byte("x")); !errors.Is(err, ErrLeft) {
		t.Fatalf("higher-gid singleton: Send = %v, want ErrLeft", err)
	}
	time.Sleep(5 * testHeartbeat)
	if info := winner.Info(); info.State != StateNormal {
		t.Fatalf("lower-gid singleton is %v, want normal", info.State)
	}
}

// TestPairNeverYieldsToSingleton: a two-member group whose epoch is
// past a singleton's keeps its view; the singleton yields. Ranking by
// epoch first would dissolve the pair, a majority of three.
func TestPairNeverYieldsToSingleton(t *testing.T) {
	c := newCluster(t, 3, 1)
	crashed := c.members[2]
	c.net.Node(crashed.Me()).Crash()
	crashed.Close()
	pair := c.members[:2]
	var wg sync.WaitGroup
	for _, m := range pair {
		wg.Add(1)
		go func(m *Member) {
			defer wg.Done()
			drainUntilFailure(t, m)
			if _, err := m.Reset(2); err != nil {
				t.Errorf("member %d reset: %v", m.Me(), err)
			}
		}(m)
	}
	wg.Wait()
	before := pair[0].Info()
	if before.Epoch <= 1 || len(before.Members) != 2 {
		t.Fatalf("pair after reset: %+v", before)
	}

	single := createOn(t, c.net, testConfig(1), "single")
	if _, err := receiveWithin(single, 20*testHeartbeat); !errors.Is(err, ErrLeft) {
		t.Fatalf("singleton: Receive = %v, want ErrLeft", err)
	}
	for _, m := range pair {
		info := m.Info()
		if info.State != StateNormal || info.GID != before.GID || len(info.Members) != 2 {
			t.Fatalf("member %d after the singleton's heartbeats: %+v, want %+v", m.Me(), info, before)
		}
	}
}

// TestSkewedJoinOrCreateMerges starts three JoinOrCreate calls a beat
// apart, highest id first, so each creates a group of its own at the
// same moment. A member that yields joins again, as an application
// does; the three end in one group.
func TestSkewedJoinOrCreateMerges(t *testing.T) {
	net := sim.NewNetwork(sim.FastModel(), 1)
	cfg := testConfig(1)
	var stacks []*flip.Stack
	for i := 0; i < 3; i++ {
		stacks = append(stacks, flip.NewStack(net.AddNode(fmt.Sprintf("s%d", i))))
	}
	var (
		mu      sync.Mutex
		current [3]*Member
		stopped bool
		wg      sync.WaitGroup
	)
	t.Cleanup(func() {
		mu.Lock()
		stopped = true
		for _, m := range current {
			if m != nil {
				m.Close()
			}
		}
		mu.Unlock()
		wg.Wait()
		for _, s := range stacks {
			s.Close()
		}
	})
	run := func(i int) {
		defer wg.Done()
		for {
			m, err := JoinOrCreate(stacks[i], cfg)
			if err != nil {
				t.Errorf("JoinOrCreate: %v", err)
				return
			}
			mu.Lock()
			if stopped {
				mu.Unlock()
				m.Close()
				return
			}
			current[i] = m
			mu.Unlock()
			for {
				_, err := m.Receive()
				if errors.Is(err, ErrGroupFailure) {
					_, err = m.Reset(2) // a majority, as the service asks
				}
				if err != nil {
					break // left, closed or no majority: join again
				}
			}
			m.Close()
			mu.Lock()
			done := stopped
			mu.Unlock()
			if done {
				return
			}
		}
	}
	for i := 2; i >= 0; i-- {
		wg.Add(1)
		go run(i)
		time.Sleep(testHeartbeat)
	}

	deadline := time.Now().Add(200 * testHeartbeat)
	for {
		mu.Lock()
		infos := make([]Info, 0, 3)
		for _, m := range current {
			if m != nil {
				infos = append(infos, m.Info())
			}
		}
		mu.Unlock()
		one := len(infos) == 3
		for _, info := range infos {
			one = one && info.State == StateNormal && info.GID == infos[0].GID && len(info.Members) == 3
		}
		if one {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("no single group of three: %+v", infos)
		}
		time.Sleep(testHeartbeat / 3)
	}
}

// TestCloseDuringResetStaysClosed: a member closed while its own reset
// waits for acknowledgements stays closed. Committing anyway made it
// normal again, and a Receive after the Reset then blocked for ever.
func TestCloseDuringResetStaysClosed(t *testing.T) {
	c := newCluster(t, 2, 1)
	m := c.members[0]
	c.net.Node(c.members[1].Me()).Crash()
	c.members[1].Close()
	drainUntilFailure(t, m)
	errs := make(chan error, 1)
	go func() {
		_, err := m.Reset(1)
		errs <- err
	}()
	time.Sleep(testHeartbeat / 2) // inside the first invitation round
	m.Close()
	if err := <-errs; !errors.Is(err, ErrClosed) {
		t.Fatalf("Reset = %v, want ErrClosed", err)
	}
	if _, err := receiveWithin(m, 5*testHeartbeat); !errors.Is(err, ErrClosed) {
		t.Fatalf("Receive after Close = %v, want ErrClosed", err)
	}
}
