package flip

import (
	"errors"
	"sync"
	"testing"
	"time"

	"dirsvc/internal/capability"
	"dirsvc/internal/sim"
)

func twoStacks(t *testing.T) (*Stack, *Stack, *sim.Network) {
	t.Helper()
	net := sim.NewNetwork(sim.FastModel(), 1)
	a := NewStack(net.AddNode("a"))
	b := NewStack(net.AddNode("b"))
	t.Cleanup(func() { a.Close(); b.Close() })
	return a, b, net
}

func TestSendToListener(t *testing.T) {
	a, b, _ := twoStacks(t)
	port := capability.PortFromString("svc")
	l, err := b.Register(port)
	if err != nil {
		t.Fatalf("Register: %v", err)
	}
	if err := a.Send(b.Node().ID(), port, []byte("req")); err != nil {
		t.Fatalf("Send: %v", err)
	}
	m, ok, timedOut := l.RecvTimeout(5 * time.Second)
	if !ok || timedOut {
		t.Fatalf("RecvTimeout: ok=%v timedOut=%v", ok, timedOut)
	}
	if m.Src != a.Node().ID() || string(m.Payload) != "req" {
		t.Fatalf("got %+v", m)
	}
}

func TestSendToUnregisteredPortIsDropped(t *testing.T) {
	a, b, _ := twoStacks(t)
	other := capability.PortFromString("other")
	l, _ := b.Register(capability.PortFromString("svc"))
	if err := a.Send(b.Node().ID(), other, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, ok, timedOut := l.RecvTimeout(20 * time.Millisecond); ok || !timedOut {
		t.Fatal("listener received a frame for another port")
	}
}

func TestRegisterDuplicatePort(t *testing.T) {
	_, b, _ := twoStacks(t)
	port := capability.PortFromString("svc")
	if _, err := b.Register(port); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Register(port); !errors.Is(err, ErrPortInUse) {
		t.Fatalf("second Register: %v, want ErrPortInUse", err)
	}
}

func TestListenerCloseFreesPort(t *testing.T) {
	_, b, _ := twoStacks(t)
	port := capability.PortFromString("svc")
	l, err := b.Register(port)
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	if _, ok := l.Recv(); ok {
		t.Fatal("Recv on closed listener returned ok")
	}
	if _, err := b.Register(port); err != nil {
		t.Fatalf("re-Register after Close: %v", err)
	}
}

func TestMulticastReachesAllListeners(t *testing.T) {
	net := sim.NewNetwork(sim.FastModel(), 1)
	var stacks []*Stack
	port := capability.PortFromString("group")
	var listeners []*Listener
	for i := 0; i < 4; i++ {
		s := NewStack(net.AddNode("n"))
		stacks = append(stacks, s)
		if i > 0 { // node 0 is the sender and does not listen
			l, err := s.Register(port)
			if err != nil {
				t.Fatal(err)
			}
			listeners = append(listeners, l)
		}
	}
	t.Cleanup(func() {
		for _, s := range stacks {
			s.Close()
		}
	})

	before := net.Stats().FramesSent
	if err := stacks[0].MulticastFrame(append(NewMcastFrame(port, 3), "ord"...)); err != nil {
		t.Fatal(err)
	}
	for i, l := range listeners {
		m, ok, timedOut := l.RecvTimeout(5 * time.Second)
		if !ok || timedOut {
			t.Fatalf("listener %d: ok=%v timedOut=%v", i, ok, timedOut)
		}
		if string(m.Payload) != "ord" {
			t.Fatalf("listener %d got %q", i, m.Payload)
		}
	}
	if got := net.Stats().FramesSent - before; got != 1 {
		t.Fatalf("multicast used %d transmissions, want 1", got)
	}
}

// TestUnheardMulticastCostsNoCPU: multicasts to a port no listener on a
// host has joined are dropped before the host's packet CPU is charged, so
// a burst of them does not delay a frame for the host's own listener. A
// unicast still pays its packet.
func TestUnheardMulticastCostsNoCPU(t *testing.T) {
	const burst = 20
	model := &sim.LatencyModel{PacketCPU: 20 * time.Millisecond, Scale: 1}
	net := sim.NewNetwork(model, 1)
	a, b := NewStack(net.AddNode("a")), NewStack(net.AddNode("b"))
	stacks := []*Stack{a, b}
	for range burst { // one sender each: a host's own sends pay its CPU
		stacks = append(stacks, NewStack(net.AddNode("m")))
	}
	t.Cleanup(func() {
		for _, s := range stacks {
			s.Close()
		}
	})
	port := capability.PortFromString("svc")
	l, err := b.Register(port)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for _, m := range stacks[2:] {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = m.MulticastFrame(append(NewMcastFrame(capability.PortFromString("group"), 1), 'h'))
		}()
	}
	wg.Wait() // the burst is in b's queue, ahead of the unicast
	start := time.Now()
	if err := a.Send(b.Node().ID(), port, []byte("req")); err != nil {
		t.Fatal(err)
	}
	if _, ok, timedOut := l.RecvTimeout(5 * time.Second); !ok || timedOut {
		t.Fatalf("RecvTimeout: ok=%v timedOut=%v", ok, timedOut)
	}
	// Charged for the burst, b would take the unicast after 20 more
	// packets (400 ms); a's send and b's receive cost 40 ms.
	if waited := time.Since(start); waited > 8*model.PacketCPU {
		t.Fatalf("unicast delivered after %v behind %d unheard multicasts", waited, burst)
	}
}

func TestLocateFindsListeners(t *testing.T) {
	net := sim.NewNetwork(sim.FastModel(), 1)
	client := NewStack(net.AddNode("client"))
	port := capability.PortFromString("dir")
	var servers []*Stack
	for i := 0; i < 3; i++ {
		s := NewStack(net.AddNode("server"))
		if _, err := s.Register(port); err != nil {
			t.Fatal(err)
		}
		servers = append(servers, s)
	}
	t.Cleanup(func() {
		client.Close()
		for _, s := range servers {
			s.Close()
		}
	})

	found, err := client.Locate(port, 100*time.Millisecond, 0)
	if err != nil {
		t.Fatalf("Locate: %v", err)
	}
	if len(found) != 3 {
		t.Fatalf("Locate found %d servers, want 3", len(found))
	}
	seen := make(map[sim.NodeID]bool)
	for _, id := range found {
		seen[id] = true
	}
	for _, s := range servers {
		if !seen[s.Node().ID()] {
			t.Fatalf("server %v not located", s.Node())
		}
	}
}

func TestLocateMaxStopsEarly(t *testing.T) {
	net := sim.NewNetwork(sim.FastModel(), 1)
	client := NewStack(net.AddNode("client"))
	port := capability.PortFromString("dir")
	for i := 0; i < 3; i++ {
		s := NewStack(net.AddNode("server"))
		if _, err := s.Register(port); err != nil {
			t.Fatal(err)
		}
	}
	start := time.Now()
	found, err := client.Locate(port, 10*time.Second, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(found) != 1 {
		t.Fatalf("found %d, want 1", len(found))
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("Locate with max=1 did not stop early")
	}
}

func TestLocateNoListeners(t *testing.T) {
	a, _, _ := twoStacks(t)
	found, err := a.Locate(capability.PortFromString("nobody"), 20*time.Millisecond, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(found) != 0 {
		t.Fatalf("found %v, want none", found)
	}
}

func TestStackCloseUnblocksListeners(t *testing.T) {
	_, b, _ := twoStacks(t)
	l, _ := b.Register(capability.PortFromString("svc"))
	done := make(chan bool, 1)
	go func() {
		_, ok := l.Recv()
		done <- ok
	}()
	time.Sleep(10 * time.Millisecond)
	b.Close()
	select {
	case ok := <-done:
		if ok {
			t.Fatal("Recv returned ok after Close")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Recv did not unblock on Close")
	}
	if _, err := b.Register(capability.PortFromString("late")); !errors.Is(err, ErrClosed) {
		t.Fatalf("Register after Close: %v", err)
	}
}

func TestNodeCrashClosesStack(t *testing.T) {
	_, b, _ := twoStacks(t)
	l, _ := b.Register(capability.PortFromString("svc"))
	b.Node().Crash()
	if _, ok := l.Recv(); ok {
		t.Fatal("Recv returned ok after node crash")
	}
}

func TestPartitionedLocateSeesOnlyOwnSide(t *testing.T) {
	net := sim.NewNetwork(sim.FastModel(), 1)
	client := NewStack(net.AddNode("client"))
	port := capability.PortFromString("dir")
	near := NewStack(net.AddNode("near"))
	far := NewStack(net.AddNode("far"))
	if _, err := near.Register(port); err != nil {
		t.Fatal(err)
	}
	if _, err := far.Register(port); err != nil {
		t.Fatal(err)
	}
	net.Partition(
		[]sim.NodeID{client.Node().ID(), near.Node().ID()},
		[]sim.NodeID{far.Node().ID()},
	)
	found, err := client.Locate(port, 50*time.Millisecond, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(found) != 1 || found[0] != near.Node().ID() {
		t.Fatalf("found %v, want only the near server", found)
	}
}
