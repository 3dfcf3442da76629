package rpc

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"dirsvc/internal/capability"
	"dirsvc/internal/flip"
	"dirsvc/internal/sim"
)

type fixture struct {
	net     *sim.Network
	client  *Client
	stacks  []*flip.Stack
	servers []*Server
}

// newFixture builds one client and n echo-less servers listening on port.
func newFixture(t testing.TB, n int) (*fixture, capability.Port, []*Server) {
	t.Helper()
	net := sim.NewNetwork(sim.FastModel(), 1)
	port := capability.PortFromString("svc")

	cs := flip.NewStack(net.AddNode("client"))
	client, err := NewClient(cs)
	if err != nil {
		t.Fatal(err)
	}
	f := &fixture{net: net, client: client, stacks: []*flip.Stack{cs}}

	var servers []*Server
	for i := 0; i < n; i++ {
		ss := flip.NewStack(net.AddNode(fmt.Sprintf("server%d", i)))
		f.stacks = append(f.stacks, ss)
		srv, err := NewServer(ss, port)
		if err != nil {
			t.Fatal(err)
		}
		servers = append(servers, srv)
	}
	f.servers = servers
	t.Cleanup(func() {
		for _, s := range servers {
			s.Close()
		}
		for _, st := range f.stacks {
			st.Close()
		}
	})
	return f, port, servers
}

func echoWorkers(t *testing.T, srv *Server, workers int) {
	t.Helper()
	stop := srv.ServeFunc(workers, func(req *Request) []byte {
		return append([]byte("echo:"), req.Payload...)
	})
	// Close the server before waiting for the workers: they only exit
	// once GetRequest fails.
	t.Cleanup(func() {
		srv.Close()
		stop()
	})
}

func TestTransEcho(t *testing.T) {
	f, port, servers := newFixture(t, 1)
	echoWorkers(t, servers[0], 1)

	reply, err := f.client.Trans(port, []byte("hello"))
	if err != nil {
		t.Fatalf("Trans: %v", err)
	}
	if string(reply) != "echo:hello" {
		t.Fatalf("reply = %q", reply)
	}
}

// TestTransUsesTwoFramesWarm: back to back, a warm transaction is a
// REQUEST and a REPLY — each REQUEST acknowledges the previous reply, so
// no ACK frame goes out (the paper's §3.1 counts three messages).
func TestTransUsesTwoFramesWarm(t *testing.T) {
	f, port, servers := newFixture(t, 1)
	// Two workers: one is back in GetRequest before the next request
	// lands, which would otherwise meet NOTHERE on a slow host.
	echoWorkers(t, servers[0], 2)
	f.client.probeFloor = time.Hour // no idle ACK, however slow the host

	// Warm the port cache (pays the locate).
	if _, err := f.client.Trans(port, []byte("warm")); err != nil {
		t.Fatal(err)
	}
	const n = 10
	before := f.net.Stats().FramesSent
	for i := 0; i < n; i++ {
		if _, err := f.client.Trans(port, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	// A REPLY is counted when it leaves the server, before Trans returns.
	if got := f.net.Stats().FramesSent - before; got != 2*n {
		t.Fatalf("%d warm RPCs used %d frames, want %d", n, got, 2*n)
	}
	if held := dupEntries(servers[0]); held != 1 {
		t.Fatalf("server holds %d duplicate entries, want 1: the last reply's", held)
	}
}

// dupEntries counts the transactions srv still keeps a duplicate entry for.
func dupEntries(srv *Server) int {
	srv.mu.Lock()
	defer srv.mu.Unlock()
	return len(srv.dups.entries)
}

// TestIdleClientAcksWithinProbeFloor: when no request follows, the id
// owed for the last reply goes out as an ACK frame of its own one probe
// floor later, and the server drops its entry.
func TestIdleClientAcksWithinProbeFloor(t *testing.T) {
	f, port, servers := newFixture(t, 1)
	echoWorkers(t, servers[0], 1)
	if _, err := f.client.Trans(port, []byte("warm")); err != nil {
		t.Fatal(err)
	}
	acked := make(chan time.Time, 2) // the one expected, and one too many
	f.net.SetDropFilter(func(src, dst sim.NodeID, frame []byte) bool {
		if len(frame) > 7 && frame[0] == 1 /* flip data */ && frame[7] == opAck {
			select {
			case acked <- time.Now():
			default: // never block the transmitter
			}
		}
		return false
	})
	start := time.Now()
	if _, err := f.client.Trans(port, []byte("last")); err != nil {
		t.Fatal(err)
	}
	floor := f.client.probeFloor
	select {
	case at := <-acked:
		// The warm transaction's id rode the request; only the last one
		// is owed, and not before it has waited its probe floor. The
		// slack is the host's scheduling, not the protocol's.
		if took := at.Sub(start); took < floor || took > 2*floor {
			t.Fatalf("ACK frame after %v, want one probe floor (%v)", took, floor)
		}
	case <-time.After(10 * floor):
		t.Fatal("an idle client never acknowledged its last reply")
	}
	for deadline := time.Now().Add(floor); dupEntries(servers[0]) != 0; {
		if time.Now().After(deadline) {
			t.Fatalf("server still holds %d duplicate entries after the ACK", dupEntries(servers[0]))
		}
		time.Sleep(time.Millisecond)
	}
	select {
	case <-acked:
		t.Fatal("more than one ACK frame for one owed id")
	case <-time.After(2 * floor):
	}
}

// TestCloseSendsOwedAcks: Close acknowledges everything the client owes,
// so a short-lived client leaves no duplicate entries behind. The idle
// timer is kept out of it by a floor no test outlives.
func TestCloseSendsOwedAcks(t *testing.T) {
	f, port, servers := newFixture(t, 1)
	echoWorkers(t, servers[0], 16)
	f.client.probeFloor = time.Hour
	const n = 16
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := f.client.Trans(port, []byte(fmt.Sprint(i))); err != nil {
				errs <- err
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if dupEntries(servers[0]) == 0 {
		t.Fatal("no duplicate entry left before Close: the test tests nothing")
	}
	f.client.Close()
	for deadline := time.Now().Add(5 * time.Second); dupEntries(servers[0]) != 0; {
		if time.Now().After(deadline) {
			t.Fatalf("server still holds %d duplicate entries after Close", dupEntries(servers[0]))
		}
		time.Sleep(time.Millisecond)
	}
}

func TestTransNoServer(t *testing.T) {
	f, _, _ := newFixture(t, 0)
	_, err := f.client.Trans(capability.PortFromString("nobody"), []byte("x"))
	if !errors.Is(err, ErrNoServer) {
		t.Fatalf("err = %v, want ErrNoServer", err)
	}
}

func TestNotHereFailsOverToIdleServer(t *testing.T) {
	f, port, servers := newFixture(t, 2)
	// Server 0 has no worker at all: every request met with NOTHERE.
	// Server 1 echoes.
	echoWorkers(t, servers[1], 1)

	reply, err := f.client.Trans(port, []byte("hi"))
	if err != nil {
		t.Fatalf("Trans: %v", err)
	}
	if string(reply) != "echo:hi" {
		t.Fatalf("reply = %q", reply)
	}
	// The busy server must have been evicted from the cache if it was
	// tried first; either way the cache must not be empty.
	if len(f.client.CachedServers(port)) == 0 {
		t.Fatal("port cache empty after successful transaction")
	}
}

func TestFailoverAfterServerCrash(t *testing.T) {
	f, port, servers := newFixture(t, 2)
	echoWorkers(t, servers[0], 1)
	echoWorkers(t, servers[1], 1)

	if _, err := f.client.Trans(port, []byte("warm")); err != nil {
		t.Fatal(err)
	}
	// Crash the preferred server; the transaction must fail over.
	preferred := f.client.CachedServers(port)[0]
	f.net.Node(preferred).Crash()

	reply, err := f.client.Trans(port, []byte("after-crash"))
	if err != nil {
		t.Fatalf("Trans after crash: %v", err)
	}
	if string(reply) != "echo:after-crash" {
		t.Fatalf("reply = %q", reply)
	}
}

func TestDuplicateRequestSuppressed(t *testing.T) {
	f, port, servers := newFixture(t, 1)

	var mu sync.Mutex
	executions := 0
	stop := servers[0].ServeFunc(1, func(req *Request) []byte {
		mu.Lock()
		executions++
		mu.Unlock()
		return []byte("done")
	})
	t.Cleanup(func() {
		servers[0].Close()
		stop()
	})

	// Drop the first REPLY from the server so the client retransmits the
	// request; the server must not execute it twice. The filter matches
	// only RPC REPLY frames (flip DATA, rpc opReply), leaving the HEREIS
	// locate answer alone.
	var dropMu sync.Mutex
	dropped := false
	serverNode := servers[0].stack.Node().ID()
	f.net.SetDropFilter(func(src, dst sim.NodeID, payload []byte) bool {
		dropMu.Lock()
		defer dropMu.Unlock()
		isReply := len(payload) > 7 && payload[0] == 1 /* flip data */ && payload[7] == opReply
		if !dropped && src == serverNode && isReply {
			dropped = true
			return true
		}
		return false
	})

	reply, err := f.client.Trans(port, []byte("once"))
	if err != nil {
		t.Fatalf("Trans: %v", err)
	}
	if string(reply) != "done" {
		t.Fatalf("reply = %q", reply)
	}
	mu.Lock()
	defer mu.Unlock()
	if executions != 1 {
		t.Fatalf("request executed %d times, want 1", executions)
	}
}

func TestLossyNetworkStillCompletes(t *testing.T) {
	f, port, servers := newFixture(t, 1)
	echoWorkers(t, servers[0], 2)
	f.net.SetDropRate(0.15)
	defer f.net.SetDropRate(0)

	for i := 0; i < 20; i++ {
		want := fmt.Sprintf("msg-%d", i)
		reply, err := f.client.Trans(port, []byte(want))
		if err != nil {
			t.Fatalf("Trans %d: %v", i, err)
		}
		if string(reply) != "echo:"+want {
			t.Fatalf("Trans %d: reply %q", i, reply)
		}
	}
}

func TestConcurrentClientsSpreadLoad(t *testing.T) {
	net := sim.NewNetwork(sim.FastModel(), 1)
	port := capability.PortFromString("svc")

	perServer := make([]int, 3)
	var mu sync.Mutex
	var servers []*Server
	for i := 0; i < 3; i++ {
		ss := flip.NewStack(net.AddNode("server"))
		srv, err := NewServer(ss, port)
		if err != nil {
			t.Fatal(err)
		}
		i := i
		stop := srv.ServeFunc(2, func(req *Request) []byte {
			mu.Lock()
			perServer[i]++
			mu.Unlock()
			return req.Payload
		})
		servers = append(servers, srv)
		t.Cleanup(func() {
			srv.Close()
			stop()
		})
	}

	var wg sync.WaitGroup
	errs := make(chan error, 6)
	for c := 0; c < 6; c++ {
		cs := flip.NewStack(net.AddNode("client"))
		client, err := NewClient(cs)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				if _, err := client.Trans(port, []byte{byte(i)}); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("client error: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	total := perServer[0] + perServer[1] + perServer[2]
	if total != 180 {
		t.Fatalf("processed %d requests, want 180 (distribution %v)", total, perServer)
	}
}

func TestRequestDoubleReplyRejected(t *testing.T) {
	f, port, servers := newFixture(t, 1)
	reqs := make(chan *Request, 1)
	go func() {
		req, err := servers[0].GetRequest()
		if err == nil {
			reqs <- req
		}
	}()
	transErr := make(chan error, 1)
	go func() {
		_, err := f.client.Trans(port, []byte("x"))
		transErr <- err
	}()
	req := <-reqs
	if err := req.Reply([]byte("one")); err != nil {
		t.Fatalf("first Reply: %v", err)
	}
	if err := req.Reply([]byte("two")); err == nil {
		t.Fatal("second Reply succeeded, want error")
	}
	if err := <-transErr; err != nil {
		t.Fatalf("Trans: %v", err)
	}
}

func TestServerCloseUnblocksGetRequest(t *testing.T) {
	_, _, servers := newFixture(t, 1)
	done := make(chan error, 1)
	go func() {
		_, err := servers[0].GetRequest()
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	servers[0].Close()
	select {
	case err := <-done:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("GetRequest: %v, want ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("GetRequest did not unblock on Close")
	}
}

func TestLargePayloadRoundTrip(t *testing.T) {
	f, port, servers := newFixture(t, 1)
	echoWorkers(t, servers[0], 1)
	big := bytes.Repeat([]byte{0xAB}, 8000)
	reply, err := f.client.Trans(port, big)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(reply[5:], big) {
		t.Fatal("large payload corrupted")
	}
}
