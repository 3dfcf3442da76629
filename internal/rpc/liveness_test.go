package rpc

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dirsvc/internal/capability"
	"dirsvc/internal/flip"
	"dirsvc/internal/sim"
)

// rpcOp returns the rpc op and transaction id of a simulated frame, or 0
// for anything but a flip DATA frame carrying an rpc message.
func rpcOp(frame []byte) (op byte, tx uint64) {
	if len(frame) < 16 || frame[0] != 1 /* flip data */ {
		return 0, 0
	}
	return frame[7], binary.BigEndian.Uint64(frame[8:16])
}

// parkFixture builds n servers that answer "<node>:<payload>", except
// that a request whose payload starts with "park" is held at the node
// first names for hold nanoseconds (until the test ends, while hold is
// 0). The client is warmed on first, its preferred server. executed
// counts handler entries per payload.
type parkFixture struct {
	*fixture
	port     capability.Port
	first    sim.NodeID
	hold     atomic.Int64
	parked   atomic.Int64 // requests currently held
	mu       sync.Mutex
	executed map[string]int
}

func newParkFixture(t *testing.T, n int) *parkFixture {
	t.Helper()
	f, port, servers := newFixture(t, n)
	p := &parkFixture{fixture: f, port: port, executed: make(map[string]int)}
	var parkOn atomic.Int64
	parkOn.Store(-1)
	release := make(chan struct{})
	for _, srv := range servers {
		id := srv.stack.Node().ID()
		stop := srv.ServeFunc(64, func(req *Request) []byte {
			p.mu.Lock()
			p.executed[string(req.Payload)]++
			p.mu.Unlock()
			if bytes.HasPrefix(req.Payload, []byte("park")) && parkOn.Load() == int64(id) {
				p.parked.Add(1)
				if hold := p.hold.Load(); hold > 0 {
					time.Sleep(time.Duration(hold))
				} else {
					<-release
				}
				p.parked.Add(-1)
			}
			return []byte(fmt.Sprintf("%d:%s", id, req.Payload))
		})
		srv := srv
		t.Cleanup(func() {
			srv.Close()
			stop()
		})
	}
	t.Cleanup(func() { close(release) }) // runs first: lets the held workers go
	for i := 0; i < 8; i++ {
		if _, err := f.client.Trans(port, []byte("warm")); err != nil {
			t.Fatalf("warm transaction %d: %v", i, err)
		}
	}
	p.first = f.client.CachedServers(port)[0]
	parkOn.Store(int64(p.first))
	return p
}

// detection is the time retransmits+1 silent probes take against a
// sampled server whose first interval sits at the floor.
func detection(c *Client) time.Duration {
	d, interval := time.Duration(0), c.probeFloor
	for i := 0; i <= c.retransmits; i++ {
		d += min(interval, c.replyTimeout)
		interval *= 2
	}
	return d
}

// TestSilentServerOneVerdictForAll: forty transactions are parked on a
// server that crashes. One of them reaches the verdict; all forty fail
// over on it, and the dead node sees no more than each transaction's
// request and two probes, and nothing once the verdict is in.
func TestSilentServerOneVerdictForAll(t *testing.T) {
	p := newParkFixture(t, 2)
	var toDead atomic.Int64
	p.net.SetDropFilter(func(src, dst sim.NodeID, frame []byte) bool {
		if op, _ := rpcOp(frame); op == opRequest && dst == p.first {
			toDead.Add(1)
		}
		return false
	})

	const n = 40
	type result struct {
		reply string
		err   error
		took  time.Duration
	}
	results := make(chan result, n)
	var crashedAt atomic.Int64 // UnixNano
	for i := 0; i < n; i++ {
		go func(i int) {
			reply, err := p.client.Trans(p.port, []byte(fmt.Sprintf("park-%d", i)))
			results <- result{string(reply), err, time.Since(time.Unix(0, crashedAt.Load()))}
		}(i)
	}
	for deadline := time.Now().Add(5 * time.Second); p.parked.Load() < n; {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d transactions reached the server", p.parked.Load(), n)
		}
		time.Sleep(time.Millisecond)
	}
	toDead.Store(0) // count from the crash: each transaction's one request is in
	crashedAt.Store(time.Now().UnixNano())
	p.net.Node(p.first).Crash()

	budget, dead := 2*detection(p.client), fmt.Sprintf("%d:", p.first)
	for i := 0; i < n; i++ {
		r := <-results
		if r.err != nil {
			t.Fatalf("transaction failed: %v", r.err)
		}
		if strings.HasPrefix(r.reply, dead) || !strings.Contains(r.reply, ":park-") {
			t.Fatalf("reply %q did not come from the survivor", r.reply)
		}
		if r.took > budget {
			t.Errorf("transaction took %v after the crash, want ≤ %v (2 × detection)", r.took, budget)
		}
	}
	st := p.client.FailoverStats()
	if st.Verdicts != 1 {
		t.Errorf("%d dead verdicts for one dead server, want 1 (stats %+v)", st.Verdicts, st)
	}
	if st.Released != n-1 {
		t.Errorf("%d transactions released by the verdict, want %d (stats %+v)", st.Released, n-1, st)
	}
	// Each transaction sent one request before the crash and may probe
	// retransmits times before the verdict.
	atVerdict := toDead.Load()
	if limit := int64(n * p.client.retransmits); atVerdict > limit {
		t.Errorf("%d probes sent to the dead node, want ≤ %d", atVerdict, limit)
	}
	for i := 0; i < 10; i++ {
		if _, err := p.client.Trans(p.port, []byte("after")); err != nil {
			t.Fatalf("transaction after the verdict: %v", err)
		}
	}
	if now := toDead.Load(); now != atVerdict {
		t.Errorf("%d requests sent to the dead node after the verdict", now-atVerdict)
	}
}

// TestBusyServerIsNotEvicted: a handler that outlasts the detection
// budget (but not the old per-server bound) answers the probes WORKING,
// so the client keeps waiting, the request runs once, and the server
// keeps its place in the cache although an idle one is on the port.
func TestBusyServerIsNotEvicted(t *testing.T) {
	p := newParkFixture(t, 2)
	hold := 2 * p.client.replyTimeout
	if hold <= detection(p.client) {
		t.Fatalf("hold %v does not outlast detection %v", hold, detection(p.client))
	}
	p.hold.Store(int64(hold))
	reply, err := p.client.Trans(p.port, []byte("park-busy"))
	if err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("%d:park-busy", p.first); string(reply) != want {
		t.Fatalf("reply %q, want %q from the busy server", reply, want)
	}
	p.mu.Lock()
	runs := p.executed["park-busy"]
	p.mu.Unlock()
	if runs != 1 {
		t.Fatalf("request executed %d times, want 1", runs)
	}
	if got := p.client.CachedServers(p.port); len(got) == 0 || got[0] != p.first {
		t.Fatalf("cache %v no longer starts with the busy server %v", got, p.first)
	}
	st := p.client.FailoverStats()
	if st.Working == 0 || st.Probes == 0 || st.Verdicts != 0 {
		t.Fatalf("stats %+v, want probes answered WORKING and no verdict", st)
	}
	if rs := p.client.ReplicaStats(p.port); rs[0].Probes != st.Probes || rs[0].Heard <= 0 {
		t.Fatalf("replica stats %+v do not carry the %d probes or a last-heard age", rs[0], st.Probes)
	}
}

// TestWorkingCapStillFailsOver: WORKING acks buy a stuck handler no more
// than the (retransmits+1) × replyTimeout a silent server always had.
// The give-up is this transaction's alone — the server is alive — so it
// is no verdict.
func TestWorkingCapStillFailsOver(t *testing.T) {
	p := newParkFixture(t, 2)
	// The stuck server is alive and would answer the re-locate that
	// follows the give-up, likely first again: keep its HEREIS from the
	// client, so that the time measured is one give-up's.
	p.net.SetDropFilter(func(src, dst sim.NodeID, frame []byte) bool {
		return src == p.first && len(frame) > 0 && frame[0] == 4 /* flip HEREIS */
	})
	bound := time.Duration(p.client.retransmits+1) * p.client.replyTimeout
	start := time.Now()
	reply, err := p.client.Trans(p.port, []byte("park-stuck"))
	took := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if stuck := fmt.Sprintf("%d:park-stuck", p.first); string(reply) == stuck {
		t.Fatalf("reply %q came from the server that never answers", reply)
	}
	if took < bound || took > bound+detection(p.client) {
		t.Fatalf("stuck server abandoned after %v, want %v as before", took, bound)
	}
	if st := p.client.FailoverStats(); st.Working == 0 || st.Verdicts != 0 || st.Released != 0 {
		t.Fatalf("stats %+v, want WORKING acks and no shared verdict", st)
	}
}

// TestLossyLinkNoFalseVerdict: with three frames in ten lost, a lone
// transaction has all three of its probes go unanswered about one time
// in eight — but the verdict is the server's, not the transaction's, and
// any frame to any of the client's transactions counts as life. Sixteen
// callers keep the link busy until 200 transactions are through; none of
// them gives the server up.
func TestLossyLinkNoFalseVerdict(t *testing.T) {
	f, port, servers := newFixture(t, 1)
	echoWorkers(t, servers[0], 64)
	if _, err := f.client.Trans(port, []byte("warm")); err != nil {
		t.Fatal(err)
	}
	f.net.SetDropRate(0.3)
	defer f.net.SetDropRate(0)

	const callers, want = 16, 200
	var done atomic.Int64
	var verdictsAtDone atomic.Int64
	verdictsAtDone.Store(-1)
	var wg sync.WaitGroup
	errs := make(chan error, callers)
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; done.Load() < want; i++ {
				payload := fmt.Sprintf("g%d-i%d", g, i)
				reply, err := f.client.Trans(port, []byte(payload))
				if errors.Is(err, ErrNoServer) {
					// Some 3 % of transactions lose five requests or
					// replies running and spend the old per-server bound,
					// as before; the re-locate that follows is as lossy.
					continue
				}
				if err == nil && string(reply) != "echo:"+payload {
					err = fmt.Errorf("reply %q to %q", reply, payload)
				}
				if err != nil {
					errs <- err
					return
				}
				// Read the counter while every caller is still busy:
				// the last stragglers run alone, as the test must not.
				if done.Add(1) == want {
					verdictsAtDone.Store(int64(f.client.FailoverStats().Verdicts))
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if v := verdictsAtDone.Load(); v != 0 {
		t.Fatalf("%d dead verdicts against a live server behind a lossy link (stats %+v)", v, f.client.FailoverStats())
	}
	if st := f.client.FailoverStats(); st.Probes == 0 {
		t.Fatalf("stats %+v: the loss never cost a probe, the test tested nothing", st)
	}
}

// TestExpiredTimerDoesNotBeatReadyReply: select picks at random between
// a fired probe timer and a reply that is already waiting, so an expiry
// proves nothing until what has arrived has been looked at. The reply is
// in the channel and the 1 ns probe timer has fired before the wait
// begins, every time; the wait must end with the reply, not with a probe.
func TestExpiredTimerDoesNotBeatReadyReply(t *testing.T) {
	f, port, servers := newFixture(t, 2) // no worker: no reply but the planted one
	id := servers[0].stack.Node().ID()
	for i := 0; i < 200; i++ {
		tx := uint64(1000 + i)
		ch := make(chan flip.Msg, replyChanDepth)
		ch <- flip.Msg{Src: id, Payload: append(appendServerHeader(nil, opReply, tx, 0), "ready"...)}
		aim := target{server: id, down: make(chan struct{}), probe: time.Nanosecond}
		wire := requestFrame(port, tx, f.client.replyPort, []byte("q"))
		reply, from, v := f.client.transactOnce(context.Background(), aim, port, tx, wire, ch, false)
		if v != verdictReply || string(reply) != "ready" || from != id {
			t.Fatalf("round %d: verdict %d, reply %q from %v; want the waiting reply", i, v, reply, from)
		}
	}
	if st := f.client.FailoverStats(); st.Probes != 0 {
		t.Fatalf("%d expiries were taken for silence although the reply had arrived", st.Probes)
	}

	// The other half of the evidence: a frame routed to any transaction,
	// even one nobody waits for, marks its sender heard — from when the
	// demultiplexer saw it, not from when a waiter got round to it. (The
	// second server: the first has been answering NOTHERE.)
	id = servers[1].stack.Node().ID()
	before := time.Now()
	if f.client.heardSince(id, before.Add(-time.Hour)) {
		t.Fatal("server heard from before it sent anything")
	}
	clientNode := f.stacks[0].Node().ID()
	if err := servers[1].stack.SendFrame(clientNode, replyFrame(f.client.replyPort, opWorking, 1, 0, nil)); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); f.client.FailoverStats().Working == 0; {
		if time.Now().After(deadline) {
			t.Fatal("WORKING ack never reached the demultiplexer")
		}
		time.Sleep(time.Millisecond)
	}
	after := time.Now()
	for _, c := range []struct {
		node  sim.NodeID
		since time.Time
		want  bool
	}{
		{id, before, true},        // heard after the probe went out: alive
		{id, after, false},        // only heard before it: that probe is unanswered
		{id + 100, before, false}, // never heard at all
	} {
		if got := f.client.heardSince(c.node, c.since); got != c.want {
			t.Errorf("heardSince(%v, %v) = %v, want %v", c.node, c.since.Sub(before), got, c.want)
		}
	}
}

// TestFinishedRequestStaysFinished is the duplicate-suppression race: a
// handler that replies at once could have its "done" entry overwritten by
// the dispatcher's late "in progress" one, after which a retransmit whose
// reply was lost was never answered again and the client took its request
// to the next server. Every transaction here loses its first reply; each
// must be re-answered by the first server and run exactly once.
func TestFinishedRequestStaysFinished(t *testing.T) { finishedStaysFinished(t, false) }

// TestFinishedRequestStaysFinishedUnderLoad is the same with the
// background callers on the tested servers: tens of thousands of
// acknowledged requests go through the duplicate table while the test's
// replies wait for their retransmits, and none of them may push out an
// entry still waiting.
func TestFinishedRequestStaysFinishedUnderLoad(t *testing.T) { finishedStaysFinished(t, true) }

func finishedStaysFinished(t *testing.T, bgOnTested bool) {
	rounds := 2000
	if testing.Short() {
		rounds = 400
	}
	f, port, servers := newFixture(t, 2)
	var mu sync.Mutex
	executed := make(map[string]int)
	for _, srv := range servers {
		id := srv.stack.Node().ID()
		stop := srv.ServeFunc(64, func(req *Request) []byte { // never NOTHERE: that would move a caller too
			mu.Lock()
			executed[string(req.Payload)]++
			mu.Unlock()
			return []byte(fmt.Sprintf("%d:%s", id, req.Payload))
		})
		srv := srv
		t.Cleanup(func() {
			srv.Close()
			stop()
		})
	}
	// Background traffic goes to a server of its own, or through the
	// tested ones.
	bgPort, bgNode := port, sim.NodeID(-1)
	if !bgOnTested {
		bgStack := flip.NewStack(f.net.AddNode("bg-server"))
		f.stacks = append(f.stacks, bgStack)
		bgSrv, err := NewServer(bgStack, capability.PortFromString("bg"))
		if err != nil {
			t.Fatal(err)
		}
		echoWorkers(t, bgSrv, 4)
		bgPort, bgNode = bgSrv.Port(), bgStack.Node().ID()
	}
	f.client.SetCacheTTL(time.Hour) // no re-locate may reorder the cache mid-test
	for i := 0; i < 8; i++ {        // an RTT sample, so the re-send comes after the floor
		if _, err := f.client.Trans(port, []byte("warm")); err != nil {
			t.Fatal(err)
		}
	}
	first := f.client.CachedServers(port)[0]
	var dropMu sync.Mutex
	replied := make(map[uint64]bool)
	f.net.SetDropFilter(func(src, dst sim.NodeID, frame []byte) bool {
		op, tx := rpcOp(frame)
		if op != opReply || src == bgNode || bytes.HasSuffix(frame, []byte(":bg")) {
			return false // background traffic runs at full speed
		}
		dropMu.Lock()
		defer dropMu.Unlock()
		seen := replied[tx]
		replied[tx] = true
		return !seen
	})

	// The overwrite needs a worker to finish on one core before the
	// dispatcher, on the other, is back at its table: keep both busy.
	var bg sync.WaitGroup
	stopBG := make(chan struct{})
	for g := 0; g < 3; g++ {
		bg.Add(1)
		go func() {
			defer bg.Done()
			for {
				select {
				case <-stopBG:
					return
				default:
					_, _ = f.client.Trans(bgPort, []byte("bg"))
				}
			}
		}()
	}
	defer bg.Wait()
	defer close(stopBG)

	const callers = 32
	var wg sync.WaitGroup
	errs := make(chan error, callers)
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds/callers; i++ {
				payload := fmt.Sprintf("g%d-i%d", g, i)
				reply, err := f.client.Trans(port, []byte(payload))
				if err != nil {
					errs <- fmt.Errorf("%s: %w", payload, err)
					return
				}
				if want := fmt.Sprintf("%d:%s", first, payload); string(reply) != want {
					errs <- fmt.Errorf("reply %q, want %q from the first server", reply, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	for payload, n := range executed {
		if n != 1 && payload != "warm" && payload != "bg" {
			t.Fatalf("%s executed %d times, want 1", payload, n)
		}
	}
}

// TestDupTableBoundsLiveEntries: acknowledged entries stop counting at
// once, so an old unacknowledged reply outlives any number of later
// acknowledged ones, and the table still holds at most maxDupEntries.
func TestDupTableBoundsLiveEntries(t *testing.T) {
	d := newDupTable()
	waiting := dupKey{src: 1, tx: 1}
	d.put(waiting, dupEntry{done: true, payload: []byte("reply")})
	for tx := uint64(2); tx < 10*maxDupEntries; tx++ {
		key := dupKey{src: 2, tx: tx}
		d.put(key, dupEntry{})
		d.put(key, dupEntry{done: true})
		delete(d.entries, key)
	}
	if e, ok := d.entries[waiting]; !ok || string(e.payload) != "reply" {
		t.Fatal("an unacknowledged reply was pushed out by acknowledged ones")
	}
	for tx := uint64(0); tx < maxDupEntries; tx++ {
		d.put(dupKey{src: 3, tx: tx}, dupEntry{})
	}
	if _, ok := d.entries[waiting]; ok {
		t.Fatal("the oldest live entry survived maxDupEntries newer live ones")
	}
	if len(d.entries) != maxDupEntries {
		t.Fatalf("%d live entries, want the bound %d", len(d.entries), maxDupEntries)
	}
}
