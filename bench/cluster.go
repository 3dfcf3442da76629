package main

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"time"

	faultdir "dirsvc"
	"dirsvc/internal/capability"
	"dirsvc/internal/dirclient"
	"dirsvc/internal/sim"
)

// Canonicalisation limits. A boot that has not converged within
// bootConverge heartbeats (3 s at the paper profile's 150 ms) is thrown
// away and counted, never measured. Without modelled latency about one
// boot in three never converges (ROADMAP item 1a), so bootTries is high
// enough that a run all of whose boots fail is a one-in-thousands event.
const (
	replicas     = 3
	bootConverge = 20
	bootTries    = 8
	pinnedTTL    = time.Hour
)

var bg = context.Background()

// nodeOf is the simulated host of replica r in a single-shard cluster:
// faultdir.New adds each machine's Bullet host and then its directory
// host, so directory server r sits on node 2r−1. bind asserts it against
// what the transport reports.
func nodeOf(r int) sim.NodeID { return sim.NodeID(2*r - 1) }

// setupTimes are the cluster.* metrics: what each canonicalisation step
// cost and how often it had to be repeated.
type setupTimes struct {
	bootS        float64
	bootAttempts int
	bindAttempts int
	populateS    float64
}

// testbed is a converged cluster with one client pinned to replica 1 (A)
// and one to replica 2 (B) over a populated namespace.
type testbed struct {
	w       *workload
	cluster *faultdir.Cluster
	pins    *pins
	clients [2]*dirclient.Client
	hosts   [2]sim.NodeID // the clients' own hosts, as pins knows them
	ns      *namespace
	times   setupTimes
}

// pins keeps every client on the replica it was bound to, for as long as
// the cluster lives: a pinned client's host hears that replica's host and
// no other. A cache TTL alone does not: a server whose three threads are
// all busy answers NOTHERE, the client evicts it and locates again, and the
// first HEREIS to arrive wins. In an open loop that happens whenever ops
// queue up (a group reset, a log append that waits), and it moved client B
// to replica 3 in 8 failover-wal runs of 28 — and once, before the crash,
// to replica 1, where its updates outlived the drain limit.
type pins struct {
	mu   sync.Mutex
	only map[sim.NodeID]sim.NodeID // client host → the replica host it hears
}

// pinned installs an empty pin table as the network's drop filter.
func pinned(c *faultdir.Cluster) *pins {
	p := &pins{only: make(map[sim.NodeID]sim.NodeID)}
	c.Net.SetDropFilter(p.drop)
	return p
}

func (p *pins) set(client, replica sim.NodeID) {
	p.mu.Lock()
	p.only[client] = replica
	p.mu.Unlock()
}

func (p *pins) drop(src, dst sim.NodeID, _ []byte) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	want, ok := p.only[dst]
	return ok && src != want
}

// namespace is the populated state every Lookup and the final List are
// checked against: dirs[d] holds names[n] → targets[d][n].
type namespace struct {
	dirs    []capability.Capability
	names   []string
	targets [][]capability.Capability
}

// target is the capability stored under name n of directory d. It is
// synthetic — rows store capabilities opaquely — and distinct per row so
// a Lookup answered from the wrong row cannot pass.
func target(d, n int) capability.Capability {
	return capability.Capability{
		Port:   capability.PortFromString("bench-target"),
		Object: uint32(d<<8 | n + 1),
		Rights: capability.AllRights,
		Check:  capability.Check{byte(d), byte(n), 'b', 'n', 'c', 'h'},
	}
}

// bootConverged boots the workload's cluster and waits until every
// replica reports a full view and is out of recovery. Boots that fail or
// do not converge (ROADMAP item 1a) are closed, counted and retried.
func bootConverged(w *workload) (*faultdir.Cluster, int, error) {
	var last error
	for attempt := 1; attempt <= bootTries; attempt++ {
		c, err := faultdir.New(w.kind, faultdir.Options{Model: w.model(), DiskEngine: w.engine, HeartbeatInterval: w.heartbeat})
		if err != nil {
			last = err
			continue
		}
		if waitConverged(c, bootConverge*w.heartbeatPeriod()) {
			return c, attempt, nil
		}
		last = errors.New("replicas did not reach a full view in time")
		c.Close()
	}
	return nil, bootTries, fmt.Errorf("boot %s: %d attempts: %w", w.name, bootTries, last)
}

// extraBoots is how many more clusters a run boots, and closes at once,
// after its own is closed: setup_s carries the mean of all 1+extraBoots
// boot times. Boot time comes in modes (1.0 or 2.2 s on the paper profile,
// 0.6 s per retry at scale 0.2), evenly enough that with one boot the
// median setup_s of ten runs sat in either, 20 % apart. The median of a
// run's boots would still sit in one mode or the other; their mean does not.
const extraBoots = 2

// meanBootS returns the mean boot time, in seconds, of the run's own boot
// and extraBoots more.
func meanBootS(w *workload, own float64) (float64, error) {
	sum := own
	for i := 0; i < extraBoots; i++ {
		start := time.Now()
		c, _, err := bootConverged(w)
		if err != nil {
			return 0, err
		}
		sum += time.Since(start).Seconds()
		c.Close()
	}
	return sum / (1 + extraBoots), nil
}

func waitConverged(c *faultdir.Cluster, limit time.Duration) bool {
	deadline := time.Now().Add(limit)
	for {
		if converged(c) {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func converged(c *faultdir.Cluster) bool {
	for r := 1; r <= replicas; r++ {
		st, ok := c.ShardServerStatus(0, r)
		if !ok || st.Recovering || st.Members != replicas {
			return false
		}
	}
	return true
}

// bind returns a new client pinned to replica r, and the client's host.
// A client sticks to whichever replica's HEREIS arrives first — at zero
// latency nearly always replica 1's, at paper latency any of the three —
// so the pin is set before the client first locates; the cache entry lives
// for pinnedTTL, so no re-locate happens mid-run unless the replica is
// evicted. The binding is then read back from the transport.
func bind(c *faultdir.Cluster, p *pins, r int) (*dirclient.Client, sim.NodeID, error) {
	cl, cleanup, err := c.NewClient()
	if err != nil {
		return nil, 0, err
	}
	nodes := c.Net.Nodes()
	self := nodes[len(nodes)-1].ID() // NewClient put the client on a fresh host
	p.set(self, nodeOf(r))
	cl.RPC().SetCacheTTL(pinnedTTL)
	_, err = cl.Root(bg)
	if err == nil && boundTo(cl) != nodeOf(r) {
		err = fmt.Errorf("transport reports node %d, want %d", boundTo(cl), nodeOf(r))
	}
	if err != nil {
		cleanup()
		return nil, 0, fmt.Errorf("bind to replica %d: %w", r, err)
	}
	return cl, self, nil
}

// boundTo is the node a client's transactions currently go to, or -1.
func boundTo(cl *dirclient.Client) sim.NodeID {
	if st := cl.ReplicaStats(0); len(st) > 0 {
		return st[0].Server
	}
	return -1
}

// populate creates the namespace, the two clients each building half of
// the directories.
func populate(w *workload, clients [2]*dirclient.Client) (*namespace, error) {
	ns := &namespace{
		dirs:    make([]capability.Capability, w.dirs),
		names:   make([]string, w.names),
		targets: make([][]capability.Capability, w.dirs),
	}
	for n := range ns.names {
		ns.names[n] = "n" + strconv.Itoa(n)
	}
	var wg sync.WaitGroup
	errs := make([]error, len(clients))
	for ci, cl := range clients {
		wg.Add(1)
		go func(ci int, cl *dirclient.Client) {
			defer wg.Done()
			lo, hi := ownDirs(w, ci)
			for d := lo; d < hi; d++ {
				dirCap, err := cl.CreateDir(bg)
				if err != nil {
					errs[ci] = fmt.Errorf("create dir %d: %w", d, err)
					return
				}
				ns.dirs[d] = dirCap
				ns.targets[d] = make([]capability.Capability, w.names)
				for n, name := range ns.names {
					ns.targets[d][n] = target(d, n)
					if err := cl.Append(bg, dirCap, name, ns.targets[d][n], nil); err != nil {
						errs[ci] = fmt.Errorf("append %d/%s: %w", d, name, err)
						return
					}
				}
			}
		}(ci, cl)
	}
	wg.Wait()
	return ns, errors.Join(errs...)
}

// ownDirs is the half of the directories client ci populates.
func ownDirs(w *workload, ci int) (lo, hi int) {
	half := w.dirs / 2
	return ci * half, (ci + 1) * half
}

// pairDirs is how many of its own directories a client's append-delete
// pairs go to, as temporary names go to a few directories in the paper's
// experiment. An NVRAM flush writes every directory dirtied since the
// last one (≈ 100 ms each at paper latency, every ≈ 165 pairs): spread
// over all 16 of a client's directories the flush took 3.4 s and 60 % of
// update-nvram's window; over 4 it takes the share the issue sized.
const pairDirs = 4

// newTestbed runs the whole canonicalisation up to, but not including,
// the warm-up: converged boot, two pinned clients, populated namespace.
func newTestbed(w *workload) (*testbed, error) {
	tb := &testbed{w: w}
	start := time.Now()
	c, attempts, err := bootConverged(w)
	tb.times.bootAttempts = attempts
	if err != nil {
		return nil, err
	}
	tb.cluster = c
	tb.times.bootS = time.Since(start).Seconds()

	tb.pins = pinned(c)
	for ci := range tb.clients {
		cl, host, err := bind(c, tb.pins, ci+1)
		tb.times.bindAttempts++
		if err != nil {
			c.Close()
			return nil, err
		}
		tb.clients[ci], tb.hosts[ci] = cl, host
	}

	start = time.Now()
	if tb.ns, err = populate(w, tb.clients); err != nil {
		c.Close()
		return nil, err
	}
	if w.engine {
		if err := c.CheckpointShard(0); err != nil {
			c.Close()
			return nil, fmt.Errorf("checkpoint after populate: %w", err)
		}
	}
	tb.times.populateS = time.Since(start).Seconds()
	return tb, nil
}

func (tb *testbed) close() { tb.cluster.Close() }
