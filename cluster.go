// Package faultdir is the public facade of the fault-tolerant directory
// service reproduction: it assembles complete simulated clusters — group
// (triplicated, paper §3), group+NVRAM (§4.1), RPC-duplicated (§1), and
// an unreplicated SunOS/NFS-like baseline (§4.1) — and exposes clients
// and fault injection (crashes, restarts, partitions).
//
// Every cluster follows the paper's Fig. 3 machine layout: each directory
// server has its own Bullet file server, and the two share one physical
// disk (the admin partition for the commit block and object table, the
// rest for Bullet files).
//
// A cluster may be sharded (Options.Shards): the directory object space
// is partitioned across G independent replica groups, each a full
// N-replica instance of the paper's protocol with its own commit block,
// object table, NVRAM log, group stream, and recovery. Requests route to
// the shard owning the directory's object number (dir.ShardOf); faults
// are per shard — losing a majority in one shard leaves every other
// shard serving.
package faultdir

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"dirsvc/dir"
	"dirsvc/internal/bullet"
	"dirsvc/internal/capability"
	"dirsvc/internal/core"
	"dirsvc/internal/dirclient"
	"dirsvc/internal/dirsvc"
	"dirsvc/internal/flip"
	"dirsvc/internal/localdir"
	"dirsvc/internal/rpc"
	"dirsvc/internal/rpcdir"
	"dirsvc/internal/sim"
	"dirsvc/internal/vdisk"
)

// Kind selects the directory service implementation.
type Kind int

// The four configurations of the paper's Fig. 7.
const (
	KindGroup      Kind = iota + 1 // triplicated, group communication (§3)
	KindGroupNVRAM                 // group communication + NVRAM log (§4.1)
	KindRPC                        // duplicated, RPC + intentions (§1)
	KindLocal                      // unreplicated SunOS/NFS-like baseline
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindGroup:
		return "group"
	case KindGroupNVRAM:
		return "group+nvram"
	case KindRPC:
		return "rpc"
	case KindLocal:
		return "local"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Servers returns the replication degree the paper used for this kind.
func (k Kind) Servers() int {
	switch k {
	case KindGroup, KindGroupNVRAM:
		return 3
	case KindRPC:
		return 2
	default:
		return 1
	}
}

// Options tune cluster construction.
type Options struct {
	// Model is the latency model (default sim.FastModel; benchmarks use
	// sim.PaperModel).
	Model *sim.LatencyModel
	// Servers overrides the per-shard replication degree (0 → the
	// paper's).
	Servers int
	// Shards is the number of independent replica groups the directory
	// object space is partitioned across (default 1 — the paper's single
	// service). Each shard is a complete N-replica instance of the
	// protocol; shard s owns the object numbers ≡ s+1 (mod Shards).
	Shards int
	// ActiveShards is the number of shards serving traffic at epoch zero;
	// the remaining Shards-ActiveShards groups are booted as reserve
	// targets for online splits (dirclient.Client.SplitAndMigrate). Zero
	// means all Shards are active — the pre-elastic behavior.
	ActiveShards int
	// Workers is the number of server threads per directory server.
	Workers int
	// DiskBlocks sizes each machine's disk (default 4096).
	DiskBlocks int
	// Seed drives loss injection in the simulated network.
	Seed int64
	// HeartbeatInterval tunes failure detection (tests).
	HeartbeatInterval time.Duration
	// DisableImprovement switches off the §3.2 recovery refinement.
	DisableImprovement bool
	// NVRAMSize sizes the NVRAM region (default 24 KB, as in §4.1).
	NVRAMSize int
	// DiskEngine puts the disk-backed storage engine under KindGroup:
	// each replica carves an engine partition (checkpoints + a write-ahead
	// log) from its disk, applies go to RAM with the log as the
	// critical-path durability, and recovery is checkpoint + log suffix
	// instead of a full replay. This also closes the whole-shard-crash 2PC
	// window (prepares and decides hit the log before the reply). New
	// rejects it on KindGroupNVRAM, whose NVRAM log is that kind's
	// critical-path durability; the RPC and local kinds ignore it.
	DiskEngine bool
	// EngineBlocks sizes each replica's engine partition when DiskEngine
	// is set (default DiskBlocks/4).
	EngineBlocks int
	// IdleFlush tunes the NVRAM flush idle threshold.
	IdleFlush time.Duration
	// ClientCache configures the read cache of every client the cluster
	// creates (NewClient). The zero value — cache off — is the paper's
	// original client behavior. See dir.CacheOptions.
	ClientCache dir.CacheOptions
	// ReadBalance makes every client the cluster creates spread its
	// reads across all replicas of a shard (session-consistent via
	// Request.MinSeq) instead of pinning to the first HEREIS responder.
	// Off — the default — preserves the paper's §4.2 selection heuristic
	// and Fig. 8's load skew.
	ReadBalance bool
	// LeaseTTL bounds a client's watch/cache lease without renewal
	// (tests shrink it). Zero means a model-scaled default.
	LeaseTTL time.Duration
	// EventLogSize bounds each server's event log — the window of
	// committed updates replayable to reconnecting watchers (tests
	// shrink it to force resyncs). Zero means the dirsvc default.
	EventLogSize int
}

// adminBlocks is the admin partition size: commit block + object table.
const adminBlocks = 1 + 16

// machine is one replica's hardware: a directory server host and a
// Bullet server host sharing one disk.
type machine struct {
	id          int
	disk        *vdisk.Disk
	admin       *vdisk.Partition
	staging     *vdisk.Partition
	enginePart  *vdisk.Partition // storage engine region (Options.DiskEngine)
	bulletPart  *vdisk.Partition
	nvram       *vdisk.NVRAM
	dirNode     *sim.Node
	dirStack    *flip.Stack
	bulletNode  *sim.Node
	bulletStack *flip.Stack
	bulletSrv   *bullet.Server

	mu    sync.Mutex
	stop  func()           // closes the directory server process
	core  *core.Server     // set for group kinds (admin operations)
	front *dirsvc.FrontEnd // the running server's request pipeline
	// read serves one read at the server below the transport (group and
	// RPC kinds; tests interrogate one specific server with it).
	read func(*dirsvc.Request) *dirsvc.Reply
}

// shardGroup is one independent replica group: a full instance of the
// paper's service owning one residue class of the object-number space.
type shardGroup struct {
	index    int
	service  string // shard-local service name (ports derive from it)
	machines []*machine
}

// Cluster is a complete simulated deployment of one directory service.
type Cluster struct {
	Kind    Kind
	Net     *sim.Network
	Service string

	opts   Options
	shards []*shardGroup

	mu      sync.Mutex
	clients []func()
}

// clusterSeq numbers the clusters of this process: each gets its own
// service name, so their ports never collide.
var clusterSeq atomic.Int64

// New builds and boots a cluster of the given kind.
func New(kind Kind, opts Options) (*Cluster, error) {
	if kind == KindGroupNVRAM && opts.DiskEngine {
		return nil, errors.New("faultdir: DiskEngine needs KindGroup; KindGroupNVRAM keeps its NVRAM log")
	}
	if opts.Model == nil {
		opts.Model = sim.FastModel()
	}
	if opts.Servers == 0 {
		opts.Servers = kind.Servers()
	}
	if opts.Shards < 1 {
		opts.Shards = 1
	}
	if opts.DiskBlocks == 0 {
		opts.DiskBlocks = 4096
	}
	if opts.NVRAMSize == 0 {
		opts.NVRAMSize = vdisk.DefaultNVRAMSize
	}
	c := &Cluster{
		Kind:    kind,
		Net:     sim.NewNetwork(opts.Model, opts.Seed),
		Service: fmt.Sprintf("%s-%d", kind, clusterSeq.Add(1)),
		opts:    opts,
	}

	n := opts.Servers
	for s := 0; s < opts.Shards; s++ {
		sg := &shardGroup{
			index:   s,
			service: dirsvc.ShardService(c.Service, s, opts.Shards),
		}
		c.shards = append(c.shards, sg)
		for i := 1; i <= n; i++ {
			m, err := c.buildMachine(sg, i)
			if err != nil {
				c.Close()
				return nil, err
			}
			sg.machines = append(sg.machines, m)
		}
	}
	// Format every Bullet store at once: each machine has its own disk.
	formatted := make([]error, opts.Shards*n)
	var wg sync.WaitGroup
	for s, sg := range c.shards {
		for i, m := range sg.machines {
			wg.Add(1)
			go func() {
				defer wg.Done()
				formatted[s*n+i] = c.startBullet(sg, m, bullet.NewStore)
			}()
		}
	}
	wg.Wait()
	if err := errors.Join(formatted...); err != nil {
		c.Close()
		return nil, err
	}

	// Boot every directory server of every shard concurrently: each
	// group service's recovery protocol needs a majority to assemble.
	errs := make(chan error, opts.Shards*n)
	total := 0
	for _, sg := range c.shards {
		for _, m := range sg.machines {
			total++
			go func(sg *shardGroup, m *machine) { errs <- c.bootServer(sg, m) }(sg, m)
		}
	}
	for i := 0; i < total; i++ {
		if err := <-errs; err != nil {
			c.Close()
			return nil, err
		}
	}
	return c, nil
}

// engineEnabled reports whether this deployment carves storage-engine
// partitions (KindGroup only; the RPC and local kinds keep their
// intention/write-through durability).
func (c *Cluster) engineEnabled() bool {
	return c.opts.DiskEngine && c.Kind == KindGroup
}

// Shards returns the number of replica groups in the deployment.
func (c *Cluster) Shards() int { return len(c.shards) }

// ServersPerShard returns the replication degree of each shard.
func (c *Cluster) ServersPerShard() int { return c.opts.Servers }

// nodeName labels a simulated host; single-shard deployments keep the
// historical names.
func (c *Cluster) nodeName(prefix string, shard, id int) string {
	if c.opts.Shards <= 1 {
		return fmt.Sprintf("%s-%d", prefix, id)
	}
	return fmt.Sprintf("%s-s%d-%d", prefix, shard, id)
}

// buildMachine creates the hardware and the Bullet server of replica id
// of one shard.
func (c *Cluster) buildMachine(sg *shardGroup, id int) (*machine, error) {
	m := &machine{id: id}
	m.disk = vdisk.New(c.opts.Model, c.opts.DiskBlocks)
	var err error
	if m.admin, err = vdisk.NewPartition(m.disk, 0, adminBlocks); err != nil {
		return nil, err
	}
	if m.staging, err = vdisk.NewPartition(m.disk, adminBlocks, 1); err != nil {
		return nil, err
	}
	bulletStart := adminBlocks + 1
	if c.engineEnabled() {
		engBlocks := c.opts.EngineBlocks
		if engBlocks <= 0 {
			engBlocks = c.opts.DiskBlocks / 4
		}
		if m.enginePart, err = vdisk.NewPartition(m.disk, bulletStart, engBlocks); err != nil {
			return nil, err
		}
		bulletStart += engBlocks
	}
	if m.bulletPart, err = vdisk.NewPartition(m.disk, bulletStart, c.opts.DiskBlocks-bulletStart); err != nil {
		return nil, err
	}
	if c.Kind == KindGroupNVRAM {
		m.nvram = vdisk.NewNVRAM(c.opts.Model, c.opts.NVRAMSize)
	}

	m.bulletNode = c.Net.AddNode(c.nodeName("bullet", sg.index, id))
	m.dirNode = c.Net.AddNode(c.nodeName("dir", sg.index, id))
	return m, nil
}

// startBullet serves m's Bullet store on a fresh stack, formatted
// (bullet.NewStore) or reopened from its partition (bullet.OpenStore).
func (c *Cluster) startBullet(sg *shardGroup, m *machine, open func(capability.Port, vdisk.Storage) (*bullet.Store, error)) error {
	m.bulletStack = flip.NewStack(m.bulletNode)
	store, err := open(dirsvc.BulletPort(sg.service, m.id), m.bulletPart)
	if err != nil {
		return err
	}
	m.bulletSrv, err = bullet.NewServer(m.bulletStack, store, 2,
		dirsvc.BulletPort(sg.service, m.id), dirsvc.PublicBulletPort(sg.service))
	return err
}

// bootServer starts the directory server process on machine m of shard sg.
func (c *Cluster) bootServer(sg *shardGroup, m *machine) error {
	m.dirStack = flip.NewStack(m.dirNode)
	front := c.frontConfig(sg, m.admin)
	front.ServerID = m.id
	switch c.Kind {
	case KindGroup, KindGroupNVRAM:
		peers := make(map[int]sim.NodeID, len(sg.machines))
		for _, mm := range sg.machines {
			peers[mm.id] = mm.dirNode.ID()
		}
		var engine vdisk.Storage // the server opens it beside group formation
		if m.enginePart != nil {
			engine = m.enginePart
		}
		front.Replicas = c.opts.Servers
		srv, err := core.NewServer(m.dirStack, core.Config{
			FrontConfig:        front,
			Peers:              peers,
			NVRAM:              m.nvram,
			Engine:             engine,
			DisableImprovement: c.opts.DisableImprovement,
			HeartbeatInterval:  c.opts.HeartbeatInterval,
			IdleFlush:          c.opts.IdleFlush,
		})
		if err != nil {
			return fmt.Errorf("boot group server %d (shard %d): %w", m.id, sg.index, err)
		}
		m.mu.Lock()
		m.stop = srv.Close
		m.core = srv
		m.read = srv.Read
		m.front = srv.Front()
		m.mu.Unlock()
	case KindRPC:
		srv, err := rpcdir.NewServer(m.dirStack, rpcdir.Config{FrontConfig: front, Staging: m.staging})
		if err != nil {
			return fmt.Errorf("boot rpc server %d (shard %d): %w", m.id, sg.index, err)
		}
		m.mu.Lock()
		m.stop = srv.Close
		m.read = srv.Read
		m.front = srv.Front()
		m.mu.Unlock()
	case KindLocal:
		srv, err := localdir.NewServer(m.dirStack, localdir.Config{FrontConfig: front})
		if err != nil {
			return fmt.Errorf("boot local server (shard %d): %w", sg.index, err)
		}
		m.mu.Lock()
		m.stop = srv.Close
		m.front = srv.Front()
		m.mu.Unlock()
	default:
		return errors.New("faultdir: unknown cluster kind")
	}
	return nil
}

// frontConfig is what every server kind of shard sg is told about its
// place in the deployment and its pipeline sizing.
func (c *Cluster) frontConfig(sg *shardGroup, admin vdisk.Storage) dirsvc.FrontConfig {
	return dirsvc.FrontConfig{
		Service:      sg.service,
		BaseService:  c.Service,
		Shard:        sg.index,
		Shards:       c.opts.Shards,
		ActiveShards: c.opts.ActiveShards,
		Admin:        admin,
		Workers:      c.opts.Workers,
		LeaseTTL:     c.opts.LeaseTTL,
		EventLogSize: c.opts.EventLogSize,
	}
}

// SetTxHook installs fn on the front end of every directory server that
// has booted (dirsvc.FrontEnd.SetTxHook), told the server's shard and
// id; a server booted later starts without it. A server's shutdown waits
// for its hooks, so a hook that crashes its own server does so from
// another goroutine, and halts. A nil fn removes the hook.
func (c *Cluster) SetTxHook(fn func(shard, server int, stage dirsvc.TxStage) (halt bool)) {
	for _, sg := range c.shards {
		for _, m := range sg.machines {
			m.mu.Lock()
			if shard, id := sg.index, m.id; m.front != nil {
				m.front.SetTxHook(func(stage dirsvc.TxStage) bool { return fn != nil && fn(shard, id, stage) })
			}
			m.mu.Unlock()
		}
	}
}

// NewClient creates a directory client on a fresh client host, routing
// across every shard of the deployment, with the read cache configured
// by Options.ClientCache. The returned cleanup releases the client's
// resources.
func (c *Cluster) NewClient() (*dirclient.Client, func(), error) {
	return c.NewCachedClient(c.opts.ClientCache)
}

// NewCachedClient creates a directory client with an explicit read-cache
// configuration, overriding Options.ClientCache (see dir.CacheOptions;
// the zero value disables the cache). Read balancing follows
// Options.ReadBalance.
func (c *Cluster) NewCachedClient(opts dir.CacheOptions) (*dirclient.Client, func(), error) {
	return c.NewBalancedClient(opts, c.opts.ReadBalance)
}

// NewBalancedClient creates a directory client with explicit read-cache
// and read-balancing configuration, overriding the cluster options.
func (c *Cluster) NewBalancedClient(cache dir.CacheOptions, balance bool) (*dirclient.Client, func(), error) {
	stack := flip.NewStack(c.Net.AddNode("client"))
	client, err := dirclient.NewWithOptions(stack, c.Service, dirclient.Options{
		Shards:       c.opts.Shards,
		ActiveShards: c.opts.ActiveShards,
		Cache:        cache,
		ReadBalance:  balance,
	})
	if err != nil {
		stack.Close()
		return nil, nil, err
	}
	cleanup := func() {
		client.Close()
		stack.Close()
	}
	c.mu.Lock()
	c.clients = append(c.clients, cleanup)
	c.mu.Unlock()
	return client, cleanup, nil
}

// NewFileClient creates a Bullet client on the public file-service port
// (the paper's tmp-file workload), sharing the directory client's host.
// Files are served by shard 0's Bullet servers; file storage is not
// sharded.
func (c *Cluster) NewFileClient(dc *dirclient.Client) *bullet.Client {
	return bullet.NewClient(dc.RPC(), dirsvc.PublicBulletPort(c.Service))
}

// CheckpointShard forces a synchronous storage-engine checkpoint on
// every live replica of one shard (tests, tools and benchmarks; the
// background flush loop cuts checkpoints on its own), all at once: each
// replica writes its own disk. It returns every replica's error. A no-op
// for deployments without Options.DiskEngine.
func (c *Cluster) CheckpointShard(shard int) error {
	machines := c.shard(shard).machines
	errs := make([]error, len(machines))
	var wg sync.WaitGroup
	for i, m := range machines {
		m.mu.Lock()
		srv := m.core
		if m.stop == nil {
			srv = nil // crashed: its engine partition stays as-is
		}
		m.mu.Unlock()
		if srv == nil {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := srv.Checkpoint(); err != nil {
				errs[i] = fmt.Errorf("checkpoint server %d (shard %d): %w", m.id, shard, err)
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// ShardServerStatus returns a group server's status snapshot —
// including the storage-engine fields when Options.DiskEngine is set.
// ok is false for crashed servers and for kinds without a core server.
func (c *Cluster) ShardServerStatus(shard, id int) (core.Status, bool) {
	m := c.shardMachine(shard, id)
	m.mu.Lock()
	srv := m.core
	if m.stop == nil {
		srv = nil
	}
	m.mu.Unlock()
	if srv == nil {
		return core.Status{}, false
	}
	return srv.Status(), true
}

// NewRawClient returns an RPC client on a fresh host (wire-level tests).
func (c *Cluster) NewRawClient() (*rpc.Client, func(), error) {
	stack := flip.NewStack(c.Net.AddNode("client"))
	rc, err := rpc.NewClient(stack)
	if err != nil {
		stack.Close()
		return nil, nil, err
	}
	cleanup := func() {
		rc.Close()
		stack.Close()
	}
	c.mu.Lock()
	c.clients = append(c.clients, cleanup)
	c.mu.Unlock()
	return rc, cleanup, nil
}

// CrashServer fail-stops directory server id of shard 0 (its Bullet
// server and disk keep running, per the paper's separate-machine
// layout).
func (c *Cluster) CrashServer(id int) { c.CrashShardServer(0, id) }

// CrashShardServer fail-stops directory server id of the given shard.
func (c *Cluster) CrashShardServer(shard, id int) {
	m := c.shardMachine(shard, id)
	m.mu.Lock()
	stop := m.stop
	m.stop = nil
	m.mu.Unlock()
	m.dirNode.Crash()
	if stop != nil {
		stop()
	}
}

// RestartServer reboots directory server id of shard 0 from its
// surviving disk (and NVRAM). For the group service this runs the
// Fig. 6 recovery protocol before the server accepts requests again.
func (c *Cluster) RestartServer(id int) error { return c.RestartShardServer(0, id) }

// RestartShardServer reboots directory server id of the given shard. A
// server still running is crashed first: left running, it would share
// its disk with the new incarnation and heartbeat for its old group.
func (c *Cluster) RestartShardServer(shard, id int) error {
	sg := c.shard(shard)
	m := c.shardMachine(shard, id)
	if !m.dirNode.Crashed() {
		c.CrashShardServer(shard, id)
	}
	if m.bulletNode.Crashed() {
		if err := c.restartBullet(sg, m); err != nil {
			return err
		}
	}
	m.dirNode.Restart()
	return c.bootServer(sg, m)
}

func (c *Cluster) restartBullet(sg *shardGroup, m *machine) error {
	m.bulletNode.Restart()
	return c.startBullet(sg, m, bullet.OpenStore)
}

// PartitionServers splits the network: the shard-0 machines (directory +
// Bullet hosts) of the given server ids on one side, everything else —
// other replicas and all clients — on the other.
func (c *Cluster) PartitionServers(ids ...int) { c.PartitionShardServers(0, ids...) }

// PartitionShardServers splits the network with the given servers of one
// shard on the minority side.
func (c *Cluster) PartitionShardServers(shard int, ids ...int) {
	inGroup := make(map[int]bool, len(ids))
	for _, id := range ids {
		inGroup[id] = true
	}
	var side, rest []sim.NodeID
	taken := make(map[sim.NodeID]bool)
	for _, m := range c.shard(shard).machines {
		if inGroup[m.id] {
			side = append(side, m.dirNode.ID(), m.bulletNode.ID())
			taken[m.dirNode.ID()] = true
			taken[m.bulletNode.ID()] = true
		}
	}
	for _, nd := range c.Net.Nodes() {
		if !taken[nd.ID()] {
			rest = append(rest, nd.ID())
		}
	}
	c.Net.Partition(side, rest)
}

// Heal removes any partition.
func (c *Cluster) Heal() { c.Net.Heal() }

// ForceRecover invokes the administrator escape hatch on a group
// directory server of shard 0 (§3.1): it will serve — and recover —
// without a majority, abandoning the partition guarantee. Only valid for
// group cluster kinds.
func (c *Cluster) ForceRecover(id int) error { return c.ForceRecoverShard(0, id) }

// ForceRecoverShard invokes ForceRecover on a server of the given shard.
func (c *Cluster) ForceRecoverShard(shard, id int) error {
	m := c.shardMachine(shard, id)
	m.mu.Lock()
	srv := m.core
	m.mu.Unlock()
	if srv == nil {
		return fmt.Errorf("faultdir: server %d of shard %d is not a group directory server", id, shard)
	}
	srv.ForceRecover()
	return nil
}

// GroupSends returns the total number of write-path group broadcasts the
// cluster's directory servers have issued so far, summed over every
// shard. Zero for non-group kinds. Batching and coalescing make this
// grow far slower than the update count.
func (c *Cluster) GroupSends() uint64 {
	var total uint64
	for _, sg := range c.shards {
		for _, m := range sg.machines {
			m.mu.Lock()
			srv := m.core
			m.mu.Unlock()
			if srv != nil {
				total += srv.GroupSends()
			}
		}
	}
	return total
}

// ShardReadCounts returns the number of read operations each replica of
// one shard has served, keyed by server id — the per-server load
// distribution behind Fig. 8 and the read-balancing experiments. Only
// group-kind replicas count reads; other kinds yield an empty map.
func (c *Cluster) ShardReadCounts(shard int) map[int]uint64 {
	out := make(map[int]uint64)
	for _, m := range c.shard(shard).machines {
		m.mu.Lock()
		srv := m.core
		m.mu.Unlock()
		if srv != nil {
			out[m.id] = srv.ReadsServed()
		}
	}
	return out
}

// DiskStats returns the disk statistics of replica id of shard 0.
func (c *Cluster) DiskStats(id int) vdisk.Stats { return c.shardMachine(0, id).disk.Stats() }

// ShardDiskStats returns the disk statistics of replica id of a shard.
func (c *Cluster) ShardDiskStats(shard, id int) vdisk.Stats {
	return c.shardMachine(shard, id).disk.Stats()
}

func (c *Cluster) shard(s int) *shardGroup {
	if s < 0 || s >= len(c.shards) {
		panic(fmt.Sprintf("faultdir: no shard %d", s))
	}
	return c.shards[s]
}

// machine returns replica id of shard 0 (tests).
func (c *Cluster) machine(id int) *machine { return c.shardMachine(0, id) }

func (c *Cluster) shardMachine(shard, id int) *machine {
	for _, m := range c.shard(shard).machines {
		if m.id == id {
			return m
		}
	}
	panic(fmt.Sprintf("faultdir: no machine %d in shard %d", id, shard))
}

// Close tears the whole cluster down.
func (c *Cluster) Close() {
	c.mu.Lock()
	clients := c.clients
	c.clients = nil
	c.mu.Unlock()
	for _, cleanup := range clients {
		cleanup()
	}
	for _, sg := range c.shards {
		for _, m := range sg.machines {
			m.mu.Lock()
			stop := m.stop
			m.stop = nil
			m.mu.Unlock()
			if stop != nil {
				stop()
			}
			if m.dirStack != nil {
				m.dirStack.Close()
			}
			if m.bulletSrv != nil {
				m.bulletSrv.Close()
			}
			if m.bulletStack != nil {
				m.bulletStack.Close()
			}
		}
	}
}
