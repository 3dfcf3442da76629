package faultdir

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"dirsvc/internal/capability"
	"dirsvc/internal/codec"
	"dirsvc/internal/dirclient"
	"dirsvc/internal/dirdata"
	"dirsvc/internal/dirsvc"
	"dirsvc/internal/sim"
	"dirsvc/internal/vdisk"
)

// Corrupting what a replica keeps on disk or in NVRAM. Every durable
// structure is a sealed frame (codec.Seal): a replica whose frame is torn
// by a power cut mid-write, or holds a flipped bit, either recovers from
// its peers and then serves what they serve, or refuses to boot with an
// error wrapping codec.ErrCorrupt. It never serves a directory that
// differs from its peers'.

// durable is one structure as the corruption test finds it: the magic
// that opens its frame, how far into a write the frame starts, whether
// it lives in NVRAM rather than on the disk, and the kinds that keep it.
type durable struct {
	name    string
	magic   string
	magicAt int // of the frame within a write: an NVRAM record's follows alive and seq
	nvram   bool
	kinds   []string
	// stored only kinds keep it without writing it again once booted,
	// so it can be flipped but not torn.
	storedOnly []string
	// cleared is a structure cleared once served: it holds a frame to
	// flip only if the power goes out right after it is written.
	cleared bool
}

var durables = []durable{
	{name: "commit block", magic: "CMT2", kinds: []string{"group", "group+nvram", "group+engine"}},
	{name: "object table", magic: "OBT1", kinds: []string{"group", "group+nvram", "rpc"}},
	{name: "bullet table", magic: "BLT2", kinds: []string{"group", "group+nvram", "rpc"}, storedOnly: []string{"group+engine"}},
	{name: "directory image", magic: "ADr2", kinds: []string{"group", "group+nvram", "rpc"}},
	{name: "nvram header", magic: "NVL3", nvram: true, kinds: []string{"group+nvram"}},
	{name: "nvram record", magic: "NVR3", magicAt: 9, nvram: true, kinds: []string{"group+nvram"}},
	{name: "engine manifest", magic: "ENG2", kinds: []string{"group+engine"}},
	{name: "engine log record", magic: "ELG2", kinds: []string{"group+engine"}},
	{name: "engine checkpoint", magic: "CKP2", kinds: []string{"group+engine"}},
	{name: "intention block", magic: "INT1", kinds: []string{"rpc"}, cleared: true},
}

// corruptAt names the frame offsets corrupted: in the header's magic and
// length, the body's first byte, and the frame's last byte (-1).
var corruptAt = []struct {
	name string
	at   int
}{{"header", 1}, {"length", 5}, {"payload", codec.Header}, {"last byte", -1}}

// corruptTarget is the replica corrupted; replica 1 is a peer, and in
// the group kinds replica 3 is restarted to make the others write their
// commit blocks.
const corruptTarget = 2

// TestCorruptStructureRecoversOrRefuses corrupts each durable structure
// on one replica, at each offset of corruptAt, by a torn write (a power
// cut part-way through the replica's next write of the structure, after
// which its disk and NVRAM take no more writes) and by a flipped stored
// bit (in every stored frame of the structure, on the crashed replica's
// own storage). It then reboots the replica with its peers up, for every
// kind that has the structure. Either the reboot fails with an error
// wrapping codec.ErrCorrupt, or the replica comes back and lists every
// directory exactly as a peer does.
func TestCorruptStructureRecoversOrRefuses(t *testing.T) {
	if testing.Short() {
		t.Skip("boots a cluster per case")
	}
	for _, st := range durables {
		for _, kind := range append(st.kinds, st.storedOnly...) {
			for _, mode := range []string{"torn", "flipped"} {
				if mode == "torn" && slices.Contains(st.storedOnly, kind) {
					continue
				}
				for _, off := range corruptAt {
					t.Run(fmt.Sprintf("%s/%s/%s/%s", st.name, kind, mode, off.name), func(t *testing.T) {
						corruptAndReboot(t, st, kind, mode == "torn", off.at)
					})
				}
			}
		}
	}
}

func corruptAndReboot(t *testing.T, st durable, kind string, torn bool, at int) {
	opts := Options{Model: sim.FastModel(), HeartbeatInterval: testHeartbeat, IdleFlush: 4 * testHeartbeat}
	k := KindGroup
	switch kind {
	case "group+nvram":
		k = KindGroupNVRAM
	case "group+engine":
		opts.DiskEngine = true
	case "rpc":
		k = KindRPC
	}
	c := bootCluster(t, k, opts)
	pins := &clientPins{only: make(map[sim.NodeID]sim.NodeID)}
	c.Net.SetDropFilter(pins.drop)
	// Updates initiated at the peer make the target store intentions
	// (rpc); those initiated at the target make it log at once (engine).
	clients := []*dirclient.Client{pinnedClient(t, c, pins, 1), pinnedClient(t, c, pins, corruptTarget)}
	root, err := clients[0].Root(bgCtx)
	if err != nil {
		t.Fatal(err)
	}
	dirs := []capability.Capability{root}
	// Once the power is cut, updates at the target fail: errors are
	// expected, and what the peers acknowledge is what is compared.
	update := func(round int) {
		for i, cl := range clients {
			ctx, cancel := context.WithTimeout(bgCtx, 2*time.Second)
			d, err := cl.CreateDir(ctx)
			if err == nil {
				dirs = append(dirs, d)
				_ = cl.Append(ctx, root, fmt.Sprintf("d%d-%d", round, i), d, nil)
				_ = cl.Append(ctx, d, "tmp", d, nil)
				_ = cl.Append(ctx, d, "kept", root, nil)
				_ = cl.Delete(ctx, d, "tmp")
			}
			cancel()
		}
	}
	update(0)

	m := c.machine(corruptTarget)
	cut := &powerCut{magic: [4]byte([]byte(st.magic)), magicAt: st.magicAt, at: at}
	if !torn {
		cut.at = 1 << 30 // the whole write is stored, then the power goes
	}
	if torn || st.cleared {
		m.disk.SetWriteHook(cut.hook)
		if m.nvram != nil {
			m.nvram.SetWriteHook(cut.hook)
		}
	}
	// Make every structure of the kind be written again: updates (Bullet
	// files, table blocks, log records, intentions), a checkpoint, an
	// idle NVRAM flush, and a view change (commit blocks).
	for round := 1; round <= 3; round++ {
		if cut.fired() || !torn && !st.cleared && round > 1 {
			break
		}
		update(round)
		if opts.DiskEngine {
			_ = c.CheckpointShard(0)
		}
		if k == KindGroupNVRAM {
			time.Sleep(3 * opts.IdleFlush)
		}
		if k != KindRPC {
			c.CrashServer(3)
			for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(testHeartbeat) {
				if status, ok := c.ShardServerStatus(0, 1); ok && status.Members == 2 {
					break
				}
			}
			if err := c.RestartServer(3); err != nil {
				t.Fatal(err)
			}
		}
	}
	if (torn || st.cleared) && !cut.fired() {
		t.Fatalf("%s never written", st.name)
	}

	c.CrashServer(corruptTarget)
	m.bulletNode.Crash()
	m.disk.SetWriteHook(nil)
	if m.nvram != nil {
		m.nvram.SetWriteHook(nil)
	}
	if !torn && flipStored(t, m, st, at) == 0 {
		t.Fatalf("no %s stored", st.name)
	}

	booted := make(chan error, 1)
	go func() { booted <- c.RestartServer(corruptTarget) }()
	select {
	case err = <-booted:
	case <-time.After(20 * time.Second):
		t.Fatalf("replica %d neither boots nor refuses", corruptTarget)
	}
	if err != nil {
		if !errors.Is(err, codec.ErrCorrupt) {
			t.Fatalf("reboot refused without a corrupt-storage error: %v", err)
		}
		t.Logf("refused: %v", err)
		return
	}
	var diff string
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(testHeartbeat) {
		if diff = differs(c, dirs); diff == "" {
			t.Log("recovered: lists every directory as replica 1 does")
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica %d serves another directory than replica 1: %s", corruptTarget, diff)
		}
	}
}

// powerCut tears the first write that holds a frame of its magic at its
// offset at, and stores nothing from then on: the power is out.
type powerCut struct {
	magic   [4]byte
	magicAt int
	at      int

	mu  sync.Mutex
	cut bool
}

func (p *powerCut) hook(_ int, data []byte) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	switch {
	case p.cut:
		return 0
	case len(data) < p.magicAt+codec.Header || [4]byte(data[p.magicAt:]) != p.magic:
		return len(data)
	}
	p.cut = true
	keep := p.magicAt + p.at
	if p.at < 0 {
		keep = p.magicAt + codec.FrameLen(data[p.magicAt:]) - 1
	}
	return min(keep, len(data))
}

func (p *powerCut) fired() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.cut
}

// flipStored flips one bit at offset at of every stored frame of st on
// machine m — a frame starts a disk block, or anywhere in NVRAM — through
// the device's own reads and writes, and returns how many it flipped.
func flipStored(t *testing.T, m *machine, st durable, at int) int {
	t.Helper()
	flipAt := func(frame []byte) int {
		if at < 0 {
			return codec.FrameLen(frame) - 1
		}
		return at
	}
	flipped := 0
	if st.nvram {
		img := m.nvram.Snapshot()
		for i := 0; ; i++ {
			j := bytes.Index(img[i:], []byte(st.magic))
			if j < 0 {
				break
			}
			i += j
			if off := i + flipAt(img[i:]); off < len(img) {
				img[off] ^= 0x10
				flipped++
			}
		}
		if err := m.nvram.Write(0, img); err != nil {
			t.Fatal(err)
		}
		return flipped
	}
	for b := 0; b < m.disk.Blocks(); b++ {
		blk, err := m.disk.ReadBlock(b)
		if err != nil {
			t.Fatal(err)
		}
		if string(blk[:4]) != st.magic {
			continue
		}
		off := b*vdisk.BlockSize + flipAt(blk)
		at, err := m.disk.ReadBlock(off / vdisk.BlockSize)
		if err != nil {
			continue // the claimed length runs off the disk
		}
		at[off%vdisk.BlockSize] ^= 0x10
		if err := m.disk.WriteBlock(off/vdisk.BlockSize, at); err != nil {
			t.Fatal(err)
		}
		flipped++
	}
	return flipped
}

// differs compares how the target and replica 1 list each directory,
// and describes the first difference ("" when there is none).
func differs(c *Cluster, dirs []capability.Capability) string {
	read := func(id int, d capability.Capability) string {
		m := c.machine(id)
		m.mu.Lock()
		rd := m.read
		m.mu.Unlock()
		if rd == nil {
			return "not serving"
		}
		reply := rd(&dirsvc.Request{Op: dirsvc.OpListDir, Dir: d})
		return fmt.Sprintf("%v %v", reply.Status, reply.Rows)
	}
	for _, d := range dirs {
		if want, got := read(1, d), read(corruptTarget, d); got != want {
			return fmt.Sprintf("directory %d: %s, replica 1 %s", d.Object, got, want)
		}
	}
	return ""
}

// TestCorruptReplicaAheadWaits: a replica whose checkpoint does not open
// may alone hold the latest updates, and must not take an older peer's
// state in its place. Server 3 misses an update that {1,2} make; 2
// crashes, 1 enters recovery (so its next boot advertises sequence
// number zero, §3) and crashes too; a bit of 2's checkpoint is flipped.
// Rebooted together, the three cover the last set {1,2} and 2 holds the
// highest sequence number: no replica may serve until 2's own state
// opens. Once the bit is flipped back, 2 loads it and every replica
// serves the update 3 missed.
func TestCorruptReplicaAheadWaits(t *testing.T) {
	if testing.Short() {
		t.Skip("waits out a stalled recovery")
	}
	opts := testOptions()
	opts.DiskEngine = true
	c := bootCluster(t, KindGroup, opts)
	client, cleanup, err := c.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup()
	root, _ := client.Root(bgCtx)
	dir, err := client.CreateDir(bgCtx)
	if err != nil {
		t.Fatal(err)
	}
	if err := client.Append(bgCtx, root, "f1", dir, nil); err != nil {
		t.Fatal(err)
	}
	c.CrashServer(3)
	appendWithRetry(t, client, root, "f2", dir, 30*time.Second) // 3 misses this
	time.Sleep(5 * testHeartbeat)                               // on 2's disk
	c.CrashServer(2)
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(testHeartbeat) {
		if st, ok := c.ShardServerStatus(0, 1); ok && st.Recovering {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("server 1 never entered recovery")
		}
	}
	time.Sleep(5 * testHeartbeat) // its recovering flag on its disk
	c.CrashServer(1)
	ckpt := durable{name: "engine checkpoint", magic: "CKP2"}
	if flipStored(t, c.machine(2), ckpt, codec.Header) == 0 {
		t.Fatal("no checkpoint stored")
	}

	booted := make(chan error, 3)
	for id := 1; id <= 3; id++ {
		go func() { booted <- c.RestartServer(id) }()
	}
	select {
	case err := <-booted:
		t.Fatalf("a replica booted (%v) while the freshest state does not open", err)
	case <-time.After(3 * time.Second):
	}
	flipStored(t, c.machine(2), ckpt, codec.Header) // the bit back
	for range 3 {
		select {
		case err := <-booted:
			if err != nil {
				t.Fatalf("restart: %v", err)
			}
		case <-time.After(30 * time.Second):
			t.Fatal("recovery did not finish once the checkpoint opened")
		}
	}
	for id := 1; id <= 3; id++ {
		m := c.machine(id)
		m.mu.Lock()
		rd := m.read
		m.mu.Unlock()
		reply := rd(&dirsvc.Request{Op: dirsvc.OpListDir, Dir: root})
		if !slices.ContainsFunc(reply.Rows, func(r dirdata.Row) bool { return r.Name == "f2" }) {
			t.Fatalf("replica %d lists %v without f2", id, reply.Rows)
		}
	}
}
