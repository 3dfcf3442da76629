// Command dird runs a complete simulated directory-service cluster and
// offers an interactive shell for poking at it: directory operations,
// server crashes, restarts and network partitions — a fault-tolerance
// playground for the paper's protocols.
//
// Usage:
//
//	dird [-kind group|group+nvram|rpc|local] [-scale 0.01] [-shards 4] [-active 2] [-cache] [-leases] [-read-balance] [-engine]
//
// With -cache the shell's client runs the per-shard read cache
// (dir.CacheOptions): repeat ls/cat lookups are served locally and the
// status command shows the hit/miss/invalidation counters. -leases
// (implies -cache) switches the cache to push-based coherence: the
// client holds a watch lease per shard and servers push per-object
// invalidations as updates commit. With -read-balance the client
// spreads its reads across every replica of a shard
// (session-consistent via the MinSeq floor) instead of pinning to the
// first HEREIS responder; status then shows how many reads each
// replica served. With -engine (-kind group only) every replica runs the
// disk-backed storage engine — checkpoints plus a write-ahead log
// instead of per-update object-table writes; status then shows each
// server's checkpoint seq and log length, and the checkpoint command
// cuts a checkpoint by hand.
//
// Commands (type "help" at the prompt):
//
//	ls [name]              list a directory (default: root)
//	mkdir <name> [shard]   create a directory (optionally pinned to a shard) and register it
//	rm <name>              delete a row
//	put <name>             register a fresh 4-byte file
//	cat <name>             read a registered file
//	watch [name|*]         tail committed updates in the background as they
//	                       arrive (default *: every shard's full stream)
//	unwatch                stop the tail
//	crash <id> | restart <id> | partition <id...> | heal
//	                       (sharded: address servers as <shard>/<id>)
//	checkpoint [shard]     cut a storage-engine checkpoint (default: all shards)
//	split                  online shard split: bump the shard-map epoch and
//	                       live-migrate the departing objects (boot with
//	                       -active < -shards to have reserve shards)
//	status                 per-server status, per shard, including the
//	                       shard-map epoch and per-shard object counts
//	quit
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	faultdir "dirsvc"

	"dirsvc/dir"
	"dirsvc/internal/dirsvc"
	"dirsvc/internal/sim"
)

// bgCtx is the unbounded context used where no deadline applies.
var bgCtx = context.Background()

func main() {
	var (
		kindName = flag.String("kind", "group", "group | group+nvram | rpc | local")
		scale    = flag.Float64("scale", 0.01, "hardware latency scale (1.0 = paper speed)")
		shards   = flag.Int("shards", 1, "number of independent replica groups")
		active   = flag.Int("active", 0, "shards active at epoch 0; the rest are split reserves (0 = all)")
		cache    = flag.Bool("cache", false, "enable the client read cache")
		leases   = flag.Bool("leases", false, "push-based cache coherence (implies -cache)")
		balance  = flag.Bool("read-balance", false, "spread reads across all replicas of a shard")
		engine   = flag.Bool("engine", false, "disk-backed storage engine: checkpoints + write-ahead log (-kind group only)")
	)
	flag.Parse()
	if err := run(*kindName, *scale, *shards, *active, *cache || *leases, *leases, *balance, *engine); err != nil {
		fmt.Fprintln(os.Stderr, "dird:", err)
		os.Exit(1)
	}
}

// parseServer parses "<id>" (shard 0) or "<shard>/<id>".
func parseServer(arg string, shards, servers int) (shard, id int, err error) {
	idPart := arg
	if head, tail, found := strings.Cut(arg, "/"); found {
		if shard, err = strconv.Atoi(head); err != nil || shard < 0 || shard >= shards {
			return 0, 0, fmt.Errorf("bad shard %q", head)
		}
		idPart = tail
	}
	if id, err = strconv.Atoi(idPart); err != nil || id < 1 || id > servers {
		return 0, 0, fmt.Errorf("bad server id %q", idPart)
	}
	return shard, id, nil
}

func parseKind(name string) (faultdir.Kind, error) {
	switch name {
	case "group":
		return faultdir.KindGroup, nil
	case "group+nvram", "nvram":
		return faultdir.KindGroupNVRAM, nil
	case "rpc":
		return faultdir.KindRPC, nil
	case "local", "nfs":
		return faultdir.KindLocal, nil
	default:
		return 0, fmt.Errorf("unknown kind %q", name)
	}
}

func run(kindName string, scale float64, shards, active int, cache, leases, balance, engine bool) error {
	kind, err := parseKind(kindName)
	if err != nil {
		return err
	}
	if shards < 1 {
		shards = 1
	}
	if active < 0 || active > shards {
		return fmt.Errorf("-active must be in 0..%d", shards)
	}
	if engine && kind != faultdir.KindGroup {
		return fmt.Errorf("-engine needs -kind group, not %q", kindName)
	}
	fmt.Printf("booting %v cluster (%d shard(s) × %d servers, scale %g, cache %v, leases %v, read-balance %v, engine %v)...\n",
		kind, shards, kind.Servers(), scale, cache, leases, balance, engine)
	cluster, err := faultdir.New(kind, faultdir.Options{
		Model:        sim.ScaledPaperModel(scale),
		Shards:       shards,
		ActiveShards: active,
		ClientCache:  dir.CacheOptions{Enabled: cache, Leases: leases},
		ReadBalance:  balance,
		DiskEngine:   engine,
	})
	if err != nil {
		return err
	}
	defer cluster.Close()

	client, cleanup, err := cluster.NewClient()
	if err != nil {
		return err
	}
	defer cleanup()
	root, err := client.Root(bgCtx)
	if err != nil {
		return fmt.Errorf("fetch root: %w", err)
	}
	files := cluster.NewFileClient(client)
	stopWatch := func() {} // cancels the active "watch" tail, if any
	defer func() { stopWatch() }()
	fmt.Println("ready. type \"help\".")

	sc := bufio.NewScanner(os.Stdin)
	for fmt.Print("dird> "); sc.Scan(); fmt.Print("dird> ") {
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 {
			continue
		}
		cmd, args := fields[0], fields[1:]
		switch cmd {
		case "quit", "exit":
			return nil
		case "help":
			fmt.Println("ls [name] | mkdir <name> [shard] | rm <name> | put <name> | cat <name>")
			fmt.Println("watch [name|*] | unwatch | crash <id> | restart <id> | partition <id...> | heal | split | status | quit")
			if engine {
				fmt.Println("engine: checkpoint [shard]")
			}
			if cluster.Shards() > 1 {
				fmt.Println("sharded: address servers as <shard>/<id>, e.g. crash 2/1")
			}
		case "ls":
			dir := root
			if len(args) == 1 {
				c, err := client.Lookup(bgCtx, root, args[0])
				if err != nil {
					fmt.Println("error:", err)
					continue
				}
				dir = c
			}
			rows, err := client.List(bgCtx, dir, 0)
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			for _, r := range rows {
				fmt.Printf("%-24s %v\n", r.Name, r.Cap)
			}
			fmt.Printf("(%d rows)\n", len(rows))
		case "mkdir":
			if len(args) != 1 && len(args) != 2 {
				fmt.Println("usage: mkdir <name> [shard]")
				continue
			}
			newDir := client.CreateDir
			if len(args) == 2 {
				shard, cerr := strconv.Atoi(args[1])
				if cerr != nil || shard < 0 || shard >= cluster.Shards() {
					fmt.Println("bad shard", args[1])
					continue
				}
				newDir = func(ctx context.Context, columns ...string) (dir.Capability, error) {
					return client.CreateDirOn(ctx, shard, columns...)
				}
			}
			d, err := newDir(bgCtx)
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			if err := client.Append(bgCtx, root, args[0], d, nil); err != nil {
				fmt.Println("error:", err)
			}
		case "rm":
			if len(args) != 1 {
				fmt.Println("usage: rm <name>")
				continue
			}
			if err := client.Delete(bgCtx, root, args[0]); err != nil {
				fmt.Println("error:", err)
			}
		case "put":
			if len(args) != 1 {
				fmt.Println("usage: put <name>")
				continue
			}
			fcap, err := files.Create([]byte(args[0]))
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			if err := client.Append(bgCtx, root, args[0], fcap, nil); err != nil {
				fmt.Println("error:", err)
			}
		case "cat":
			if len(args) != 1 {
				fmt.Println("usage: cat <name>")
				continue
			}
			fcap, err := client.Lookup(bgCtx, root, args[0])
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			data, err := files.Read(fcap)
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			fmt.Printf("%q\n", data)
		case "watch":
			if len(args) > 1 {
				fmt.Println("usage: watch [name|*]")
				continue
			}
			var target dir.Capability // zero: every shard's full stream
			if len(args) == 1 && args[0] != "*" {
				if target, err = client.Lookup(bgCtx, root, args[0]); err != nil {
					fmt.Println("error:", err)
					continue
				}
			}
			stopWatch() // at most one tail at a time
			ctx, cancel := context.WithCancel(bgCtx)
			stream, err := client.Watch(ctx, target)
			if err != nil {
				cancel()
				fmt.Println("error:", err)
				continue
			}
			done := make(chan struct{})
			stopWatch = func() {
				cancel()
				<-done
				stopWatch = func() {}
			}
			go func() {
				defer close(done)
				for ev := range stream {
					if ev.Type == dir.EventResync {
						fmt.Printf("[watch] shard %d RESYNC (events may have been missed; re-read)\n", ev.Shard)
						continue
					}
					fmt.Printf("[watch] shard %d seq %d %s objects %v\n", ev.Shard, ev.Seq, ev.Op, ev.Objects)
				}
			}()
			fmt.Println("watching: committed updates (and recovery resyncs) print as they arrive; \"unwatch\" stops")
		case "unwatch":
			stopWatch()
		case "crash", "restart":
			if len(args) != 1 {
				fmt.Printf("usage: %s [shard/]<server-id>\n", cmd)
				continue
			}
			shard, id, err := parseServer(args[0], cluster.Shards(), cluster.ServersPerShard())
			if err != nil {
				fmt.Println(err)
				continue
			}
			if cmd == "crash" {
				cluster.CrashShardServer(shard, id)
				fmt.Printf("server %d/%d crashed\n", shard, id)
			} else if err := cluster.RestartShardServer(shard, id); err != nil {
				fmt.Println("error:", err)
			} else {
				fmt.Printf("server %d/%d recovered\n", shard, id)
			}
		case "partition":
			// All named servers must be in one shard; that shard's side is
			// cut off from everything else.
			shard := -1
			ids := make([]int, 0, len(args))
			ok := true
			for _, a := range args {
				s, id, err := parseServer(a, cluster.Shards(), cluster.ServersPerShard())
				if err != nil {
					fmt.Println(err)
					ok = false
					break
				}
				if shard >= 0 && s != shard {
					fmt.Println("partition: all servers must be in one shard")
					ok = false
					break
				}
				shard = s
				ids = append(ids, id)
			}
			if !ok || len(ids) == 0 {
				continue
			}
			cluster.PartitionShardServers(shard, ids...)
			fmt.Printf("shard %d servers %v partitioned away\n", shard, ids)
		case "heal":
			cluster.Heal()
			fmt.Println("network healed")
		case "checkpoint":
			if !engine {
				fmt.Println("checkpoint: boot with -engine")
				continue
			}
			from, to := 0, cluster.Shards()
			if len(args) == 1 {
				s, cerr := strconv.Atoi(args[0])
				if cerr != nil || s < 0 || s >= cluster.Shards() {
					fmt.Println("bad shard", args[0])
					continue
				}
				from, to = s, s+1
			}
			for s := from; s < to; s++ {
				if err := cluster.CheckpointShard(s); err != nil {
					fmt.Printf("shard %d: %v\n", s, err)
					continue
				}
				fmt.Printf("shard %d checkpointed\n", s)
			}
		case "split":
			epoch, err := client.SplitAndMigrate(bgCtx)
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			fmt.Printf("shard map now at epoch %d; run \"status\" for the per-shard object counts\n", epoch)
		case "status":
			fmt.Printf("read balancing: %v\n", balance)
			// The shard map: epoch, migration phase, and per-shard object
			// counts — watch a split move objects between shards here.
			fmt.Printf("shard map: client epoch %d\n", client.Epoch())
			for shard := 0; shard < cluster.Shards(); shard++ {
				info, err := client.ShardMap(bgCtx, shard)
				if err != nil {
					fmt.Printf("shard %d: shard-map error: %v\n", shard, err)
					continue
				}
				t := info.Topo
				fmt.Printf("shard %d: epoch %d objects=%d stubs=%d", shard, t.Epoch, info.Objects, info.Stubs)
				switch t.MigPhase {
				case dirsvc.MigSource:
					fmt.Printf(" migrating-out (%d to go, peer %d)", len(info.Moving), t.MigPeer)
				case dirsvc.MigTarget:
					fmt.Printf(" migrating-in (peer %d, floor %d)", t.MigPeer, t.MigFloor)
				}
				fmt.Println()
			}
			for shard := 0; shard < cluster.Shards(); shard++ {
				reads := cluster.ShardReadCounts(shard)
				for id := 1; id <= cluster.ServersPerShard(); id++ {
					s := cluster.ShardDiskStats(shard, id)
					fmt.Printf("shard %d server %d: disk reads=%d writes=%d seqWrites=%d",
						shard, id, s.Reads, s.Writes, s.SeqWrites)
					if n, ok := reads[id]; ok {
						fmt.Printf(" readsServed=%d", n)
					}
					if st, ok := cluster.ShardServerStatus(shard, id); ok && engine {
						fmt.Printf(" ckptSeq=%d logRecords=%d", st.CheckpointSeq, st.EngineLog)
					}
					fmt.Println()
				}
			}
			// The transport's adaptive-routing view: per-replica smoothed
			// RTT, the server's last piggybacked load hint, and how the
			// hedged-read budget has been spent.
			for shard := 0; shard < cluster.Shards(); shard++ {
				for _, rs := range client.ReplicaStats(shard) {
					fmt.Printf("shard %d replica node %d: srtt=%v rttvar=%v hint=%d inflight=%d samples=%d",
						shard, rs.Server, rs.SRTT.Round(time.Microsecond), rs.RTTVar.Round(time.Microsecond),
						rs.Hint, rs.Inflight, rs.Samples)
					if rs.Samples > 0 {
						fmt.Printf(" age=%v", rs.Age.Round(time.Millisecond))
					}
					if rs.Heard > 0 {
						fmt.Printf(" heard=%v probes=%d", rs.Heard.Round(time.Millisecond), rs.Probes)
					}
					fmt.Println()
				}
			}
			if sent, wins := client.HedgeStats(); sent > 0 {
				fmt.Printf("hedged reads: %d sent, %d won\n", sent, wins)
			}
			if fo := client.FailoverStats(); fo.Probes+fo.Verdicts > 0 {
				fmt.Printf("failure detection: %d probes sent, %d answered WORKING, %d servers declared dead, %d more transactions failed over with them\n",
					fo.Probes, fo.Working, fo.Verdicts, fo.Released)
			}
			st := cluster.Net.Stats()
			fmt.Printf("network: %d frames sent, %d delivered, %d dropped\n",
				st.FramesSent, st.FramesDelivered, st.FramesDropped)
			if cs := client.CacheStats(); cs.Hits+cs.Misses > 0 {
				fmt.Printf("client cache: %d hits, %d misses (%.1f%% hit rate), %d invalidations, %d evictions\n",
					cs.Hits, cs.Misses, 100*cs.HitRate(), cs.Invalidations, cs.Evictions)
			}
		default:
			fmt.Println("unknown command; type \"help\"")
		}
	}
	return sc.Err()
}
