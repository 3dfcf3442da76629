// Benchmarks regenerating every table and figure of the paper's
// evaluation (§4), plus the ablations listed in ARCHITECTURE.md
// ("Simulated hardware: calibration and ablations"). All run under
// sim.PaperModel, whose latencies are calibrated to the paper's hardware
// (Sun3/60s, 10 Mbit/s Ethernet, Wren IV disks), so ns/op values are
// directly comparable to the paper's milliseconds:
//
//	Fig. 7 append-delete: group 184 ms, rpc 192 ms, nfs 87 ms, nvram 27 ms
//	Fig. 7 tmp file:      group 215 ms, rpc 277 ms, nfs 111 ms, nvram 52 ms
//	Fig. 7 lookup:        ≈5 ms everywhere
//	Fig. 8 lookup plateau: group ≈652/s, rpc ≈520/s
//	Fig. 9 update plateau: group ≈5 pairs/s, rpc ≈5, nvram ≈45
package faultdir_test

import (
	"fmt"
	"testing"
	"time"

	faultdir "dirsvc"

	"dirsvc/internal/capability"
	"dirsvc/internal/flip"
	"dirsvc/internal/group"
	"dirsvc/internal/harness"
	"dirsvc/internal/rpc"
	"dirsvc/internal/sim"
	"dirsvc/internal/vdisk"
)

// benchKinds are the four columns of Fig. 7.
var benchKinds = []struct {
	name string
	kind faultdir.Kind
}{
	{"group", faultdir.KindGroup},
	{"rpc", faultdir.KindRPC},
	{"nfs", faultdir.KindLocal},
	{"group_nvram", faultdir.KindGroupNVRAM},
}

func paperCluster(b *testing.B, kind faultdir.Kind) *faultdir.Cluster {
	b.Helper()
	c, err := faultdir.New(kind, faultdir.Options{Model: sim.PaperModel()})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(c.Close)
	return c
}

// BenchmarkFig7AppendDelete regenerates Fig. 7 row 1: the time to append
// a (name, capability) pair to a directory and delete it again. One op
// is one pair, as in the paper.
func BenchmarkFig7AppendDelete(b *testing.B) {
	for _, k := range benchKinds {
		b.Run(k.name, func(b *testing.B) {
			c := paperCluster(b, k.kind)
			b.ResetTimer()
			d, err := harness.MeasureAppendDelete(c, b.N)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(d)/float64(time.Millisecond), "ms/pair")
		})
	}
}

// BenchmarkFig7TmpFile regenerates Fig. 7 row 2: create a 4-byte file,
// register it with the directory service, look it up, read it back, and
// delete the name — the compiler temporary-file cycle.
func BenchmarkFig7TmpFile(b *testing.B) {
	for _, k := range benchKinds {
		b.Run(k.name, func(b *testing.B) {
			c := paperCluster(b, k.kind)
			b.ResetTimer()
			d, err := harness.MeasureTmpFile(c, b.N)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(d)/float64(time.Millisecond), "ms/cycle")
		})
	}
}

// BenchmarkFig7Lookup regenerates Fig. 7 row 3: a cached directory
// lookup (≈5 ms in every implementation).
func BenchmarkFig7Lookup(b *testing.B) {
	for _, k := range benchKinds {
		b.Run(k.name, func(b *testing.B) {
			c := paperCluster(b, k.kind)
			b.ResetTimer()
			d, err := harness.MeasureLookup(c, b.N)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(d)/float64(time.Millisecond), "ms/lookup")
		})
	}
}

// fig8Kinds are the three series of Fig. 8 / Fig. 9.
var fig8Kinds = []struct {
	name string
	kind faultdir.Kind
}{
	{"group", faultdir.KindGroup},
	{"group_nvram", faultdir.KindGroupNVRAM},
	{"rpc", faultdir.KindRPC},
}

// BenchmarkFig8LookupThroughput regenerates Fig. 8: total lookups per
// second for 1–7 clients. The reported metric is the figure's y-axis.
func BenchmarkFig8LookupThroughput(b *testing.B) {
	for _, k := range fig8Kinds {
		for clients := 1; clients <= 7; clients += 2 {
			b.Run(fmt.Sprintf("%s/clients=%d", k.name, clients), func(b *testing.B) {
				c := paperCluster(b, k.kind)
				b.ResetTimer()
				var last harness.Throughput
				for i := 0; i < b.N; i++ {
					tp, err := harness.MeasureLookupThroughput(c, clients, 1500*time.Millisecond)
					if err != nil {
						b.Fatal(err)
					}
					last = tp
				}
				b.ReportMetric(last.OpsPerSec, "lookups/s")
			})
		}
	}
}

// BenchmarkFig9UpdateThroughput regenerates Fig. 9: append-delete pairs
// per second for 1–7 clients (write throughput is twice this, as both
// halves of a pair are writes).
func BenchmarkFig9UpdateThroughput(b *testing.B) {
	for _, k := range fig8Kinds {
		for clients := 1; clients <= 7; clients += 2 {
			b.Run(fmt.Sprintf("%s/clients=%d", k.name, clients), func(b *testing.B) {
				c := paperCluster(b, k.kind)
				b.ResetTimer()
				var last harness.Throughput
				for i := 0; i < b.N; i++ {
					tp, err := harness.MeasureUpdateThroughput(c, clients, 2*time.Second)
					if err != nil {
						b.Fatal(err)
					}
					last = tp
				}
				b.ReportMetric(last.OpsPerSec, "pairs/s")
			})
		}
	}
}

// BenchmarkMix98Reads drives the production workload shape of §2 — 98%
// of directory operations are reads — against the group and RPC
// services. This is the regime both designs optimize for; the gap
// between them here is much smaller than under pure writes.
func BenchmarkMix98Reads(b *testing.B) {
	for _, k := range fig8Kinds {
		b.Run(k.name, func(b *testing.B) {
			c := paperCluster(b, k.kind)
			b.ResetTimer()
			var last harness.Throughput
			for i := 0; i < b.N; i++ {
				tp, err := harness.MeasureMixedWorkload(c, 4, 98, 1500*time.Millisecond)
				if err != nil {
					b.Fatal(err)
				}
				last = tp
			}
			b.ReportMetric(last.OpsPerSec, "ops/s")
		})
	}
}

// BenchmarkAblationResilience measures SendToGroup latency for r = 0, 1,
// 2 in a triplicated group — the §1 performance/fault-tolerance
// trade-off ("By setting r, the programmer can trade performance against
// fault tolerance").
func BenchmarkAblationResilience(b *testing.B) {
	for r := 0; r <= 2; r++ {
		b.Run(fmt.Sprintf("r=%d", r), func(b *testing.B) {
			net := sim.NewNetwork(sim.PaperModel(), 1)
			cfg := group.Config{Port: capability.PortFromString("bench-r"), Resilience: r}
			var stacks []*flip.Stack
			var members []*group.Member
			for i := 0; i < 3; i++ {
				stacks = append(stacks, flip.NewStack(net.AddNode("m")))
			}
			first, err := group.Create(stacks[0], cfg)
			if err != nil {
				b.Fatal(err)
			}
			members = append(members, first)
			for i := 1; i < 3; i++ {
				m, err := group.Join(stacks[i], cfg, 10*time.Second)
				if err != nil {
					b.Fatal(err)
				}
				members = append(members, m)
			}
			b.Cleanup(func() {
				for _, m := range members {
					m.Close()
				}
				for _, s := range stacks {
					s.Close()
				}
			})
			sender := members[1] // not the sequencer: full message count
			payload := make([]byte, 64)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sender.Send(payload); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationGroupVsNRpcs compares one SendToGroup(r=2) against a
// k-fold sequence of point-to-point RPCs — the paper's §3.1 argument
// that a triplicated RPC service would pay 4 RPCs where the group
// service pays one multicast exchange.
func BenchmarkAblationGroupVsNRpcs(b *testing.B) {
	b.Run("group_send_r2", func(b *testing.B) {
		net := sim.NewNetwork(sim.PaperModel(), 1)
		cfg := group.Config{Port: capability.PortFromString("bench-g"), Resilience: 2}
		stacks := []*flip.Stack{
			flip.NewStack(net.AddNode("a")),
			flip.NewStack(net.AddNode("b")),
			flip.NewStack(net.AddNode("c")),
		}
		m0, err := group.Create(stacks[0], cfg)
		if err != nil {
			b.Fatal(err)
		}
		members := []*group.Member{m0}
		for i := 1; i < 3; i++ {
			m, err := group.Join(stacks[i], cfg, 10*time.Second)
			if err != nil {
				b.Fatal(err)
			}
			members = append(members, m)
		}
		b.Cleanup(func() {
			for _, m := range members {
				m.Close()
			}
			for _, s := range stacks {
				s.Close()
			}
		})
		payload := make([]byte, 64)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := members[1].Send(payload); err != nil {
				b.Fatal(err)
			}
		}
	})
	for k := 1; k <= 4; k++ {
		b.Run(fmt.Sprintf("rpcs=%d", k), func(b *testing.B) {
			net := sim.NewNetwork(sim.PaperModel(), 1)
			port := capability.PortFromString("bench-rpc")
			clientStack := flip.NewStack(net.AddNode("client"))
			client, err := rpc.NewClient(clientStack)
			if err != nil {
				b.Fatal(err)
			}
			serverStack := flip.NewStack(net.AddNode("server"))
			srv, err := rpc.NewServer(serverStack, port)
			if err != nil {
				b.Fatal(err)
			}
			stop := srv.ServeFunc(2, func(req *rpc.Request) []byte { return req.Payload })
			b.Cleanup(func() {
				srv.Close()
				stop()
				clientStack.Close()
				serverStack.Close()
			})
			payload := make([]byte, 64)
			if _, err := client.Trans(port, payload); err != nil { // warm locate
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := 0; j < k; j++ {
					if _, err := client.Trans(port, payload); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkAblationNVRAMSize sweeps the NVRAM capacity (the paper used
// 24 KB; Baker et al. [32] report that small NVRAM absorbs most writes).
// Larger logs absorb more update bursts before a flush stalls them.
func BenchmarkAblationNVRAMSize(b *testing.B) {
	for _, kb := range []int{4, 24, 96} {
		b.Run(fmt.Sprintf("kb=%d", kb), func(b *testing.B) {
			c, err := faultdir.New(faultdir.KindGroupNVRAM, faultdir.Options{
				Model:     sim.PaperModel(),
				NVRAMSize: kb * 1024,
			})
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(c.Close)
			b.ResetTimer()
			d, err := harness.MeasureAppendDelete(c, b.N)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(d)/float64(time.Millisecond), "ms/pair")
		})
	}
}

// BenchmarkAblationMessageVsDisk quantifies §3.1's cost claim: "the cost
// of sending a message is an order of magnitude less than the cost of a
// disk operation".
func BenchmarkAblationMessageVsDisk(b *testing.B) {
	b.Run("message", func(b *testing.B) {
		net := sim.NewNetwork(sim.PaperModel(), 1)
		a := net.AddNode("a")
		c := net.AddNode("b")
		sa := flip.NewStack(a)
		sb := flip.NewStack(c)
		port := capability.PortFromString("msg")
		l, err := sb.Register(port)
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { sa.Close(); sb.Close() })
		payload := make([]byte, 64)
		// Per-frame costs are sub-millisecond and accumulate as sleep
		// debt, so measure batches and report the per-message average.
		const batch = 500
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			start := time.Now()
			for j := 0; j < batch; j++ {
				if err := sa.Send(c.ID(), port, payload); err != nil {
					b.Fatal(err)
				}
				if _, ok := l.Recv(); !ok {
					b.Fatal("listener closed")
				}
			}
			b.ReportMetric(float64(time.Since(start))/batch/1e6, "ms/msg")
		}
	})
	b.Run("disk_op", func(b *testing.B) {
		disk := vdisk.New(sim.PaperModel(), 64)
		payload := make([]byte, vdisk.BlockSize)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := disk.WriteBlock(i%64, payload); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSubstrates microbenchmarks the building blocks at paper scale
// (sanity anchors for the calibration table in ARCHITECTURE.md,
// "Simulated hardware: calibration and ablations").
func BenchmarkSubstrates(b *testing.B) {
	b.Run("rpc_null", func(b *testing.B) {
		net := sim.NewNetwork(sim.PaperModel(), 1)
		port := capability.PortFromString("null")
		cs := flip.NewStack(net.AddNode("client"))
		client, err := rpc.NewClient(cs)
		if err != nil {
			b.Fatal(err)
		}
		ss := flip.NewStack(net.AddNode("server"))
		srv, err := rpc.NewServer(ss, port)
		if err != nil {
			b.Fatal(err)
		}
		stop := srv.ServeFunc(1, func(req *rpc.Request) []byte { return nil })
		b.Cleanup(func() { srv.Close(); stop(); cs.Close(); ss.Close() })
		if _, err := client.Trans(port, nil); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := client.Trans(port, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("bullet_create_512B", func(b *testing.B) {
		model := sim.PaperModel()
		disk := vdisk.New(model, 1<<14)
		store, err := bulletStore(disk)
		if err != nil {
			b.Fatal(err)
		}
		data := make([]byte, 512)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := store.Create(data); err != nil {
				b.Fatal(err)
			}
		}
	})
}
