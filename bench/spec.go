package main

import (
	"time"

	faultdir "dirsvc"
	"dirsvc/internal/sim"
)

// workload is one row of the benchmark's workload table. The five rows
// are fixed; later issues cite them by name.
type workload struct {
	name string
	why  string

	kind   faultdir.Kind
	engine bool // Options.DiskEngine: WAL append on the critical path
	model  func() *sim.LatencyModel
	// heartbeat overrides the group failure detector's period (0: the
	// model's own). With no modelled latency the default is its 15 ms
	// floor, and a member silent for six periods is declared dead: on a
	// saturated 2-core host that happened in one or two runs in ten, each
	// view change failing thousands of ops.
	heartbeat time.Duration

	dirs, names int // populated namespace: dirs × names rows
	// lookupPct is the share of Lookup ops per client (index 0 = client A
	// bound to replica 1, 1 = client B bound to replica 2); the rest are
	// append-delete pairs on pairDirs of the client's own directories.
	lookupPct [2]int

	warmup time.Duration
	// pacePerClient > 0 holds each closed-loop client to that many ops/s:
	// it still sends its next op only when the previous one completed, but
	// waits whenever it is ahead of the pace. With no modelled latency an
	// unpaced loop saturates the host and its throughput is the host's:
	// 43–57 k ops/s on a quiet 2-core VM, 18–22 k while a neighbour stole
	// half the CPU, and a failure detector starved into view changes.
	// Paced well under that, the run measures what an op costs (latency,
	// allocations, CPU) and ops_per_s only says the pace was held.
	pacePerClient int
	// ratePerClient > 0 makes the workload open loop: each client's ops
	// are due on a fixed schedule at this rate, and the sequencer is
	// crashed and restarted inside the window (failover-wal).
	ratePerClient int
}

func (w *workload) openLoop() bool { return w.ratePerClient > 0 }

// heartbeatPeriod is the failure detector's period on this workload's
// cluster: the override, or what internal/group derives from the model.
func (w *workload) heartbeatPeriod() time.Duration {
	if w.heartbeat > 0 {
		return w.heartbeat
	}
	return max(w.model().Timeout(150*time.Millisecond), 15*time.Millisecond)
}

// defaultSeconds is the measured window when -seconds is not given; it
// equals BENCHMARK.json's run_seconds. The issue sized 20 s windows; the
// driver's total time cap (114 runs and two builds in 3420 s) forced the
// equal shrink to the 15 s floor it allows.
const defaultSeconds = 15

var workloads = []workload{
	{
		name:      "lookup-nvram",
		why:       "Fig. 8 read path: rpc/flip/sim and core read handling do all the work; group, vdisk and the logs do none",
		kind:      faultdir.KindGroupNVRAM,
		model:     sim.PaperModel,
		dirs:      32,
		names:     4,
		lookupPct: [2]int{100, 100},
		warmup:    3 * time.Second,
	},
	{
		name:      "update-nvram",
		why:       "Fig. 7/9 headline write path: group broadcast, sequencer hop (one writer on it, one off it), NVRAM log; disk only in background flush",
		kind:      faultdir.KindGroupNVRAM,
		model:     sim.PaperModel,
		dirs:      32,
		names:     4,
		lookupPct: [2]int{0, 0},
		warmup:    3 * time.Second,
	},
	{
		name:      "update-wal",
		why:       "same write path with the engine WAL append on the critical path, so WAL work shows here and NVRAM work must not",
		kind:      faultdir.KindGroup,
		engine:    true,
		model:     sim.PaperModel,
		dirs:      32,
		names:     4,
		lookupPct: [2]int{0, 0},
		warmup:    3 * time.Second,
	},
	{
		name:          "mixed-soft",
		why:           "zero modelled latency, 90/10 read/write at a fixed 10 k ops/s: codec, allocation, locking and goroutine hand-off cost per op is the result",
		kind:          faultdir.KindGroupNVRAM,
		model:         sim.FastModel,
		heartbeat:     50 * time.Millisecond,
		pacePerClient: 5000,
		dirs:          64,
		names:         4,
		lookupPct:     [2]int{90, 90},
		warmup:        3 * time.Second,
	},
	{
		name:   "failover-wal",
		why:    "open loop through a sequencer crash and restart: time without service, group reset, checkpoint + log-suffix rejoin",
		kind:   faultdir.KindGroup,
		engine: true,
		model:  func() *sim.LatencyModel { return sim.ScaledPaperModel(0.2) },
		dirs:   32,
		names:  4,
		// A reads only (see README.md, "kept out of the gated path"). B is
		// 20/80, not the issue's 60/40: with A's ops late for 9 s, 60/40
		// puts the median of all ops at the edge between fast lookups and
		// pairs, where it flipped between 3.9 and 9.4 ms from run to run;
		// at 20/80 it sits in the middle of the pairs.
		lookupPct:     [2]int{100, 20},
		warmup:        2 * time.Second,
		ratePerClient: 25,
	},
}

func workloadByName(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// metricDef names one reported metric. The two lists below are the
// program's half of the contract in BENCHMARK.json; a test keeps the two
// in step.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics every workload reports in an untraced run and
// the driver gates. The contract wants each of them on every workload,
// never zero, with one bound per metric whatever the workload — so a
// metric belongs here only if it repeats on all five workloads on a host
// whose neighbours come and go. Latency percentiles do not (a steal
// episode moved failover-wal's median by 40 % and lookup-nvram's p95 by
// 30 %), nor does cpu_us_per_op (5–17 %), and the issue's fail-over
// numbers exist on one workload only; they are reported by every run,
// listed in perLayer, and gated per workload by -aa.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"allocs_per_op", "count"},
}

// perLayer are the metrics a traced run reports. A metric that does not
// apply to a workload (a probe of a layer the workload's cluster does not
// have, a fail-over number on a closed loop) is reported as 0.
var perLayer = []metricDef{
	{"op_p50_ms", "ms"},
	{"op_p95_ms", "ms"},
	{"outage_ms", "ms"},
	{"rejoin_ms", "ms"},
	{"late_ratio", "ratio"},
	{"fail_ratio", "ratio"},
	{"cpu_us_per_op", "us"},

	{"cluster.boot_s", "s"},
	{"cluster.boot_attempts", "count"},
	{"cluster.bind_attempts", "count"},
	{"cluster.populate_s", "s"},

	{"sim.frames_per_op", "count"},
	{"sim.bytes_per_op", "bytes"},
	{"sim.frames_dropped", "count"},
	{"sim.oneway_ms", "ms"},

	{"flip.oneway_ms", "ms"},
	{"flip.locate_ms", "ms"},

	{"rpc.null_trans_ms", "ms"},
	{"rpc.srtt_ms", "ms"},
	{"rpc.hedges_sent", "count"},
	{"rpc.failover_ms", "ms"},

	{"group.send_seq_ms", "ms"},
	{"group.send_member_ms", "ms"},
	{"group.frames_per_send", "count"},
	{"group.sends_per_update", "count"},
	{"group.reset_ms", "ms"},

	{"core.read_share_max", "ratio"},
	{"core.applied_lag_max", "count"},
	{"core.rejoin_ms", "ms"},

	{"dirsvc.encode_ns", "ns"},
	{"dirsvc.decode_ns", "ns"},
	{"dirsvc.codec_allocs", "count"},
	{"dirsvc.read_ns", "ns"},
	{"dirsvc.apply_ns", "ns"},
	{"dirsvc.apply_allocs", "count"},
	{"dirsvc.nvlog_append_ms", "ms"},
	{"dirsvc.engine_append_ms", "ms"},
	{"dirsvc.snapshot_encode_ms", "ms"},
	{"dirsvc.nvram_used_bytes", "bytes"},
	{"dirsvc.engine_log_len", "count"},
	{"dirsvc.ckpt_seq", "count"},

	{"vdisk.nvram_write_ms", "ms"},
	{"vdisk.seq_write_ms", "ms"},
	{"vdisk.rand_write_ms", "ms"},
	{"vdisk.writes_per_update", "count"},
	{"vdisk.seq_writes_per_update", "count"},
	{"vdisk.reads_per_op", "count"},

	{"dirdata.lookup_ns", "ns"},
	{"dirdata.encode_ns", "ns"},

	{"dirclient.op_p99_ms", "ms"},
	{"dirclient.op_max_ms", "ms"},
	{"dirclient.retries_per_op", "count"},
	{"dirclient.self_est_ms", "ms"},

	{"localdir.lookup_ms", "ms"},
	{"localdir.pair_ms", "ms"},

	{"host.cpu_util", "ratio"},
	{"host.gc_pause_ms", "ms"},
	{"host.alloc_bytes_per_op", "bytes"},
	{"bench.gen_late_p95_ms", "ms"},
	{"bench.inflight_max", "count"},
	{"bench.samples", "count"},
	{"bench.trace_overhead_ratio", "ratio"},
}

// aaBounds are the bounds -aa and -compare hold each workload to: the
// issue's table, per workload, which BENCHMARK.json cannot express (it has
// one bound per metric, which must fit the noisiest workload). A pair not
// listed falls back to BENCHMARK.json's bound. Bounds may only be widened;
// README.md records the measured spread beside each.
var aaBounds = map[string]map[string]float64{
	"lookup-nvram": {"setup_s": 0.15, "ops_per_s": 0.05, "op_p50_ms": 0.05, "op_p95_ms": 0.10, "allocs_per_op": 0.03},
	"update-nvram": {"setup_s": 0.15, "ops_per_s": 0.05, "op_p50_ms": 0.05, "op_p95_ms": 0.10, "allocs_per_op": 0.03},
	"update-wal":   {"setup_s": 0.15, "ops_per_s": 0.05, "op_p50_ms": 0.05, "op_p95_ms": 0.10, "allocs_per_op": 0.03},
	"mixed-soft":   {"setup_s": 0.15, "ops_per_s": 0.10, "op_p50_ms": 0.15, "allocs_per_op": 0.03, "cpu_us_per_op": 0.10},
	"failover-wal": {"setup_s": 0.15, "outage_ms": 0.05, "rejoin_ms": 0.10, "late_ratio": 0.10},
}
