package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"
)

// result is one run of one workload: the contract's four keys plus what
// a reader needs to trust them.
type result struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Seconds   float64            `json:"seconds"`
	Traced    bool               `json:"traced"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
	// Bound lists, per client, the replica it was bound to at the end of
	// the window (A wants 1, B wants 2; after a fail-over A is on 3).
	Bound    [2]int   `json:"bound"`
	SeqHash  string   `json:"seq_hash"`
	Budget   []string `json:"budget,omitempty"` // traced: root span vs probes, per op kind
	Invalid  []string `json:"invalid,omitempty"`
	Problems []string `json:"problems,omitempty"`
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// delta is a counter's growth over the window. A replica that restarted
// inside the window starts counting from zero again; then what it counted
// since is all that is known.
func delta(after, before uint64) float64 {
	if after < before {
		return float64(after)
	}
	return float64(after - before)
}

func per(total, n float64) float64 {
	if n == 0 {
		return 0
	}
	return total / n
}

// tally is a window's samples counted once: the ascending latencies of
// the correct ops, and how many ops failed, were pairs, or were retried.
type tally struct {
	okMS                   []float64
	failed, pairs, retries int
}

func (win *window) tally() tally {
	var failed, pairs, retries int
	lat := make([]time.Duration, 0, len(win.samples))
	for i := range win.samples {
		s := &win.samples[i]
		if s.kind == opPair {
			pairs++
		}
		if s.err != nil {
			failed++
			continue
		}
		retries += s.tries - 1
		lat = append(lat, s.latency())
	}
	return tally{msOf(lat), failed, pairs, retries}
}

// errorSamples returns up to n distinct errors the window's ops ended in.
func (win *window) errorSamples(n int) []string {
	var out []string
	seen := map[string]bool{}
	for i := range win.samples {
		if err := win.samples[i].err; err != nil && !seen[err.Error()] && len(out) < n {
			seen[err.Error()] = true
			out = append(out, "op failed: "+err.Error())
		}
	}
	return out
}

// endToEndMetrics computes what a user of the service sees.
func (win *window) endToEndMetrics(t tally) map[string]float64 {
	ops := float64(len(t.okMS))
	return map[string]float64{
		"setup_s":       win.setup.Seconds(),
		"ops_per_s":     per(ops, win.elapsed.Seconds()),
		"allocs_per_op": per(delta(win.after.mallocs, win.before.mallocs), ops),
	}
}

// layerMetrics computes the counter- and sample-derived per-layer
// metrics of a window; probes fill in the rest.
func (win *window) layerMetrics(tb *testbed, t tally, m map[string]float64) {
	okMS, ops := t.okMS, float64(len(t.okMS))
	updates := float64(2 * t.pairs)
	b, a := win.before, win.after

	m["op_p50_ms"] = quantile(okMS, 0.50)
	m["op_p95_ms"] = quantile(okMS, 0.95)
	m["fail_ratio"] = per(float64(t.failed), float64(len(win.samples)))
	m["cluster.boot_s"] = tb.times.bootS
	m["cluster.boot_attempts"] = float64(tb.times.bootAttempts)
	m["cluster.bind_attempts"] = float64(tb.times.bindAttempts)
	m["cluster.populate_s"] = tb.times.populateS

	m["sim.frames_per_op"] = per(delta(a.net.FramesSent, b.net.FramesSent), ops)
	m["sim.bytes_per_op"] = per(delta(a.net.BytesSent, b.net.BytesSent), ops)
	m["sim.frames_dropped"] = delta(a.net.FramesDropped, b.net.FramesDropped)

	m["rpc.srtt_ms"] = srttMS(tb.clients)
	m["rpc.hedges_sent"] = delta(a.hedges, b.hedges)
	m["group.sends_per_update"] = per(delta(a.groupSends, b.groupSends), updates)

	var reads, readsMax float64
	for r, n := range a.reads {
		served := delta(n, b.reads[r])
		reads += served
		readsMax = max(readsMax, served)
	}
	m["core.read_share_max"] = per(readsMax, reads)
	m["core.applied_lag_max"] = float64(win.lagMax)

	var writes, seqWrites, diskReads float64
	for r := range a.disk {
		writes += delta(a.disk[r].Writes, b.disk[r].Writes)
		seqWrites += delta(a.disk[r].SeqWrites, b.disk[r].SeqWrites)
		diskReads += delta(a.disk[r].Reads, b.disk[r].Reads)
	}
	m["vdisk.writes_per_update"] = per(writes, replicas*updates)
	m["vdisk.seq_writes_per_update"] = per(seqWrites, replicas*updates)
	m["vdisk.reads_per_op"] = per(diskReads, replicas*ops)

	for _, st := range win.statuses {
		if !st.ok {
			continue
		}
		m["dirsvc.nvram_used_bytes"] = max(m["dirsvc.nvram_used_bytes"], float64(st.nvramUsed))
		m["dirsvc.engine_log_len"] = max(m["dirsvc.engine_log_len"], float64(st.engineLog))
		m["dirsvc.ckpt_seq"] = max(m["dirsvc.ckpt_seq"], float64(st.ckptSeq))
	}

	m["dirclient.op_p99_ms"] = quantile(okMS, 0.99)
	m["dirclient.op_max_ms"] = quantile(okMS, 1)
	m["dirclient.retries_per_op"] = per(float64(t.retries), ops)

	m["cpu_us_per_op"] = per(float64(a.cpu-b.cpu)/float64(time.Microsecond), ops)
	m["host.cpu_util"] = per((a.cpu - b.cpu).Seconds(), win.elapsed.Seconds())
	m["host.gc_pause_ms"] = ms(a.gcPause - b.gcPause)
	m["host.alloc_bytes_per_op"] = per(delta(a.allocBytes, b.allocBytes), ops)
	m["bench.samples"] = ops
	m["bench.inflight_max"] = float64(win.open.inflightMax)
	if !tb.w.openLoop() {
		m["bench.inflight_max"] = float64(len(tb.clients))
	}
	m["bench.gen_late_p95_ms"] = quantile(msOf(win.open.lateness), 0.95)

	if f := win.faults; f != nil {
		win.failoverMetrics(tb, f, m)
	}
}

// failoverMetrics derives the fail-over numbers from the samples and the
// fault timetable.
func (win *window) failoverMetrics(tb *testbed, f *faults, m map[string]float64) {
	var (
		late       int
		firstAfter *sample // client A's first op due after the crash
		lastB      time.Duration
		gapB       time.Duration // longest gap between B's completions around the crash
	)
	ends := make([]time.Duration, 0, len(win.samples))
	for i := range win.samples {
		s := &win.samples[i]
		if s.err != nil || s.latency() > lateAfter {
			late++
		}
		if s.client == 0 && s.start >= f.crashed && (firstAfter == nil || s.start < firstAfter.start) {
			firstAfter = s
		}
		if s.client == 1 && s.err == nil {
			ends = append(ends, s.end)
		}
	}
	sort.Slice(ends, func(i, j int) bool { return ends[i] < ends[j] })
	for _, e := range ends {
		// "Around the crash": gaps that end after it and start before
		// the restart; the restart's own disturbance is rejoin_ms's.
		if e >= f.crashed && lastB <= f.rejoinFrom && lastB > 0 && e-lastB > gapB {
			gapB = e - lastB
		}
		lastB = e
	}
	m["late_ratio"] = per(float64(late), float64(len(win.samples)))
	if firstAfter != nil && firstAfter.err == nil {
		m["outage_ms"] = ms(firstAfter.end - f.crashed)
		// Client A spends the outage in its transport's retransmit budget
		// (1 + 2 retransmits, each a reply time-out); what is left is the
		// eviction, the re-locate and the first reply from a survivor.
		replyTimeout := tb.w.model().Timeout(15 * time.Second)
		m["rpc.failover_ms"] = m["outage_ms"] - 3*ms(replyTimeout)
	}
	if f.rejoined > 0 {
		m["rejoin_ms"] = ms(f.rejoined - f.rejoinFrom)
		m["core.rejoin_ms"] = m["rejoin_ms"]
	}
	m["group.reset_ms"] = ms(gapB)
}

// validity lists the reasons a run measured the host instead of the
// service.
func validity(w *workload, m map[string]float64) []string {
	var out []string
	if w.model().Scale > 0 && m["host.cpu_util"] > 0.5 {
		out = append(out, fmt.Sprintf("host.cpu_util %.2f > 0.5 core on a modelled-latency profile", m["host.cpu_util"]))
	}
	if w.openLoop() && m["bench.gen_late_p95_ms"] > 5 {
		out = append(out, fmt.Sprintf("bench.gen_late_p95_ms %.2f > 5 ms", m["bench.gen_late_p95_ms"]))
	}
	return out
}

// tailOf maps the percentile metrics to their quantile, so the table can
// say when the sample count does not support one.
var tailOf = map[string]float64{"op_p95_ms": 0.95, "dirclient.op_p99_ms": 0.99}

// printTable writes every metric of the run by name with its unit.
func (r *result) printTable(out io.Writer) {
	fmt.Fprintf(out, "workload %s  seed %d  window %.0f s  traced %v  seq-hash %s\n", r.Workload, r.Seed, r.Seconds, r.Traced, r.SeqHash)
	fmt.Fprintf(out, "bound: client A -> replica %d, client B -> replica %d\n", r.Bound[0], r.Bound[1])
	fmt.Fprintf(out, "attempted %d  failed %d  correct %v\n", r.Attempted, r.Failed, r.Correct)
	defs := append(append([]metricDef(nil), endToEnd...), perLayer...)
	samples := int(r.Metrics["bench.samples"])
	for _, d := range defs {
		v, ok := r.Metrics[d.name]
		if !ok {
			continue
		}
		note := ""
		if q, isTail := tailOf[d.name]; isTail && !supported(q, samples) {
			note = "  (fewer than ten samples beyond it)"
		}
		fmt.Fprintf(out, "  %-30s %14.6g %s%s\n", d.name, v, d.unit, note)
	}
	for _, s := range r.Budget {
		fmt.Fprintf(out, "budget %s\n", s)
	}
	for _, s := range r.Invalid {
		fmt.Fprintf(out, "INVALID: %s\n", s)
	}
	for _, s := range r.Problems {
		fmt.Fprintf(out, "PROBLEM: %s\n", s)
	}
}

// contractLine is the driver's result object: the end-to-end metrics of
// an untraced run, the per-layer metrics of a traced one.
func (r *result) contractLine() string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	defs := endToEnd
	if r.Traced {
		defs = perLayer
	}
	metrics := make(map[string]mv, len(defs))
	for _, d := range defs {
		metrics[d.name] = mv{r.Metrics[d.name], d.unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, metrics})
	if err != nil {
		panic(err) // plain numbers and strings cannot fail to encode
	}
	return string(line)
}
