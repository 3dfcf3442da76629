package main

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"dirsvc/internal/dirclient"
	"dirsvc/internal/dirsvc"
	"dirsvc/internal/rpc"
	"dirsvc/internal/sim"
	"dirsvc/internal/vdisk"
)

// Open-loop limits.
const (
	maxInflight  = 512
	drainLimit   = 10 * time.Second
	lateAfter    = 100 * time.Millisecond
	retryBackoff = 20 * time.Millisecond
)

var errWrong = errors.New("bench: lookup returned an unexpected capability")

// sample is the root span of one client call: what the generator issued
// and what came back. Times are offsets from the start of the window; in
// an open loop start is the due time, so latency counts the wait a stall
// imposes on later requests.
type sample struct {
	client int
	kind   opKind
	start  time.Duration
	issued time.Duration // when the call was actually made (open loop)
	end    time.Duration
	tries  int
	err    error
}

func (s *sample) latency() time.Duration { return s.end - s.start }

func transient(err error) bool {
	return errors.Is(err, dirsvc.ErrNoMajority) || errors.Is(err, rpc.ErrTimeout) ||
		errors.Is(err, rpc.ErrNoServer) || errors.Is(err, dirsvc.ErrConflict)
}

// call runs one update, retrying transient errors until done when retry
// is set. A retried update may have executed before its reply was lost,
// so after a retry the error that means "already done" counts as success.
func call(retry bool, fn func() error, alreadyDone error) (tries int, err error) {
	for {
		tries++
		err = fn()
		if err == nil || (tries > 1 && errors.Is(err, alreadyDone)) {
			return tries, nil
		}
		if !retry || !transient(err) {
			return tries, err
		}
		time.Sleep(retryBackoff)
	}
}

// exec issues one generated op through client ci and checks its result.
func (tb *testbed) exec(ci int, o op, stream int, retry bool) (int, error) {
	cl, dir := tb.clients[ci], tb.ns.dirs[o.dir]
	if o.kind == opLookup {
		return call(retry, func() error {
			got, err := cl.Lookup(bg, dir, tb.ns.names[o.name])
			if err == nil && got != tb.ns.targets[o.dir][o.name] {
				return errWrong
			}
			return err
		}, nil)
	}
	name := tmpName(stream, ci, o.name)
	tries, err := call(retry, func() error { return cl.Append(bg, dir, name, dir, nil) }, dirsvc.ErrExists)
	if err != nil {
		// Leave no half pair behind for the verifier to trip over.
		_ = cl.Delete(bg, dir, name)
		return tries, fmt.Errorf("append: %w", err)
	}
	more, err := call(retry, func() error { return cl.Delete(bg, dir, name) }, dirsvc.ErrNotFound)
	if err != nil {
		err = fmt.Errorf("delete: %w", err)
	}
	return tries + more - 1, err
}

// closedLoop runs both clients back to back for dur: a client sends its
// next op only when the previous one has completed.
func (tb *testbed) closedLoop(seed int64, stream int, dur time.Duration) ([]sample, time.Duration) {
	perClient := make([][]sample, len(tb.clients))
	start := time.Now()
	var wg sync.WaitGroup
	for ci := range tb.clients {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			g := newGenerator(tb.w, seed, stream, ci)
			// Room for the whole window (a modelled-latency op takes 5 ms
			// or more), so growing the slice does not show up in
			// allocs_per_op.
			room := 1 << 14
			var pace time.Duration // per op; 0 = unpaced
			if tb.w.pacePerClient > 0 {
				pace = time.Second / time.Duration(tb.w.pacePerClient)
				room += int(dur / pace)
			}
			out := make([]sample, 0, room)
			for {
				t0 := time.Since(start)
				if t0 >= dur {
					break
				}
				// Ahead of the pace by a sleep's worth (the host cannot
				// sleep for less than about a millisecond): wait it off.
				if ahead := time.Duration(len(out))*pace - t0; ahead >= time.Millisecond {
					time.Sleep(ahead)
					continue
				}
				o := g.next()
				tries, err := tb.exec(ci, o, stream, false)
				out = append(out, sample{client: ci, kind: o.kind, start: t0, issued: t0,
					end: time.Since(start), tries: tries, err: err})
			}
			perClient[ci] = out
		}(ci)
	}
	wg.Wait()
	elapsed := time.Since(start)
	return append(perClient[0], perClient[1]...), elapsed
}

// faults is the fail-over timetable and what was observed of it.
type faults struct {
	crashAt, restartAt time.Duration // offsets into the window

	crashed    time.Duration // when CrashShardServer returned
	rejoinFrom time.Duration // when RestartShardServer was called
	rejoined   time.Duration // when replica 1 was a caught-up member again
	err        error
}

// failoverPlan places the crash 15 % into the window and the restart 10 s
// later (never past 80 %), so that with a 3 s reply time-out the dead
// replica's client has failed over before the replica comes back.
func failoverPlan(window time.Duration) *faults {
	crash := window * 15 / 100
	restart := crash + 10*time.Second
	if limit := window * 80 / 100; restart > limit {
		restart = limit
	}
	return &faults{crashAt: crash, restartAt: restart}
}

// inject crashes replica 1 — the sequencer — and restarts it on the
// timetable, timing the rejoin: RestartShardServer call until replica 1
// is out of recovery, sees all members and has applied as much as a
// survivor. Client A, pinned to the dead replica, is re-pinned to replica
// 3: it fails over to the survivor that does not serve B, and never back
// to a freshly restarted replica 1.
func (tb *testbed) inject(f *faults, start time.Time) {
	time.Sleep(time.Until(start.Add(f.crashAt)))
	tb.cluster.CrashShardServer(0, 1)
	f.crashed = time.Since(start)
	tb.pins.set(tb.hosts[0], nodeOf(3))

	time.Sleep(time.Until(start.Add(f.restartAt)))
	f.rejoinFrom = time.Since(start)
	if err := tb.cluster.RestartShardServer(0, 1); err != nil {
		f.err = fmt.Errorf("restart replica 1: %w", err)
		return
	}
	deadline := time.Now().Add(drainLimit)
	for time.Now().Before(deadline) {
		if tb.rejoined() {
			f.rejoined = time.Since(start)
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	f.err = errors.New("replica 1 did not rejoin")
}

func (tb *testbed) rejoined() bool {
	st, ok := tb.cluster.ShardServerStatus(0, 1)
	if !ok || st.Recovering || st.Members != replicas {
		return false
	}
	survivor, ok := tb.cluster.ShardServerStatus(0, 2)
	return ok && st.AppliedSeq >= survivor.AppliedSeq
}

// openRun is what an open-loop window yields beyond its samples.
type openRun struct {
	lateness    []time.Duration // how late the generator issued each op
	inflightMax int
}

// openLoop fires the schedule from one goroutine at the due times,
// whatever the service is doing; an op finding maxInflight others still
// outstanding is not sent and counts as failed. It returns when every op
// has completed or drainLimit after the last one was due.
func (tb *testbed) openLoop(ops []dueOp, stream int, f *faults) ([]sample, time.Duration, openRun) {
	var (
		samples  = make([]sample, len(ops))
		done     = make([]atomic.Bool, len(ops))
		inflight atomic.Int64
		run      openRun
		wg       sync.WaitGroup
	)
	run.lateness = make([]time.Duration, 0, len(ops))
	start := time.Now()
	injected := make(chan struct{})
	go func() {
		defer close(injected)
		if f != nil {
			tb.inject(f, start)
		}
	}()
	for i, d := range ops {
		time.Sleep(time.Until(start.Add(d.due)))
		issued := time.Since(start)
		run.lateness = append(run.lateness, issued-d.due)
		samples[i] = sample{client: d.client, kind: d.kind, start: d.due, issued: issued}
		n := int(inflight.Add(1))
		if n > maxInflight {
			inflight.Add(-1)
			samples[i].err = errors.New("bench: in-flight cap reached")
			samples[i].end = issued
			done[i].Store(true)
			continue
		}
		if n > run.inflightMax {
			run.inflightMax = n
		}
		wg.Add(1)
		go func(i int, d dueOp) {
			defer wg.Done()
			tries, err := tb.exec(d.client, d.op, stream, true)
			s := &samples[i]
			s.end, s.tries, s.err = time.Since(start), tries, err
			done[i].Store(true)
			inflight.Add(-1)
		}(i, d)
	}
	drained := make(chan struct{})
	go func() { wg.Wait(); close(drained) }()
	select {
	case <-drained:
	case <-time.After(drainLimit):
	}
	elapsed := time.Since(start)
	<-injected
	// A straggler may still be writing its slot, so only slots marked done
	// are read; the others count as failed at the end of the drain.
	out := make([]sample, len(ops))
	for i, d := range ops {
		if done[i].Load() {
			out[i] = samples[i]
		} else {
			out[i] = sample{client: d.client, kind: d.kind, start: d.due, end: elapsed,
				err: errors.New("bench: not completed within the drain limit")}
		}
	}
	return out, elapsed, run
}

// counters are the totals read through exported accessors before and
// after the window; a layer's work is the difference.
type counters struct {
	net        sim.Stats
	groupSends uint64
	reads      map[int]uint64
	disk       [replicas]vdisk.Stats
	hedges     uint64
	mallocs    uint64
	allocBytes uint64
	gcPause    time.Duration
	cpu        time.Duration
}

func (tb *testbed) readCounters() counters {
	c := counters{
		net:        tb.cluster.Net.Stats(),
		groupSends: tb.cluster.GroupSends(),
		reads:      tb.cluster.ShardReadCounts(0),
		cpu:        processCPU(),
	}
	for r := 1; r <= replicas; r++ {
		c.disk[r-1] = tb.cluster.ShardDiskStats(0, r)
	}
	for _, cl := range tb.clients {
		sent, _ := cl.HedgeStats()
		c.hedges += sent
	}
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	c.mallocs, c.allocBytes, c.gcPause = mem.Mallocs, mem.TotalAlloc, time.Duration(mem.PauseTotalNs)
	return c
}

// processCPU is the user plus system CPU time this process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// lagSampler polls every live replica's applied sequence number every
// 100 ms and keeps the widest spread seen — the follower lag of the
// replicated log. It runs in traced windows only, and there only in the
// even seconds: the odd seconds stay untraced, so one run can tell what
// tracing costs (tracingOn, bench.trace_overhead_ratio).
func (tb *testbed) lagSampler(start time.Time, stop <-chan struct{}, max *uint64) {
	tick := time.NewTicker(100 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
		}
		if !tracingOn(time.Since(start)) {
			continue
		}
		var lo, hi uint64
		first := true
		for r := 1; r <= replicas; r++ {
			st, ok := tb.cluster.ShardServerStatus(0, r)
			if !ok || st.Recovering {
				continue
			}
			if first || st.AppliedSeq < lo {
				lo = st.AppliedSeq
			}
			if first || st.AppliedSeq > hi {
				hi = st.AppliedSeq
			}
			first = false
		}
		if hi-lo > *max {
			*max = hi - lo
		}
	}
}

// tracingOn reports whether the sampler is active at offset t of a traced
// window.
func tracingOn(t time.Duration) bool { return (t/time.Second)%2 == 0 }

// window is everything one measured window produced.
type window struct {
	start    time.Time
	setup    time.Duration // everything before the window
	samples  []sample
	elapsed  time.Duration
	before   counters
	after    counters
	faults   *faults
	open     openRun
	lagMax   uint64
	bound    [2]sim.NodeID // replica each client was bound to at the end
	statuses [replicas]statusView
}

// statusView is the part of a replica's status the metrics use.
type statusView struct {
	ok        bool
	nvramUsed int
	engineLog int
	ckptSeq   uint64
}

// measure runs the warm-up (untimed, the workload itself) and then the
// timed window; everything from setupStart to the start of the window is
// the run's set-up time. traced adds the status sampler.
func (tb *testbed) measure(seed int64, dur time.Duration, traced bool, setupStart time.Time) *window {
	w := tb.w
	if w.openLoop() {
		tb.openLoop(schedule(w, seed, streamWarmup, w.warmup), streamWarmup, nil)
	} else {
		tb.closedLoop(seed, streamWarmup, w.warmup)
	}
	runtime.GC()

	win := &window{setup: time.Since(setupStart)}
	win.before = tb.readCounters()
	win.start = time.Now()
	stop := make(chan struct{})
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		if traced {
			tb.lagSampler(win.start, stop, &win.lagMax)
		}
	}()
	if w.openLoop() {
		win.faults = failoverPlan(dur)
		win.samples, win.elapsed, win.open = tb.openLoop(schedule(w, seed, streamMeasured, dur), streamMeasured, win.faults)
	} else {
		win.samples, win.elapsed = tb.closedLoop(seed, streamMeasured, dur)
	}
	win.after = tb.readCounters()
	close(stop)
	<-sampled

	for ci, cl := range tb.clients {
		win.bound[ci] = boundTo(cl)
	}
	for r := 1; r <= replicas; r++ {
		if st, ok := tb.cluster.ShardServerStatus(0, r); ok {
			win.statuses[r-1] = statusView{ok: true, nvramUsed: st.NVRAMUsed, engineLog: st.EngineLog, ckptSeq: st.CheckpointSeq}
		}
	}
	return win
}

// srttMS is the mean smoothed round-trip time the clients' transports
// hold for the replicas they are bound to.
func srttMS(clients [2]*dirclient.Client) float64 {
	var sum float64
	var n int
	for _, cl := range clients {
		if st := cl.ReplicaStats(0); len(st) > 0 && st[0].Samples > 0 {
			sum += float64(st[0].SRTT) / float64(time.Millisecond)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}
