package main

import (
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"time"

	faultdir "dirsvc"
	"dirsvc/internal/bullet"
	"dirsvc/internal/capability"
	"dirsvc/internal/dirdata"
	"dirsvc/internal/dirsvc"
	"dirsvc/internal/flip"
	"dirsvc/internal/group"
	"dirsvc/internal/rpc"
	"dirsvc/internal/sim"
	"dirsvc/internal/vdisk"
)

// A probe drives one layer's exported functions in isolation, under the
// workload's latency model, on hardware of its own: what the layer costs
// when nothing else contends. Probes run after the cluster is closed.

// prober collects probe results: metric values and one span per call (or
// per batch, for calls too short to time singly).
type prober struct {
	w     *workload
	model *sim.LatencyModel
	epoch time.Time // spans are offsets from the run's window start
	m     map[string]float64
	spans []probeSpan
}

// probeSpan is one probe call as written to the trace file.
type probeSpan struct {
	Name    string  `json:"name"`
	StartUS float64 `json:"start_us"`
	DurUS   float64 `json:"dur_us"`
	Calls   int     `json:"calls"` // > 1: a batch timed as one
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// each times n calls of fn one by one and returns their mean in ms. The
// simulator sleeps sub-millisecond charges off in ≥ 1 ms chunks, so single
// calls are bimodal and only the mean is calibrated.
func (p *prober) each(name string, n int, fn func(i int) error) (float64, error) {
	var total time.Duration
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := fn(i); err != nil {
			return 0, fmt.Errorf("probe %s: %w", name, err)
		}
		d := time.Since(t0)
		total += d
		p.spans = append(p.spans, probeSpan{Name: name, StartUS: us(t0.Sub(p.epoch)), DurUS: us(d), Calls: 1})
	}
	return ms(total) / float64(n), nil
}

// batch times n calls of fn as one span and returns ns and heap
// allocations per call.
func (p *prober) batch(name string, n int, fn func(i int)) (nsPerCall, allocsPerCall float64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	d := time.Since(t0)
	runtime.ReadMemStats(&after)
	p.spans = append(p.spans, probeSpan{Name: name, StartUS: us(t0.Sub(p.epoch)), DurUS: us(d), Calls: n})
	return float64(d) / float64(n), float64(after.Mallocs-before.Mallocs) / float64(n)
}

// Probes run under the model's scaled-down time-outs, which the simulator's
// ≥ 1 ms sleeps and a shared host can overrun: a locate nobody answered in
// its window is broadcast again, up to locateTries times in all, and a
// probe that fails is run again on a fresh fixture, up to probeTries times
// in all, before the run is given up.
const (
	locateTries = 50
	probeTries  = 3
)

// run runs every probe and fills p.m.
func (p *prober) run() error {
	for _, probe := range []func() error{
		p.wire, p.group, p.vdisk, p.codec, p.applier, p.logs, p.dirdata, p.localdir,
	} {
		var err error
		for try, kept := 0, len(p.spans); try < probeTries; try++ {
			p.spans = p.spans[:kept] // a failed attempt leaves no spans
			if err = probe(); err == nil {
				break
			}
		}
		if err != nil {
			return err
		}
	}
	return nil
}

var probePayload = make([]byte, 64)

// wire probes sim, flip and rpc on one two-host segment: a frame one
// way, a port-addressed message one way, a locate, a null transaction.
func (p *prober) wire() error {
	raw := sim.NewNetwork(p.model, 1)
	src, dst := raw.AddNode("probe-src"), raw.AddNode("probe-dst")
	arrived := make(chan struct{})
	go func() {
		for {
			if _, ok := dst.Recv(); !ok {
				return
			}
			arrived <- struct{}{}
		}
	}()
	v, err := p.each("sim.oneway_ms", 100, func(int) error {
		if err := src.Unicast(dst.ID(), probePayload); err != nil {
			return err
		}
		<-arrived
		return nil
	})
	dst.Crash() // ends the receiver
	if err != nil {
		return err
	}
	p.m["sim.oneway_ms"] = v

	net := sim.NewNetwork(p.model, 1)
	a, b := net.AddNode("probe-a"), net.AddNode("probe-b")
	sa, sb := flip.NewStack(a), flip.NewStack(b)
	defer sa.Close()
	defer sb.Close()
	port := dirsvc.ServicePort("bench-probe")
	l, err := sb.Register(port)
	if err != nil {
		return err
	}
	if p.m["flip.oneway_ms"], err = p.each("flip.oneway_ms", 100, func(int) error {
		if err := sa.Send(b.ID(), port, probePayload); err != nil {
			return err
		}
		if _, ok := l.Recv(); !ok {
			return errors.New("listener closed")
		}
		return nil
	}); err != nil {
		return err
	}
	// A locate as the rpc layer makes it: its window (3 ms at scale 0.2)
	// and another broadcast when that closes unanswered, included in the
	// time.
	window := p.model.Timeout(15 * time.Millisecond)
	if p.m["flip.locate_ms"], err = p.each("flip.locate_ms", 20, func(int) error {
		for try := 0; try < locateTries; try++ {
			found, err := sa.Locate(port, window, 1)
			if err != nil || len(found) > 0 {
				return err
			}
		}
		return errors.New("nobody answered the locate")
	}); err != nil {
		return err
	}
	l.Close()

	echoPort := dirsvc.ServicePort("bench-probe-echo")
	srv, err := rpc.NewServer(sb, echoPort)
	if err != nil {
		return err
	}
	stop := srv.ServeFunc(1, func(r *rpc.Request) []byte { return r.Payload })
	defer func() { srv.Close(); stop() }()
	cl, err := rpc.NewClient(sa)
	if err != nil {
		return err
	}
	defer cl.Close()
	if _, err := cl.Trans(echoPort, probePayload); err != nil { // locates the server
		return fmt.Errorf("probe rpc.null_trans_ms: %w", err)
	}
	p.m["rpc.null_trans_ms"], err = p.each("rpc.null_trans_ms", 50, func(int) error {
		_, err := cl.Trans(echoPort, probePayload)
		return err
	})
	return err
}

// group probes a three-member group with resilience 2: a send from the
// sequencer and one from a plain member, and the frames each costs.
func (p *prober) group() error {
	net := sim.NewNetwork(p.model, 1)
	cfg := group.Config{Port: dirsvc.GroupPort("bench-probe"), Resilience: replicas - 1}
	var members []*group.Member
	defer func() {
		for _, m := range members {
			m.Close()
		}
	}()
	for i := 0; i < replicas; i++ {
		stack := flip.NewStack(net.AddNode("probe-member"))
		defer stack.Close()
		var m *group.Member
		var err error
		if i == 0 {
			m, err = group.Create(stack, cfg)
		} else {
			m, err = group.Join(stack, cfg, 5*time.Second)
		}
		if err != nil {
			return fmt.Errorf("probe group: member %d: %w", i, err)
		}
		members = append(members, m)
		go func() { // a member must consume the total order
			for {
				if _, err := m.Receive(); err != nil && !errors.Is(err, group.ErrGroupFailure) {
					return
				}
			}
		}()
	}
	const sends = 30
	before := net.Stats().FramesSent
	var err error
	if p.m["group.send_seq_ms"], err = p.each("group.send_seq_ms", sends, func(int) error {
		_, err := members[0].Send(probePayload)
		return err
	}); err != nil {
		return err
	}
	if p.m["group.send_member_ms"], err = p.each("group.send_member_ms", sends, func(int) error {
		_, err := members[1].Send(probePayload)
		return err
	}); err != nil {
		return err
	}
	p.m["group.frames_per_send"] = float64(net.Stats().FramesSent-before) / (2 * sends)
	return nil
}

// vdisk probes the three storage operations the write paths use.
func (p *prober) vdisk() error {
	disk := vdisk.New(p.model, 64)
	part, err := vdisk.NewPartition(disk, 0, 64)
	if err != nil {
		return err
	}
	nv := vdisk.NewNVRAM(p.model, 4096)
	block := make([]byte, vdisk.BlockSize)
	if p.m["vdisk.nvram_write_ms"], err = p.each("vdisk.nvram_write_ms", 200, func(i int) error {
		return nv.Write(i%32*100, probePayload)
	}); err != nil {
		return err
	}
	if p.m["vdisk.seq_write_ms"], err = p.each("vdisk.seq_write_ms", 20, func(i int) error {
		return part.WriteBlockSeq(i, block)
	}); err != nil {
		return err
	}
	p.m["vdisk.rand_write_ms"], err = p.each("vdisk.rand_write_ms", 10, func(i int) error {
		return part.WriteBlock(i*5%64, block)
	})
	return err
}

// pairRequests are the two updates of one append-delete pair as they
// travel on the wire.
func pairRequests(dir capability.Capability, i int) (appendReq, deleteReq *dirsvc.Request) {
	name := tmpName(streamMeasured, 0, i)
	all := []capability.Rights{capability.AllRights, capability.AllRights, capability.AllRights}
	return &dirsvc.Request{Op: dirsvc.OpAppendRow, Dir: dir, Name: name, Cap: dir, Masks: all},
		&dirsvc.Request{Op: dirsvc.OpDeleteRow, Dir: dir, Name: name}
}

// codec probes the wire format: one update request and its reply,
// encoded and decoded.
func (p *prober) codec() error {
	req, _ := pairRequests(target(0, 0), 12345)
	reply := &dirsvc.Reply{Status: dirsvc.StatusOK, Cap: target(0, 0), Seq: 12345}
	rawReq, rawReply := req.Encode(), reply.Encode()
	if _, err := dirsvc.DecodeRequest(rawReq); err != nil {
		return fmt.Errorf("probe dirsvc codec: %w", err)
	}
	if _, err := dirsvc.DecodeReply(rawReply); err != nil {
		return fmt.Errorf("probe dirsvc codec: %w", err)
	}
	const n = 20000
	encNS, encAllocs := p.batch("dirsvc.encode_ns", n, func(int) {
		_, _ = req.Encode(), reply.Encode()
	})
	decNS, decAllocs := p.batch("dirsvc.decode_ns", n, func(int) {
		_, _ = dirsvc.DecodeRequest(rawReq)
		_, _ = dirsvc.DecodeReply(rawReply)
	})
	p.m["dirsvc.encode_ns"] = encNS
	p.m["dirsvc.decode_ns"] = decNS
	p.m["dirsvc.codec_allocs"] = encAllocs + decAllocs
	return nil
}

// applier probes the deterministic applier on a zero-latency store, set
// up the way a directory server uses it (internal/dirsvc/apply_test.go):
// a read, an update applied to RAM as both measured write paths do, and
// the encoding of a snapshot of the workload's namespace.
func (p *prober) applier() error {
	fast := sim.FastModel()
	net := sim.NewNetwork(fast, 1)
	const service = "bench-probe-apply"
	bstack := flip.NewStack(net.AddNode("probe-bullet"))
	defer bstack.Close()
	disk := vdisk.New(fast, 4096)
	bpart, err := vdisk.NewPartition(disk, 64, 4096-64)
	if err != nil {
		return err
	}
	store, err := bullet.NewStore(dirsvc.BulletPort(service, 1), bpart)
	if err != nil {
		return err
	}
	bsrv, err := bullet.NewServer(bstack, store, 2, dirsvc.BulletPort(service, 1))
	if err != nil {
		return err
	}
	defer bsrv.Close()
	dstack := flip.NewStack(net.AddNode("probe-dir"))
	defer dstack.Close()
	rc, err := rpc.NewClient(dstack)
	if err != nil {
		return err
	}
	defer rc.Close()
	admin, err := vdisk.NewPartition(disk, 0, 17)
	if err != nil {
		return err
	}
	table, err := dirsvc.OpenObjectTable(admin)
	if err != nil {
		return err
	}
	a := dirsvc.NewApplier(dirsvc.ServicePort(service), table, bullet.NewClient(rc, dirsvc.BulletPort(service, 1)))
	if err := a.FormatRoot(false); err != nil {
		return fmt.Errorf("probe applier: %w", err)
	}

	seq := uint64(1)
	apply := func(req *dirsvc.Request) (*dirsvc.Reply, error) {
		seq++
		res, err := a.ApplyUpdate(req, seq, false)
		if err != nil {
			return nil, fmt.Errorf("probe applier: %s: %w", req.Op, err)
		}
		return res.Reply, nil
	}
	var dir capability.Capability
	all := []capability.Rights{capability.AllRights, capability.AllRights, capability.AllRights}
	for d := 0; d < p.w.dirs; d++ {
		reply, err := apply(&dirsvc.Request{Op: dirsvc.OpCreateDir, CheckSeed: []byte("bench-" + strconv.Itoa(d))})
		if err != nil {
			return err
		}
		dir = reply.Cap
		for n := 0; n < p.w.names; n++ {
			if _, err := apply(&dirsvc.Request{Op: dirsvc.OpAppendRow, Dir: dir, Name: "n" + strconv.Itoa(n), Cap: target(d, n), Masks: all}); err != nil {
				return err
			}
		}
	}

	lookup := &dirsvc.Request{Op: dirsvc.OpLookupSet, Dir: dir, Set: []dirsvc.SetItem{{Name: "n0"}}}
	if reply := a.Read(lookup); reply.Status != dirsvc.StatusOK {
		return fmt.Errorf("probe applier: read: %w", reply.Status.Err())
	}
	p.m["dirsvc.read_ns"], _ = p.batch("dirsvc.read_ns", 20000, func(int) { a.Read(lookup) })

	const pairs = 5000
	var applyErr error
	ns, allocs := p.batch("dirsvc.apply_ns", pairs, func(i int) {
		appendReq, deleteReq := pairRequests(dir, i)
		if _, err := apply(appendReq); err != nil {
			applyErr = err
		}
		if _, err := apply(deleteReq); err != nil {
			applyErr = err
		}
	})
	if applyErr != nil {
		return applyErr
	}
	p.m["dirsvc.apply_ns"], p.m["dirsvc.apply_allocs"] = ns/2, allocs/2 // per update

	var size int
	snapNS, _ := p.batch("dirsvc.snapshot_encode_ms", 20, func(int) {
		size = len(a.SnapshotState(seq, 0).Encode())
	})
	if size == 0 {
		return errors.New("probe applier: empty snapshot")
	}
	p.m["dirsvc.snapshot_encode_ms"] = snapNS / 1e6
	return nil
}

// logs probes the two critical-path logs: an NVRAM log append (an append
// and the delete that cancels it, as a pair produces them) and an engine
// write-ahead append.
func (p *prober) logs() error {
	nvlog, err := dirsvc.OpenNVLog(vdisk.NewNVRAM(p.model, vdisk.DefaultNVRAMSize))
	if err != nil {
		return err
	}
	dir := target(0, 0)
	seq := uint64(0)
	if p.m["dirsvc.nvlog_append_ms"], err = p.each("dirsvc.nvlog_append_ms", 100, func(i int) error {
		if nvlog.NeedsFlush() {
			if err := nvlog.Clear(); err != nil {
				return err
			}
		}
		appendReq, deleteReq := pairRequests(dir, i/2)
		req := appendReq
		if i%2 == 1 {
			req = deleteReq
		}
		seq++
		_, err := nvlog.Append(req, seq)
		return err
	}); err != nil {
		return err
	}

	part, err := vdisk.NewPartition(vdisk.New(p.model, 1024), 0, 1024)
	if err != nil {
		return err
	}
	engine, err := dirsvc.OpenEngine(part)
	if err != nil {
		return err
	}
	appendReq, _ := pairRequests(dir, 0)
	record := appendReq.Encode()
	p.m["dirsvc.engine_append_ms"], err = p.each("dirsvc.engine_append_ms", 30, func(i int) error {
		return engine.AppendLog(uint64(i+1), record)
	})
	return err
}

// dirdata probes the directory table itself: a lookup in, and the
// encoding of, a directory of the workload's size.
func (p *prober) dirdata() error {
	d := dirdata.New()
	all := []capability.Rights{capability.AllRights, capability.AllRights, capability.AllRights}
	for n := 0; n < p.w.names; n++ {
		if err := d.Append("n"+strconv.Itoa(n), target(0, n), all); err != nil {
			return fmt.Errorf("probe dirdata: %w", err)
		}
	}
	last := "n" + strconv.Itoa(p.w.names-1)
	p.m["dirdata.lookup_ns"], _ = p.batch("dirdata.lookup_ns", 100000, func(int) { _, _ = d.Lookup(last) })
	p.m["dirdata.encode_ns"], _ = p.batch("dirdata.encode_ns", 20000, func(int) { _ = d.Encode() })
	return nil
}

// localdir is the single-node baseline the replicated latencies are read
// against: the unreplicated server under the same latency model, one
// client, one second of lookups and one of pairs.
func (p *prober) localdir() error {
	c, err := faultdir.New(faultdir.KindLocal, faultdir.Options{Model: p.model})
	if err != nil {
		return fmt.Errorf("probe localdir: %w", err)
	}
	defer c.Close()
	cl, _, err := c.NewClient()
	if err != nil {
		return fmt.Errorf("probe localdir: %w", err)
	}
	dir, err := cl.CreateDir(bg)
	if err != nil {
		return fmt.Errorf("probe localdir: %w", err)
	}
	if err := cl.Append(bg, dir, "n0", target(0, 0), nil); err != nil {
		return fmt.Errorf("probe localdir: %w", err)
	}
	loop := func(name string, fn func(i int) error) (float64, error) {
		var lat []time.Duration
		start := time.Now()
		for i := 0; time.Since(start) < time.Second; i++ {
			t0 := time.Now()
			if err := fn(i); err != nil {
				return 0, fmt.Errorf("probe %s: %w", name, err)
			}
			lat = append(lat, time.Since(t0))
		}
		p.spans = append(p.spans, probeSpan{Name: name, StartUS: us(start.Sub(p.epoch)), DurUS: us(time.Since(start)), Calls: len(lat)})
		return quantile(msOf(lat), 0.5), nil
	}
	if p.m["localdir.lookup_ms"], err = loop("localdir.lookup_ms", func(int) error {
		_, err := cl.Lookup(bg, dir, "n0")
		return err
	}); err != nil {
		return err
	}
	p.m["localdir.pair_ms"], err = loop("localdir.pair_ms", func(i int) error {
		name := tmpName(streamMeasured, 0, i)
		if err := cl.Append(bg, dir, name, dir, nil); err != nil {
			return err
		}
		return cl.Delete(bg, dir, name)
	})
	return err
}
