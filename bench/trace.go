package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"
)

// outDir is where traces and -aa result sets go, relative to the
// working directory (the repository root).
const outDir = "bench/out"

// maxSpans bounds the root spans written per trace file; mixed-soft
// completes several hundred thousand ops in a window.
const maxSpans = 50000

// rootSpan is one client call as written to the trace file.
type rootSpan struct {
	ID      int     `json:"id"`
	Client  string  `json:"client"`
	Kind    string  `json:"kind"`
	DueUS   float64 `json:"due_us"`
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`
	Tries   int     `json:"tries"`
	Err     string  `json:"err,omitempty"`
}

// childSpan is a probe call standing in for a child of a root span: the
// spans inside internal/ that would say where an op's time went do not
// exist yet, so the probe of the layer it crossed is attached to the op
// of median latency of the kind that crosses it.
type childSpan struct {
	probeSpan
	Parent int `json:"parent"` // root span id, -1 when the workload has no such op
}

// standsFor says which kind of op each probe is a child of; probes not
// listed are baselines and have no parent.
var standsFor = map[string][]opKind{
	"rpc.null_trans_ms":       {opLookup, opPair},
	"dirsvc.read_ns":          {opLookup},
	"group.send_seq_ms":       {opPair},
	"group.send_member_ms":    {opPair},
	"dirsvc.nvlog_append_ms":  {opPair},
	"dirsvc.engine_append_ms": {opPair},
	"dirsvc.apply_ns":         {opPair},
}

// kindMedian returns the median latency of the correct ops of one kind
// and the index of the sample closest to it (-1 if there is none). Across
// a fail-over only the ops that were not late count: the budget is about
// what an op costs, not about the outage.
func (win *window) kindMedian(kind opKind) (medMS float64, id int) {
	counts := func(s *sample) bool {
		return s.kind == kind && s.err == nil && (win.faults == nil || s.latency() <= lateAfter)
	}
	var lat []time.Duration
	for i := range win.samples {
		if s := &win.samples[i]; counts(s) {
			lat = append(lat, s.latency())
		}
	}
	if len(lat) == 0 {
		return 0, -1
	}
	medMS = quantile(msOf(lat), 0.5)
	id, best := -1, 0.0
	for i := range win.samples {
		s := &win.samples[i]
		if !counts(s) {
			continue
		}
		if d := math.Abs(ms(s.latency()) - medMS); id < 0 || d < best {
			id, best = i, d
		}
	}
	return medMS, id
}

// tracedExtras completes a traced run: probes, the estimates that need
// both probes and spans, the budget lines, and the span file.
func tracedExtras(w *workload, win *window, r *result) error {
	p := &prober{w: w, model: w.model(), epoch: win.start, m: r.Metrics}
	if err := p.run(); err != nil {
		return err
	}
	m := r.Metrics

	// The sampler ran in the even seconds only. Median latency, not
	// throughput, is compared: it does not care which half a flush stall
	// or the outage fell into.
	var on, off []time.Duration
	for i := range win.samples {
		if s := &win.samples[i]; s.err == nil && tracingOn(s.end) {
			on = append(on, s.latency())
		} else if s.err == nil {
			off = append(off, s.latency())
		}
	}
	m["bench.trace_overhead_ratio"] = per(quantile(msOf(off), 0.5), quantile(msOf(on), 0.5))

	var medianID map[opKind]int
	r.Budget, medianID = budget(w, win, m)
	return writeTrace(w, win, r, p.spans, medianID)
}

// budget prints, per op kind the workload issues, the median root span
// against the sum of the probes of the layers it crosses and the model's
// own CPU charges — next to the paper's §4 arithmetic — and records the
// unexplained rest of the dominant kind as dirclient.self_est_ms.
func budget(w *workload, win *window, m map[string]float64) (lines []string, medianID map[opKind]int) {
	model := w.model()
	scaled := func(d time.Duration) float64 { return ms(d) * model.Scale }
	medianID = map[opKind]int{}

	lookupMS, id := win.kindMedian(opLookup)
	medianID[opLookup] = id
	var lookupRest float64
	if id >= 0 {
		parts := m["rpc.null_trans_ms"] + scaled(model.LookupCPU) + m["dirsvc.read_ns"]/1e6
		lookupRest = lookupMS - parts
		lines = append(lines, fmt.Sprintf(
			"%s lookup: p50 %.3f ms ≈ rpc.null_trans %.3f + model LookupCPU %.3f + dirsvc.read %.4f + residual %.3f   (paper §4.2: ≈ 3 ms server CPU per lookup)",
			w.name, lookupMS, m["rpc.null_trans_ms"], scaled(model.LookupCPU), m["dirsvc.read_ns"]/1e6, lookupRest))
	}

	pairMS, id := win.kindMedian(opPair)
	medianID[opPair] = id
	var pairRest float64
	if id >= 0 {
		logName, logMS := "dirsvc.nvlog_append", m["dirsvc.nvlog_append_ms"]
		if w.engine {
			logName, logMS = "dirsvc.engine_append", m["dirsvc.engine_append_ms"]
		}
		send := (m["group.send_seq_ms"] + m["group.send_member_ms"]) / 2
		update := m["rpc.null_trans_ms"] + send + logMS + scaled(model.UpdateCPU) + m["dirsvc.apply_ns"]/1e6
		pairRest = pairMS - 2*update
		lines = append(lines, fmt.Sprintf(
			"%s pair: p50 %.3f ms ≈ 2 × (rpc.null_trans %.3f + group.send %.3f + %s %.3f + model UpdateCPU %.3f + dirsvc.apply %.4f) + residual %.3f   (paper §4.1: ≈ %.1f ms per group+NVRAM update at this scale)",
			w.name, pairMS, m["rpc.null_trans_ms"], send, logName, logMS, scaled(model.UpdateCPU), m["dirsvc.apply_ns"]/1e6, pairRest, 13.5*model.Scale))
	}

	m["dirclient.self_est_ms"] = pairRest
	if w.lookupPct[0] >= 50 {
		m["dirclient.self_est_ms"] = lookupRest
	}
	return lines, medianID
}

// writeTrace writes the run's spans and metrics to outDir.
func writeTrace(w *workload, win *window, r *result, probes []probeSpan, medianID map[opKind]int) error {
	n := min(len(win.samples), maxSpans)
	spans := make([]rootSpan, n)
	for i := range spans {
		s := &win.samples[i]
		spans[i] = rootSpan{
			ID: i, Client: string(rune('A' + s.client)), Kind: s.kind.String(),
			DueUS: us(s.start), StartUS: us(s.issued), EndUS: us(s.end), Tries: s.tries,
		}
		if s.err != nil {
			spans[i].Err = s.err.Error()
		}
	}
	var children []childSpan
	for _, ps := range probes {
		kinds := standsFor[ps.Name]
		if len(kinds) == 0 {
			children = append(children, childSpan{ps, -1})
		}
		for _, k := range kinds {
			children = append(children, childSpan{ps, medianID[k]})
		}
	}
	doc := struct {
		Result     *result     `json:"result"`
		SpansTotal int         `json:"spans_total"`
		Spans      []rootSpan  `json:"spans"`
		ProbeSpans []childSpan `json:"probe_spans"`
	}{r, len(win.samples), spans, children}

	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	raw, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(outDir, "trace-"+w.name+".json"), raw, 0o644)
}
