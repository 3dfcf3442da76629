// Command bench is the repository's benchmark: five replica-pinned
// workloads over simulated clusters, end-to-end metrics from untraced
// runs and per-layer metrics from a traced run with probes. README.md in
// this directory has the glossary and the layer → end-to-end map.
//
//	go run ./bench -workload update-nvram -seed 7      one untraced run
//	go run ./bench -workload update-nvram -trace 1     one traced run
//	go run ./bench                                     one pass over all five
//	go run ./bench -trace 1                            one traced pass
//	go run ./bench -aa 5                               two sets of 5 passes, compared
//	go run ./bench -compare a.json b.json              two saved sets, compared
//
// Run it from the repository root: BENCHMARK.json and bench/out/ are
// found relative to the working directory.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload to run (default: one pass over all)")
		seed    = flag.Int64("seed", 1, "seed of the generated op sequence")
		seconds = flag.Float64("seconds", defaultSeconds, "length of the measured window")
		trace   = flag.Int("trace", 0, "1 runs the traced pass: spans, probes, per-layer metrics")
		aa      = flag.Int("aa", 0, "run two sets of k ≥ 5 passes and compare their medians")
		compare = flag.Bool("compare", false, "compare the two saved result files given as arguments")
	)
	os.Args = bareTrace(os.Args)
	flag.Parse()
	window := time.Duration(*seconds * float64(time.Second))

	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatal("usage: bench -compare a.json b.json")
		}
		os.Exit(compareFiles(flag.Arg(0), flag.Arg(1)))
	case *aa > 0:
		if *aa < 5 {
			fatal("-aa wants at least 5 passes per set")
		}
		os.Exit(runAA(*aa, *seed, window))
	case *name == "":
		os.Exit(runPass(*seed, window, *trace != 0))
	}

	w := workloadByName(*name)
	if w == nil {
		fatal("unknown workload %q", *name)
	}
	r, err := runOne(w, *seed, window, *trace != 0)
	if err != nil {
		fatal("%s: %v", w.name, err)
	}
	r.printTable(os.Stdout)
	if !r.Correct {
		// A mismatch exits non-zero without a result line.
		os.Exit(1)
	}
	fmt.Println(r.contractLine())
}

// bareTrace lets "-trace" stand for "-trace 1": the driver passes the
// flag with a value, people type it without.
func bareTrace(args []string) []string {
	out := make([]string, 0, len(args)+1)
	for i, a := range args {
		out = append(out, a)
		if a != "-trace" && a != "--trace" {
			continue
		}
		if i+1 == len(args) || (args[i+1] != "0" && args[i+1] != "1") {
			out = append(out, "1")
		}
	}
	return out
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}

// runOne runs one workload once: canonical set-up, warm-up, the timed
// window, the verifier and — traced — the probes and the span file.
func runOne(w *workload, seed int64, window time.Duration, traced bool) (*result, error) {
	setupStart := time.Now()
	tb, err := newTestbed(w)
	if err != nil {
		return nil, err
	}
	win := tb.measure(seed, window, traced, setupStart)
	problems := tb.verify()
	if win.faults != nil && win.faults.err != nil {
		problems = append(problems, win.faults.err.Error())
	}
	problems = append(problems, win.errorSamples(3)...)

	t := win.tally()
	r := &result{
		Workload:  w.name,
		Seed:      seed,
		Seconds:   window.Seconds(),
		Traced:    traced,
		Attempted: len(win.samples),
		Failed:    t.failed,
		Metrics:   win.endToEndMetrics(t),
		SeqHash:   fmt.Sprintf("%016x", sequenceHash(w, seed, 4096)),
		Problems:  problems,
	}
	for ci, node := range win.bound {
		r.Bound[ci] = (int(node) + 1) / 2
	}
	win.layerMetrics(tb, t, r.Metrics)
	tb.close() // the extra boots and the probes want the host to themselves
	bootS, err := meanBootS(w, tb.times.bootS)
	if err != nil {
		return nil, err
	}
	r.Metrics["setup_s"] += bootS - tb.times.bootS
	r.Invalid = validity(w, r.Metrics)
	r.Correct = len(problems) == 0 && r.Failed == 0
	if traced {
		if err := tracedExtras(w, win, r); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// runPass runs every workload once and prints each run's table.
func runPass(seed int64, window time.Duration, traced bool) int {
	status := 0
	for i := range workloads {
		r, err := runOne(&workloads[i], seed, window, traced)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", workloads[i].name, err)
			status = 1
			continue
		}
		r.printTable(os.Stdout)
		if !r.Correct {
			status = 1
		}
	}
	return status
}
