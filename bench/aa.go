package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// resultSet is a saved series of runs: what -aa writes and -compare reads.
type resultSet struct {
	Runs []*result `json:"runs"`
}

// benchmarkFile is the part of BENCHMARK.json the comparison needs.
type benchmarkFile struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// loadBounds reads each end-to-end metric's bound from BENCHMARK.json in
// the working directory.
func loadBounds() (map[string]float64, error) {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, err
	}
	var f benchmarkFile
	if err := json.Unmarshal(raw, &f); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	bounds := make(map[string]float64, len(f.EndToEnd))
	for _, m := range f.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	return bounds, nil
}

func loadSet(path string) (*resultSet, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s resultSet
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

func saveSet(path string, s *resultSet) error {
	raw, err := json.Marshal(s)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

// values collects one metric of one workload over a set's runs.
func (s *resultSet) values(workload, metric string) []float64 {
	var out []float64
	for _, r := range s.Runs {
		if v, ok := r.Metrics[metric]; ok && r.Workload == workload {
			out = append(out, v)
		}
	}
	return out
}

// failures counts the failed or incorrect runs of a set.
func (s *resultSet) failures() int {
	n := 0
	for _, r := range s.Runs {
		if !r.Correct || r.Failed > 0 {
			n++
		}
	}
	return n
}

// compareSets prints, per workload and gated metric, each set's median
// and quartiles, and returns the number of pairs of medians that differ
// by more than the metric's bound, plus the runs that failed.
func compareSets(a, b *resultSet, bounds map[string]float64) int {
	bad := a.failures() + b.failures()
	if bad > 0 {
		fmt.Printf("FAIL: %d runs failed an operation or the verifier (fail_ratio must stay 0)\n", bad)
	}
	fmt.Printf("%-13s %-14s %12s %12s %12s | %12s %12s %12s | %7s %7s %6s\n",
		"workload", "metric", "A q1", "A median", "A q3", "B q1", "B median", "B q3", "spread", "differ", "bound")
	for i := range workloads {
		w := workloads[i].name
		gated := map[string]float64{}
		for name, bound := range bounds {
			gated[name] = bound
		}
		for name, bound := range aaBounds[w] {
			gated[name] = bound
		}
		names := make([]string, 0, len(gated))
		for name := range gated {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			va, vb := a.values(w, name), b.values(w, name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := median(va), median(vb)
			a1, a3 := quartiles(va)
			b1, b3 := quartiles(vb)
			differ := per(math.Abs(mb-ma), math.Abs(ma))
			verdict := ""
			if differ > gated[name] {
				verdict = "  FAIL"
				bad++
			}
			fmt.Printf("%-13s %-14s %12.5g %12.5g %12.5g | %12.5g %12.5g %12.5g | %6.2f%% %6.2f%% %5.0f%%%s\n",
				w, name, a1, ma, a3, b1, mb, b3, 100*max(spread(va), spread(vb)), 100*differ, 100*gated[name], verdict)
		}
	}
	return bad
}

func compareFiles(pathA, pathB string) int {
	bounds, err := loadBounds()
	if err != nil {
		fatal("%v", err)
	}
	a, err := loadSet(pathA)
	if err != nil {
		fatal("%v", err)
	}
	b, err := loadSet(pathB)
	if err != nil {
		fatal("%v", err)
	}
	if compareSets(a, b, bounds) > 0 {
		return 1
	}
	return 0
}

// runAA runs two sets of k passes of the same code, every run on a seed
// of its own, saves them, and compares them: the benchmark's own check
// that it repeats within its bounds.
func runAA(k int, seed int64, window time.Duration) int {
	bounds, err := loadBounds()
	if err != nil {
		fatal("%v", err)
	}
	var sets [2]resultSet
	for si := range sets {
		for pass := 0; pass < k; pass++ {
			runSeed := seed + int64(si*k+pass)
			for i := range workloads {
				r, err := runOne(&workloads[i], runSeed, window, false)
				if err != nil {
					fatal("%s: %v", workloads[i].name, err)
				}
				fmt.Fprintf(os.Stderr, "set %c pass %d %-13s seed %d: %.5g ops/s, p50 %.5g ms, setup %.3g s, failed %d\n",
					'A'+si, pass+1, r.Workload, runSeed, r.Metrics["ops_per_s"], r.Metrics["op_p50_ms"], r.Metrics["setup_s"], r.Failed)
				sets[si].Runs = append(sets[si].Runs, r)
			}
		}
		if err := saveSet(filepath.Join(outDir, fmt.Sprintf("aa-%c.json", 'a'+si)), &sets[si]); err != nil {
			fatal("%v", err)
		}
	}
	if compareSets(&sets[0], &sets[1], bounds) > 0 {
		return 1
	}
	return 0
}
