package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestQuantileInterpolates(t *testing.T) {
	s := []float64{10, 20, 30, 40, 50}
	for _, c := range []struct{ q, want float64 }{
		{0, 10}, {0.5, 30}, {0.95, 48}, {1, 50}, {0.125, 15},
	} {
		if got := quantile(s, c.q); !near(got, c.want) {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of nothing = %v, want 0", got)
	}
}

// The expected values are what Python's statistics.quantiles(v, n=4)
// prints: the driver judges spread with it.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in     []float64
		q1, q3 float64
	}{
		{[]float64{3, 1, 4, 1, 5, 9, 2, 6}, 1.25, 5.75},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 20}, 7.5, 22.5},
		{[]float64{5, 7, 9}, 5, 9},
	} {
		q1, q3 := quartiles(c.in)
		if !near(q1, c.q1) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", c.in, q1, q3, c.q1, c.q3)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, 1) {
		t.Errorf("spread = %v, want 1", got)
	}
}

func TestTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		q    float64
		n    int
		want bool
	}{
		{0.95, 200, true}, {0.95, 199, false},
		{0.99, 720, false}, {0.99, 1000, true},
		{0.5, 20, true}, {0.5, 19, false},
	} {
		if got := supported(c.q, c.n); got != c.want {
			t.Errorf("supported(%v, %d) = %v, want %v", c.q, c.n, got, c.want)
		}
	}
}

func TestSeedFixesOpSequence(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		if sequenceHash(w, 7, 2048) != sequenceHash(w, 7, 2048) {
			t.Errorf("%s: one seed gave two op sequences", w.name)
		}
		if sequenceHash(w, 7, 2048) == sequenceHash(w, 8, 2048) {
			t.Errorf("%s: seeds 7 and 8 gave the same op sequence", w.name)
		}
	}
	// The warm-up must not shift the measured sequence.
	w := workloadByName("mixed-soft")
	warm, measured := newGenerator(w, 7, streamWarmup, 0), newGenerator(w, 7, streamMeasured, 0)
	same := true
	for i := 0; i < 64; i++ {
		if warm.next() != measured.next() {
			same = false
		}
	}
	if same {
		t.Error("warm-up and measured streams are the same sequence")
	}
}

func TestScheduleIsOnTheTimetable(t *testing.T) {
	w := workloadByName("failover-wal")
	ops := schedule(w, 1, streamMeasured, 2*time.Second)
	if len(ops) != 2*2*w.ratePerClient {
		t.Fatalf("%d ops in 2 s, want %d", len(ops), 2*2*w.ratePerClient)
	}
	for i, o := range ops {
		if i > 0 && o.due < ops[i-1].due {
			t.Fatalf("op %d due before op %d", i, i-1)
		}
		if o.client == 0 && o.kind != opLookup {
			t.Fatalf("client A issues a %v", o.kind)
		}
	}
	f := failoverPlan(15 * time.Second)
	if f.crashAt != 2250*time.Millisecond || f.restartAt != 12*time.Second {
		t.Errorf("15 s plan: crash %v restart %v", f.crashAt, f.restartAt)
	}
	f = failoverPlan(20 * time.Second)
	if f.crashAt != 3*time.Second || f.restartAt != 13*time.Second {
		t.Errorf("20 s plan: crash %v restart %v", f.crashAt, f.restartAt)
	}
}

func TestBareTraceFlag(t *testing.T) {
	for _, c := range []struct{ in, want []string }{
		{[]string{"bench", "-trace"}, []string{"bench", "-trace", "1"}},
		{[]string{"bench", "--trace", "0", "-seed", "3"}, []string{"bench", "--trace", "0", "-seed", "3"}},
		{[]string{"bench", "-trace", "-seed", "3"}, []string{"bench", "-trace", "1", "-seed", "3"}},
	} {
		if got := bareTrace(c.in); !reflect.DeepEqual(got, c.want) {
			t.Errorf("bareTrace(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestCompareSetsFlagsADrift(t *testing.T) {
	set := func(rate float64) *resultSet {
		s := &resultSet{}
		for i := 0; i < 5; i++ {
			s.Runs = append(s.Runs, &result{Workload: "lookup-nvram", Correct: true,
				Metrics: map[string]float64{"ops_per_s": rate + float64(i)}})
		}
		return s
	}
	bounds := map[string]float64{"ops_per_s": 0.05}
	if bad := compareSets(set(350), set(355), bounds); bad != 0 {
		t.Errorf("1.4 %% apart within a 5 %% bound: %d failures", bad)
	}
	if bad := compareSets(set(350), set(380), bounds); bad != 1 {
		t.Errorf("8.6 %% apart within a 5 %% bound: %d failures, want 1", bad)
	}
	failed := set(350)
	failed.Runs[0].Failed = 1
	if bad := compareSets(failed, set(350), bounds); bad != 1 {
		t.Errorf("a failed run: %d failures, want 1", bad)
	}
}

// BENCHMARK.json is the driver's copy of what spec.go declares.
func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f struct {
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name string }
		EndToEnd   []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer   []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &f); err != nil {
		t.Fatal(err)
	}
	if f.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, default window %d", f.RunSeconds, defaultSeconds)
	}
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d implemented", len(f.Workloads), len(workloads))
	}
	for i, w := range f.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %q declared, %q implemented", i, w.Name, workloads[i].name)
		}
	}
	check := func(kind string, declared []struct{ Name, Unit string }, defs []metricDef) {
		if len(declared) != len(defs) {
			t.Errorf("%s: %d metrics declared, %d reported", kind, len(declared), len(defs))
			return
		}
		for i, d := range declared {
			if d.Name != defs[i].name || d.Unit != defs[i].unit {
				t.Errorf("%s metric %d: %s [%s] declared, %s [%s] reported", kind, i, d.Name, d.Unit, defs[i].name, defs[i].unit)
			}
		}
	}
	check("end_to_end", f.EndToEnd, endToEnd)
	check("per_layer", f.PerLayer, perLayer)
}

// One short zero-latency closed loop through the whole path: canonical
// set-up, warm-up, window, verifier.
func TestSmokeRun(t *testing.T) {
	w := *workloadByName("mixed-soft")
	w.warmup = 100 * time.Millisecond
	r, err := runOne(&w, 3, 300*time.Millisecond, false)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
		t.Fatalf("attempted %d failed %d correct %v problems %v", r.Attempted, r.Failed, r.Correct, r.Problems)
	}
	if r.Bound != [2]int{1, 2} {
		t.Errorf("clients bound to replicas %v, want [1 2]", r.Bound)
	}
	for _, d := range endToEnd {
		if r.Metrics[d.name] <= 0 {
			t.Errorf("%s = %v, want > 0", d.name, r.Metrics[d.name])
		}
	}
	var line struct {
		Correct bool
		Metrics map[string]struct{ Value float64 }
	}
	if err := json.Unmarshal([]byte(r.contractLine()), &line); err != nil || !line.Correct || len(line.Metrics) != len(endToEnd) {
		t.Errorf("contract line %s: %v", r.contractLine(), err)
	}
}
