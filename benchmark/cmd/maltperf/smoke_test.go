package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"

	"malt/benchmark/harness"
	"malt/benchmark/probes"
)

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// checkNames asserts the summary emits every declared metric exactly once,
// in a well-formed name, and nothing else.
func checkNames(t *testing.T, what string, got []harness.Metric, want []harness.Def) {
	t.Helper()
	seen := map[string]int{}
	for _, m := range got {
		seen[m.Name]++
		if !metricName.MatchString(m.Name) {
			t.Errorf("%s: malformed metric name %q", what, m.Name)
		}
	}
	for _, d := range want {
		if seen[d.Name] != 1 {
			t.Errorf("%s: metric %s emitted %d times, want once", what, d.Name, seen[d.Name])
		}
		delete(seen, d.Name)
	}
	for name := range seen {
		t.Errorf("%s: undeclared metric %s", what, name)
	}
}

// TestSmoke runs one quick traced round of every workload (a few steps on
// a cut-down dataset) and every probe at a token length: every output check
// must pass and every declared metric must come out exactly once.
func TestSmoke(t *testing.T) {
	dir := t.TempDir()
	pm, err := probes.Run(2*time.Millisecond, dir, 1)
	if err != nil {
		t.Fatalf("probes: %v", err)
	}
	for _, w := range harness.Workloads {
		quick := *w
		quick.Train = min(w.Train, 2400)
		quick.Test = 200
		quick.SerialExamples = max(w.SerialExamples/50, 20)
		steps := 30
		if w.NN {
			steps = 4
		}
		trace := filepath.Join(dir, w.Name+".trace.json")
		res, err := harness.RunRound(harness.RoundConfig{
			Workload: &quick, Seed: 1, Steps: steps, Warmup: 2,
			Traced: true, TracePath: trace, SockDir: dir, Start: time.Now(),
		})
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: %d of %d operations failed: %v", w.Name, res.Failed, res.Attempted, res.Failures)
		}
		e2e := harness.SummarizeEndToEnd(&quick, []*harness.RoundResult{res})
		checkNames(t, w.Name+" end-to-end", e2e.Metrics, harness.EndToEnd)
		for _, m := range e2e.Metrics {
			if !(m.Value > 0) {
				t.Errorf("%s: end-to-end metric %s = %v, must be positive", w.Name, m.Name, m.Value)
			}
		}
		pl := harness.SummarizePerLayer(&quick, res, res, pm)
		checkNames(t, w.Name+" per-layer", pl.Metrics, harness.PerLayer)
		if e2e.Failed+pl.Failed != 0 {
			t.Errorf("%s: failed checks: %v %v", w.Name, e2e.Failures, pl.Failures)
		}

		var doc struct {
			TraceEvents []map[string]any `json:"traceEvents"`
		}
		raw, err := os.ReadFile(trace)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(raw, &doc); err != nil {
			t.Fatalf("%s: trace is not JSON: %v", w.Name, err)
		}
		if len(doc.TraceEvents) < harness.Ranks*steps*5 {
			t.Errorf("%s: trace holds %d events for %d steps on %d ranks", w.Name, len(doc.TraceEvents), steps, harness.Ranks)
		}

		out, err := resultJSON(e2e)
		if err != nil {
			t.Fatal(err)
		}
		var result map[string]json.RawMessage
		if err := json.Unmarshal(out, &result); err != nil {
			t.Fatal(err)
		}
		for _, key := range []string{"correct", "attempted", "failed", "metrics"} {
			if _, ok := result[key]; !ok {
				t.Errorf("result lacks key %q", key)
			}
		}
		if len(result) != 4 {
			t.Errorf("result has %d keys, want exactly 4", len(result))
		}
	}
}

// TestBenchmarkJSON keeps the file at the repository root equal to what
// the workload and metric tables generate (maltperf -describe).
func TestBenchmarkJSON(t *testing.T) {
	got, err := os.ReadFile(filepath.Join("..", "..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, benchmarkJSON()) {
		t.Errorf("BENCHMARK.json differs from `maltperf -describe`; regenerate it")
	}
	for _, w := range harness.Workloads {
		if len(w.Why) > 200 {
			t.Errorf("%s: why is %d characters, the limit is 200", w.Name, len(w.Why))
		}
	}
}
