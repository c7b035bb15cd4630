// maltperf is the repository's wall-clock benchmark: five training
// workloads on two MALT ranks over real sockets, six end-to-end metrics
// each, a traced round with a per-layer ledger, and probes of the single
// layers. See ../../README.md for what each workload and metric is for.
//
//	maltperf --workload dense-bsp --seed 1 --seconds 9 --trace 0
//	    three untraced rounds of one workload, each a fresh child process;
//	    the last stdout line is the result as one JSON object
//	maltperf --workload dense-bsp --seed 1 --seconds 9 --trace 1
//	    one untraced and one traced round plus the layer probes
//	maltperf --workload all
//	    everything for all five workloads, rounds interleaved
//	maltperf -selfcheck
//	    the end-to-end part twice, alternating, compared against the bounds
//	maltperf -describe
//	    BENCHMARK.json, generated from the tables the program runs on
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"malt/benchmark/harness"
	"malt/benchmark/probes"
)

var processStart = time.Now()

func main() {
	var (
		workload  = flag.String("workload", "all", "workload name, or all")
		seed      = flag.Int64("seed", 1, "seed for every generated dataset and model init")
		seconds   = flag.Float64("seconds", harness.DefaultSeconds, "how long the timed steps of a run take on the defining box; sizes the fixed step counts")
		trace     = flag.Int("trace", 0, "0: end-to-end metrics from untraced rounds; 1: per-layer metrics from a traced round and the probes")
		selfcheck = flag.Bool("selfcheck", false, "run the end-to-end benchmark twice, alternating, and compare the two against the bounds")
		describe  = flag.Bool("describe", false, "print BENCHMARK.json as the workload and metric tables define it")
		workdir   = flag.String("workdir", filepath.Join(".bench_build", "maltperf"), "directory for socket files and traces (relative keeps uds paths short)")

		child  = flag.Bool("child", false, "internal: run one round in this process and print its result")
		steps  = flag.Int("steps", 0, "internal: timed steps of the child's round")
		warmup = flag.Int("warmup", 0, "internal: warm-up steps of the child's round")
		traced = flag.Bool("traced", false, "internal: record spans in the child's round")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	d := &driver{seed: *seed, seconds: *seconds, workdir: *workdir}
	var err error
	switch {
	case *describe:
		_, err = os.Stdout.Write(benchmarkJSON())
	case *child:
		err = runChild(*workload, *seed, *steps, *warmup, *traced, *workdir)
	case *selfcheck:
		err = d.selfcheck()
	case *workload == "all":
		err = d.all()
	default:
		err = d.one(*workload, *trace != 0)
	}
	if err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "maltperf:", err)
	os.Exit(1)
}

// runChild is one round in a fresh process, so set-up, RSS and heap are
// per workload and cold.
func runChild(name string, seed int64, steps, warmup int, traced bool, workdir string) error {
	// Two ranks on two threads, as two maltrun processes would have.
	runtime.GOMAXPROCS(harness.Ranks)
	w, err := harness.Lookup(name)
	if err != nil {
		return err
	}
	sockDir, cleanup, err := harness.MakeSockDir(workdir)
	if err != nil {
		return err
	}
	defer cleanup()
	res, err := harness.RunRound(harness.RoundConfig{
		Workload: w, Seed: seed, Steps: steps, Warmup: warmup,
		Traced:    traced,
		TracePath: filepath.Join(workdir, fmt.Sprintf("%s-seed%d.trace.json", name, seed)),
		SockDir:   sockDir,
		Start:     processStart,
	})
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(res)
}

type driver struct {
	seed    int64
	seconds float64
	workdir string
}

// round re-executes this binary for one round and decodes its result.
func (d *driver) round(w *harness.Workload, traced bool) (*harness.RoundResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	steps, warmup := w.Steps(d.seconds)
	cmd := exec.Command(exe, "-child",
		"-workload", w.Name, "-seed", strconv.FormatInt(d.seed, 10),
		"-steps", strconv.Itoa(steps), "-warmup", strconv.Itoa(warmup),
		"-traced="+strconv.FormatBool(traced), "-workdir", d.workdir)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s round: %w", w.Name, err)
	}
	res := &harness.RoundResult{}
	if err := json.Unmarshal(out.Bytes(), res); err != nil {
		return nil, fmt.Errorf("%s round: decoding result: %w", w.Name, err)
	}
	return res, nil
}

// one is the contract the benchmark driver runs: one workload, either its
// end-to-end metrics or its per-layer metrics, result on the last line.
func (d *driver) one(name string, traced bool) error {
	w, err := harness.Lookup(name)
	if err != nil {
		return err
	}
	run := d.endToEnd
	if traced {
		run = d.traced
	}
	s, err := run(w)
	if err != nil {
		return err
	}
	printSummary(w.Name, s)
	return printResult(s)
}

// endToEnd runs the three untraced rounds of w.
func (d *driver) endToEnd(w *harness.Workload) (*harness.Summary, error) {
	var rounds []*harness.RoundResult
	for i := 0; i < harness.Rounds; i++ {
		r, err := d.round(w, false)
		if err != nil {
			return nil, err
		}
		rounds = append(rounds, r)
	}
	return harness.SummarizeEndToEnd(w, rounds), nil
}

// traced is a --trace 1 run of one workload: the probes at their short
// length, then the rounds.
func (d *driver) traced(w *harness.Workload) (*harness.Summary, error) {
	pm, err := d.probes(probes.Short)
	if err != nil {
		return nil, err
	}
	return d.perLayer(w, pm)
}

// perLayer runs one untraced and one traced round of w and joins them with
// the layer probes' metrics. The traced round never feeds an end-to-end
// metric; the difference between the two rounds is the tracing overhead.
func (d *driver) perLayer(w *harness.Workload, pm []harness.Metric) (*harness.Summary, error) {
	untraced, err := d.round(w, false)
	if err != nil {
		return nil, err
	}
	traced, err := d.round(w, true)
	if err != nil {
		return nil, err
	}
	fmt.Printf("%s: trace written to %s\n", w.Name, traced.TracePath)
	return harness.SummarizePerLayer(w, untraced, traced, pm), nil
}

// probes runs every layer probe in this process.
func (d *driver) probes(batch time.Duration) ([]harness.Metric, error) {
	sockDir, cleanup, err := harness.MakeSockDir(d.workdir)
	if err != nil {
		return nil, err
	}
	defer cleanup()
	pm, err := probes.Run(batch, sockDir, d.seed)
	if err != nil {
		return nil, fmt.Errorf("probes: %w", err)
	}
	return pm, nil
}

// all prints every metric of every workload: untraced rounds interleaved
// across workloads (A B C D E, A B C D E, A B C D E) so a slow minute on
// the box lands on every workload's same round, then a traced run each.
// The probes have fixed shapes of their own, so they run once, at length.
func (d *driver) all() error {
	e2e, err := d.interleaved(1)
	if err != nil {
		return err
	}
	pm, err := d.probes(probes.Long)
	if err != nil {
		return err
	}
	failed := 0
	type row struct {
		Workload string             `json:"workload"`
		Metrics  map[string]float64 `json:"metrics"`
	}
	var rows []row
	for i, w := range harness.Workloads {
		s := e2e[0][i]
		printSummary(w.Name+" end-to-end", s)
		failed += s.Failed
		pl, err := d.perLayer(w, pm)
		if err != nil {
			return err
		}
		printSummary(w.Name+" per-layer", pl)
		failed += pl.Failed
		m := map[string]float64{}
		for _, x := range append(s.Metrics, pl.Metrics...) {
			m[x.Name] = x.Value
		}
		rows = append(rows, row{w.Name, m})
	}
	// The benchmark measures; it claims no gain.
	out, err := json.Marshal(struct {
		Correct   bool  `json:"correct"`
		Failed    int   `json:"failed"`
		Workloads []row `json:"workloads"`
		Claim     any   `json:"claim"`
	}{failed == 0, failed, rows, nil})
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	if failed > 0 {
		return fmt.Errorf("%d operations failed", failed)
	}
	return nil
}

// interleaved runs `sets` complete end-to-end runs of every workload, the
// rounds of all sets and workloads interleaved, and returns
// summaries[set][workload].
func (d *driver) interleaved(sets int) ([][]*harness.Summary, error) {
	rounds := make([][][]*harness.RoundResult, sets)
	for s := range rounds {
		rounds[s] = make([][]*harness.RoundResult, len(harness.Workloads))
	}
	for r := 0; r < harness.Rounds; r++ {
		for s := 0; s < sets; s++ {
			for i, w := range harness.Workloads {
				res, err := d.round(w, false)
				if err != nil {
					return nil, err
				}
				rounds[s][i] = append(rounds[s][i], res)
			}
		}
	}
	out := make([][]*harness.Summary, sets)
	for s := range out {
		for i, w := range harness.Workloads {
			out[s] = append(out[s], harness.SummarizeEndToEnd(w, rounds[s][i]))
		}
	}
	return out, nil
}

// selfcheck is the A/A evidence: the same code measured twice must agree
// within the benchmark's own bounds on every workload and metric.
func (d *driver) selfcheck() error {
	sets, err := d.interleaved(2)
	if err != nil {
		return err
	}
	misses := 0
	fmt.Printf("%-16s %-20s %14s %14s %8s %6s\n", "workload", "metric", "first", "second", "diff", "bound")
	for i, w := range harness.Workloads {
		a, b := sets[0][i], sets[1][i]
		misses += a.Failed + b.Failed
		for _, f := range append(a.Failures, b.Failures...) {
			fmt.Printf("%s: FAILED %s\n", w.Name, f)
		}
		for j, def := range harness.EndToEnd {
			x, y := a.Metrics[j].Value, b.Metrics[j].Value
			// Either run may be the parent: neither may be worse than the
			// other by more than the bound.
			diff := math.Max(x, y)/math.Min(x, y) - 1
			mark := ""
			if diff > def.Bound {
				mark = "  MISS"
				misses++
			}
			fmt.Printf("%-16s %-20s %14.6g %14.6g %7.2f%% %5.0f%%%s\n",
				w.Name, def.Name, x, y, 100*diff, 100*def.Bound, mark)
		}
	}
	if misses > 0 {
		return fmt.Errorf("selfcheck: %d misses", misses)
	}
	fmt.Println("selfcheck: every workload x metric within its bound")
	return nil
}

func printSummary(title string, s *harness.Summary) {
	fmt.Printf("== %s\n", title)
	for _, m := range s.Metrics {
		fmt.Printf("%-34s %16.6g %s\n", m.Name, m.Value, m.Unit)
	}
	fmt.Printf("%-34s %16d of %d\n", "operations failed", s.Failed, s.Attempted)
	for _, f := range s.Failures {
		fmt.Printf("FAILED: %s\n", f)
	}
}

// resultJSON is the driver's result object: exactly the keys correct,
// attempted, failed and metrics.
func resultJSON(s *harness.Summary) ([]byte, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, m := range s.Metrics {
		metrics[m.Name] = value{m.Value, m.Unit}
	}
	return json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{s.Failed == 0, s.Attempted, s.Failed, metrics})
}

// printResult writes the result object as the last line and fails the
// process when an operation or output check failed.
func printResult(s *harness.Summary) error {
	out, err := resultJSON(s)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	if s.Failed > 0 {
		return fmt.Errorf("%d of %d operations failed", s.Failed, s.Attempted)
	}
	return nil
}

// benchmarkJSON renders BENCHMARK.json from the tables the program runs
// on, so the file at the repository root cannot drift from them unnoticed
// (the smoke test compares the two).
func benchmarkJSON() []byte {
	type workload struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type bounded struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type unbounded struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string    `json:"command"`
		Paths      []string    `json:"paths"`
		RunSeconds int         `json:"run_seconds"`
		Workloads  []workload  `json:"workloads"`
		EndToEnd   []bounded   `json:"end_to_end"`
		PerLayer   []unbounded `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: harness.DefaultSeconds,
	}
	for _, w := range harness.Workloads {
		doc.Workloads = append(doc.Workloads, workload{w.Name, w.Why})
	}
	for _, d := range harness.EndToEnd {
		doc.EndToEnd = append(doc.EndToEnd, bounded{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range harness.PerLayer {
		doc.PerLayer = append(doc.PerLayer, unbounded{d.Name, d.Unit, d.Better})
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		panic(err) // a struct of strings and numbers always marshals
	}
	return append(out, '\n')
}
