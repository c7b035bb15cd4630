package harness

import (
	"math"

	"malt/internal/consistency"
)

// Def declares one metric: its unit, which direction is better, and for
// end-to-end metrics the share of the parent's median by which it may
// worsen before a change counts as a regression. BENCHMARK.json repeats
// these; the smoke test keeps the two in step.
type Def struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
}

// Metric is one measured value.
type Metric struct {
	Name  string
	Unit  string
	Value float64
}

// EndToEnd are the metrics every workload reports from its untraced
// rounds.
var EndToEnd = []Def{
	{"setup_s", "s", "lower", 0.25},
	{"step_ms", "ms", "lower", 0.25},
	{"wire_bytes_per_step", "B/step", "lower", 0.02},
	{"peak_rss_mb", "MB", "lower", 0.15},
	{"final_loss", "loss", "lower", 0.20},
}

// Summary is one run's metrics plus its operation tally.
type Summary struct {
	Metrics []Metric
	Tally
}

func (s *Summary) add(name string, value float64) {
	s.Metrics = append(s.Metrics, Metric{Name: name, Unit: unitOf(name), Value: value})
}

func unitOf(name string) string {
	for _, d := range EndToEnd {
		if d.Name == name {
			return d.Unit
		}
	}
	for _, d := range PerLayer {
		if d.Name == name {
			return d.Unit
		}
	}
	panic("harness: undeclared metric " + name)
}

// SummarizeEndToEnd folds the untraced rounds of one run into the
// end-to-end metrics: timings take the best round (interference only adds
// time), counts the median round.
func SummarizeEndToEnd(w *Workload, rounds []*RoundResult) *Summary {
	s := &Summary{}
	col := func(f func(*RoundResult) float64) []float64 {
		out := make([]float64, len(rounds))
		for i, r := range rounds {
			out[i] = f(r)
		}
		return out
	}
	for _, r := range rounds {
		s.merge(r.Tally)
	}
	s.add("setup_s", minOf(col(func(r *RoundResult) float64 { return r.SetupS })))
	s.add("step_ms", minOf(col(func(r *RoundResult) float64 { return r.StepMs })))
	s.add("wire_bytes_per_step", median(col(func(r *RoundResult) float64 { return r.WireBytesPerStep })))
	s.add("peak_rss_mb", median(col(func(r *RoundResult) float64 { return r.PeakRSSMB })))
	s.add("final_loss", median(col(func(r *RoundResult) float64 { return r.FinalLoss })))

	if w.Sync == consistency.BSP {
		same := true
		for _, r := range rounds[1:] {
			same = same && r.ModelSum == rounds[0].ModelSum
		}
		s.check(same, "model checksum differs between rounds of a BSP workload")
	}
	return s
}

// SummarizePerLayer assembles the per-layer metrics of one traced run: the
// ledger from the traced round, counts from the untraced round of the same
// run, and the layer probes.
func SummarizePerLayer(w *Workload, untraced, traced *RoundResult, probes []Metric) *Summary {
	s := &Summary{}
	s.merge(untraced.Tally)
	s.merge(traced.Tally)
	l := traced.Ledger
	s.add("core.compute_ms", l.SelfMs[spanCompute])
	s.add("core.scatter_ms", l.SelfMs[spanScatter])
	s.add("core.advance_ms", l.SelfMs[spanAdvance])
	s.add("core.gather_ms", l.SelfMs[spanGather])
	s.add("core.commit_ms", l.SelfMs[spanCommit])
	s.add("core.ledger_closure", l.Closure)
	s.add("core.trace_overhead", traced.StepMs/untraced.StepMs-1)
	s.add("core.step_ms_p50", untraced.StepMsP50)
	s.add("core.step_ms_p95", untraced.StepMsP95)
	s.add("core.step_ms_mean", untraced.StepMsMean)
	s.add("core.examples_per_s", float64(Ranks*w.CB)/(untraced.StepMsMean/1e3))
	// The paper's figure of merit: cluster examples per second at the
	// robust step time over the serial trainer's rate in the same process.
	s.add("core.speedup_vs_serial", float64(Ranks*w.CB)/(untraced.StepMs/1e3)/untraced.SerialExamplesPerS)
	s.add("ml.serial_examples_per_s", untraced.SerialExamplesPerS)
	s.add("vol.updates_folded_per_step", untraced.UpdatesFoldedPerStep)
	s.add("vol.scratch_hit_share", untraced.ScratchHitShare)
	s.add("dstorm.retries", untraced.Retries)
	s.add("dstorm.consumed_per_step", untraced.ConsumedPerStep)
	s.add("dstorm.overwritten_share", untraced.OverwrittenShare)
	s.add("stream.bringup_ms", math.Min(untraced.BringupMs, traced.BringupMs))
	s.add("stream.window_stalls_per_step", untraced.WindowStallsPerStep)
	s.add("stream.cum_acks_per_step", untraced.CumAcksPerStep)
	s.add("fabric.writes_per_step", untraced.WritesPerStep)
	s.add("fabric.failed_writes", untraced.FailedWrites)
	s.add("runtime.cpu_ms_per_step", untraced.CPUMsPerStep)
	s.add("runtime.allocs_per_step", untraced.AllocsPerStep)
	s.add("runtime.alloc_kb_per_step", untraced.AllocKBPerStep)
	s.add("runtime.gc_cycles", untraced.GCCycles)
	s.add("runtime.gc_pause_ms", untraced.GCPauseMs)
	for _, m := range probes {
		s.add(m.Name, m.Value)
	}
	// The ledger is only evidence if its layers account for the step.
	s.check(l.Closure >= 0.95, "core.ledger_closure %.3f below 0.95", l.Closure)
	return s
}

// PerLayer are the metrics of single layers, reported by traced runs. They
// carry no bound; the README's table says which end-to-end metric each
// should move, on which workload.
var PerLayer = []Def{
	{"core.compute_ms", "ms", "lower", 0},
	{"core.scatter_ms", "ms", "lower", 0},
	{"core.advance_ms", "ms", "lower", 0},
	{"core.gather_ms", "ms", "lower", 0},
	{"core.commit_ms", "ms", "lower", 0},
	{"core.ledger_closure", "ratio", "higher", 0},
	{"core.trace_overhead", "ratio", "lower", 0},
	{"core.step_ms_p50", "ms", "lower", 0},
	{"core.step_ms_p95", "ms", "lower", 0},
	{"core.step_ms_mean", "ms", "lower", 0},
	{"core.examples_per_s", "1/s", "higher", 0},
	{"core.speedup_vs_serial", "x", "higher", 0},

	{"ml.serial_examples_per_s", "1/s", "higher", 0},
	{"ml.svm_ns_per_example", "ns", "lower", 0},
	{"ml.nn_ns_per_example", "ns", "lower", 0},

	{"compress.begin_ns_per_coord", "ns", "lower", 0},
	{"compress.encode_ns_per_coord", "ns", "lower", 0},
	{"compress.decode_ns_per_coord", "ns", "lower", 0},
	{"compress.begin_allocs_per_op", "count", "lower", 0},
	{"compress.wire_ratio", "x", "higher", 0},
	{"compress.residual_l1", "l1", "lower", 0},

	{"vol.scatter_dense_ns_per_coord", "ns", "lower", 0},
	{"vol.gather_dense_ns_per_coord", "ns", "lower", 0},
	{"vol.scatter_sparse_ns_per_nnz", "ns", "lower", 0},
	{"vol.gather_sparse_ns_per_nnz", "ns", "lower", 0},
	{"vol.scatter_codec_ns_per_coord", "ns", "lower", 0},
	{"vol.gather_codec_ns_per_coord", "ns", "lower", 0},
	{"vol.gather_bucketed_ns_per_coord", "ns", "lower", 0},
	{"vol.gather_fanin7_ns_per_coord", "ns", "lower", 0},
	{"vol.scatter_allocs_per_op", "count", "lower", 0},
	{"vol.gather_allocs_per_op", "count", "lower", 0},
	{"vol.updates_folded_per_step", "count", "higher", 0},
	{"vol.scratch_hit_share", "ratio", "higher", 0},

	{"dstorm.scatter_ns_per_kb", "ns", "lower", 0},
	{"dstorm.gather_ns_per_kb", "ns", "lower", 0},
	{"dstorm.scatter_small_ns", "ns", "lower", 0},
	{"dstorm.gather_small_ns", "ns", "lower", 0},
	{"dstorm.pipeline_ns_per_record", "ns", "lower", 0},
	{"dstorm.retries", "count", "lower", 0},
	{"dstorm.consumed_per_step", "count", "higher", 0},
	{"dstorm.overwritten_share", "ratio", "lower", 0},

	{"stream.write_small_us_uds", "us", "lower", 0},
	{"stream.write_small_us_tcp", "us", "lower", 0},
	{"stream.write_large_mbps_uds", "MB/s", "higher", 0},
	{"stream.write_large_mbps_tcp", "MB/s", "higher", 0},
	{"stream.barrier_us_uds", "us", "lower", 0},
	{"stream.barrier_us_tcp", "us", "lower", 0},
	{"stream.frame_encode_ns", "ns", "lower", 0},
	{"stream.frame_decode_ns", "ns", "lower", 0},
	{"stream.write_allocs_per_op", "count", "lower", 0},
	{"stream.bringup_ms", "ms", "lower", 0},
	{"stream.window_stalls_per_step", "count", "lower", 0},
	{"stream.cum_acks_per_step", "count", "lower", 0},
	{"fabric.writes_per_step", "count", "lower", 0},
	{"fabric.failed_writes", "count", "lower", 0},

	{"fabric.sim_write_ns", "ns", "lower", 0},
	{"consistency.advance_us_sim", "us", "lower", 0},
	{"par.group_ns_per_task", "ns", "lower", 0},

	{"runtime.cpu_ms_per_step", "ms", "lower", 0},
	{"runtime.allocs_per_step", "count", "lower", 0},
	{"runtime.alloc_kb_per_step", "KB", "lower", 0},
	{"runtime.gc_cycles", "count", "lower", 0},
	{"runtime.gc_pause_ms", "ms", "lower", 0},
}

func minOf(v []float64) float64 {
	m := math.Inf(1)
	for _, x := range v {
		m = math.Min(m, x)
	}
	return m
}
