package bench

import (
	"strconv"
	"strings"
	"testing"

	"malt/internal/consistency"
	"malt/internal/data"
	"malt/internal/dataflow"
	"malt/internal/ml/svm"
)

func TestSeriesHelpers(t *testing.T) {
	s := Series{Label: "x", Points: []Point{
		{Time: 1, Iter: 100, Value: 0.5},
		{Time: 2, Iter: 200, Value: 0.3},
		{Time: 3, Iter: 300, Value: 0.2},
	}}
	if s.Final() != 0.2 {
		t.Fatalf("Final = %v", s.Final())
	}
	if tt, ok := s.TimeToReach(0.3); !ok || tt != 2 {
		t.Fatalf("TimeToReach = %v, %v", tt, ok)
	}
	if it, ok := s.ItersToReach(0.25); !ok || it != 300 {
		t.Fatalf("ItersToReach = %v, %v", it, ok)
	}
	if _, ok := s.TimeToReach(0.1); ok {
		t.Fatal("unreachable goal reported reached")
	}
	if tt, ok := s.TimeToExceed(0.4); !ok || tt != 1 {
		t.Fatalf("TimeToExceed = %v, %v", tt, ok)
	}
	if (Series{}).Final() != 0 {
		t.Fatal("empty Final should be 0")
	}
	if minValue(s) != 0.2 {
		t.Fatalf("minValue = %v", minValue(s))
	}
}

func TestReportHelpers(t *testing.T) {
	r := &Report{ID: "x", Title: "t"}
	r.Linef("a=%d", 1)
	r.Metric("m", 2)
	if len(r.Lines) != 1 || r.Metrics["m"] != 2 {
		t.Fatalf("report = %+v", r)
	}
	r.Series = append(r.Series, Series{Label: "s1"})
	if r.FindSeries("s1") == nil || r.FindSeries("nope") != nil {
		t.Fatal("FindSeries wrong")
	}
}

func TestRegistry(t *testing.T) {
	ids := IDs()
	want := []string{"ablation-interleave", "ablation-queue", "allreduce", "compression",
		"elastic", "fig10", "fig11", "fig12", "fig13", "fig14", "fig4", "fig5", "fig6",
		"fig7", "fig8", "fig9", "gather", "overlap", "pipeline", "saturation",
		"table2", "table3"}
	if len(ids) != len(want) {
		t.Fatalf("IDs = %v", ids)
	}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("IDs = %v, want %v", ids, want)
		}
	}
	if _, err := Get("fig4"); err != nil {
		t.Fatal(err)
	}
	if _, err := Get("nope"); err == nil {
		t.Fatal("unknown experiment should fail")
	}
	if len(All()) != len(want) {
		t.Fatal("All() size mismatch")
	}
}

func TestCBScale(t *testing.T) {
	if cbScale(5000) != 50 || cbScale(1000) != 10 || cbScale(100) != 10 {
		t.Fatalf("cbScale wrong: %d %d %d", cbScale(5000), cbScale(1000), cbScale(100))
	}
}

func TestSpeedupGuards(t *testing.T) {
	if speedup(4, 2) != 2 || speedup(1, 0) != 0 {
		t.Fatal("speedup wrong")
	}
}

func smallDS(t *testing.T) *data.Dataset {
	t.Helper()
	ds, err := data.GenerateClassification(data.ClassificationSpec{
		Name: "small", Dim: 50, Train: 1200, Test: 300, NNZ: 6, Noise: 0.05, Seed: 77,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestRunSVMValidation(t *testing.T) {
	ds := smallDS(t)
	if _, err := RunSVM(SVMOpts{Ranks: 2, CB: 10}); err == nil {
		t.Fatal("missing DS should fail")
	}
	if _, err := RunSVM(SVMOpts{DS: ds, Ranks: 0, CB: 10}); err == nil {
		t.Fatal("Ranks=0 should fail")
	}
	if _, err := RunSVM(SVMOpts{DS: ds, Ranks: 2, CB: 0}); err == nil {
		t.Fatal("CB=0 should fail")
	}
	if _, err := RunSVM(SVMOpts{DS: ds, Ranks: 2, CB: 100000, Epochs: 1}); err == nil {
		t.Fatal("CB exceeding shard should fail")
	}
}

func TestRunSVMGradAvgAndModelAvg(t *testing.T) {
	ds := smallDS(t)
	for _, mode := range []CommMode{GradAvg, ModelAvg} {
		res, err := RunSVM(SVMOpts{
			DS: ds, Ranks: 3, CB: 50,
			Dataflow: dataflow.All, Sync: consistency.BSP,
			Mode: mode, Epochs: 4, EvalEvery: 1,
			SVM: svm.Config{Dim: ds.Dim, Lambda: 1e-4, Eta0: 1},
		})
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if len(res.Curve.Points) == 0 {
			t.Fatalf("%v: empty curve", mode)
		}
		first, last := res.Curve.Points[0].Value, res.Curve.Final()
		if last >= first {
			t.Fatalf("%v: loss did not decrease (%v -> %v)", mode, first, last)
		}
		tr, _ := svm.New(svm.Config{Dim: ds.Dim})
		if acc := tr.Accuracy(res.FinalW, ds.Test); acc < 0.8 {
			t.Fatalf("%v: accuracy %v", mode, acc)
		}
		if res.Stats.TotalBytes() == 0 {
			t.Fatalf("%v: no traffic", mode)
		}
	}
}

func TestRunSVMGoalStopsEarly(t *testing.T) {
	ds := smallDS(t)
	res, err := RunSVM(SVMOpts{
		DS: ds, Ranks: 2, CB: 50,
		Sync: consistency.BSP, Mode: GradAvg,
		Epochs: 50, Goal: 0.9, EvalEvery: 1,
		SVM: svm.Config{Dim: ds.Dim, Lambda: 1e-4, Eta0: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Reached {
		t.Fatalf("goal 0.9 should be easy; final %v", res.Curve.Final())
	}
	// Early stop: far fewer than 50 epochs' worth of batches.
	maxBatches := uint64(50 * (len(ds.Train) / 2 / 50))
	if res.Batches >= maxBatches {
		t.Fatalf("did not stop early: %d batches", res.Batches)
	}
}

func TestRunSVMFaultInjection(t *testing.T) {
	ds := smallDS(t)
	res, err := RunSVM(SVMOpts{
		DS: ds, Ranks: 3, CB: 50,
		Sync: consistency.ASP, Mode: GradAvg,
		Epochs: 6, EvalEvery: 2,
		SVM:      svm.Config{Dim: ds.Dim, Lambda: 1e-4, Eta0: 1},
		KillRank: 2, KillAtIter: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	tr, _ := svm.New(svm.Config{Dim: ds.Dim})
	if acc := tr.Accuracy(res.FinalW, ds.Test); acc < 0.75 {
		t.Fatalf("post-failure accuracy %v", acc)
	}
}

func TestRunSVMJitterSlowsBSP(t *testing.T) {
	ds := smallDS(t)
	base := SVMOpts{
		DS: ds, Ranks: 2, CB: 100,
		Sync: consistency.BSP, Mode: GradAvg,
		Epochs: 2, EvalEvery: 100,
		SVM: svm.Config{Dim: ds.Dim},
	}
	fast, err := RunSVM(base)
	if err != nil {
		t.Fatal(err)
	}
	slow := base
	slow.Jitter = JitterSpec{Base: 2e6, Spread: 1e6} // 2–3 ms per batch
	slowRes, err := RunSVM(slow)
	if err != nil {
		t.Fatal(err)
	}
	if slowRes.Elapsed <= fast.Elapsed {
		t.Fatalf("jitter did not slow the run: %v vs %v", slowRes.Elapsed, fast.Elapsed)
	}
}

func TestRunSerialSVM(t *testing.T) {
	ds := smallDS(t)
	res, err := RunSerialSVM(SerialOpts{
		DS: ds, SVM: svm.Config{Dim: ds.Dim}, Epochs: 3, EvalEvery: 200,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Curve.Points) == 0 || res.Curve.Final() >= res.Curve.Points[0].Value {
		t.Fatalf("serial curve wrong: %+v", res.Curve.Points)
	}
	if _, err := RunSerialSVM(SerialOpts{}); err == nil {
		t.Fatal("missing DS should fail")
	}
}

func TestJitterSpec(t *testing.T) {
	j := JitterSpec{}
	if j.enabled() {
		t.Fatal("zero jitter should be disabled")
	}
	j = JitterSpec{Base: 100, Spread: 100, StragglerProb: 1, StragglerMult: 3}
	if !j.enabled() {
		t.Fatal("jitter should be enabled")
	}
}

// Closed forms of the quick-size shapes, shared by quickExact below.
const (
	// dstorm prepends seq(8) + iter(8) + len(4) to every update.
	dstormHeader = 20
	// compression: 4 ranks × 3 peers × 12 epochs × 6 batches per epoch
	// (1200 examples / 4 ranks / cb 50) frames per arm, over dim 400.
	compressFrames = 4 * 3 * 12 * 6
	compressDim    = 400
	// A codec frame opens with magic, codec ID and a uint32 count.
	frameHeader = 6
	// topk and hybrid keep ratio 0.125 of the coordinates.
	topK = compressDim / 8
	// saturation: dense dim-50000 updates, 20 scatters per rank.
	satDim, satIters = 50000, 20
	// fig13: every rank count ships the same 80 sparse batch updates
	// (4000 webspam examples / cb 50; the shards split on batch
	// boundaries), 6 796 920 bytes per destination in total. Recorded from
	// a run, not derived: each update's size depends on the data.
	fig13Bytes = 6796920
)

// quickExact pins every deterministic counter of the quick-size runs: wire
// bytes, message counts, conservation sums, fencing and chaos flags, and
// the zero-valued failure counters. A change that moves one of them changed
// a wire format, an algorithm or a guarantee, not the machine, so each is
// compared with ==. TestExperimentsQuick also fails when an experiment
// emits such a counter that is missing here.
var quickExact = map[string]map[string]float64{
	"ablation-interleave": {"failed_interleave_no_gain": 0},
	// Every deposited update is consumed or overwritten, whatever the
	// depth: 3 producers × 150 rounds.
	"ablation-queue": {
		"delivered_q1_exact":  3 * 150,
		"delivered_q4_exact":  3 * 150,
		"delivered_q16_exact": 3 * 150,
	},
	// 8 ranks: naive N(N−1), tree 2(N−1), butterfly N·log₂N.
	"allreduce": {
		"msgs_per_reduce_naive_exact":     8 * 7,
		"msgs_per_reduce_tree_exact":      2 * 7,
		"msgs_per_reduce_butterfly_exact": 8 * 3,
		"failed_result_mismatch":          0,
	},
	"compression": {
		"wire_bytes_raw_exact": compressFrames * 8 * compressDim,
		// uint32 k, then k × (uint32 idx, float64 val).
		"wire_bytes_topk_exact": compressFrames * (frameHeader + 4 + topK*(4+8)),
		// Two 256-coordinate blocks (mode + exponent each), one int8 per
		// coordinate.
		"wire_bytes_int8_exact": compressFrames * (frameHeader + 2*2 + compressDim),
		// uint32 k, uint32 firstPos, one 64-pair group (mode + exponent),
		// then k × (uint32 idx, int8 q).
		"wire_bytes_hybrid_exact":       compressFrames * (frameHeader + 4 + 4 + 2 + topK*(4+1)),
		"adapt_tightened_exact":         1,
		"converged_within_2pct_exact":   1,
		"chaos_events_fired_exact":      2, // blackout start and end
		"failed_compress_fold_mismatch": 0,
		"failed_convergence_above_1pct": 0,
		"failed_reduction_below_4x":     0,
	},
	// All-to-all sends every update to N−1 peers, Halton to log₂N.
	"fig13": {
		"wire_bytes_all_n2_exact":    1 * fig13Bytes,
		"wire_bytes_all_n4_exact":    3 * fig13Bytes,
		"wire_bytes_all_n8_exact":    7 * fig13Bytes,
		"wire_bytes_halton_n2_exact": 1 * fig13Bytes,
		"wire_bytes_halton_n4_exact": 2 * fig13Bytes,
		"wire_bytes_halton_n8_exact": 3 * fig13Bytes,
	},
	"elastic": {
		"chaos_events_fired_exact":    2, // kill and rejoin
		"rejoined_alive_exact":        1,
		"stale_epoch_accepted_exact":  0,
		"converged_within_2pct_exact": 1,
	},
	// The parallel arm folds dim/foldChunk chunks per gather, every round:
	// these two counters drive the modeled speedup.
	"gather": {
		"chunks_folded_exact":  (1 << 14) / 4096 * 8,
		"decode_fanout_frac":   1,
		"failed_fold_mismatch": 0,
		"lost_updates_gather":  0,
	},
	// 4 ranks × 2 rounds × 16 buckets.
	"overlap": {
		"buckets_sent_exact":       4 * 2 * 16,
		"failed_fold_mismatch":     0,
		"failed_overlap_monotonic": 0,
		"lost_buckets":             0,
		"lost_updates_overlap":     0,
		"dup_buckets":              0,
	},
	// Count-only flushing at batch 16 saves 15 writes in 16.
	"pipeline": {
		"writes_saved_frac_1KiB": 1 - 1.0/16,
		"writes_saved_frac_4KiB": 1 - 1.0/16,
		"lost_updates_1KiB":      0,
		"lost_updates_4KiB":      0,
		"exhausted_writes":       0,
		"failed_writes":          0,
	},
	// n·(n−1)·iters dense updates of header + 8·dim bytes.
	"saturation": {
		"wire_bytes_n2_exact": 2 * 1 * satIters * (dstormHeader + 8*satDim),
		"wire_bytes_n4_exact": 4 * 3 * satIters * (dstormHeader + 8*satDim),
	},
}

// exactCounter reports whether a metric name marks a deterministic counter
// that quickExact must pin.
func exactCounter(name string) bool {
	return strings.HasSuffix(name, "_exact") ||
		strings.HasPrefix(name, "failed_") ||
		strings.HasPrefix(name, "lost_") ||
		strings.HasPrefix(name, "dup_") ||
		strings.Contains(name, "exhausted")
}

// checkExact compares a report against its quickExact row.
func checkExact(t *testing.T, id string, r *Report) {
	t.Helper()
	want := quickExact[id]
	for name, w := range want {
		got, ok := r.Metrics[name]
		switch {
		case !ok:
			t.Errorf("%s: %s missing from the report", id, name)
		case got != w:
			t.Errorf("%s: %s = %s, want %s", id, name,
				strconv.FormatFloat(got, 'f', -1, 64), strconv.FormatFloat(w, 'f', -1, 64))
		}
	}
	for name := range r.Metrics {
		if _, ok := want[name]; exactCounter(name) && !ok {
			t.Errorf("%s: counter %s has no quickExact entry", id, name)
		}
	}
}

// TestExperimentsQuick runs every registered experiment at Quick size,
// asserts its deterministic counters exactly (quickExact) and checks the
// headline shapes the paper reports. This is the integration test for the
// whole reproduction; it is skipped under -short.
func TestExperimentsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("quick experiment suite skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("quick experiment suite skipped under the race detector (covered by unit tests)")
	}
	opts := Options{Quick: true}
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			rep, err := e.Run(opts)
			if err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			if len(rep.Lines) == 0 {
				t.Fatalf("%s: empty report", e.ID)
			}
			checkExact(t, e.ID, rep)
			check(t, e.ID, rep)
			if t.Failed() {
				var b strings.Builder
				rep.Print(&b)
				t.Log(b.String())
			}
		})
	}
}

// check asserts the per-figure shapes. Thresholds are deliberately loose:
// the quick runs are small and the host is shared.
func check(t *testing.T, id string, r *Report) {
	t.Helper()
	m := r.Metrics
	switch id {
	case "fig4":
		if m["speedup_iters"] <= 1 {
			t.Errorf("fig4: distributed training should need fewer examples per rank (speedup_iters=%v)", m["speedup_iters"])
		}
	case "fig5":
		if m["speedup_malt"] <= m["speedup_mrsvm"] {
			t.Errorf("fig5: MALT (%v) should beat MR-SVM (%v) by iterations", m["speedup_malt"], m["speedup_mrsvm"])
		}
	case "fig7":
		if m["speedup_fixed"] <= 1 && m["speedup_byiter"] <= 1 {
			t.Errorf("fig7: distributed Hogwild should beat serial by iterations: %v", m)
		}
	case "fig8":
		// Gather folds N−1 vs log N updates — a ~5x margin that stays
		// robust at quick size (scatter's margin is tens of milliseconds
		// and flips under load).
		if m["halton_gather_s"] >= m["all_gather_s"] {
			t.Errorf("fig8: Halton gather (%v) should cost less than all-to-all (%v)",
				m["halton_gather_s"], m["all_gather_s"])
		}
	case "fig9":
		if m["ps-gradavg_wait_s"] <= m["ps-gradavg_compute_s"] {
			t.Errorf("fig9: PS clients should be wait-dominated: %v", m)
		}
		if m["halton-gradavg_wait_s"] >= m["halton-gradavg_compute_s"] {
			t.Errorf("fig9: MALT replicas should be compute-dominated: %v", m)
		}
	case "fig10":
		// Quick-size wall-clock ratios are load-sensitive; assert only
		// that ASP and SSP both reached the BSP-derived goal (speedup > 0).
		// The full-size run (maltbench -exp fig10) checks magnitudes.
		if m["speedup_SSP"] <= 0 || m["speedup_ASYNC"] <= 0 {
			t.Errorf("fig10: ASP/SSP failed to reach the BSP goal: %v", m)
		}
	case "fig12":
		// Compare whole-run totals (deterministic: both ASP runs execute
		// the same batch count), not the goal-scaled estimates.
		if m["mb_total_halton_ASP"] >= m["mb_total_all_ASP"] {
			t.Errorf("fig12: Halton should send fewer bytes per round than all-to-all: %v", m)
		}
	case "fig13":
		// All-to-all traffic must grow faster with ranks than Halton's.
		allGrowth := m["all_mb_n8"] / m["all_mb_n2"]
		halGrowth := m["halton_mb_n8"] / m["halton_mb_n2"]
		if allGrowth <= halGrowth {
			t.Errorf("fig13: all-to-all growth (%v) should exceed Halton growth (%v)", allGrowth, halGrowth)
		}
	case "fig14":
		if m["acc_faulty"] < 0.7 {
			t.Errorf("fig14: model should converge despite the failure: %v", m)
		}
	case "ablation-interleave":
		if m["halton_sync_10"] >= m["halton_sync_-1"] {
			// Interleaving must lower (or at worst match) the plateau.
			t.Errorf("ablation: interleaving did not help: %v", m)
		}
	case "ablation-queue":
		if m["overwritten_q1"] <= m["overwritten_q16"] {
			t.Errorf("ablation-queue: deeper rings should lose fewer updates: %v", m)
		}
	}
}

func TestReportPrintFormats(t *testing.T) {
	r := &Report{ID: "figX", Title: "demo"}
	r.Linef("row %d", 1)
	r.Metric("zeta", 1.5)
	r.Metric("alpha", 2)
	r.Elapsed = 1500 * 1e6 // 1.5s in ns
	var buf strings.Builder
	r.Print(&buf)
	out := buf.String()
	for _, want := range []string{"=== figX: demo ===", "row 1", "alpha=2", "zeta=1.5", "elapsed"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Print output missing %q:\n%s", want, out)
		}
	}
	// Metrics print in sorted key order.
	if strings.Index(out, "alpha=") > strings.Index(out, "zeta=") {
		t.Fatal("metrics not sorted")
	}
}

func TestReportPrintSeries(t *testing.T) {
	r := &Report{ID: "figX"}
	r.Series = append(r.Series, Series{
		Label:  "curve-a",
		Points: []Point{{Time: 0.5, Iter: 100, Value: 0.25}},
	})
	var buf strings.Builder
	r.PrintSeries(&buf)
	out := buf.String()
	if !strings.Contains(out, "# figX / curve-a") {
		t.Fatalf("missing header: %s", out)
	}
	if !strings.Contains(out, `"curve-a" 0.5000 100 0.250000`) {
		t.Fatalf("missing data row: %s", out)
	}
}

func TestQueueImbalanceConservation(t *testing.T) {
	// Every update a sender pushes is either consumed or overwritten —
	// nothing vanishes, nothing is double-counted.
	const ranks, rounds = 4, 120
	consumed, overwritten, err := runQueueImbalance(ranks, 64, 4, rounds)
	if err != nil {
		t.Fatal(err)
	}
	want := uint64((ranks - 1) * rounds)
	if consumed+overwritten != want {
		t.Fatalf("consumed %d + overwritten %d != sent %d", consumed, overwritten, want)
	}
	if consumed == 0 {
		t.Fatal("slow consumer should still consume something")
	}
}
