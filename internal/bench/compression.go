package bench

import (
	"math"
	"time"

	"malt/internal/chaos"
	"malt/internal/compress"
	"malt/internal/consistency"
	"malt/internal/data"
	"malt/internal/fabric"
	"malt/internal/fault"
	"malt/internal/ml/svm"
	"malt/internal/trace"
)

// compressArm is one full training run under one codec.
type compressArm struct {
	name string
	opts compress.Options
}

// compressRun is the part of a run the experiment keeps.
type compressRun struct {
	pre    uint64 // raw bytes the scatters represent (8·dim per dest per update)
	post   uint64 // frame bytes actually shipped
	acc    float64
	finalW []float64
}

func runCompressOne(base SVMOpts, copts compress.Options, tr *svm.Trainer, eval []data.Example) (compressRun, error) {
	opts := base
	opts.Compress = copts
	res, err := RunSVM(opts)
	if err != nil {
		return compressRun{}, err
	}
	agg := &trace.Timer{}
	for _, tm := range res.Timers {
		agg.Merge(tm)
	}
	return compressRun{
		pre:    agg.Count(trace.BytesPrecompress),
		post:   agg.Count(trace.BytesPostcompress),
		acc:    tr.Accuracy(res.FinalWTail, eval),
		finalW: res.FinalW,
	}, nil
}

// runCompression measures adaptive gradient compression with error
// feedback. Four ranks train the same SVM under BSP/gradavg four times —
// uncompressed, topk, int8 and hybrid. BSP and the rank-ordered drain make
// training bitwise deterministic, so each codec's total wire bytes are a
// closed form of its frame layout; the run also requires >=4x wire
// reduction and <1% accuracy loss versus the uncompressed arm. A
// determinism leg re-runs the hybrid arm across gather worker counts and
// compares final models bitwise: a parallel fold must not change a single
// ULP. A chaos leg blacks out one rank mid-training with the adaptive
// controller on and checks that the per-link ratio tightened below the
// base ratio (the max-merged ratio_per_link counter rose) and that the run
// still converged within 2 points of accuracy of the blackout-free
// adaptive run. TestExperimentsQuick asserts every _exact and failed_*
// counter.
func runCompression(o Options, r *Report) error {
	ds, err := data.GenerateClassification(data.ClassificationSpec{
		// 2,000 test examples keep the accuracy estimate's noise well under
		// the 1% convergence criterion; dim 400 makes a dense update 3,200
		// wire bytes, big enough that codec framing overhead is noise.
		Name: "compress", Dim: 400, Train: 1200, Test: 2000, NNZ: 40, Noise: 0.05, Seed: 77,
	})
	if err != nil {
		return err
	}
	epochs := 30
	if o.Quick {
		epochs = 12
	}
	base := SVMOpts{
		DS: ds, Ranks: 4, CB: 50,
		Sync: consistency.BSP, Mode: GradAvg,
		Epochs: epochs, EvalEvery: 10,
		SVM:    svm.Config{Dim: ds.Dim, Lambda: 1e-4, Eta0: 1},
		Fabric: fabric.Config{Delay: fabric.DelayNone},
		// Interleaved whole-model averaging would push model values — not
		// gradients — through the lossy codec; the all-to-all dataflow keeps
		// replicas contracted without it.
		ModelSyncEvery: -1,
	}
	tr, err := svm.New(svm.Config{Dim: ds.Dim})
	if err != nil {
		return err
	}

	arms := []compressArm{
		{"raw", compress.Options{}},
		{"topk", compress.Options{Codec: "topk", Ratio: 0.125}},
		{"int8", compress.Options{Codec: "int8"}},
		{"hybrid", compress.Options{Codec: "hybrid", Ratio: 0.125}},
	}
	runs := make([]compressRun, len(arms))
	for i, arm := range arms {
		o.logf("compression: arm %s (ranks=%d dim=%d epochs=%d)", arm.name, base.Ranks, ds.Dim, epochs)
		runs[i], err = runCompressOne(base, arm.opts, tr, ds.Test)
		if err != nil {
			return err
		}
	}

	baseAcc := runs[0].acc
	r.Metric("acc_raw", baseAcc)
	var belowFloor, accLoss float64
	for i, arm := range arms[1:] {
		cr := runs[i+1]
		reduction := speedup(float64(cr.pre), float64(cr.post))
		r.Metric("wire_bytes_"+arm.name+"_exact", float64(cr.post))
		r.Metric("acc_"+arm.name, cr.acc)
		if reduction < 4 {
			belowFloor++
		}
		if cr.acc < baseAcc-0.01 {
			accLoss++
		}
		r.Linef("%-6s %8d -> %7d wire bytes (%4.1fx), accuracy %.4f (raw %.4f)",
			arm.name, cr.pre, cr.post, reduction, cr.acc, baseAcc)
	}
	r.Metric("wire_bytes_raw_exact", float64(runs[1].pre))
	r.Metric("failed_reduction_below_4x", belowFloor)
	r.Metric("failed_convergence_above_1pct", accLoss)

	// Determinism leg: the hybrid arm's final model must be bitwise
	// identical at every gather worker count.
	det := base
	det.Epochs = 8
	if o.Quick {
		det.Epochs = 4
	}
	want, err := runCompressOne(det, arms[3].opts, tr, ds.Test)
	if err != nil {
		return err
	}
	mismatch := 0
	for _, workers := range []int{4, 3, 2} {
		o.logf("compression: determinism leg gatherWorkers=%d", workers)
		dopts := det
		dopts.GatherWorkers = workers
		got, err := runCompressOne(dopts, arms[3].opts, tr, ds.Test)
		if err != nil {
			return err
		}
		for i := range want.finalW {
			if math.Float64bits(got.finalW[i]) != math.Float64bits(want.finalW[i]) {
				mismatch++
			}
		}
	}
	r.Metric("failed_compress_fold_mismatch", float64(mismatch))

	// Chaos leg: black out one rank mid-training with the adaptive
	// controller on. The controller must halve the blacked-out links'
	// ratios (ratio_per_link is max-merged, so the peak survives the
	// post-blackout relaxation) and error feedback must carry the run to
	// within 2 points of the blackout-free adaptive reference. Both runs
	// stay BSP: the reference is then bitwise reproducible and only the
	// updates the blackout drops vary run to run. (Under ASP, thread timing
	// alone moved each run's accuracy by up to 9 points.)
	adapt := base
	// Quick keeps 24 epochs: the 2 ms per-batch delay below puts the run's
	// floor at 288 ms, past the blackout's end at 220 ms, so both chaos
	// events fire.
	adapt.Epochs = 40
	if o.Quick {
		adapt.Epochs = 24
	}
	adapt.Compress = compress.Options{Codec: "topk", Ratio: 0.125, Adapt: true}
	// The blackout must stay a transient fault: a huge strike budget keeps
	// the failure detector from confirming the dark rank dead, so the
	// adaptive ratio — not a membership change — absorbs the outage.
	adapt.Suspicion = fault.SuspicionConfig{Strikes: 1 << 20}
	// A per-batch delay pins the blackout window to a stable fraction of
	// the run even under -race slowdown (>=480 ms of training wall-clock).
	adapt.Jitter = JitterSpec{Base: 2 * time.Millisecond}

	o.logf("compression: chaos leg reference (adaptive, no faults)")
	clean, err := RunSVM(adapt)
	if err != nil {
		return err
	}
	const victim = 3
	o.logf("compression: chaos leg blackout of rank %d at 100ms for 120ms", victim)
	dark := adapt
	dark.Chaos = chaos.New(7).BlackoutAt(100*time.Millisecond, 120*time.Millisecond, victim)
	res, err := RunSVM(dark)
	if err != nil {
		return err
	}
	agg := &trace.Timer{}
	for _, tm := range res.Timers {
		agg.Merge(tm)
	}
	baseInv := uint64(math.Round(1000 / 0.125))
	tightened := 0.0
	if agg.Count(trace.RatioPerLink) > baseInv {
		tightened = 1
	}
	cleanAcc := tr.Accuracy(clean.FinalWTail, ds.Test)
	darkAcc := tr.Accuracy(res.FinalWTail, ds.Test)
	converged := 1.0
	if darkAcc < cleanAcc-0.02 {
		converged = 0
	}
	r.Metric("adapt_tightened_exact", tightened)
	r.Metric("converged_within_2pct_exact", converged)
	r.Metric("chaos_events_fired_exact", float64(len(res.ChaosLog)))
	r.Metric("clean_adapt_acc", cleanAcc)
	r.Metric("blackout_adapt_acc", darkAcc)
	r.Linef("chaos leg: hardest inv-ratio %d milli (base %d) — tightened: %v; accuracy %.4f vs clean %.4f",
		agg.Count(trace.RatioPerLink), baseInv, tightened == 1, darkAcc, cleanAcc)
	return nil
}
