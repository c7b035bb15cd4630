package bench

import (
	"fmt"

	"malt/internal/consistency"
	"malt/internal/data"
	"malt/internal/dataflow"
	"malt/internal/ml/svm"
)

// Ablation: gradient/model interleaving (paper §2: MALT provides
// peer-to-peer learning "by interleaving gradient updates with parameter
// values"). Pure delta exchange never contracts replica drift on partial
// dataflows — models random-walk apart and the loss plateaus above the
// all-to-all floor; a periodic whole-model average contracts the drift
// geometrically. This experiment sweeps the interleave period on the
// Halton dataflow and reports the final loss each period reaches.
func runAblationInterleave(o Options, r *Report) error {
	ds, err := data.RCV1Shape.Generate(o.Scale)
	if err != nil {
		return err
	}
	ranks, epochs := 10, 20
	periods := []int{-1, 50, 10, 5}
	if o.Quick {
		ranks, epochs = 4, 8
		periods = []int{-1, 10}
	}
	cb := cbScale(5000)
	svmCfg := svm.Config{Dim: ds.Dim, Lambda: 1e-5, Eta0: 2}

	// All-to-all reference: zero drift by construction.
	o.logf("ablation-interleave: all-to-all reference")
	ref, err := RunSVM(SVMOpts{
		DS: ds, Ranks: ranks, CB: cb,
		Dataflow: dataflow.All, Sync: consistency.BSP,
		Mode: GradAvg, Epochs: epochs, ModelSyncEvery: -1,
		SVM: svmCfg, Sparse: true, EvalEvery: 4,
	})
	if err != nil {
		return err
	}
	refLoss := minValue(ref.Curve)
	r.Linef("%-22s best loss %7.4f (no drift possible)", "all-to-all reference", refLoss)
	r.Metric("ref_all", refLoss)

	pureDelta, bestSync := 0.0, 0.0
	for _, period := range periods {
		label := fmt.Sprintf("every %d rounds", period)
		if period < 0 {
			label = "never (pure deltas)"
		}
		o.logf("ablation-interleave: halton, model sync %s", label)
		res, err := RunSVM(SVMOpts{
			DS: ds, Ranks: ranks, CB: cb,
			Dataflow: dataflow.Halton, Sync: consistency.BSP,
			Mode: GradAvg, Epochs: epochs, ModelSyncEvery: period,
			SVM: svmCfg, Sparse: true, EvalEvery: 4,
		})
		if err != nil {
			return err
		}
		best := minValue(res.Curve)
		res.Curve.Label = fmt.Sprintf("rcv1/halton/sync=%d", period)
		r.Series = append(r.Series, res.Curve)
		r.Linef("%-22s best loss %7.4f (gap to all-to-all %+.4f)", "halton, "+label, best, best-refLoss)
		r.Metric(fmt.Sprintf("halton_sync_%d", period), best)
		if period < 0 {
			pureDelta = best
		} else if bestSync == 0 || best < bestSync {
			bestSync = best
		}
	}
	// The qualitative claim, checked without pinning noisy loss
	// floats: interleaving must reach a strictly lower loss than
	// pure delta exchange (whose drift plateau sits well above).
	failed := 0.0
	if bestSync >= pureDelta {
		failed = 1
	}
	r.Metric("failed_interleave_no_gain", failed)
	r.Linef("(pure delta exchange plateaus above the reference; interleaving closes the gap)")
	return nil
}
