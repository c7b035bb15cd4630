package bench

import (
	"time"

	"malt/internal/consistency"
	"malt/internal/data"
	"malt/internal/dataflow"
	"malt/internal/ml/svm"
)

// Fig 12: splice-site convergence for BSP-all vs ASYNC-all vs
// ASYNC-Halton (modelavg, cb=5000, ranks=8), plus the per-machine bytes
// sent until convergence. The paper reports 6× (ASYNC all) and 11×
// (ASYNC Halton) over BSP, with Halton sending ~10× fewer bytes
// (370 GB vs 34 GB per machine).
func runFig12(o Options, r *Report) error {
	var (
		ds  *data.Dataset
		err error
	)
	ranks, epochs := 8, 12
	if o.Quick {
		ds, err = data.GenerateClassification(data.ClassificationSpec{
			Name: "splice", Dim: 20000, Train: 6000, Test: 1000,
			NNZ: 60, Noise: 0.10, Seed: 105,
		})
		ranks, epochs = 4, 6
	} else {
		ds, err = data.SpliceShape.Generate(o.Scale)
	}
	if err != nil {
		return err
	}
	cb := cbScale(5000)
	svmCfg := svm.Config{Dim: ds.Dim, Lambda: 1e-5, Eta0: 1}

	configs := []struct {
		label string
		flow  dataflow.Kind
		sync  consistency.Model
	}{
		{"BSP all", dataflow.All, consistency.BSP},
		{"ASYNC all", dataflow.All, consistency.ASP},
		{"ASYNC Halton", dataflow.Halton, consistency.ASP},
	}
	results := make([]*RunStats, len(configs))
	for i, c := range configs {
		o.logf("fig12: %s", c.label)
		res, err := RunSVM(SVMOpts{
			DS: ds, Ranks: ranks, CB: cb,
			Dataflow: c.flow, Sync: c.sync, Cutoff: 8,
			Mode: ModelAvg, Epochs: epochs,
			SVM: svmCfg, Sparse: false, EvalEvery: 2,
			// Same straggler model as fig10.
			Jitter: JitterSpec{Base: 300 * time.Microsecond, Spread: 400 * time.Microsecond,
				StragglerProb: 0.08, StragglerMult: 10},
		})
		if err != nil {
			return err
		}
		res.Curve.Label = "splice/" + c.label
		results[i] = res
		r.Series = append(r.Series, res.Curve)
	}
	goal := minValue(results[0].Curve) * 1.03
	bspTime, _ := results[0].Curve.TimeToReach(goal)
	r.Linef("goal loss %.4f; BSP all time %.2fs", goal, bspTime)
	// Per-machine bytes *until the goal* (the paper's 370 GB vs
	// 34 GB comparison), estimated by scaling the run's bytes by
	// the goal-time fraction.
	atGoalMB := make([]float64, len(configs))
	for i, c := range configs {
		total := float64(results[i].Stats.BytesSent(0)) / (1 << 20)
		r.Metric("mb_total_"+c.flow.String()+"_"+c.sync.String(), total)
		t, ok := results[i].Curve.TimeToReach(goal)
		atGoalMB[i] = total
		if ok && results[i].Elapsed.Seconds() > 0 {
			atGoalMB[i] = total * t / results[i].Elapsed.Seconds()
		}
		if ok {
			r.Linef("%-13s %7.2fs (%.1fx over BSP), %8.1f MB sent per machine to goal",
				c.label, t, speedup(bspTime, t), atGoalMB[i])
			r.Metric("speedup_"+c.flow.String()+"_"+c.sync.String(), speedup(bspTime, t))
		} else {
			r.Linef("%-13s goal not reached (final %.4f), %8.1f MB sent per machine total",
				c.label, results[i].Curve.Final(), total)
		}
		r.Metric("mb_per_node_"+c.flow.String()+"_"+c.sync.String(), atGoalMB[i])
	}
	// The headline ratio combines fewer bytes per round with
	// faster convergence (paper: 370 GB vs 34 GB, ~10x).
	if atGoalMB[2] > 0 {
		r.Linef("bytes-to-goal ratio ASYNC all / ASYNC Halton = %.1fx", atGoalMB[1]/atGoalMB[2])
		r.Metric("bytes_ratio_all_vs_halton", atGoalMB[1]/atGoalMB[2])
	}
	return nil
}
