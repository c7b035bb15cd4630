package bench

import (
	"malt/internal/consistency"
	"malt/internal/data"
	"malt/internal/dataflow"
	"malt/internal/ml/svm"
)

// Fig 4: convergence of MALT_all vs single-rank SGD on the RCV1 workload
// (all, BSP, gradavg, ranks=10, cb=5000). The paper reports 7.3× speedup
// by iterations and 6.7× by time to the single-rank loss goal.
func runFig4(o Options, r *Report) error {
	ds, err := data.RCV1Shape.Generate(o.Scale)
	if err != nil {
		return err
	}
	ranks, epochs, serialEpochs := 10, 30, 4
	if o.Quick {
		ranks, epochs, serialEpochs = 4, 10, 2
	}
	cb := cbScale(5000)
	svmCfg := svm.Config{Dim: ds.Dim, Lambda: 1e-5, Eta0: 2}

	o.logf("fig4: serial SGD baseline (%d epochs)", serialEpochs)
	serial, err := RunSerialSVM(SerialOpts{DS: ds, SVM: svmCfg, Epochs: serialEpochs, EvalEvery: 1000})
	if err != nil {
		return err
	}
	// The goal is the serial noise floor with a small margin —
	// the paper races every configuration to the loss value the
	// single-rank baseline achieves.
	goal := minValue(serial.Curve) * 1.005
	o.logf("fig4: goal loss %.4f; distributed run (ranks=%d cb=%d)", goal, ranks, cb)

	dist, err := RunSVM(SVMOpts{
		DS: ds, Ranks: ranks, CB: cb,
		Dataflow: dataflow.All, Sync: consistency.BSP,
		Mode: GradAvg, Epochs: epochs, Goal: goal,
		SVM: svmCfg, Sparse: true, EvalEvery: 2,
	})
	if err != nil {
		return err
	}

	r.Series = append(r.Series, serial.Curve, dist.Curve)
	serialIters, _ := serial.Curve.ItersToReach(goal)
	serialTime, _ := serial.Curve.TimeToReach(goal)
	r.Linef("goal loss %.4f (single-rank SGD best ×1.005)", goal)
	r.Linef("single-rank SGD: %.0f examples, %.2fs", serialIters, serialTime)
	if dist.Reached {
		r.Linef("MALT_all cb=5000 (scaled %d): %.0f examples/rank, %.2fs -> speedup %.1fx by iterations, %.1fx by time",
			cb, dist.ItersToGoal, dist.TimeToGoal,
			speedup(serialIters, dist.ItersToGoal), speedup(serialTime, dist.TimeToGoal))
		r.Metric("speedup_iters", speedup(serialIters, dist.ItersToGoal))
		r.Metric("speedup_time", speedup(serialTime, dist.TimeToGoal))
	} else {
		r.Linef("MALT_all cb=5000 (scaled %d): goal not reached (final loss %.4f)", cb, dist.Curve.Final())
		r.Metric("speedup_iters", 0)
		r.Metric("speedup_time", 0)
	}
	r.Metric("goal", goal)
	return nil
}

func minValue(s Series) float64 {
	if len(s.Points) == 0 {
		return 0
	}
	m := s.Points[0].Value
	for _, p := range s.Points {
		if p.Value < m {
			m = p.Value
		}
	}
	return m
}
