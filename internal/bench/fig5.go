package bench

import (
	"malt/internal/baseline/mrsvm"
	"malt/internal/consistency"
	"malt/internal/data"
	"malt/internal/dataflow"
	"malt/internal/ml/svm"
)

// Fig 5: speedup by iterations to a fixed loss on PASCAL alpha — MR-SVM
// (one-shot averaging per partition epoch, cb≈25k) vs MALT-SVM (cb=1k),
// both BSP modelavg over 10 ranks. The paper reports both superlinear
// (averaging effect), with MALT ≈3× MR-SVM by iterations.
func runFig5(o Options, r *Report) error {
	ds, err := data.AlphaShape.Generate(o.Scale)
	if err != nil {
		return err
	}
	ranks, epochs, serialEpochs := 10, 30, 6
	if o.Quick {
		ranks, epochs, serialEpochs = 4, 12, 3
	}
	cb := cbScale(1000)
	svmCfg := svm.Config{Dim: ds.Dim, Lambda: 1e-4, Eta0: 0.5}

	o.logf("fig5: serial SGD baseline")
	serial, err := RunSerialSVM(SerialOpts{DS: ds, SVM: svmCfg, Epochs: serialEpochs, EvalEvery: 500})
	if err != nil {
		return err
	}
	goal := minValue(serial.Curve) * 1.01
	serialIters, _ := serial.Curve.ItersToReach(goal)

	o.logf("fig5: MALT-SVM cb=%d", cb)
	maltRun, err := RunSVM(SVMOpts{
		DS: ds, Ranks: ranks, CB: cb,
		Dataflow: dataflow.All, Sync: consistency.BSP,
		Mode: ModelAvg, Epochs: epochs, Goal: goal,
		SVM: svmCfg, EvalEvery: 1,
	})
	if err != nil {
		return err
	}

	o.logf("fig5: MR-SVM (one-shot averaging per epoch)")
	// MR-SVM: find the epoch whose averaged model reaches the goal;
	// iterations = epochs × shard size.
	mr, err := mrsvm.Train(mrsvm.Config{
		Ranks:  ranks,
		Epochs: epochs,
		SVM:    svmCfg,
	}, ds, ds.Test)
	if err != nil {
		return err
	}
	shard := len(ds.Train) / ranks
	mrIters := 0.0
	mrSeries := Series{Label: "mr-svm/epoch-avg"}
	for e, loss := range mr.LossByEpoch {
		mrSeries.Points = append(mrSeries.Points, Point{
			Iter: float64((e + 1) * shard), Value: loss,
		})
		if mrIters == 0 && loss <= goal {
			mrIters = float64((e + 1) * shard)
		}
	}

	r.Series = append(r.Series, serial.Curve, maltRun.Curve, mrSeries)
	r.Linef("goal loss %.4f; single-rank SGD: %.0f examples", goal, serialIters)
	maltSpeed := 0.0
	if maltRun.Reached {
		maltSpeed = speedup(serialIters, maltRun.ItersToGoal)
		r.Linef("MALT-SVM  cb=1000 (scaled %d): %.0f examples/rank -> speedup %.1fx by iterations",
			cb, maltRun.ItersToGoal, maltSpeed)
	} else {
		r.Linef("MALT-SVM  cb=1000 (scaled %d): goal not reached (final %.4f)", cb, maltRun.Curve.Final())
	}
	mrSpeed := 0.0
	if mrIters > 0 {
		mrSpeed = speedup(serialIters, mrIters)
		r.Linef("MR-SVM    cb=epoch (%d examples): %.0f examples/rank -> speedup %.1fx by iterations",
			shard, mrIters, mrSpeed)
	} else {
		r.Linef("MR-SVM    cb=epoch: goal not reached (final %.4f)", mrSeries.Final())
	}
	if maltSpeed > 0 && mrSpeed > 0 {
		r.Linef("MALT/MR-SVM advantage: %.1fx (paper: ~3x by iterations)", maltSpeed/mrSpeed)
		r.Metric("malt_vs_mrsvm", maltSpeed/mrSpeed)
	}
	r.Metric("speedup_malt", maltSpeed)
	r.Metric("speedup_mrsvm", mrSpeed)
	return nil
}
