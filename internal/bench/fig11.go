package bench

import (
	"fmt"

	"malt/internal/consistency"
	"malt/internal/data"
	"malt/internal/dataflow"
	"malt/internal/ml/svm"
)

// Fig 11: communication-batch-size sweep on RCV1 (BSP, gradavg, ranks=10)
// for MALT_all and MALT_Halton. The paper finds an interior optimum
// (cb=5000 beats both 1000 and 10000) and Halton converging faster than
// all-to-all in time despite needing more iterations.
func runFig11(o Options, r *Report) error {
	ds, err := data.RCV1Shape.Generate(o.Scale)
	if err != nil {
		return err
	}
	ranks, epochs, serialEpochs := 10, 30, 4
	nominals := []int{1000, 5000, 10000}
	if o.Quick {
		ranks, epochs, serialEpochs = 4, 10, 2
		nominals = []int{1000, 5000}
	}
	svmCfg := svm.Config{Dim: ds.Dim, Lambda: 1e-5, Eta0: 2}

	serial, err := RunSerialSVM(SerialOpts{DS: ds, SVM: svmCfg, Epochs: serialEpochs, EvalEvery: 1000})
	if err != nil {
		return err
	}
	goal := minValue(serial.Curve) * 1.005
	serialTime, _ := serial.Curve.TimeToReach(goal)
	r.Series = append(r.Series, serial.Curve)
	r.Linef("goal loss %.4f; single-rank SGD time %.2fs", goal, serialTime)

	for _, flow := range []dataflow.Kind{dataflow.All, dataflow.Halton} {
		for _, nominal := range nominals {
			cb := cbScale(nominal)
			o.logf("fig11: %v cb=%d", flow, cb)
			res, err := RunSVM(SVMOpts{
				DS: ds, Ranks: ranks, CB: cb,
				Dataflow: flow, Sync: consistency.BSP,
				Mode: GradAvg, Epochs: epochs, Goal: goal,
				SVM: svmCfg, Sparse: true, EvalEvery: 2,
			})
			if err != nil {
				return err
			}
			res.Curve.Label = fmt.Sprintf("rcv1/%v/cb=%d", flow, nominal)
			r.Series = append(r.Series, res.Curve)
			key := fmt.Sprintf("%v_cb%d", flow, nominal)
			if res.Reached {
				sp := speedup(serialTime, res.TimeToGoal)
				r.Linef("%-7s cb=%-5d (scaled %3d): %6.2fs -> %.1fx", flow, nominal, cb, res.TimeToGoal, sp)
				r.Metric(key, sp)
			} else {
				r.Linef("%-7s cb=%-5d (scaled %3d): goal not reached (final %.4f)", flow, nominal, cb, res.Curve.Final())
				r.Metric(key, 0)
			}
		}
	}
	return nil
}
