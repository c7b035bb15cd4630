package bench

import (
	"malt/internal/baseline/paramserver"
	"malt/internal/consistency"
	"malt/internal/data"
	"malt/internal/dataflow"
	"malt/internal/ml/sgd"
	"malt/internal/ml/svm"
	"malt/internal/trace"
)

// Fig 9: compute time vs wait time for asynchronous training on the
// high-dimensional webspam workload, 20 ranks: MALT_Halton (gradient and
// model averaging) against the parameter server (gradient and model
// pushes). The paper's finding: MALT replicas never wait — they compute
// and push; parameter-server clients stall after every push waiting for
// the updated model to come back.
func runFig9(o Options, r *Report) error {
	ds, err := data.WebspamShape.Generate(o.Scale)
	if err != nil {
		return err
	}
	ranks, epochs := 20, 10
	if o.Quick {
		ranks, epochs = 8, 3
	}
	cb := cbScale(5000)
	// Lambda < 0: train the unregularized hinge objective so per-batch
	// weight deltas touch only the batch's features. Real SVM-SGD keeps
	// the L2 shrink factored out as a scalar, giving the same sparse
	// wire shape; this experiment measures traffic, and gradients must
	// be gradient-sized, not model-sized.
	svmCfg := svm.Config{Dim: ds.Dim, Lambda: -1, Eta0: 1,
		Schedule: sgd.InvScaling{Eta0: 1, Lambda: 1e-3}}
	evalTr, _ := svm.New(svmCfg)

	r.Linef("%-18s %10s %10s %10s", "config", "compute", "wait", "loss")

	row := func(label string, compute, wait float64, loss float64) {
		r.Linef("%-18s %9.2fs %9.2fs %10.4f", label, compute, wait, loss)
		r.Metric(label+"_compute_s", compute)
		r.Metric(label+"_wait_s", wait)
	}

	// MALT Halton, async, gradient and model averaging.
	for _, mode := range []CommMode{GradAvg, ModelAvg} {
		o.logf("fig9: Halton %v", mode)
		res, err := RunSVM(SVMOpts{
			DS: ds, Ranks: ranks, CB: cb,
			Dataflow: dataflow.Halton, Sync: consistency.ASP, Cutoff: 16,
			Mode: mode, Epochs: epochs,
			SVM: svmCfg, Sparse: mode == GradAvg, EvalEvery: 1 << 30,
		})
		if err != nil {
			return err
		}
		var compute, wait float64
		for _, tm := range res.Timers {
			compute += tm.Get(trace.Compute).Seconds()
			wait += (tm.Get(trace.Wait) + tm.Get(trace.Barrier)).Seconds()
		}
		n := float64(ranks)
		row("halton-"+mode.String(), compute/n, wait/n, evalTr.Loss(res.FinalW, ds.Test))
	}

	// Parameter server, async, gradient and model pushes.
	batches := (len(ds.Train) / ranks / cb) * epochs
	if batches == 0 {
		batches = 1
	}
	for _, sendModel := range []bool{false, true} {
		label := "ps-gradavg"
		if sendModel {
			label = "ps-modelavg"
		}
		o.logf("fig9: %s (%d rounds)", label, batches)
		trainers := make([]*svm.Trainer, ranks+1)
		locals := make([][]float64, ranks+1)
		for w := 1; w <= ranks; w++ {
			trainers[w], _ = svm.New(svmCfg)
			locals[w] = make([]float64, ds.Dim)
		}
		ps, err := paramserver.Train(paramserver.Config{
			Workers: ranks, Dim: ds.Dim, Rounds: batches,
			SendModel: sendModel, GradSparse: !sendModel, Eta: 0.5,
		}, func(rank, round int, model, out []float64) {
			lo, hi := data.Shard(len(ds.Train), rank-1, ranks)
			shard := ds.Train[lo:hi]
			at := (round * cb) % max(1, len(shard)-cb)
			batch := shard[at : at+cb]
			if sendModel {
				copy(locals[rank], model)
				trainers[rank].TrainEpoch(locals[rank], batch)
				copy(out, locals[rank])
				return
			}
			trainers[rank].BatchGradient(out, model, batch)
		})
		if err != nil {
			return err
		}
		var compute, wait float64
		for _, tm := range ps.WorkerTimers {
			compute += tm.Get(trace.Compute).Seconds()
			wait += tm.Get(trace.Wait).Seconds()
		}
		n := float64(ranks)
		row(label, compute/n, wait/n, evalTr.Loss(ps.FinalModel, ds.Test))
	}
	r.Linef("(MALT pushes and proceeds; PS clients wait for the updated model after every push)")
	return nil
}
