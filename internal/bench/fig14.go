package bench

import (
	"malt/internal/consistency"
	"malt/internal/data"
	"malt/internal/dataflow"
	"malt/internal/ml/svm"
)

// Fig 14: fault tolerance on the DNA workload with 10 ranks — total time
// to process a fixed number of epochs in the fault-free case vs with one
// replica failing mid-run. The paper: recovery succeeds, the model reaches
// the same accuracy, and the slowdown is proportional to the lost machine.
func runFig14(o Options, r *Report) error {
	ds, err := data.DNAShape.Generate(o.Scale)
	if err != nil {
		return err
	}
	ranks, epochs := 10, 10
	if o.Quick {
		ranks, epochs = 4, 4
	}
	cb := cbScale(1000)
	svmCfg := svm.Config{Dim: ds.Dim, Lambda: 1e-4, Eta0: 1}

	base := SVMOpts{
		DS: ds, Ranks: ranks, CB: cb,
		Dataflow: dataflow.All, Sync: consistency.ASP, Cutoff: 16,
		Mode: GradAvg, Epochs: epochs,
		SVM: svmCfg, EvalEvery: 4,
	}

	o.logf("fig14: fault-free run")
	clean, err := RunSVM(base)
	if err != nil {
		return err
	}

	o.logf("fig14: run with rank 1 failing mid-way")
	faulty := base
	// Fail after roughly half the batches of the run.
	batchesPerEpoch := len(ds.Train) / ranks / cb
	faulty.KillRank = 1
	faulty.KillAtIter = uint64(batchesPerEpoch * epochs / 2)
	if faulty.KillAtIter == 0 {
		faulty.KillAtIter = 1
	}
	injected, err := RunSVM(faulty)
	if err != nil {
		return err
	}

	tr, _ := svm.New(svmCfg)
	accClean := tr.Accuracy(clean.FinalW, ds.Test)
	accFault := tr.Accuracy(injected.FinalW, ds.Test)
	clean.Curve.Label = "dna/fault-free"
	injected.Curve.Label = "dna/1-node-failure"
	r.Series = append(r.Series, clean.Curve, injected.Curve)

	r.Linef("fault-free:      %6.2fs for %d epochs, final loss %.4f, test accuracy %.3f",
		clean.Elapsed.Seconds(), epochs, clean.Curve.Final(), accClean)
	r.Linef("1-node failure:  %6.2fs for %d epochs, final loss %.4f, test accuracy %.3f (killed rank %d at batch %d)",
		injected.Elapsed.Seconds(), epochs, injected.Curve.Final(), accFault,
		faulty.KillRank, faulty.KillAtIter)
	r.Linef("survivors redistributed the failed rank's shard and training continued")
	r.Metric("time_clean_s", clean.Elapsed.Seconds())
	r.Metric("time_faulty_s", injected.Elapsed.Seconds())
	r.Metric("acc_clean", accClean)
	r.Metric("acc_faulty", accFault)
	return nil
}
