package bench

import (
	"time"

	"malt/internal/consistency"
	"malt/internal/data"
	"malt/internal/dataflow"
	"malt/internal/ml/svm"
	"malt/internal/trace"
)

// Fig 8: time consumed by each distributed-SVM training step (gradient,
// scatter, gather, barrier) for the RCV1 workload under synchronous
// training with 20 ranks, for the ALL and HALTON dataflows. The paper's
// point: replicas spend their time computing and pushing gradients, not
// blocking.
func runFig8(o Options, r *Report) error {
	ds, err := data.RCV1Shape.Generate(o.Scale)
	if err != nil {
		return err
	}
	ranks, epochs := 20, 8
	if o.Quick {
		ranks, epochs = 8, 3
	}
	cb := cbScale(5000)
	svmCfg := svm.Config{Dim: ds.Dim, Lambda: 1e-5, Eta0: 2}

	r.Linef("%-8s %10s %10s %10s %10s %10s", "flow", "total", "gradient", "scatter", "gather", "barrier")
	for _, flow := range []dataflow.Kind{dataflow.All, dataflow.Halton} {
		o.logf("fig8: %v run", flow)
		res, err := RunSVM(SVMOpts{
			DS: ds, Ranks: ranks, CB: cb,
			Dataflow: flow, Sync: consistency.BSP,
			Mode: GradAvg, Epochs: epochs,
			SVM: svmCfg, Sparse: true, EvalEvery: 1 << 30, // no eval: pure phase timing
		})
		if err != nil {
			return err
		}
		// Average phase times across ranks.
		agg := &trace.Timer{}
		for _, tm := range res.Timers {
			agg.Merge(tm)
		}
		n := float64(ranks)
		per := func(p trace.Phase) float64 {
			return agg.Get(p).Seconds() / n
		}
		total := per(trace.Compute) + per(trace.Scatter) + per(trace.Gather) + per(trace.Barrier)
		r.Linef("%-8s %9.3fs %9.3fs %9.3fs %9.3fs %9.3fs",
			flow, total, per(trace.Compute), per(trace.Scatter), per(trace.Gather), per(trace.Barrier))
		r.Metric(flow.String()+"_compute_s", per(trace.Compute))
		r.Metric(flow.String()+"_scatter_s", per(trace.Scatter))
		r.Metric(flow.String()+"_gather_s", per(trace.Gather))
		r.Metric(flow.String()+"_barrier_s", per(trace.Barrier))
		r.Metric(flow.String()+"_total_s", total)
		_ = time.Second
	}
	r.Linef("(single-core host: barrier time absorbs peers' serialized compute; on the paper's")
	r.Linef(" 8-machine cluster compute overlaps and the barrier share is small. Compare the")
	r.Linef(" scatter/gather columns — the dataflow effect — across rows.)")
	return nil
}
