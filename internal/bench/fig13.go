package bench

import (
	"fmt"

	"malt/internal/baseline/paramserver"
	"malt/internal/consistency"
	"malt/internal/data"
	"malt/internal/dataflow"
	"malt/internal/ml/sgd"
	"malt/internal/ml/svm"
)

// Fig 13: total network traffic vs rank count (2/4/10/20) on the
// high-dimensional webspam workload (BSP, gradavg, cb=5000) for MALT_all,
// MALT_Halton and the parameter server. The paper's ordering: all-to-all
// grows O(N²) and worst; the parameter server sits in between (gradients
// up, whole models down); Halton is the most network-efficient.
func runFig13(o Options, r *Report) error {
	rankSet := []int{2, 4, 10, 20}
	epochs := 2
	scale := o.Scale
	if o.Quick {
		rankSet = []int{2, 4, 8}
		epochs = 1
	}
	ds, err := data.WebspamShape.Generate(scale)
	if err != nil {
		return err
	}
	cb := cbScale(5000)
	// Lambda < 0: train the unregularized hinge objective so per-batch
	// weight deltas touch only the batch's features. Real SVM-SGD keeps
	// the L2 shrink factored out as a scalar, giving the same sparse
	// wire shape; this experiment measures traffic, and gradients must
	// be gradient-sized, not model-sized.
	svmCfg := svm.Config{Dim: ds.Dim, Lambda: -1, Eta0: 1,
		Schedule: sgd.InvScaling{Eta0: 1, Lambda: 1e-3}}

	r.Linef("%-6s %14s %14s %14s   (MB total, %d epochs, cb=%d)", "ranks", "all", "halton", "paramserver", epochs, cb)
	for _, n := range rankSet {
		row := make(map[string]float64, 3)
		rowNs := make(map[string]float64, 3)
		rowBytes := make(map[string]uint64, 2)
		for _, flow := range []dataflow.Kind{dataflow.All, dataflow.Halton} {
			o.logf("fig13: ranks=%d %v", n, flow)
			res, err := RunSVM(SVMOpts{
				DS: ds, Ranks: n, CB: cb,
				Dataflow: flow, Sync: consistency.BSP,
				Mode: GradAvg, Epochs: epochs,
				// Pure gradient traffic: no interleaved model
				// rounds, whose dense scatters would confound
				// the per-N totals (convergence is not measured
				// here).
				ModelSyncEvery: -1,
				SVM:            svmCfg, Sparse: true, EvalEvery: 1 << 30,
			})
			if err != nil {
				return err
			}
			rowBytes[flow.String()] = res.Stats.TotalBytes()
			row[flow.String()] = float64(res.Stats.TotalBytes()) / (1 << 20)
			rowNs[flow.String()] = float64(res.Stats.ModeledNetworkTime().Nanoseconds())
		}
		// Parameter server with the same number of gradient pushes
		// per worker as the MALT runs performed batches.
		batches := (len(ds.Train) / n / cb) * epochs
		if batches == 0 {
			batches = 1
		}
		o.logf("fig13: ranks=%d parameter server (%d rounds)", n, batches)
		shardTrainers := make([]*svm.Trainer, n+1)
		for w := 1; w <= n; w++ {
			shardTrainers[w], _ = svm.New(svmCfg)
		}
		ps, err := paramserver.Train(paramserver.Config{
			Workers: n, Dim: ds.Dim, Rounds: batches,
			Sync: true, GradSparse: true, Eta: 0.5,
		}, func(rank, round int, model, out []float64) {
			lo, hi := data.Shard(len(ds.Train), rank-1, n)
			shard := ds.Train[lo:hi]
			at := (round * cb) % max(1, len(shard)-cb)
			shardTrainers[rank].BatchGradient(out, model, shard[at:at+cb])
		})
		if err != nil {
			return err
		}
		row["paramserver"] = float64(ps.Stats.TotalBytes()) / (1 << 20)

		r.Linef("%-6d %13.1f %14.1f %14.1f", n, row["all"], row["halton"], row["paramserver"])
		for k, v := range row {
			r.Metric(fmt.Sprintf("%s_mb_n%d", k, n), v)
		}
		// Modeled wire time is the machine-independent form of the
		// MALT traffic totals: deterministic (latency + bytes/bandwidth per
		// write, no chaos here), unlike wall clock. The parameter
		// server's control traffic is scheduling-dependent, so its
		// modeled time is not emitted — only the byte totals above.
		for k, v := range rowNs {
			r.Metric(fmt.Sprintf("model_ns_net_%s_n%d", k, n), v)
		}
		// BSP plus the rank-ordered drain make the MALT arms' sparse
		// updates, and so their byte totals, bitwise reproducible.
		for k, v := range rowBytes {
			r.Metric(fmt.Sprintf("wire_bytes_%s_n%d_exact", k, n), float64(v))
		}
	}
	return nil
}
