package bench

import (
	"fmt"
	"io"
	"time"
)

// Options tunes an experiment run.
type Options struct {
	// Scale multiplies dataset sizes (1 = default benchmark size).
	Scale int
	// Quick shrinks epochs/rank counts for CI-speed smoke runs. Shapes
	// still hold; absolute numbers are noisier.
	Quick bool
	// Log receives progress lines when non-nil.
	Log io.Writer
}

func (o Options) logf(format string, args ...any) {
	if o.Log != nil {
		fmt.Fprintf(o.Log, format+"\n", args...)
	}
}

// Experiment is one table or figure reproduction.
type Experiment struct {
	// ID is the registry key ("fig4" … "fig14", "table2", "table3",
	// "saturation").
	ID string
	// Title echoes the paper's caption.
	Title string
	body  func(o Options, r *Report) error
}

// experiments is the registry, one row per table, figure and ablation, in
// ID order.
var experiments = []Experiment{
	{"ablation-interleave", "Interleaved model sync on MALT_Halton: drift vs interleave period (RCV1, BSP, gradavg, ranks=10)", runAblationInterleave},
	{"ablation-queue", "Receive-queue depth vs updates lost to overwrites (ASP, fast senders, slow consumer)", runAblationQueue},
	{"allreduce", "all-reduce baselines: per-reduce message counts and modeled wire time, naive vs tree vs butterfly (8 ranks)", runAllreduce},
	{"compression", "Gradient compression: wire bytes and accuracy per codec, bitwise fold invariance, adaptive tightening under blackout (SVM, BSP, gradavg, ranks=4)", runCompression},
	{"elastic", "Elastic membership: kill + epoch-stamped rejoin mid-training vs fault-free (SVM, ASP, gradavg, ranks=4)", runElastic},
	{"fig10", "Splice-site: BSP vs ASP vs SSP (all, modelavg, cb=5000, ranks=8)", runFig10},
	{"fig11", "RCV1 cb sweep (1000/5000/10000), MALT_all vs MALT_Halton (BSP, gradavg, ranks=10)", runFig11},
	{"fig12", "Splice-site: MALT_all vs MALT_Halton convergence and bytes (modelavg, cb=5000, ranks=8)", runFig12},
	{"fig13", "Webspam total network traffic vs ranks: all / Halton / parameter server (BSP, gradavg, cb=5000)", runFig13},
	{"fig14", "DNA fault tolerance: fault-free vs one failure mid-run (ranks=10)", runFig14},
	{"fig4", "RCV1 convergence, MALT_all vs single-rank SGD (BSP, gradavg, ranks=10, cb=5000)", runFig4},
	{"fig5", "PASCAL alpha speedup over single SGD: MR-SVM vs MALT-SVM (BSP, modelavg, ranks=10)", runFig5},
	{"fig6", "KDD12 SSI neural network AUC vs time (all, BSP, modelavg, ranks=8), cb sweep", runFig6},
	{"fig7", "Netflix MF test RMSE vs iterations: Hogwild-over-MALT (ASYNC, ranks=2, cb=1000) fixed/byiter", runFig7},
	{"fig8", "Per-phase time, distributed SVM on RCV1 (BSP, gradavg, cb=5000, ranks=20), all vs Halton", runFig8},
	{"fig9", "Webspam async: Halton grad/model-avg vs parameter server grad/model-avg (compute vs wait, ranks=20)", runFig9},
	{"gather", "parallel gather ablation: modeled gather/fold cost, serial vs pooled (8-sender fan-in)", runGather},
	{"overlap", "comm/compute overlap: modeled exposed comm time vs gradient bucket count (8-rank all-to-all)", runOverlap},
	{"pipeline", "send coalescing ablation: modeled scatter cost, sync vs batched (all-to-all)", runPipeline},
	{"saturation", "Network saturation: back-to-back scatter throughput (webspam-sized model)", runSaturation},
	{"table2", "MALT applications and dataset properties (synthetic scaled equivalents)", runTable2},
	{"table3", "Developer effort: MALT annotation lines per example application", runTable3},
}

// Get returns the experiment with the given ID.
func Get(id string) (Experiment, error) {
	for _, e := range experiments {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("bench: unknown experiment %q (have %v)", id, IDs())
}

// IDs lists registered experiment IDs in stable order.
func IDs() []string {
	out := make([]string, len(experiments))
	for i, e := range experiments {
		out[i] = e.ID
	}
	return out
}

// All returns every experiment in ID order.
func All() []Experiment {
	return append([]Experiment(nil), experiments...)
}

// Run executes the experiment and times it.
func (e Experiment) Run(o Options) (*Report, error) {
	if o.Scale <= 0 {
		o.Scale = 1
	}
	r := &Report{ID: e.ID, Title: e.Title}
	start := time.Now()
	if err := e.body(o, r); err != nil {
		return nil, fmt.Errorf("%s: %w", e.ID, err)
	}
	r.Elapsed = time.Since(start)
	return r, nil
}

// cbScale converts the paper's nominal communication batch size to this
// repo's scaled datasets (≈100× fewer examples per rank), flooring at 10.
func cbScale(nominal int) int {
	cb := nominal / 100
	if cb < 10 {
		cb = 10
	}
	return cb
}

// speedup returns a/b guarding against division by zero.
func speedup(a, b float64) float64 {
	if b <= 0 {
		return 0
	}
	return a / b
}
