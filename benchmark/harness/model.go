package harness

import (
	"fmt"
	"math"
	"time"

	"malt/internal/consistency"
	"malt/internal/core"
	"malt/internal/data"
	"malt/internal/ml/nn"
	"malt/internal/ml/svm"
	"malt/internal/vol"
)

// replicaModel is one rank's trainer plus its shared vectors. step runs one
// training iteration through core.Context, wrapping each call in a span.
type replicaModel interface {
	// vectors lists the shared vectors; vectors()[0] carries the barriers.
	vectors() []*vol.Vector
	step(ctx *core.Context, batch []data.Example, rec *Recorder, iter int, ops *opCount) error
	// params returns the model's parameters (aliasing live storage).
	params() [][]float64
	loss(test []data.Example) float64
}

// opCount tallies operations the way the report needs them: one scatter
// destination, one gather or one barrier is one operation; it fails on a
// returned error. folded counts peer updates the gathers folded.
type opCount struct {
	attempted, failed int
	folded            int
}

func (o *opCount) done(n int, err error) error {
	o.attempted += n
	if err != nil {
		o.failed += n
	}
	return err
}

// generate builds the workload's dataset from the seed.
func (w *Workload) generate(seed int64) (*data.Dataset, error) {
	if w.NN {
		return data.GenerateClicks(data.ClickSpec{
			Name: w.Name, Dim: w.Dim, Hidden: 32, Train: w.Train, Test: w.Test,
			NNZ: w.NNZ, CTR: 0.25, Seed: seed,
		})
	}
	return data.GenerateClassification(data.ClassificationSpec{
		Name: w.Name, Dim: w.Dim, Train: w.Train, Test: w.Test,
		NNZ: w.NNZ, Noise: 0.05, Seed: seed,
	})
}

func (w *Workload) svmConfig() svm.Config {
	// Unregularised, so a step's compute is O(nnz) and the delta touches
	// only the batch's features (see svm.Config.Lambda).
	return svm.Config{Dim: w.Dim, Lambda: -1, Loss: w.Loss}
}

func (w *Workload) nnConfig() nn.Config {
	return nn.Config{Input: w.Dim, H1: nnH1, H2: nnH2, Eta0: 0.1}
}

// serialReps is how often serialRate repeats its identical run; the best
// repetition counts, because interference only ever adds time.
const serialReps = 5

// serialRate times the plain single-thread ml trainer over SerialExamples
// training examples (cycling over Train), from the same fresh model each
// repetition so every repetition does identical work, and returns the best
// examples per second. Nothing else runs while it does. The model storage
// is allocated once: a model per repetition would leave 50 MB of garbage
// on nn-compute-bsp and make peak_rss_mb depend on when the collector ran.
func (w *Workload) serialRate(ds *data.Dataset, seed int64) (float64, error) {
	var reset func()
	var train func(batch []data.Example)
	if w.NN {
		net, err := nn.New(w.nnConfig(), seed)
		if err != nil {
			return 0, err
		}
		reset = func() { net.Init(seed) }
		train = net.TrainEpoch
	} else {
		tr, err := svm.New(w.svmConfig())
		if err != nil {
			return 0, err
		}
		model := make([]float64, w.Dim)
		reset = func() {
			clear(model)
			tr.SetSteps(0)
		}
		train = func(batch []data.Example) { tr.TrainEpoch(model, batch) }
	}
	best := 0.0
	for rep := 0; rep < serialReps; rep++ {
		reset()
		start := time.Now()
		for done := 0; done < w.SerialExamples; {
			batch := ds.Train[:min(w.SerialExamples-done, len(ds.Train))]
			train(batch)
			done += len(batch)
		}
		best = math.Max(best, float64(w.SerialExamples)/time.Since(start).Seconds())
	}
	return best, nil
}

// newModel collectively creates the workload's vectors on ctx and the
// trainer over them.
func (w *Workload) newModel(ctx *core.Context, seed int64) (replicaModel, error) {
	if w.NN {
		return newNNModel(w, ctx, seed)
	}
	return newLinearModel(w, ctx)
}

// linearModel is the gradient-averaging linear trainer: local per-example
// SGD over the batch, scatter the accumulated delta, fold the peers' deltas
// with vol.Average and apply the result on top of the pre-batch model — the
// loop bench.RunSVM runs in GradAvg mode, without its in-region evaluation.
type linearModel struct {
	v          *vol.Vector
	tr         *svm.Trainer
	w, before  []float64
	barrierOps int
}

func newLinearModel(w *Workload, ctx *core.Context) (*linearModel, error) {
	typ := vol.Dense
	if w.Sparse {
		typ = vol.Sparse
	}
	v, err := ctx.CreateVector("w", typ, w.Dim)
	if err != nil {
		return nil, err
	}
	tr, err := svm.New(w.svmConfig())
	if err != nil {
		return nil, err
	}
	return &linearModel{
		v: v, tr: tr, w: make([]float64, w.Dim), before: make([]float64, w.Dim),
		barrierOps: w.barrierOps(),
	}, nil
}

func (m *linearModel) vectors() []*vol.Vector { return []*vol.Vector{m.v} }
func (m *linearModel) params() [][]float64    { return [][]float64{m.w} }

func (m *linearModel) loss(test []data.Example) float64 { return m.tr.Loss(m.w, test) }

func (m *linearModel) step(ctx *core.Context, batch []data.Example, rec *Recorder, iter int, ops *opCount) error {
	st := rec.begin(spanStep, iter, -1)
	defer rec.end(st)

	sp := rec.begin(spanCompute, iter, st)
	copy(m.before, m.w)
	m.tr.TrainEpoch(m.w, batch)
	rec.end(sp)

	sp = rec.begin(spanScatter, iter, st)
	err := ctx.ScatterBucketed(m.v, func(lo, hi int) {
		c := rec.begin(spanCompute, iter, sp)
		delta := m.v.Data()
		for i := lo; i < hi; i++ {
			delta[i] = m.w[i] - m.before[i]
		}
		rec.end(c)
	})
	rec.end(sp)
	if ops.done(Ranks-1, err) != nil {
		return fmt.Errorf("scatter: %w", err)
	}

	sp = rec.begin(spanAdvance, iter, st)
	err = ctx.Advance(m.v)
	rec.end(sp)
	if ops.done(m.barrierOps, err) != nil {
		return fmt.Errorf("advance: %w", err)
	}

	sp = rec.begin(spanGather, iter, st)
	gs, err := ctx.Gather(m.v, vol.Average)
	rec.end(sp)
	ops.folded += gs.Updates
	if ops.done(1, err) != nil {
		return fmt.Errorf("gather: %w", err)
	}

	sp = rec.begin(spanCompute, iter, st)
	delta := m.v.Data()
	for i := range m.w {
		m.w[i] = m.before[i] + delta[i]
	}
	rec.end(sp)

	sp = rec.begin(spanCommit, iter, st)
	err = ctx.Commit(m.v)
	rec.end(sp)
	if ops.done(m.barrierOps, err) != nil {
		return fmt.Errorf("commit: %w", err)
	}
	return nil
}

// barrierOps is the operation count of one Advance or Commit: a barrier
// under BSP, nothing under ASP.
func (w *Workload) barrierOps() int {
	if w.Sync == consistency.BSP {
		return 1
	}
	return 0
}

// nnModel is model averaging exactly as maltrun -app nn does it: train in
// place inside the three layer vectors, Scatter each, one Advance, Gather
// each with vol.Average, one Commit.
type nnModel struct {
	layers     []*vol.Vector
	net        *nn.Net
	barrierOps int
}

func newNNModel(w *Workload, ctx *core.Context, seed int64) (*nnModel, error) {
	cfg := w.nnConfig()
	sizes, err := nn.LayerSizes(cfg)
	if err != nil {
		return nil, err
	}
	m := &nnModel{layers: make([]*vol.Vector, nn.NumLayers), barrierOps: w.barrierOps()}
	bufs := make([][]float64, nn.NumLayers)
	for i := range m.layers {
		v, err := ctx.CreateVector(fmt.Sprintf("layer%d", i), vol.Dense, sizes[i])
		if err != nil {
			return nil, err
		}
		m.layers[i] = v
		bufs[i] = v.Data()
	}
	if m.net, err = nn.NewOver(cfg, bufs); err != nil {
		return nil, err
	}
	m.net.Init(seed)
	return m, nil
}

func (m *nnModel) vectors() []*vol.Vector { return m.layers }

func (m *nnModel) params() [][]float64 {
	out := make([][]float64, len(m.layers))
	for i, v := range m.layers {
		out[i] = v.Data()
	}
	return out
}

func (m *nnModel) loss(test []data.Example) float64 { return m.net.MeanLoss(test) }

func (m *nnModel) step(ctx *core.Context, batch []data.Example, rec *Recorder, iter int, ops *opCount) error {
	st := rec.begin(spanStep, iter, -1)
	defer rec.end(st)

	sp := rec.begin(spanCompute, iter, st)
	m.net.TrainEpoch(batch)
	rec.end(sp)

	for _, v := range m.layers {
		sp = rec.begin(spanScatter, iter, st)
		err := ctx.Scatter(v)
		rec.end(sp)
		if ops.done(Ranks-1, err) != nil {
			return fmt.Errorf("scatter %s: %w", v.Name(), err)
		}
	}

	sp = rec.begin(spanAdvance, iter, st)
	err := ctx.Advance(m.layers[0])
	rec.end(sp)
	if ops.done(m.barrierOps, err) != nil {
		return fmt.Errorf("advance: %w", err)
	}

	for _, v := range m.layers {
		sp = rec.begin(spanGather, iter, st)
		gs, err := ctx.Gather(v, vol.Average)
		rec.end(sp)
		ops.folded += gs.Updates
		if ops.done(1, err) != nil {
			return fmt.Errorf("gather %s: %w", v.Name(), err)
		}
	}

	sp = rec.begin(spanCommit, iter, st)
	err = ctx.Commit(m.layers[0])
	rec.end(sp)
	if ops.done(m.barrierOps, err) != nil {
		return fmt.Errorf("commit: %w", err)
	}
	return nil
}
