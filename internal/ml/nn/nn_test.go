package nn

import (
	"math"
	"math/rand"
	"testing"

	"malt/internal/data"
	"malt/internal/ml/linalg"
	"malt/internal/ml/sgd"
)

func genClicks(t *testing.T, n int) *data.Dataset {
	t.Helper()
	spec := data.KDD12Spec(1)
	spec.Dim = 400
	spec.Train, spec.Test = n, n/5
	ds, err := data.GenerateClicks(spec)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestLayerSizes(t *testing.T) {
	sizes, err := LayerSizes(Config{Input: 100, H1: 8, H2: 4})
	if err != nil {
		t.Fatal(err)
	}
	want := []int{8*100 + 8, 4*8 + 4, 4 + 1}
	for i := range want {
		if sizes[i] != want[i] {
			t.Fatalf("sizes = %v, want %v", sizes, want)
		}
	}
	if _, err := LayerSizes(Config{Input: 0}); err == nil {
		t.Fatal("Input=0 should fail")
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{Input: -1}, 1); err == nil {
		t.Fatal("negative input should fail")
	}
	if _, err := NewOver(Config{Input: 10}, make([][]float64, 2)); err == nil {
		t.Fatal("wrong buffer count should fail")
	}
	cfg := Config{Input: 10, H1: 4, H2: 2}
	sizes, _ := LayerSizes(cfg)
	bufs := [][]float64{make([]float64, sizes[0]), make([]float64, sizes[1]), make([]float64, sizes[2]+1)}
	if _, err := NewOver(cfg, bufs); err == nil {
		t.Fatal("wrong buffer size should fail")
	}
}

func TestInitDeterministicAndScoreFinite(t *testing.T) {
	a, err := New(Config{Input: 50, H1: 8, H2: 4}, 5)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := New(Config{Input: 50, H1: 8, H2: 4}, 5)
	for i := 0; i < NumLayers; i++ {
		pa, pb := a.Params(i), b.Params(i)
		for j := range pa {
			if pa[j] != pb[j] {
				t.Fatal("Init not deterministic")
			}
		}
	}
	x := linalg.FromMap(map[int32]float64{3: 1, 17: -0.5})
	s := a.Score(x)
	if math.IsNaN(s) || math.IsInf(s, 0) {
		t.Fatalf("Score = %v", s)
	}
}

func TestParamsShareStorage(t *testing.T) {
	cfg := Config{Input: 10, H1: 4, H2: 2}
	sizes, _ := LayerSizes(cfg)
	bufs := make([][]float64, NumLayers)
	for i, s := range sizes {
		bufs[i] = make([]float64, s)
	}
	n, err := NewOver(cfg, bufs)
	if err != nil {
		t.Fatal(err)
	}
	n.Init(1)
	if bufs[0][0] == 0 && bufs[0][1] == 0 {
		t.Fatal("Init did not write through")
	}
	for i := range bufs {
		if &n.Params(i)[0] != &bufs[i][0] {
			t.Fatal("Params does not alias provided buffers")
		}
	}
}

func TestStepReducesLossOnSingleExample(t *testing.T) {
	n, _ := New(Config{Input: 20, H1: 8, H2: 4, Eta0: 0.1, Lambda: 0}, 3)
	ex := data.Example{Features: linalg.FromMap(map[int32]float64{1: 1, 5: 0.5}), Label: 1}
	before := n.MeanLoss([]data.Example{ex})
	for i := 0; i < 100; i++ {
		n.Step(ex)
	}
	after := n.MeanLoss([]data.Example{ex})
	if after >= before {
		t.Fatalf("loss did not decrease: %v -> %v", before, after)
	}
	if after > 0.2 {
		t.Fatalf("single example not fit: loss %v", after)
	}
}

func TestTrainingImprovesAUC(t *testing.T) {
	ds := genClicks(t, 4000)
	n, err := New(Config{Input: ds.Dim, H1: 32, H2: 16, Eta0: 0.1}, 7)
	if err != nil {
		t.Fatal(err)
	}
	initial := n.AUC(ds.Test)
	for epoch := 0; epoch < 6; epoch++ {
		n.TrainEpoch(ds.Train)
	}
	final := n.AUC(ds.Test)
	if final <= initial+0.05 {
		t.Fatalf("AUC did not improve: %v -> %v", initial, final)
	}
	if final < 0.7 {
		t.Fatalf("final AUC %v too low", final)
	}
	if n.Steps() != 6*uint64(len(ds.Train)) {
		t.Fatalf("Steps = %d", n.Steps())
	}
}

func TestGradientNumericCheck(t *testing.T) {
	// Numeric gradient check on a tiny network: perturb one weight in each
	// layer and compare the loss delta against the SGD update direction.
	cfg := Config{Input: 6, H1: 3, H2: 2, Eta0: 1e-3, Lambda: 0}
	ex := data.Example{Features: linalg.FromMap(map[int32]float64{0: 1, 3: -0.7}), Label: -1}

	for layer := 0; layer < NumLayers; layer++ {
		n, _ := New(cfg, 21)
		// Analytic: loss gradient wrt a parameter ≈ -(Δparam)/η after one
		// Step from a frozen copy.
		before := append([]float64(nil), n.Params(layer)...)
		lossBefore := n.MeanLoss([]data.Example{ex})
		n.Step(ex)
		after := n.Params(layer)

		// Pick the parameter with the largest movement in this layer.
		best, bestDelta := -1, 0.0
		for i := range after {
			if d := math.Abs(after[i] - before[i]); d > bestDelta {
				best, bestDelta = i, d
			}
		}
		if best < 0 {
			t.Fatalf("layer %d: no parameter moved", layer)
		}
		analytic := -(after[best] - before[best]) / cfg.Eta0

		// Numeric: finite difference on a fresh network.
		m, _ := New(cfg, 21)
		const h = 1e-6
		m.Params(layer)[best] = before[best] + h
		lossUp := m.MeanLoss([]data.Example{ex})
		m.Params(layer)[best] = before[best] - h
		lossDown := m.MeanLoss([]data.Example{ex})
		numeric := (lossUp - lossDown) / (2 * h)

		if math.Abs(numeric-analytic) > 1e-3*(1+math.Abs(numeric)) {
			t.Fatalf("layer %d param %d: numeric %v vs analytic %v (loss %v)",
				layer, best, numeric, analytic, lossBefore)
		}
	}
}

func TestZeroDerivSkipsUpdate(t *testing.T) {
	// Hinge loss with a confident correct prediction has zero derivative:
	// Step must leave parameters untouched (no regularization applied).
	n, _ := New(Config{Input: 4, H1: 2, H2: 2, Lambda: 0.1, Loss: sgd.Hinge{}}, 2)
	// Find the network's own prediction and feed it as a confident label.
	x := linalg.FromMap(map[int32]float64{0: 1})
	_ = n.Score(x)
	before := append([]float64(nil), n.Params(0)...)
	// Construct a label the model already classifies with huge margin by
	// scaling the output layer.
	w3 := n.Params(2)
	for i := range w3 {
		w3[i] *= 1000
	}
	label := 1.0
	if n.Score(x) < 0 {
		label = -1
	}
	cfgLoss := n.Config().Loss
	if d := cfgLoss.Deriv(n.Score(x), label); math.Abs(d) > 1e-6 {
		t.Skipf("could not construct zero-derivative case (deriv %v)", d)
	}
	n.Step(data.Example{Features: x, Label: label})
	for i := range before {
		if n.Params(0)[i] != before[i] {
			t.Fatal("Step updated parameters despite zero loss derivative")
		}
	}
}

// eagerStep is Step as it was before the input layer's decay became lazy:
// every step rescales all of W1. It is the reference the lazy path must
// match.
func eagerStep(n *Net, ex data.Example) {
	eta := n.cfg.Schedule.Rate(n.t)
	n.t++
	out := n.Score(ex.Features)
	dOut := n.cfg.Loss.Deriv(out, ex.Label)
	if dOut == 0 {
		return
	}
	lam := n.cfg.Lambda

	w3 := n.layers[2].w.Row(0)
	for i := range n.d2 {
		n.d2[i] = dOut * w3[i] * (1 - n.a2[i]*n.a2[i])
	}
	for i := range w3 {
		w3[i] -= eta * (dOut*n.a2[i] + lam*w3[i])
	}
	n.layers[2].b[0] -= eta * dOut

	n.layers[1].w.MulVecT(n.d1, n.d2)
	for i := range n.d1 {
		n.d1[i] *= 1 - n.a1[i]*n.a1[i]
	}
	if lam != 0 {
		linalg.Scale(1-eta*lam, n.layers[1].w.Data)
	}
	n.layers[1].w.AddOuter(-eta, n.d2, n.a1)
	linalg.Axpy(-eta, n.d2, n.layers[1].b)

	if lam != 0 {
		linalg.Scale(1-eta*lam, n.layers[0].w.Data)
	}
	n.addInputOuter(-eta, ex.Features)
	linalg.Axpy(-eta, n.d1, n.layers[0].b)
}

func TestLazyDecayMatchesEager(t *testing.T) {
	ds := genClicks(t, 2000)
	const epochs = 2
	for _, tc := range []struct {
		name         string
		eta, lambda  float64
		forceSettles bool
	}{
		{name: "default-lambda", eta: 0.1},
		{name: "mid-epoch-settles", eta: 0.1, lambda: 4, forceSettles: true},
		{name: "eta-lambda-one", eta: 0.5, lambda: 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{Input: ds.Dim, H1: 16, H2: 8, Eta0: tc.eta, Lambda: tc.lambda}
			lazy, err := New(cfg, 11)
			if err != nil {
				t.Fatal(err)
			}
			ref, _ := New(cfg, 11)
			if tc.forceSettles {
				// Unsettled for a whole epoch, s0 = (1−ηλ)^len(Train) would
				// underflow to 0.
				decay := 1 - lazy.cfg.Eta0*lazy.cfg.Lambda
				if s0 := math.Pow(decay, float64(len(ds.Train))); s0 != 0 {
					t.Fatalf("an unsettled epoch leaves s0 = %v, want underflow to 0", s0)
				}
			}
			for e := 0; e < epochs; e++ {
				lazy.TrainEpoch(ds.Train)
				for _, ex := range ds.Train {
					eagerStep(ref, ex)
				}
			}
			if lazy.s0 != 1 {
				t.Fatalf("s0 = %v after TrainEpoch, want 1", lazy.s0)
			}
			for li := 0; li < NumLayers; li++ {
				got, want := lazy.Params(li), ref.Params(li)
				for i := range want {
					if math.IsNaN(got[i]) || math.IsInf(got[i], 0) {
						t.Fatalf("layer %d param %d = %v", li, i, got[i])
					}
					if d := math.Abs(got[i] - want[i]); d > 1e-9*math.Abs(want[i]) {
						t.Fatalf("layer %d param %d: lazy %v, eager %v (rel %.3g)",
							li, i, got[i], want[i], d/math.Abs(want[i]))
					}
				}
			}
		})
	}
}

// newRowMajorRef builds a Net whose input layer is viewed H1×Input
// row-major, the layout before layer 0 became feature-major. The ref*
// functions below are Init, Score and step as they were for that layout;
// settle is layout-independent and shared.
func newRowMajorRef(t *testing.T, cfg Config, seed int64) *Net {
	t.Helper()
	n, err := New(cfg, seed)
	if err != nil {
		t.Fatal(err)
	}
	n.layers[0] = newLayer(n.cfg.Input, n.cfg.H1, n.layers[0].buf, false)
	rng := rand.New(rand.NewSource(seed))
	for li := range n.layers {
		l := &n.layers[li]
		scale := 1 / math.Sqrt(float64(l.in))
		for i := range l.w.Data {
			l.w.Data[i] = rng.NormFloat64() * scale
		}
		linalg.Zero(l.b)
	}
	return n
}

func refScore(n *Net, x *linalg.SparseVector) float64 {
	m := n.layers[0].w
	linalg.Zero(n.z1)
	for i, idx := range x.Idx {
		if idx >= int32(m.Cols) {
			continue
		}
		v := x.Val[i]
		for r := 0; r < m.Rows; r++ {
			n.z1[r] += v * m.Data[r*m.Cols+int(idx)]
		}
	}
	linalg.Scale(n.s0, n.z1)
	linalg.Axpy(1, n.layers[0].b, n.z1)
	for i, z := range n.z1 {
		n.a1[i] = math.Tanh(z)
	}
	n.layers[1].w.MulVec(n.z2, n.a1)
	linalg.Axpy(1, n.layers[1].b, n.z2)
	for i, z := range n.z2 {
		n.a2[i] = math.Tanh(z)
	}
	return linalg.Dot(n.layers[2].w.Row(0), n.a2) + n.layers[2].b[0]
}

func refAddOuterSparse(m *linalg.Matrix, alpha float64, u []float64, x *linalg.SparseVector) {
	for i, idx := range x.Idx {
		if idx >= int32(m.Cols) {
			continue
		}
		v := alpha * x.Val[i]
		for r := 0; r < m.Rows; r++ {
			m.Data[r*m.Cols+int(idx)] += v * u[r]
		}
	}
}

func refStep(n *Net, ex data.Example) {
	eta := n.cfg.Schedule.Rate(n.t)
	n.t++
	out := refScore(n, ex.Features)
	dOut := n.cfg.Loss.Deriv(out, ex.Label)
	if dOut == 0 {
		return
	}
	lam := n.cfg.Lambda

	w3 := n.layers[2].w.Row(0)
	for i := range n.d2 {
		n.d2[i] = dOut * w3[i] * (1 - n.a2[i]*n.a2[i])
	}
	for i := range w3 {
		w3[i] -= eta * (dOut*n.a2[i] + lam*w3[i])
	}
	n.layers[2].b[0] -= eta * dOut

	n.layers[1].w.MulVecT(n.d1, n.d2)
	for i := range n.d1 {
		n.d1[i] *= 1 - n.a1[i]*n.a1[i]
	}
	if lam != 0 {
		linalg.Scale(1-eta*lam, n.layers[1].w.Data)
	}
	n.layers[1].w.AddOuter(-eta, n.d2, n.a1)
	linalg.Axpy(-eta, n.d2, n.layers[1].b)

	w1, decay := n.layers[0].w, 1-eta*lam
	if decay <= 0 {
		n.settle()
		linalg.Scale(decay, w1.Data)
		refAddOuterSparse(w1, -eta, n.d1, ex.Features)
	} else {
		if s := n.s0 * decay; s < minScale || s > maxScale {
			n.settle()
		}
		n.s0 *= decay
		refAddOuterSparse(w1, -eta/n.s0, n.d1, ex.Features)
	}
	linalg.Axpy(-eta, n.d1, n.layers[0].b)
}

// TestFeatureMajorMatchesRowMajor checks that storing layer 0 feature-major
// changed only where its weights live: after training, every W1 entry is
// bit-equal to the row-major reference's transposed entry, every other
// parameter is bit-equal, and so is every score.
func TestFeatureMajorMatchesRowMajor(t *testing.T) {
	ds := genClicks(t, 2000)
	const epochs = 2
	for _, tc := range []struct {
		name        string
		eta, lambda float64
	}{
		{name: "default-lambda", eta: 0.1},
		{name: "eta-lambda-0.4", eta: 0.1, lambda: 4},
		{name: "eta-lambda-one", eta: 0.5, lambda: 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{Input: ds.Dim, H1: 16, H2: 8, Eta0: tc.eta, Lambda: tc.lambda}
			got, err := New(cfg, 11)
			if err != nil {
				t.Fatal(err)
			}
			ref := newRowMajorRef(t, cfg, 11)
			for e := 0; e < epochs; e++ {
				got.TrainEpoch(ds.Train)
				for _, ex := range ds.Train {
					refStep(ref, ex)
				}
				ref.settle()
			}
			gw, rw := got.layers[0].w, ref.layers[0].w
			for r := 0; r < cfg.H1; r++ {
				for c := 0; c < cfg.Input; c++ {
					if g, w := gw.At(c, r), rw.At(r, c); math.Float64bits(g) != math.Float64bits(w) {
						t.Fatalf("W1[%d][%d] = %v, row-major %v", r, c, g, w)
					}
				}
			}
			for li := 0; li < NumLayers; li++ {
				g, w := got.Params(li), ref.Params(li)
				if li == 0 {
					g, w = got.layers[0].b, ref.layers[0].b
				}
				for i := range w {
					if math.Float64bits(g[i]) != math.Float64bits(w[i]) {
						t.Fatalf("layer %d param %d = %v, row-major %v", li, i, g[i], w[i])
					}
				}
			}
			for i, ex := range ds.Test {
				if g, w := got.Score(ex.Features), refScore(ref, ex.Features); math.Float64bits(g) != math.Float64bits(w) {
					t.Fatalf("test example %d: Score %v, row-major %v", i, g, w)
				}
			}
		})
	}
}

func TestTrainEpochLeavesBuffersAsModel(t *testing.T) {
	ds := genClicks(t, 1000)
	cfg := Config{Input: ds.Dim, H1: 16, H2: 8, Eta0: 0.1, Lambda: 1e-3}
	n, err := New(cfg, 13)
	if err != nil {
		t.Fatal(err)
	}
	n.TrainEpoch(ds.Train)
	bufs := make([][]float64, NumLayers)
	for i := range bufs {
		bufs[i] = append([]float64(nil), n.Params(i)...)
	}
	m, err := NewOver(cfg, bufs)
	if err != nil {
		t.Fatal(err)
	}
	for i, ex := range ds.Test {
		if a, b := n.Score(ex.Features), m.Score(ex.Features); math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("test example %d: trained net scores %v, net over copied buffers %v", i, a, b)
		}
	}
}

// BenchmarkTrainEpoch times TrainEpoch at the nn-compute-bsp shape: a
// 10 000-input 64-32 network over 500-example batches with 30 nonzeros per
// example.
func BenchmarkTrainEpoch(b *testing.B) {
	ds, err := data.GenerateClicks(data.ClickSpec{
		Name: "bench", Dim: 10000, Hidden: 32, Train: 500, Test: 1, NNZ: 30, CTR: 0.25, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	n, err := New(Config{Input: 10000, H1: 64, H2: 32, Eta0: 0.1}, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.TrainEpoch(ds.Train)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(ds.Train)), "ns/example")
}
