// Package nn implements the three-layer fully-connected neural network of
// the paper's click-prediction workload (supervised semantic indexing over
// KDD Cup 2012 data). The architecture is sparse-input → tanh hidden →
// tanh hidden → linear score, trained with logistic loss over ±1 click
// labels.
//
// Each layer's parameters (weights then biases) live in one flat float64
// buffer so that, as the paper requires, "each layer of parameters is
// represented using a separate maltGradient" — a distributed replica
// passes MALT vector storage to NewOver and every scatter ships a whole
// layer with no marshalling. The input layer's weights are stored
// feature-major (Input×H1, see Net); the other layers' are out×in.
package nn

import (
	"fmt"
	"math"
	"math/rand"

	"malt/internal/data"
	"malt/internal/ml/linalg"
	"malt/internal/ml/metrics"
	"malt/internal/ml/sgd"
)

// Config parameterizes the network.
type Config struct {
	// Input is the sparse input dimensionality.
	Input int
	// H1 and H2 are the hidden layer widths. Defaults 64 and 32.
	H1, H2 int
	// Eta0 is the (initial) learning rate. Default 0.05.
	Eta0 float64
	// Lambda is the L2 regularization strength. Default 1e-5.
	Lambda float64
	// Loss defaults to logistic.
	Loss sgd.Loss
	// Schedule defaults to Fixed{Eta0}.
	Schedule sgd.Schedule
}

func (c Config) withDefaults() (Config, error) {
	if c.Input <= 0 {
		return c, fmt.Errorf("nn: Input must be positive, got %d", c.Input)
	}
	if c.H1 == 0 {
		c.H1 = 64
	}
	if c.H2 == 0 {
		c.H2 = 32
	}
	if c.H1 < 0 || c.H2 < 0 {
		return c, fmt.Errorf("nn: hidden sizes must be positive, got %d/%d", c.H1, c.H2)
	}
	if c.Eta0 == 0 {
		c.Eta0 = 0.05
	}
	if c.Lambda == 0 {
		c.Lambda = 1e-5
	}
	if c.Loss == nil {
		c.Loss = sgd.Logistic{}
	}
	if c.Schedule == nil {
		c.Schedule = sgd.Fixed{Eta: c.Eta0}
	}
	return c, nil
}

// NumLayers is the number of parameter layers (and MALT vectors) in the
// network.
const NumLayers = 3

// LayerSizes returns the flat buffer length of each layer for the given
// (defaulted) shape: out·in weights plus out biases. Layer 0 holds its
// weights as an Input×H1 matrix and layers 1 and 2 as out×in; the lengths
// do not depend on that.
func LayerSizes(cfg Config) ([]int, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	return []int{
		cfg.H1*cfg.Input + cfg.H1,
		cfg.H2*cfg.H1 + cfg.H2,
		1*cfg.H2 + 1,
	}, nil
}

// layer views one flat buffer as weights + biases. w is out×in, except in
// layer 0, where it is in×out.
type layer struct {
	in, out int
	w       *linalg.Matrix
	b       []float64
	buf     []float64
}

func newLayer(in, out int, buf []float64, featureMajor bool) layer {
	rows, cols := out, in
	if featureMajor {
		rows, cols = in, out
	}
	return layer{
		in: in, out: out,
		w:   linalg.WrapMatrix(rows, cols, buf[:out*in]),
		b:   buf[out*in:],
		buf: buf,
	}
}

// Net is one replica's network. Not safe for concurrent use.
//
// The input layer's weights are stored feature-major: W1[r][c] is at
// buf[c·H1 + r], so the H1 weights that one input feature feeds form one
// contiguous row. An example touches only its nonzero features, and each
// then costs one sequential H1-long pass in the forward and backward
// passes, instead of H1 reads strided Input elements apart. Averaging is
// elementwise, so the layout is invisible to MALT.
//
// Inside TrainEpoch the input layer's weights are held lazily: the true W1
// is s0·buf, so a step's L2 decay multiplies the scalar s0 instead of all
// H1·Input weights, and a step costs O(nnz·H1) (Bottou's SVM-SGD trick,
// "Stochastic Gradient Descent Tricks", 2012). The biases are not decayed
// and not scaled. Before TrainEpoch or Step returns, s0 is folded back into
// the buffer and reset to 1, so outside them the buffers are the model.
type Net struct {
	cfg    Config
	layers [NumLayers]layer
	t      uint64
	s0     float64 // W1 = s0·layers[0].w; 1 outside TrainEpoch and Step

	// scratch (reused across Step calls)
	z1, a1, d1 []float64
	z2, a2, d2 []float64
}

// New allocates a network with its own parameter storage, initialized with
// the given seed.
func New(cfg Config, seed int64) (*Net, error) {
	cfg2, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	sizes, _ := LayerSizes(cfg2)
	bufs := make([][]float64, NumLayers)
	for i, s := range sizes {
		bufs[i] = make([]float64, s)
	}
	n, err := NewOver(cfg2, bufs)
	if err != nil {
		return nil, err
	}
	n.Init(seed)
	return n, nil
}

// NewOver builds a network over caller-provided flat layer buffers (MALT
// vector storage in distributed training). Buffer lengths must match
// LayerSizes. The buffers are not initialized; call Init.
func NewOver(cfg Config, bufs [][]float64) (*Net, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	sizes, _ := LayerSizes(cfg)
	if len(bufs) != NumLayers {
		return nil, fmt.Errorf("nn: need %d layer buffers, got %d", NumLayers, len(bufs))
	}
	for i, s := range sizes {
		if len(bufs[i]) != s {
			return nil, fmt.Errorf("nn: layer %d buffer is %d elements, want %d", i, len(bufs[i]), s)
		}
	}
	n := &Net{cfg: cfg, s0: 1}
	n.layers[0] = newLayer(cfg.Input, cfg.H1, bufs[0], true)
	n.layers[1] = newLayer(cfg.H1, cfg.H2, bufs[1], false)
	n.layers[2] = newLayer(cfg.H2, 1, bufs[2], false)
	n.z1 = make([]float64, cfg.H1)
	n.a1 = make([]float64, cfg.H1)
	n.d1 = make([]float64, cfg.H1)
	n.z2 = make([]float64, cfg.H2)
	n.a2 = make([]float64, cfg.H2)
	n.d2 = make([]float64, cfg.H2)
	return n, nil
}

// Init fills the parameters with scaled Xavier-style noise, deterministic
// in the seed. Every layer's weights are drawn in out×in order, so a seed
// gives the same model whatever the storage layout.
func (n *Net) Init(seed int64) {
	rng := rand.New(rand.NewSource(seed))
	for li := range n.layers {
		l := &n.layers[li]
		scale := 1 / math.Sqrt(float64(l.in))
		if li == 0 {
			for r := 0; r < l.out; r++ {
				for c := 0; c < l.in; c++ {
					l.w.Set(c, r, rng.NormFloat64()*scale)
				}
			}
		} else {
			for i := range l.w.Data {
				l.w.Data[i] = rng.NormFloat64() * scale
			}
		}
		linalg.Zero(l.b)
	}
}

// Config returns the (defaulted) configuration.
func (n *Net) Config() Config { return n.cfg }

// Steps returns the number of SGD steps taken.
func (n *Net) Steps() uint64 { return n.t }

// Params returns layer i's flat parameter buffer (weights then biases).
func (n *Net) Params(i int) []float64 { return n.layers[i].buf }

// Score runs the forward pass and returns the raw output score.
func (n *Net) Score(x *linalg.SparseVector) float64 {
	w1, z1 := n.layers[0].w, n.z1
	linalg.Zero(z1)
	for i, idx := range x.Idx {
		if int(idx) >= w1.Rows {
			continue
		}
		v, row := x.Val[i], w1.Row(int(idx))[:len(z1)]
		for r := range z1 {
			z1[r] += v * row[r]
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

// minScale and maxScale bound s0 (always positive): a step that would take
// it outside settles first, so s0 never reaches 0 or overflows and the
// −η/s0 update factor stays finite. A negative Lambda makes s0 grow.
const minScale, maxScale = 1e-9, 1e9

// Step performs one forward/backward pass and SGD update for an example.
// One call costs O(H1·Input), because it settles the input layer's L2
// decay into every weight; train a batch with TrainEpoch, which settles
// once.
func (n *Net) Step(ex data.Example) {
	n.step(ex)
	n.settle()
}

// settle folds s0 into the input layer's weights.
func (n *Net) settle() {
	if n.s0 != 1 {
		linalg.Scale(n.s0, n.layers[0].w.Data)
		n.s0 = 1
	}
}

// step is Step without the settle: it leaves W1 as s0·buf.
func (n *Net) step(ex data.Example) {
	eta := n.cfg.Schedule.Rate(n.t)
	n.t++
	out := n.Score(ex.Features)
	dOut := n.cfg.Loss.Deriv(out, ex.Label)
	if dOut == 0 {
		return
	}
	lam := n.cfg.Lambda

	// Output layer: w3 ← w3 − η(dOut·a2 + λ·w3); b3 likewise.
	w3 := n.layers[2].w.Row(0)
	// d2 = dOut·w3 ∘ (1 − a2²), computed before w3 moves.
	for i := range n.d2 {
		n.d2[i] = dOut * w3[i] * (1 - n.a2[i]*n.a2[i])
	}
	for i := range w3 {
		w3[i] -= eta * (dOut*n.a2[i] + lam*w3[i])
	}
	n.layers[2].b[0] -= eta * dOut

	// Hidden layer 2: W2 (H2×H1), d1 = W2ᵀ·d2 ∘ (1 − a1²).
	n.layers[1].w.MulVecT(n.d1, n.d2)
	for i := range n.d1 {
		n.d1[i] *= 1 - n.a1[i]*n.a1[i]
	}
	if lam != 0 {
		linalg.Scale(1-eta*lam, n.layers[1].w.Data)
	}
	n.layers[1].w.AddOuter(-eta, n.d2, n.a1)
	linalg.Axpy(-eta, n.d2, n.layers[1].b)

	// Hidden layer 1: W1, sparse input outer product. The decay goes into
	// s0, and the update is divided by the decayed s0 so that s0·buf gains
	// −η·d1·xᵀ. A factor ≤ 0 cannot be held in s0, so that step settles and
	// decays every weight eagerly.
	decay := 1 - eta*lam
	if decay <= 0 {
		n.settle()
		linalg.Scale(decay, n.layers[0].w.Data)
		n.addInputOuter(-eta, ex.Features)
	} else {
		if s := n.s0 * decay; s < minScale || s > maxScale {
			n.settle()
		}
		n.s0 *= decay
		n.addInputOuter(-eta/n.s0, ex.Features)
	}
	linalg.Axpy(-eta, n.d1, n.layers[0].b)
}

// addInputOuter adds alpha·d1·xᵀ to the input layer's stored weights: for
// each feature of x, one pass over its row. It is an explicit loop, not
// linalg.Axpy, because Axpy skips a zero factor and 0·Inf must still reach
// the weights.
func (n *Net) addInputOuter(alpha float64, x *linalg.SparseVector) {
	w1, d1 := n.layers[0].w, n.d1
	for i, idx := range x.Idx {
		if int(idx) >= w1.Rows {
			continue
		}
		v, row := alpha*x.Val[i], w1.Row(int(idx))[:len(d1)]
		for r, d := range d1 {
			row[r] += v * d
		}
	}
}

// TrainEpoch runs one SGD step over every example, in order. When it
// returns, the three layer buffers hold the trained model exactly: the
// input layer's lazily kept decay has been folded back in, so a caller may
// scatter the buffers (or build a second Net over copies of them with
// NewOver) and get the same Score on every input.
func (n *Net) TrainEpoch(examples []data.Example) {
	for _, ex := range examples {
		n.step(ex)
	}
	n.settle()
}

// MeanLoss evaluates the average pointwise loss over examples.
func (n *Net) MeanLoss(examples []data.Example) float64 {
	if len(examples) == 0 {
		return 0
	}
	var sum float64
	for _, ex := range examples {
		sum += n.cfg.Loss.Value(n.Score(ex.Features), ex.Label)
	}
	return sum / float64(len(examples))
}

// AUC evaluates the ROC area over examples (the paper's Fig 6 metric).
func (n *Net) AUC(examples []data.Example) float64 {
	return metrics.ModelAUC(examples, n.Score)
}
