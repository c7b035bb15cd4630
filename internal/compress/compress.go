// Package compress is MALT's gradient-compression subsystem: it shrinks the
// wire form of dense scattered updates (top-k sparsification, int8 linear
// quantization, or both) while a per-destination error-feedback residual
// carries the dropped mass into the next update, so compression loses
// bandwidth, not gradient. The design follows ASAP's framing (PAPERS.md):
// approximation is a first-class, tunable knob of the data-parallel runtime,
// not an ad-hoc trainer hack.
//
// Three pieces compose:
//
//   - A Codec registry (none, topk, int8, hybrid). A codec Plans a whole
//     residual-corrected update once — fixing the exact reconstruction the
//     receivers will decode — and then EncodeRange slices any coordinate
//     range of that plan into a self-describing frame. Global planning is
//     what keeps compressed gradient bucketing bitwise identical to the
//     unbucketed path: the union of the per-bucket frames is exactly the
//     whole-vector frame's content, for any bucket size.
//
//   - A per-destination State (one residual vector per link; links whose
//     histories agree share it, so an all-to-all scatter plans once). Every
//     scale the quantizing codecs use is a power of two chosen so
//     |q| <= 127, which makes q·2^e exact and — by the Sterbenz lemma —
//     makes residual = acc − recon exact too: recon + residual equals the
//     residual-corrected gradient bit for bit, every iteration, for every
//     codec. Conservation is a testable invariant, not an approximation.
//
//   - An adaptive Controller that re-picks each link's compression ratio
//     every few scatters from observed fabric.Stats deltas (chaos drops,
//     failed writes, window stalls, injected jitter, modeled ns/byte): a
//     blacked-out or saturated link compresses harder, a healthy link
//     relaxes back toward the configured base ratio.
package compress

import (
	"fmt"
	"math"
	"sort"
)

// Defaults for Options fields left zero.
const (
	// DefaultRatio is the target fraction of coordinates shipped by the
	// ratio-driven codecs (topk, hybrid) when Options.Ratio is 0.
	DefaultRatio = 0.125
	// DefaultAdaptEvery is the number of scatters between adaptive ratio
	// re-picks when Options.AdaptEvery is 0.
	DefaultAdaptEvery = 8
	// DefaultMinRatioDiv divides the base ratio to derive the adaptive
	// floor when Options.MinRatio is 0 (floor = Ratio/8).
	DefaultMinRatioDiv = 8
)

// Options selects and tunes a compression codec. The zero value disables
// compression entirely (Enabled() == false).
type Options struct {
	// Codec names the registered codec: "none", "topk", "int8" or
	// "hybrid". Empty disables compression.
	Codec string
	// Ratio is the target fraction of coordinates shipped per update for
	// the ratio-driven codecs (topk, hybrid), in (0, 1]. 0 means
	// DefaultRatio. The none and int8 codecs ignore it.
	Ratio float64
	// Adapt enables the per-link adaptive controller: each destination's
	// ratio is re-picked from observed fabric.Stats signals, tightening
	// toward MinRatio under link pressure and relaxing back toward Ratio
	// when the link is healthy. Requires a ratio-driven codec.
	Adapt bool
	// AdaptEvery is the number of scatters between adaptive re-picks
	// (0 = DefaultAdaptEvery).
	AdaptEvery int
	// MinRatio is the adaptive floor (0 = Ratio/DefaultMinRatioDiv).
	MinRatio float64
}

// Enabled reports whether the options name a codec at all.
func (o Options) Enabled() bool { return o.Codec != "" }

// withDefaults fills zero fields and validates the result.
func (o Options) withDefaults() (Options, error) {
	if !o.Enabled() {
		return o, fmt.Errorf("compress: no codec selected")
	}
	c, err := Lookup(o.Codec)
	if err != nil {
		return o, err
	}
	if o.Ratio == 0 {
		o.Ratio = DefaultRatio
	}
	if o.Ratio <= 0 || o.Ratio > 1 || math.IsNaN(o.Ratio) {
		return o, fmt.Errorf("compress: ratio must be in (0, 1], got %g", o.Ratio)
	}
	if o.AdaptEvery == 0 {
		o.AdaptEvery = DefaultAdaptEvery
	}
	if o.AdaptEvery < 0 {
		return o, fmt.Errorf("compress: AdaptEvery must be positive, got %d", o.AdaptEvery)
	}
	if o.MinRatio == 0 {
		o.MinRatio = o.Ratio / DefaultMinRatioDiv
	}
	if o.MinRatio <= 0 || o.MinRatio > o.Ratio || math.IsNaN(o.MinRatio) {
		return o, fmt.Errorf("compress: MinRatio must be in (0, Ratio], got %g (ratio %g)", o.MinRatio, o.Ratio)
	}
	if o.Adapt && !c.RatioDriven() {
		return o, fmt.Errorf("compress: adaptive ratios require a ratio-driven codec (topk or hybrid), not %q", o.Codec)
	}
	return o, nil
}

// Validate checks the options without building a State (flag validation).
func (o Options) Validate() error {
	_, err := o.withDefaults()
	return err
}

// Codec is one compression scheme. Implementations are stateless; all
// per-update storage lives in the Plan so one codec value serves every
// vector and destination.
type Codec interface {
	// Name is the registry key.
	Name() string
	// ID is the wire identifier carried in every frame header.
	ID() byte
	// RatioDriven reports whether the codec consumes the ratio knob
	// (topk, hybrid) — the adaptive controller only applies to these.
	RatioDriven() bool
	// MaxBodyBytes bounds the encoded body size for any n-coordinate
	// range at any ratio (segment sizing).
	MaxBodyBytes(n int) int
	// Plan analyzes the residual-corrected update acc at the given ratio,
	// filling p.Recon with the exact values receivers will reconstruct
	// and recording the codec's global decisions (selection set,
	// per-block exponents). Planning is global so that EncodeRange of any
	// partition of [0, dim) reconstructs identically to one whole-vector
	// frame.
	Plan(p *Plan, acc []float64, ratio float64)
	// EncodeRange appends the frame body for coordinates [lo, hi) of the
	// planned update to dst.
	EncodeRange(dst []byte, p *Plan, lo, hi int) []byte
	// DecodeRange decodes a body covering len(out) coordinates starting
	// at absolute coordinate lo into out. It must reject truncated,
	// oversized or structurally invalid bodies with an error, never a
	// panic, and must reproduce Plan's Recon for that range bit for bit.
	DecodeRange(out []float64, lo int, body []byte) error
}

// Plan is one planned (analyzed) update: the exact reconstruction plus the
// codec's global decisions, reusable across EncodeRange calls and across
// updates (buffers and selection scratch are recycled).
type Plan struct {
	// Recon is the dim-length reconstruction every receiver will decode;
	// the caller's residual update is acc − Recon. Read-only: a selecting
	// codec relies on it staying zero outside its selection between plans.
	Recon []float64

	codec Codec
	// selIdx holds the globally selected coordinates, ascending
	// (topk, hybrid).
	selIdx []int32
	// sparse records that Recon is zero outside selIdx (topk, hybrid), so
	// the next plan clears, and the residual subtracts, only those entries.
	sparse bool
	sel    selector
	// exps and raw are per-block (int8: 256-coordinate blocks; hybrid:
	// 64-pair groups) power-of-two exponents and raw-passthrough flags.
	exps []int8
	raw  []bool
	// q holds quantized values (int8: per coordinate; hybrid: per
	// selected pair).
	q []int8
}

// reset prepares the plan for a dim-length update under a codec that writes
// every coordinate of Recon.
func (p *Plan) reset(c Codec, dim int) {
	p.codec = c
	p.sparse = false
	if cap(p.Recon) < dim {
		p.Recon = make([]float64, dim)
	}
	p.Recon = p.Recon[:dim]
}

// resetSparse prepares the plan for a dim-length update under a selecting
// codec: Recon is all zero on return. When the previous plan was sparse too
// that costs one store per previously selected coordinate, not dim.
func (p *Plan) resetSparse(c Codec, dim int) {
	if p.sparse && len(p.Recon) == dim {
		for _, ix := range p.selIdx {
			p.Recon[ix] = 0
		}
	} else {
		p.reset(c, dim)
		clear(p.Recon)
	}
	p.codec = c
	p.sparse = true
}

// subtractRecon turns acc into the residual acc − Recon in place. Outside a
// sparse plan's selection Recon is zero and acc already is its own residual.
func (p *Plan) subtractRecon(acc []float64) {
	if p.sparse {
		for _, ix := range p.selIdx {
			acc[ix] -= p.Recon[ix]
		}
		return
	}
	for i, r := range p.Recon {
		acc[i] -= r
	}
}

// Registry. Codecs are fixed at compile time; the map is read-only after
// package init.
var codecs = map[string]Codec{
	"none":   noneCodec{},
	"topk":   topkCodec{},
	"int8":   int8Codec{},
	"hybrid": hybridCodec{},
}

// Lookup resolves a codec by registry name.
func Lookup(name string) (Codec, error) {
	c, ok := codecs[name]
	if !ok {
		return nil, fmt.Errorf("compress: unknown codec %q (have %v)", name, Names())
	}
	return c, nil
}

// Names lists the registered codec names, sorted.
func Names() []string {
	out := make([]string, 0, len(codecs))
	for name := range codecs {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// byID resolves a codec from its wire identifier.
func byID(id byte) Codec {
	for _, c := range codecs {
		if c.ID() == id {
			return c
		}
	}
	return nil
}

// ratioK converts a ship-fraction into a coordinate budget over n.
func ratioK(ratio float64, n int) int {
	k := int(math.Ceil(ratio * float64(n)))
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return k
}

// Power-of-two quantization. The int8 and hybrid codecs never use an
// arbitrary linear scale: the scale is 2^e with e chosen as the smallest
// exponent such that maxAbs <= 127·2^e. Dividing by a power of two is
// exact, q = round(v/2^e) fits an int8, and q·2^e is exact — so the
// residual v − q·2^e is computed without rounding (Sterbenz lemma when
// q != 0: v and q·2^e are within a factor of two; exactly v when q == 0).
// This is what makes error-feedback conservation bitwise, not approximate.
const (
	minExp = -128
	maxExp = 127
)

// pow2Exp returns the smallest exponent e in [minExp, maxExp] with
// maxAbs <= 127·2^e. ok is false when maxAbs is non-finite or too large to
// quantize exactly (the caller falls back to the raw passthrough mode).
func pow2Exp(maxAbs float64) (e int, ok bool) {
	if maxAbs == 0 {
		return minExp, true
	}
	if math.IsNaN(maxAbs) || math.IsInf(maxAbs, 0) {
		return 0, false
	}
	_, exp := math.Frexp(maxAbs) // maxAbs = f·2^exp, f in [0.5, 1)
	e = exp - 7                  // 127·2^(exp-7) = (127/128)·2^exp
	if maxAbs > 127*math.Ldexp(1, e) {
		e++
	}
	if e < minExp {
		e = minExp
	}
	if e > maxExp {
		return 0, false
	}
	return e, true
}

// quantize returns round(v/scale) clamped to [-127, 127] and the exact
// reconstruction q·scale, for scale = 2^e (the caller hoists the Ldexp: one
// per block, not one per coordinate). v must be finite. The reconstruction
// is computed from the int8 — not the pre-truncation float — so a value
// that rounds to -0 reconstructs as +0 on both sides of the wire.
func quantize(v, scale float64) (q int8, recon float64) {
	qq := math.Round(v / scale)
	if qq > 127 {
		qq = 127
	} else if qq < -127 {
		qq = -127
	}
	q = int8(qq)
	return q, float64(q) * scale
}

// dequantize reproduces quantize's reconstruction on the receive side.
func dequantize(q int8, e int8) float64 {
	return float64(q) * math.Ldexp(1, int(e))
}
