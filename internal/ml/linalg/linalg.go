// Package linalg provides the small dense/sparse linear-algebra kernels
// that the MALT machine-learning substrates (SVM, matrix factorization,
// neural networks) are built on.
//
// The package deliberately stays close to BLAS level 1: vectors are plain
// float64 slices (dense) or coordinate lists (sparse), and every routine is
// allocation-free unless it must grow its destination. Model parameters in
// MALT are exchanged between replicas as raw float64 payloads, so keeping
// the representation flat makes serialization into dstorm segments a copy.
package linalg

import (
	"errors"
	"fmt"
	"math"
)

// ErrDimensionMismatch is returned (or wrapped) by operations whose operand
// lengths disagree.
var ErrDimensionMismatch = errors.New("linalg: dimension mismatch")

// Dot returns the inner product of two equal-length dense vectors.
// It panics if the lengths differ; the training loops guarantee shape.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(dimErr("Dot", len(a), len(b)))
	}
	var s float64
	for i, v := range a {
		s += v * b[i]
	}
	return s
}

// Axpy computes y += alpha*x in place.
func Axpy(alpha float64, x, y []float64) {
	if len(x) != len(y) {
		panic(dimErr("Axpy", len(x), len(y)))
	}
	if alpha == 0 {
		return
	}
	for i, v := range x {
		y[i] += alpha * v
	}
}

// Scale multiplies every element of x by alpha in place. Unrolled by four:
// the one-element loop retires an element per cycle only while its two dozen
// bytes of code sit inside one 64-byte fetch line, and it is small enough to
// be inlined, so its speed followed wherever the linker happened to place
// the caller.
func Scale(alpha float64, x []float64) {
	for len(x) >= 4 {
		x[0] *= alpha
		x[1] *= alpha
		x[2] *= alpha
		x[3] *= alpha
		x = x[4:]
	}
	for i := range x {
		x[i] *= alpha
	}
}

// Add computes dst = a + b element-wise. dst may alias a or b.
func Add(dst, a, b []float64) {
	if len(a) != len(b) || len(dst) != len(a) {
		panic(dimErr("Add", len(a), len(b)))
	}
	for i := range dst {
		dst[i] = a[i] + b[i]
	}
}

// Sub computes dst = a - b element-wise. dst may alias a or b.
func Sub(dst, a, b []float64) {
	if len(a) != len(b) || len(dst) != len(a) {
		panic(dimErr("Sub", len(a), len(b)))
	}
	for i := range dst {
		dst[i] = a[i] - b[i]
	}
}

// Copy copies src into dst (which must be the same length).
func Copy(dst, src []float64) {
	if len(dst) != len(src) {
		panic(dimErr("Copy", len(dst), len(src)))
	}
	copy(dst, src)
}

// Zero sets every element of x to 0.
func Zero(x []float64) {
	for i := range x {
		x[i] = 0
	}
}

// Norm2 returns the Euclidean norm of x.
func Norm2(x []float64) float64 {
	// Two-pass scaling is unnecessary for the magnitudes seen in model
	// training; a plain sum of squares is faster and accurate enough.
	var s float64
	for _, v := range x {
		s += v * v
	}
	return math.Sqrt(s)
}

// Norm1 returns the L1 norm of x.
func Norm1(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += math.Abs(v)
	}
	return s
}

// NormInf returns the maximum absolute element of x (0 for empty x).
func NormInf(x []float64) float64 {
	var m float64
	for _, v := range x {
		if a := math.Abs(v); a > m {
			m = a
		}
	}
	return m
}

// Mean returns the arithmetic mean of x (0 for empty x).
func Mean(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	var s float64
	for _, v := range x {
		s += v
	}
	return s / float64(len(x))
}

// AverageInto overwrites dst with the element-wise average of the given
// vectors. Every vector, and dst, must share one length. It is the default
// gather user-defined function in MALT ("gradient averaging").
func AverageInto(dst []float64, vecs ...[]float64) {
	if len(vecs) == 0 {
		Zero(dst)
		return
	}
	Zero(dst)
	for _, v := range vecs {
		if len(v) != len(dst) {
			panic(dimErr("AverageInto", len(dst), len(v)))
		}
		for i, e := range v {
			dst[i] += e
		}
	}
	Scale(1/float64(len(vecs)), dst)
}

// Clip bounds every element of x to [-limit, limit]. Gradient clipping keeps
// asynchronous replicas from exchanging exploding updates.
func Clip(x []float64, limit float64) {
	if limit <= 0 {
		return
	}
	for i, v := range x {
		if v > limit {
			x[i] = limit
		} else if v < -limit {
			x[i] = -limit
		}
	}
}

// AllFinite reports whether every element of x is neither NaN nor ±Inf.
// Fault monitors use it to trap numeric corruption before it propagates
// to peer replicas.
func AllFinite(x []float64) bool {
	for _, v := range x {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

func dimErr(op string, a, b int) error {
	return fmt.Errorf("%w in %s: %d vs %d", ErrDimensionMismatch, op, a, b)
}
