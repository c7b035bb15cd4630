package linalg

import (
	"math/rand"
	"testing"
)

func benchVectors(n int) ([]float64, []float64) {
	rng := rand.New(rand.NewSource(1))
	a := make([]float64, n)
	b := make([]float64, n)
	for i := range a {
		a[i] = rng.NormFloat64()
		b[i] = rng.NormFloat64()
	}
	return a, b
}

func BenchmarkDot(b *testing.B) {
	x, y := benchVectors(47152) // RCV1-sized model
	b.SetBytes(47152 * 8)
	var sink float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink = Dot(x, y)
	}
	_ = sink
}

func BenchmarkAxpy(b *testing.B) {
	x, y := benchVectors(47152)
	b.SetBytes(47152 * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Axpy(0.001, x, y)
	}
}

func BenchmarkSparseDotDense(b *testing.B) {
	w, _ := benchVectors(47152)
	sv := &SparseVector{}
	for i := int32(0); i < 47152; i += 628 { // ~75 nnz, RCV1-like
		sv.Append(i, 1.5)
	}
	var sink float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink = sv.DotDense(w)
	}
	_ = sink
}

func BenchmarkSparseAxpyDense(b *testing.B) {
	w, _ := benchVectors(47152)
	sv := &SparseVector{}
	for i := int32(0); i < 47152; i += 628 {
		sv.Append(i, 1.5)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sv.AxpyDense(0.01, w)
	}
}

func BenchmarkAverageInto(b *testing.B) {
	const dim, peers = 47152, 9
	dst := make([]float64, dim)
	vecs := make([][]float64, peers)
	for i := range vecs {
		vecs[i], _ = benchVectors(dim)
	}
	b.SetBytes(int64(dim * 8 * peers))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		AverageInto(dst, vecs...)
	}
}
