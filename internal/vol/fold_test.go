package vol

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"malt/internal/ml/linalg"
	"malt/internal/par"
)

// foldScenario scatters deterministic pseudo-random data from every rank
// and gathers on rank 0 with the given UDF, returning rank 0's folded
// value. workers == 0 runs the serial engine; otherwise the parallel
// engine with that pool size.
func foldScenario(t *testing.T, typ Type, udf UDF, ranks, dim, workers, foldChunk int, seed int64) []float64 {
	t.Helper()
	vecs := newVectors(t, ranks, dim, typ, Options{FoldChunk: foldChunk})
	for _, v := range vecs {
		defer v.Close()
	}
	if workers > 0 {
		node := vecs[0].Segment().Node()
		node.EnableParallelGather(workers)
		defer node.DisableParallelGather()
	}
	rng := rand.New(rand.NewSource(seed))
	for r, v := range vecs {
		for i := range v.Data() {
			x := rng.NormFloat64()
			if typ == Sparse && rng.Intn(4) != 0 {
				x = 0 // sparsify: ~25% density
			}
			v.Data()[i] = x
		}
		if r == 0 {
			continue // rank 0 only gathers; its local value is the fold base
		}
		if _, err := v.Scatter(uint64(r)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := vecs[0].Gather(udf); err != nil {
		t.Fatal(err)
	}
	return append([]float64(nil), vecs[0].Data()...)
}

// TestFoldDeterminism is the engine's core property: the parallel fold is
// bitwise identical to the serial fold for every chunk-form UDF, at any
// worker count and chunk size, for both wire formats. Chunking the
// coordinate axis preserves each coordinate's addition order, so not even
// the last ulp may differ.
func TestFoldDeterminism(t *testing.T) {
	const (
		ranks = 5 // 4 senders + the gathering rank
		dim   = 501
	)
	udfs := []struct {
		name string
		udf  UDF
	}{
		{"Average", Average},
		{"AverageIncoming", AverageIncoming},
		{"Sum", Sum},
		{"ReplaceCoords", ReplaceCoords},
		{"Replace", Replace},
	}
	for _, typ := range []Type{Dense, Sparse} {
		for _, u := range udfs {
			t.Run(fmt.Sprintf("%v/%s", typ, u.name), func(t *testing.T) {
				seed := int64(7)
				serial := foldScenario(t, typ, u.udf, ranks, dim, 0, 0, seed)
				for _, workers := range []int{1, 2, 8} {
					for _, chunk := range []int{1, 8, 100, dim, 2 * dim} {
						got := foldScenario(t, typ, u.udf, ranks, dim, workers, chunk, seed)
						for i := range serial {
							if math.Float64bits(got[i]) != math.Float64bits(serial[i]) {
								t.Fatalf("workers=%d chunk=%d: coord %d = %x, serial %x",
									workers, chunk, i, math.Float64bits(got[i]), math.Float64bits(serial[i]))
							}
						}
					}
				}
			})
		}
	}
}

// TestParallelGatherUnderConcurrentScatter races the parallel gather engine
// against live scatters from every peer; run with -race this checks the
// pool fan-out (ring drains, decode scratch, chunk folds) is properly
// synchronized against seqlock writers. Folded values are garbage mixes of
// rounds — only memory safety and loss accounting are asserted.
func TestParallelGatherUnderConcurrentScatter(t *testing.T) {
	const (
		ranks = 4
		dim   = 2048
	)
	vecs := newVectors(t, ranks, dim, Dense, Options{QueueLen: 4, FoldChunk: 128})
	for _, v := range vecs {
		defer v.Close()
	}
	node := vecs[0].Segment().Node()
	node.EnableParallelGather(4)
	defer node.DisableParallelGather()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 1; r < ranks; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for iter := uint64(1); ; iter++ {
				select {
				case <-stop:
					return
				default:
				}
				for i := range vecs[r].Data() {
					vecs[r].Data()[i] = float64(r)*1e6 + float64(iter)
				}
				if _, err := vecs[r].Scatter(iter); err != nil {
					t.Error(err)
					return
				}
			}
		}(r)
	}
	deadline := time.After(200 * time.Millisecond)
	gathers := 0
	for done := false; !done; {
		select {
		case <-deadline:
			done = true
		default:
			if _, err := vecs[0].Gather(Average); err != nil {
				t.Fatal(err)
			}
			gathers++
		}
	}
	close(stop)
	wg.Wait()
	if gathers == 0 {
		t.Fatal("no gathers completed")
	}
}

// TestGatherScratchSteadyState: after the first gather sized the scratch
// pools, subsequent gathers reuse every decode buffer (ScratchHits grows by
// exactly the update count) — the allocation-free steady state the engine
// promises.
func TestGatherScratchSteadyState(t *testing.T) {
	for _, typ := range []Type{Dense, Sparse} {
		t.Run(typ.String(), func(t *testing.T) {
			const ranks, dim = 3, 256
			vecs := newVectors(t, ranks, dim, typ, Options{})
			for _, v := range vecs {
				defer v.Close()
			}
			round := func(iter uint64) {
				for r := 1; r < ranks; r++ {
					for i := range vecs[r].Data() {
						vecs[r].Data()[i] = float64(i%7) * float64(iter)
					}
					if _, err := vecs[r].Scatter(iter); err != nil {
						t.Fatal(err)
					}
				}
				if _, err := vecs[0].Gather(Average); err != nil {
					t.Fatal(err)
				}
			}
			round(1) // sizes the scratch slots
			before := vecs[0].GatherPerf()
			const rounds = 10
			for i := uint64(2); i < 2+rounds; i++ {
				round(i)
			}
			after := vecs[0].GatherPerf()
			wantHits := uint64(rounds * (ranks - 1))
			if got := after.ScratchHits - before.ScratchHits; got != wantHits {
				t.Fatalf("ScratchHits grew by %d over %d rounds, want %d (a miss means a steady-state allocation)",
					got, rounds, wantHits)
			}
		})
	}
}

// accumulateAverage is AverageChunk as it was with a separate accumulator:
// zero acc, add each contribution scaled in fold order, copy acc back. It
// is the reference the one-pass fold must match bit for bit.
func accumulateAverage(c Chunk) {
	if len(c.Updates) == 0 {
		return
	}
	acc := make([]float64, c.Hi-c.Lo)
	scale := 1.0 / float64(len(c.Updates)+1)
	local := c.Local[c.Lo:c.Hi]
	localAdded := false
	addLocal := func() {
		for i, v := range local {
			acc[i] += scale * v
		}
		localAdded = true
	}
	for _, u := range c.Updates {
		if !localAdded && c.Self < u.From {
			addLocal()
		}
		linalg.Axpy(scale, u.Data[c.Lo:c.Hi], acc)
	}
	if !localAdded {
		addLocal()
	}
	copy(local, acc)
}

// TestAverageChunkMatchesAccumulate pins the one-pass Average fold to the
// accumulator version over signed zeros, infinities and NaNs, 1–4 updates,
// every position of the local value in the fold order, and both the
// whole-vector form and odd chunk sizes folded through a pool.
func TestAverageChunkMatchesAccumulate(t *testing.T) {
	const dim = 1001
	specials := []float64{math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1), math.NaN()}
	rng := rand.New(rand.NewSource(3))
	vec := func() []float64 {
		x := make([]float64, dim)
		for i := range x {
			if rng.Intn(4) == 0 {
				x[i] = specials[rng.Intn(len(specials))]
			} else {
				x[i] = rng.NormFloat64()
			}
		}
		return x
	}
	pool := par.New(3, 0)
	defer pool.Close()
	for n := 1; n <= 4; n++ {
		for self := 0; self <= n; self++ {
			local := vec()
			var ups []Update
			for r := 0; r <= n; r++ {
				if r != self {
					ups = append(ups, Update{From: r, Iter: 1, Data: vec()})
				}
			}
			want := append([]float64(nil), local...)
			accumulateAverage(Chunk{Self: self, Lo: 0, Hi: dim, Local: want, Updates: ups})
			check := func(form string, got []float64) {
				t.Helper()
				for i := range want {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("n=%d self=%d %s: coord %d = %v (%x), accumulator %v (%x)",
							n, self, form, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
					}
				}
			}
			got := append([]float64(nil), local...)
			Average(Fold{Self: self, Local: got, Updates: ups})
			check("whole", got)
			for _, cs := range []int{1, 7, 333} {
				v := &Vector{rank: self, dim: dim, data: append([]float64(nil), local...), foldChunk: cs, updateBuf: ups}
				v.fold(Average, pool)
				check(fmt.Sprintf("chunk=%d", cs), v.data)
			}
		}
	}
}

// BenchmarkAverageFold times the Average fold per coordinate at the nn
// input layer's shape (640 064 coordinates, one update: two ranks) and at
// fan-in 7.
func BenchmarkAverageFold(b *testing.B) {
	for _, bc := range []struct {
		name       string
		dim, fanIn int
	}{
		{"nn-W1", 640064, 1},
		{"fanin-7", 1 << 16, 7},
	} {
		b.Run(bc.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			fill := func() []float64 {
				x := make([]float64, bc.dim)
				for i := range x {
					x[i] = rng.NormFloat64()
				}
				return x
			}
			local := fill()
			ups := make([]Update, bc.fanIn)
			for i := range ups {
				ups[i] = Update{From: i + 1, Iter: 1, Data: fill()}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				Average(Fold{Self: 0, Local: local, Updates: ups})
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*bc.dim), "ns/coord")
		})
	}
}
