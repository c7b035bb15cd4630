package vol

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"malt/internal/compress"
	"malt/internal/dataflow"
	"malt/internal/dstorm"
	"malt/internal/fabric"
	"malt/internal/ml/linalg"
)

// soloNode builds a one-rank cluster node plus its all-to-all graph for
// Create-validation tests.
func soloNode(t *testing.T) (*dstorm.Node, *dataflow.Graph) {
	t.Helper()
	f, err := fabric.New(fabric.Config{Ranks: 1})
	if err != nil {
		t.Fatal(err)
	}
	g, err := dataflow.New(dataflow.All, 1)
	if err != nil {
		t.Fatal(err)
	}
	return dstorm.NewCluster(f).Node(0), g
}

// fillRank gives rank r a deterministic gradient-like value.
func fillRank(v *Vector, r, round int) {
	rng := rand.New(rand.NewSource(int64(r*1000 + round)))
	d := v.Data()
	for i := range d {
		d[i] = rng.NormFloat64()
	}
}

// scatterGatherRound runs one all-to-all scatter + Sum gather for every
// rank and returns each rank's folded value.
func scatterGatherRound(t *testing.T, vecs []*Vector, iter uint64) [][]float64 {
	t.Helper()
	for _, v := range vecs {
		if _, err := v.Scatter(iter); err != nil {
			t.Fatal(err)
		}
	}
	out := make([][]float64, len(vecs))
	for r, v := range vecs {
		if _, err := v.Gather(Sum); err != nil {
			t.Fatal(err)
		}
		out[r] = append([]float64(nil), v.Data()...)
	}
	return out
}

// TestCompressedScatterGather: a compressed all-to-all converges on the
// decoded reconstructions; with codec "none" it is bitwise identical to the
// uncompressed path.
func TestCompressedScatterGather(t *testing.T) {
	const ranks, dim = 3, 64
	plain := newVectors(t, ranks, dim, Dense, Options{})
	comp := newVectors(t, ranks, dim, Dense, Options{Compress: compress.Options{Codec: "none"}})
	for r := 0; r < ranks; r++ {
		fillRank(plain[r], r, 0)
		fillRank(comp[r], r, 0)
	}
	want := scatterGatherRound(t, plain, 1)
	got := scatterGatherRound(t, comp, 1)
	for r := range want {
		for i := range want[r] {
			if math.Float64bits(got[r][i]) != math.Float64bits(want[r][i]) {
				t.Fatalf("rank %d coord %d: none-codec %v != uncompressed %v", r, i, got[r][i], want[r][i])
			}
		}
	}
	p := comp[0].CompressPerf()
	if p.Frames == 0 || p.BytesPre == 0 {
		t.Fatalf("no compression accounting: %+v", p)
	}
	if !comp[0].Compressed() || plain[0].Compressed() {
		t.Fatal("Compressed() flags wrong")
	}
}

// TestCompressedLossyReducesBytes: topk at a tight ratio cuts wire bytes by
// at least ~4x while error feedback keeps multi-round sums close.
func TestCompressedLossyReducesBytes(t *testing.T) {
	const ranks, dim = 2, 512
	vecs := newVectors(t, ranks, dim, Dense, Options{Compress: compress.Options{Codec: "topk", Ratio: 0.125}})
	for round := 0; round < 10; round++ {
		for r, v := range vecs {
			fillRank(v, r, round)
		}
		scatterGatherRound(t, vecs, uint64(round+1))
	}
	p := vecs[0].CompressPerf()
	if p.BytesPost*4 > p.BytesPre {
		t.Fatalf("topk@0.125 achieved only %d→%d bytes", p.BytesPre, p.BytesPost)
	}
	if p.ResidualNormMicro == 0 {
		t.Fatal("lossy codec left no residual — error feedback is not engaged")
	}
}

// TestCompressedBucketedBitwiseInvariance: for a fixed ratio, the folded
// result is bitwise identical at every gather worker count — the
// acceptance-criteria determinism property.
func TestCompressedBucketedBitwiseInvariance(t *testing.T) {
	const ranks, dim = 3, 300
	copts := compress.Options{Codec: "hybrid", Ratio: 0.25}
	run := func(workers int) [][]float64 {
		vecs := newVectors(t, ranks, dim, Dense, Options{Compress: copts})
		if workers > 0 {
			for _, v := range vecs {
				v.Segment().Node().EnableParallelGather(workers)
			}
		}
		var out [][]float64
		for round := 0; round < 3; round++ {
			for r, v := range vecs {
				fillRank(v, r, round)
			}
			out = scatterGatherRound(t, vecs, uint64(round+1))
		}
		return out
	}
	want := run(0)
	for _, workers := range []int{2, 3, 4} {
		got := run(workers)
		for r := range want {
			for i := range want[r] {
				if math.Float64bits(got[r][i]) != math.Float64bits(want[r][i]) {
					t.Fatalf("workers=%d rank %d coord %d: %v != %v",
						workers, r, i, got[r][i], want[r][i])
				}
			}
		}
	}
}

// TestCompressedPerDestinationResiduals: with a restricted dataflow each
// destination accumulates its own residual — the per-link state is not
// shared.
func TestCompressedPerDestinationResiduals(t *testing.T) {
	const ranks, dim = 3, 40
	vecs := newVectors(t, ranks, dim, Dense, Options{Compress: compress.Options{Codec: "topk", Ratio: 0.1}})
	v := vecs[0]
	fillRank(v, 0, 0)
	// Scatter to peer 1 twice, peer 2 once: residual histories diverge.
	if _, err := v.ScatterTo([]int{1}, 1); err != nil {
		t.Fatal(err)
	}
	fillRank(v, 0, 1)
	if _, err := v.ScatterTo([]int{1}, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := v.ScatterTo([]int{2}, 2); err != nil {
		t.Fatal(err)
	}
	// Drain receivers so the ring does not overflow in later tests.
	for _, u := range vecs[1:] {
		if _, err := u.Gather(nil); err != nil {
			t.Fatal(err)
		}
	}
	st := v.comp.st
	r1, r2 := st.Residual(1), st.Residual(2)
	if r1 == nil || r2 == nil {
		t.Fatal("missing per-destination residuals")
	}
	same := true
	for i := range r1 {
		if math.Float64bits(r1[i]) != math.Float64bits(r2[i]) {
			same = false
			break
		}
	}
	if same {
		t.Fatal("residuals for links with different histories are identical")
	}
}

// TestCompressedPeerEviction: RemovePeer and RestorePeer evict the dead
// peer's residual and adaptive state (no stale-incarnation poisoning).
func TestCompressedPeerEviction(t *testing.T) {
	const ranks, dim = 3, 40
	vecs := newVectors(t, ranks, dim, Dense, Options{Compress: compress.Options{Codec: "topk", Ratio: 0.1, Adapt: true}})
	v := vecs[0]
	fillRank(v, 0, 0)
	if _, err := v.Scatter(1); err != nil {
		t.Fatal(err)
	}
	for _, u := range vecs[1:] {
		if _, err := u.Gather(nil); err != nil {
			t.Fatal(err)
		}
	}
	if v.comp.st.Residual(1) == nil {
		t.Fatal("no residual for peer 1 after scatter")
	}
	v.RemovePeer(1)
	if v.comp.st.Residual(1) != nil {
		t.Fatal("RemovePeer left peer 1's residual")
	}
	v.RestorePeer(1)
	if v.comp.st.Residual(1) != nil {
		t.Fatal("RestorePeer resurrected peer 1's residual")
	}
}

// TestCompressRejectsSparse: compression requires Dense vectors.
func TestCompressRejectsSparse(t *testing.T) {
	node, g := soloNode(t)
	_, err := Create(node, "w", Sparse, 8, g, Options{Compress: compress.Options{Codec: "topk"}})
	if err == nil || !strings.Contains(err.Error(), "Dense") {
		t.Fatalf("Sparse+Compress error = %v", err)
	}
}

// TestCompressRejectsBadOptions: Create surfaces codec validation errors.
func TestCompressRejectsBadOptions(t *testing.T) {
	cases := []compress.Options{
		{Codec: "zstd"},
		{Codec: "topk", Ratio: 2},
		{Codec: "int8", Adapt: true},
	}
	for i, c := range cases {
		node, g := soloNode(t)
		if _, err := Create(node, string(rune('a'+i)), Dense, 8, g, Options{Compress: c}); err == nil {
			t.Errorf("Create accepted %+v", c)
		}
	}
}

// TestTopKFilteredSparseScatter: the standalone sparse filter — a
// compress.SelectTopK selection shipped through ScatterSparse — still
// delivers the heavy coordinates and drops the light ones.
func TestTopKFilteredSparseScatter(t *testing.T) {
	vecs := newVectors(t, 2, 100, Sparse, Options{MaxNNZ: 10})
	d := vecs[0].Data()
	for i := range d {
		d[i] = 0.01
	}
	d[7] = 5
	d[42] = -3
	up := &linalg.SparseVector{Idx: compress.SelectTopK(d, 2, nil)}
	for _, ix := range up.Idx {
		up.Val = append(up.Val, d[ix])
	}
	if _, err := vecs[0].ScatterSparse(up, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := vecs[1].Gather(Sum); err != nil {
		t.Fatal(err)
	}
	got := vecs[1].Data()
	if got[7] != 5 || got[42] != -3 {
		t.Fatalf("heavy coordinates lost: %v %v", got[7], got[42])
	}
	if got[0] != 0 {
		t.Fatal("light coordinate should have been dropped")
	}
}

// TestCompressedScatterSharesPlan: under an all-to-all dataflow at one ratio
// every destination holds the same residual object and receives the same
// frame, while the accounting still counts each destination.
func TestCompressedScatterSharesPlan(t *testing.T) {
	const ranks, dim, rounds = 4, 256, 3
	vecs := newVectors(t, ranks, dim, Dense, Options{Compress: compress.Options{Codec: "hybrid", Ratio: 0.125}})
	v := vecs[0]
	for round := 0; round < rounds; round++ {
		fillRank(v, 0, round)
		if _, err := v.Scatter(uint64(round + 1)); err != nil {
			t.Fatal(err)
		}
		var first []float64
		for _, u := range vecs[1:] {
			for i := range u.Data() {
				u.Data()[i] = 0
			}
			if st, err := u.Gather(Sum); err != nil || st.Updates != 1 {
				t.Fatalf("round %d: gather = %+v, %v", round, st, err)
			}
			if first == nil {
				first = u.Data()
			}
			for i, x := range u.Data() {
				if math.Float64bits(x) != math.Float64bits(first[i]) {
					t.Fatalf("round %d coord %d: destinations decoded different updates", round, i)
				}
			}
		}
	}
	st := v.comp.st
	if &st.Residual(1)[0] != &st.Residual(2)[0] || &st.Residual(2)[0] != &st.Residual(3)[0] {
		t.Fatal("destinations with identical histories do not share a residual")
	}
	p := v.CompressPerf()
	if want := uint64(rounds * (ranks - 1)); p.Frames != want || p.BytesPre != want*8*dim {
		t.Fatalf("perf = %+v, want %d frames and %d raw bytes (per destination)", p, want, want*8*dim)
	}
	if p.PlanNs == 0 {
		t.Fatal("no plan time recorded")
	}
}

// BenchmarkScatterCompressedFanout: one compressed scatter under dataflow
// all, to 1 destination and to 7. Destinations share one plan and one
// encode, so the 8-rank scatter costs the 2-rank one plus six more ring
// deposits of an already encoded frame — not seven plans.
func BenchmarkScatterCompressedFanout(b *testing.B) {
	const dim = 50000
	for _, ranks := range []int{2, 8} {
		b.Run(fmt.Sprintf("ranks=%d", ranks), func(b *testing.B) {
			vecs := newVectors(b, ranks, dim, Dense, Options{QueueLen: 2, Compress: compress.Options{Codec: "hybrid"}})
			v := vecs[0]
			rng := rand.New(rand.NewSource(1))
			updates := make([][]float64, 4)
			for i := range updates {
				updates[i] = make([]float64, dim)
				for j := range updates[i] {
					updates[i][j] = rng.NormFloat64()
				}
			}
			scatter := func(i int) {
				copy(v.Data(), updates[i%len(updates)])
				if _, err := v.Scatter(uint64(i + 1)); err != nil {
					b.Fatal(err)
				}
			}
			for i := 0; i < 8; i++ { // let the residual go dense
				scatter(i)
			}
			planNs := v.CompressPerf().PlanNs
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				scatter(i)
			}
			b.ReportMetric(float64(v.CompressPerf().PlanNs-planNs)/float64(b.N), "plan-ns/op")
		})
	}
}
