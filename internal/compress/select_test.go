package compress

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// selectTopKRef is the sort-based selection SelectTopK replaced, kept as
// the oracle: every nonzero index ordered by magnitude descending (NaN with
// +Inf) then index ascending, cut at k, re-sorted by index.
func selectTopKRef(data []float64, k int) []int32 {
	idx := []int32{}
	if k <= 0 {
		return idx
	}
	for i, v := range data {
		if v != 0 {
			idx = append(idx, int32(i))
		}
	}
	key := func(v float64) float64 {
		if math.IsNaN(v) {
			return math.Inf(1)
		}
		return math.Abs(v)
	}
	if len(idx) > k {
		sort.Slice(idx, func(a, b int) bool {
			ka, kb := key(data[idx[a]]), key(data[idx[b]])
			if ka != kb {
				return ka > kb
			}
			return idx[a] < idx[b]
		})
		idx = idx[:k]
		sort.Slice(idx, func(a, b int) bool { return idx[a] < idx[b] })
	}
	return idx
}

// checkSelect compares SelectTopK with the oracle on one input, through a
// reused selector and a dst holding stale contents.
func checkSelect(t *testing.T, s *selector, data []float64, k int, dst []int32) []int32 {
	t.Helper()
	for i := range dst[:cap(dst)] {
		dst[:cap(dst)][i] = -7
	}
	got := s.topK(data, k, dst)
	if want := selectTopKRef(data, k); !slices.Equal(got, want) {
		t.Fatalf("topK(n=%d, k=%d) = %v, oracle %v (data %v)", len(data), k, got, want, data)
	}
	return got
}

func TestSelectTopKMatchesRef(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	sNaN := math.Float64frombits(0x7FF0000000000001) // shares +Inf's top bucket
	table := map[string][]float64{
		"empty":      {},
		"all zero":   {0, math.Copysign(0, -1), 0},
		"signed":     {-10, 1, 9, -9, 10},
		"all equal":  {2, -2, 2, -2, 2, -2, 2},
		"non-finite": {1, nan, inf, -inf, 3, sNaN, -nan, math.MaxFloat64},
		"only nans":  {nan, sNaN, -nan, nan},
		"denormals":  {5e-324, -1e-323, 0, 5e-324, 1.5e-323, math.SmallestNonzeroFloat64},
		"neighbours": {1, math.Nextafter(1, 2), math.Nextafter(1, 0), 1, math.Nextafter(1, 2)},
		"one bucket": {1.01, 1.02, 1.03, 1.02, 1.01, 1.04, 1.02},
		"mixed":      {0, 1e300, -1e-300, 0, 3, -3, 3, 0.5, nan, 0, -0.5, 5e-324},
	}
	var s selector
	var dst []int32
	for name, data := range table {
		nnz := len(selectTopKRef(data, len(data)))
		for _, k := range []int{-1, 0, 1, 2, nnz - 1, nnz, nnz + 1, len(data) + 5} {
			t.Run(name, func(t *testing.T) { dst = checkSelect(t, &s, data, k, dst) })
		}
	}

	// Seeded sweep: lengths, densities, tie-heavy and spiky value mixes,
	// every k regime, one selector and one dst throughout.
	rng := rand.New(rand.NewSource(16))
	special := []float64{nan, inf, -inf, 0, math.Copysign(0, -1), 5e-324, math.MaxFloat64, sNaN}
	for trial := 0; trial < 3000; trial++ {
		n := rng.Intn(400)
		data := make([]float64, n)
		levels := 1 + rng.Intn(6)
		for i := range data {
			switch r := rng.Float64(); {
			case r < 0.2:
				// stays zero
			case r < 0.5:
				data[i] = float64(1+rng.Intn(levels)) * math.Pow(-1, float64(i)) // ties
			case r < 0.55:
				data[i] = special[rng.Intn(len(special))]
			case r < 0.7:
				data[i] = 1 + rng.Float64()/16 // one top-16 bucket
			default:
				data[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(7)-3))
			}
		}
		dst = checkSelect(t, &s, data, rng.Intn(n+2), dst)
	}
}

func FuzzSelectTopK(f *testing.F) {
	enc := func(vals ...float64) []byte {
		var b []byte
		for _, v := range vals {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		return b
	}
	f.Add(int16(2), enc(1, -1, 1, math.NaN(), 0, math.Inf(-1)))
	f.Add(int16(3), enc(5e-324, 1e-323, 5e-324, 0, 1))
	f.Add(int16(1), enc())
	f.Fuzz(func(t *testing.T, k int16, raw []byte) {
		data := make([]float64, len(raw)/8)
		for i := range data {
			data[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
		}
		got := SelectTopK(data, int(k), nil)
		if want := selectTopKRef(data, int(k)); !slices.Equal(got, want) {
			t.Fatalf("SelectTopK(%v, %d) = %v, oracle %v", data, k, got, want)
		}
	})
}

// refLink replays one link the way Begin worked before plans were shared
// and Recon went sparse: a fresh acc, a fresh Plan (so no sparse reset), the
// oracle's selection, and a full-length residual subtraction.
type refLink struct{ residual []float64 }

func (r *refLink) begin(t *testing.T, c Codec, data []float64, ratio float64) (*Plan, []byte) {
	t.Helper()
	acc := make([]float64, len(data))
	for i, v := range data {
		acc[i] = v + r.residual[i]
	}
	p := &Plan{}
	c.Plan(p, acc, ratio)
	if c.RatioDriven() {
		if want := selectTopKRef(acc, ratioK(ratio, len(acc))); !slices.Equal(p.selIdx, want) {
			t.Fatalf("%s plan selected %v, oracle %v", c.Name(), p.selIdx, want)
		}
	}
	for i := range r.residual {
		r.residual[i] = acc[i] - p.Recon[i]
	}
	return p, AppendFrame(nil, p, 0, len(data))
}

// gradient fills data with dense noise, a few exact zeros and — at step 10 —
// a NaN and an Inf, which must ship and then keep shipping.
func gradient(rng *rand.Rand, data []float64, step int) {
	for i := range data {
		data[i] = rng.NormFloat64()
		if rng.Intn(50) == 0 {
			data[i] = 0
		}
	}
	if step == 10 {
		data[7], data[len(data)/2] = math.NaN(), math.Inf(-1)
	}
}

// TestBeginMatchesRef: over enough updates for the residual to go dense,
// Begin's reconstruction, residual and frame equal the reference plan's bit
// for bit at every step.
func TestBeginMatchesRef(t *testing.T) {
	const dim, steps = 3000, 25
	for _, codec := range Names() {
		for _, ratio := range []float64{1.0 / 64, 1.0 / 8, 1} {
			st, err := NewState(Options{Codec: codec, Ratio: ratio}, dim)
			if err != nil {
				t.Fatal(err)
			}
			ref := refLink{residual: make([]float64, dim)}
			rng := rand.New(rand.NewSource(3))
			data := make([]float64, dim)
			for step := 0; step < steps; step++ {
				gradient(rng, data, step)
				p, wantFrame := ref.begin(t, st.Codec(), data, ratio)
				st.Begin(4, data, ratio)
				frame := st.EncodeRange(nil, 0, dim)
				if !bitsEqual(st.Recon(), p.Recon) {
					t.Fatalf("%s@%g step %d: Recon differs from the reference plan", codec, ratio, step)
				}
				if !bitsEqual(st.Residual(4), ref.residual) {
					t.Fatalf("%s@%g step %d: residual differs from the reference", codec, ratio, step)
				}
				if !bytes.Equal(frame, wantFrame) {
					t.Fatalf("%s@%g step %d: frame differs from the reference", codec, ratio, step)
				}
			}
		}
	}
}

// TestGroupsMatchPerPeer drives a shared State through the events that fork
// links — a ratio that diverges, a subset scatter, an eviction and rejoin —
// next to one reference link per peer, and checks every peer's frame and
// residual bitwise at every step, plus the sharing itself.
func TestGroupsMatchPerPeer(t *testing.T) {
	const dim = 500
	st, err := NewState(Options{Codec: "hybrid", Ratio: 0.125}, dim)
	if err != nil {
		t.Fatal(err)
	}
	refs := map[int]*refLink{}
	ratioOf := map[int]float64{1: 0.125, 2: 0.125, 3: 0.125}
	rng := rand.New(rand.NewSource(5))
	data := make([]float64, dim)
	var pre, post, frames uint64

	scatter := func(step int, peers []int, wantGroups int) {
		t.Helper()
		gradient(rng, data, step)
		ratios := make([]float64, len(peers))
		for i, p := range peers {
			ratios[i] = ratioOf[p]
		}
		groups := st.Groups(peers, ratios)
		if len(groups) != wantGroups {
			t.Fatalf("step %d: %d groups %v, want %d", step, len(groups), groups, wantGroups)
		}
		for _, g := range groups {
			st.BeginGroup(g, data)
			frame := st.EncodeRange(nil, 0, dim)
			for _, p := range g.Peers {
				if refs[p] == nil {
					refs[p] = &refLink{residual: make([]float64, dim)}
				}
				_, want := refs[p].begin(t, st.Codec(), data, g.Ratio)
				if !bytes.Equal(frame, want) {
					t.Fatalf("step %d peer %d: shared frame differs from its own link's", step, p)
				}
				if !bitsEqual(st.Residual(p), refs[p].residual) {
					t.Fatalf("step %d peer %d: shared residual differs from its own link's", step, p)
				}
				pre += 8 * dim
				post += uint64(len(frame))
				frames++
			}
		}
	}
	shared := func(a, b int) bool { return &st.Residual(a)[0] == &st.Residual(b)[0] }

	all := []int{1, 2, 3}
	for step := 0; step < 4; step++ {
		scatter(step, all, 1)
	}
	if !shared(1, 2) || !shared(2, 3) {
		t.Fatal("links with identical histories do not share a residual")
	}
	ratioOf[3] = 0.03125 // the controller tightens one link
	scatter(4, all, 2)
	if !shared(1, 2) || shared(2, 3) {
		t.Fatal("a diverged ratio must fork exactly that link")
	}
	ratioOf[3] = 0.125 // relaxed again: same ratio, different history
	scatter(5, all, 2)
	scatter(6, []int{2}, 1) // subset scatter forks 2 away from 1
	if shared(1, 2) {
		t.Fatal("a subset scatter must fork its destinations")
	}
	scatter(7, all, 3)
	st.DropPeer(1)
	delete(refs, 1)
	if st.Residual(1) != nil {
		t.Fatal("DropPeer left a residual")
	}
	scatter(8, all, 3)             // 1 restarts from zero
	scatter(9, []int{1, 2, 1}, 3)  // a repeated peer gets two updates
	scatter(10, []int{3, 2, 1}, 3) // order of first appearance
	if p := st.Perf(); p.BytesPre != pre || p.BytesPost != post || p.Frames != frames {
		t.Fatalf("Perf = %+v, want per-destination pre %d post %d frames %d", p, pre, post, frames)
	}

	var want float64
	for _, p := range all {
		for _, v := range st.Residual(p) {
			if a := math.Abs(v); !math.IsInf(a, 0) && !math.IsNaN(a) {
				want += a
			}
		}
	}
	if got := st.ResidualNorm(); math.Abs(got-want) > 1e-9*want {
		t.Fatalf("ResidualNorm = %v, per-link sum %v", got, want)
	}
}

// steadyState returns a hybrid State at the maltperf probe's shape whose
// residual has gone dense, and the updates that got it there.
func steadyState(tb testing.TB) (*State, [][]float64) {
	const dim = 200000
	rng := rand.New(rand.NewSource(1))
	updates := make([][]float64, 4)
	for i := range updates {
		updates[i] = make([]float64, dim)
		for j := range updates[i] {
			updates[i][j] = rng.NormFloat64()
		}
	}
	st, err := NewState(Options{Codec: "hybrid"}, dim)
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		st.Begin(1, updates[i%len(updates)], st.Options().Ratio)
	}
	return st, updates
}

func TestBeginSteadyStateAllocs(t *testing.T) {
	st, updates := steadyState(t)
	i := 0
	allocs := testing.AllocsPerRun(20, func() {
		st.Begin(1, updates[i%len(updates)], st.Options().Ratio)
		i++
	})
	if allocs != 0 {
		t.Fatalf("Begin allocates %v times per update in steady state, want 0", allocs)
	}
}

func BenchmarkBegin(b *testing.B) {
	st, updates := steadyState(b)
	b.ReportAllocs()
	b.SetBytes(8 * int64(len(updates[0])))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.Begin(1, updates[i%len(updates)], st.Options().Ratio)
	}
}

func BenchmarkSelectTopK(b *testing.B) {
	_, updates := steadyState(b)
	var s selector
	var dst []int32
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = s.topK(updates[i%len(updates)], len(updates[0])/8, dst)
	}
}
