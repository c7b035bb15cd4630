package compress

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// testVectors returns named gradient-like inputs covering the codecs'
// interesting regimes: dense noise, sparse spikes, ties, zeros,
// non-finite entries, denormals and huge magnitudes.
func testVectors() map[string][]float64 {
	rng := rand.New(rand.NewSource(42))
	dense := make([]float64, 1000)
	for i := range dense {
		dense[i] = rng.NormFloat64()
	}
	spiky := make([]float64, 700)
	for i := 0; i < len(spiky); i += 13 {
		spiky[i] = float64(i%7-3) * 1e3
	}
	ties := make([]float64, 300)
	for i := range ties {
		ties[i] = math.Pow(-1, float64(i)) * 0.5
	}
	weird := []float64{
		0, math.NaN(), math.Inf(1), math.Inf(-1), 5e-324, -5e-324,
		math.MaxFloat64, -math.MaxFloat64, 1, -1, 0.1, 127, 128, 1e300,
		math.SmallestNonzeroFloat64, 2, 4, 8, -0.25,
	}
	// Pad weird across several int8 blocks so non-finite and huge entries
	// land in different blocks than tame ones.
	weirdLong := make([]float64, 600)
	copy(weirdLong, weird)
	copy(weirdLong[300:], weird)
	for i := 30; i < 300; i++ {
		weirdLong[i] = rng.NormFloat64() * 1e-5
	}
	return map[string][]float64{
		"dense":  dense,
		"spiky":  spiky,
		"ties":   ties,
		"weird":  weirdLong,
		"zeros":  make([]float64, 257),
		"single": {3.5},
	}
}

// planAndDecodeWhole plans data and decodes the whole-vector frame.
func planAndDecodeWhole(t *testing.T, c Codec, data []float64, ratio float64) (*Plan, []float64) {
	t.Helper()
	p := &Plan{}
	c.Plan(p, data, ratio)
	frame := AppendFrame(nil, p, 0, len(data))
	out := make([]float64, len(data))
	if err := Decode(out, 0, frame); err != nil {
		t.Fatalf("decode whole frame: %v", err)
	}
	return p, out
}

// bitsEqual compares float slices bit for bit (NaN == NaN).
func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestCodecRoundTrip: decoding a frame reproduces the plan's Recon bit for
// bit, for every codec and vector.
func TestCodecRoundTrip(t *testing.T) {
	for name, data := range testVectors() {
		for _, codec := range Names() {
			c, err := Lookup(codec)
			if err != nil {
				t.Fatal(err)
			}
			p, out := planAndDecodeWhole(t, c, data, 0.2)
			if !bitsEqual(out, p.Recon) {
				t.Errorf("%s/%s: decode != Recon", codec, name)
			}
		}
	}
}

// TestRangeSplitEquivalence: the union of per-range frames decodes to the
// same coordinates as the whole-vector frame, for any partition.
func TestRangeSplitEquivalence(t *testing.T) {
	splits := [][]int{{1}, {7}, {64}, {100}, {256}, {255, 256, 257}, {300}}
	for name, data := range testVectors() {
		for _, codec := range Names() {
			c, _ := Lookup(codec)
			p, whole := planAndDecodeWhole(t, c, data, 0.2)
			for _, widths := range splits {
				got := make([]float64, len(data))
				for i := range got {
					got[i] = math.NaN() // catch un-written ranges
				}
				wi := 0
				for lo := 0; lo < len(data); {
					hi := min(lo+widths[wi%len(widths)], len(data))
					wi++
					frame := AppendFrame(nil, p, lo, hi)
					if err := Decode(got[lo:hi], lo, frame); err != nil {
						t.Fatalf("%s/%s widths %v: decode [%d,%d): %v", codec, name, widths, lo, hi, err)
					}
					lo = hi
				}
				if !bitsEqual(got, whole) {
					t.Errorf("%s/%s: split %v decodes differently from whole frame", codec, name, widths)
				}
			}
		}
	}
}

// TestConservationBitwise: for every codec, recon + residual == acc exactly
// — error feedback loses nothing, even on NaN/Inf/denormal/huge inputs.
func TestConservationBitwise(t *testing.T) {
	for name, data := range testVectors() {
		for _, codec := range Names() {
			c, _ := Lookup(codec)
			p := &Plan{}
			c.Plan(p, data, 0.15)
			for i := range data {
				recon := p.Recon[i]
				if math.IsNaN(data[i]) || math.IsInf(data[i], 0) {
					// Non-finite coordinates must ship verbatim: a
					// residual cannot represent them (x − x is NaN).
					if math.Float64bits(recon) != math.Float64bits(data[i]) {
						t.Errorf("%s/%s[%d]: non-finite %v reconstructed as %v", codec, name, i, data[i], recon)
					}
					continue
				}
				residual := data[i] - recon
				back := recon + residual
				if math.Float64bits(back) != math.Float64bits(data[i]) {
					t.Errorf("%s/%s[%d]: recon %v + residual %v = %v, want %v",
						codec, name, i, recon, residual, back, data[i])
				}
			}
		}
	}
}

// TestStateConservation drives State across iterations and checks that at
// every step Recon + newResidual == data + oldResidual bitwise.
func TestStateConservation(t *testing.T) {
	for _, codec := range Names() {
		st, err := NewState(Options{Codec: codec, Ratio: 0.1}, 128)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(7))
		data := make([]float64, 128)
		prevResidual := make([]float64, 128)
		for iter := 0; iter < 20; iter++ {
			for i := range data {
				data[i] = rng.NormFloat64()
			}
			st.Begin(3, data, 0.1)
			recon := st.Recon()
			residual := st.Residual(3)
			for i := range data {
				want := data[i] + prevResidual[i]
				got := recon[i] + residual[i]
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s iter %d coord %d: recon+residual %v != data+prev %v", codec, iter, i, got, want)
				}
			}
			copy(prevResidual, residual)
		}
	}
}

// TestStateResidualCarriesMass: under topk, a coordinate that never makes
// the cut accumulates in the residual until it does ship.
func TestStateResidualCarriesMass(t *testing.T) {
	st, err := NewState(Options{Codec: "topk", Ratio: 0.25}, 4)
	if err != nil {
		t.Fatal(err)
	}
	// k = ceil(0.25*4) = 1: only the largest coordinate ships each round.
	data := []float64{10, 0.5, 0, 0}
	st.Begin(1, data, 0.25)
	if r := st.Residual(1); r[1] != 0.5 || r[0] != 0 {
		t.Fatalf("round 1 residual = %v, want [0 0.5 0 0]", r)
	}
	// Round 2: coordinate 1's residual (0.5) + new 0.5 = 1.0 still loses
	// to 10; by round 21 it has accumulated 10.5 and must win.
	for i := 0; i < 20; i++ {
		st.Begin(1, data, 0.25)
	}
	if r := st.Residual(1); r[1] != 0 {
		t.Fatalf("after 21 rounds coordinate 1 never shipped: residual %v", r)
	}
}

// TestStateDropPeer: eviction clears the residual; the next Begin starts a
// fresh link.
func TestStateDropPeer(t *testing.T) {
	st, _ := NewState(Options{Codec: "topk", Ratio: 0.25}, 4)
	st.Begin(2, []float64{8, 1, 0, 0}, 0.25)
	if st.Residual(2) == nil {
		t.Fatal("link 2 has no residual after Begin")
	}
	st.DropPeer(2)
	if st.Residual(2) != nil {
		t.Fatal("DropPeer left a residual behind")
	}
	st.Begin(2, []float64{0, 4, 0, 0}, 0.25)
	if r := st.Residual(2); r[1] != 0 {
		t.Fatalf("fresh link 2 residual = %v; the old residual leaked back", r)
	}
}

// TestStatePerfAccounting: BytesPre counts raw bytes, BytesPost the frames.
func TestStatePerfAccounting(t *testing.T) {
	st, _ := NewState(Options{Codec: "topk", Ratio: 0.5}, 100)
	data := make([]float64, 100)
	for i := range data {
		data[i] = float64(i + 1)
	}
	st.Begin(0, data, 0.5)
	frame := st.EncodeRange(nil, 0, 100)
	p := st.Perf()
	if p.BytesPre != 800 {
		t.Errorf("BytesPre = %d, want 800", p.BytesPre)
	}
	if p.BytesPost != uint64(len(frame)) {
		t.Errorf("BytesPost = %d, want %d", p.BytesPost, len(frame))
	}
	if p.Frames != 1 {
		t.Errorf("Frames = %d, want 1", p.Frames)
	}
	if p.BytesPost >= p.BytesPre {
		t.Errorf("topk at ratio 0.5 did not compress: %d >= %d", p.BytesPost, p.BytesPre)
	}
}

// TestSelectTopK pins the selection contract case by case: k clamping,
// zeros never ship, magnitude not sign, ties to the lower index, non-finite
// entries outrank every finite one and tie among themselves by index.
func TestSelectTopK(t *testing.T) {
	cases := []struct {
		name string
		data []float64
		k    int
		want []int32
	}{
		{"k zero", []float64{1, 2, 3}, 0, []int32{}},
		{"k negative", []float64{1, 2, 3}, -5, []int32{}},
		{"k equals dim", []float64{1, -2, 3}, 3, []int32{0, 1, 2}},
		{"k exceeds dim", []float64{1, -2, 3}, 99, []int32{0, 1, 2}},
		{"k exceeds dim skips zeros", []float64{1, 0, 3}, 10, []int32{0, 2}},
		{"zeros never selected", []float64{0, 5, 0, -3}, 4, []int32{1, 3}},
		{"all zeros", []float64{0, 0, 0}, 2, []int32{}},
		{"largest magnitudes", []float64{0.1, -5, 0, 2, -0.5, 3}, 2, []int32{1, 5}},
		{"ties break to lower index", []float64{2, -2, 2, -2}, 2, []int32{0, 1}},
		{"ties across sign", []float64{-7, 7}, 1, []int32{0}},
		{"magnitude not sign", []float64{-10, 1, 9}, 2, []int32{0, 2}},
		{"NaN always selected", []float64{1, math.NaN(), 3, 2}, 2, []int32{1, 2}},
		{"NaN outranks finite", []float64{9, math.NaN(), 1}, 1, []int32{1}},
		{"Inf outranks finite", []float64{5, math.Inf(-1), 1}, 1, []int32{1}},
		{"Inf outranks MaxFloat64", []float64{math.MaxFloat64, math.Inf(-1)}, 1, []int32{1}},
		{"NaN ties with Inf by index", []float64{math.Inf(1), math.NaN(), 100}, 2, []int32{0, 1}},
		{"NaN before Inf by index", []float64{1, math.NaN(), math.Inf(1)}, 2, []int32{1, 2}},
		{"empty data", []float64{}, 3, []int32{}},
		{"nil data", nil, 3, []int32{}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := SelectTopK(tc.data, tc.k, nil)
			if len(got) == 0 && len(tc.want) == 0 {
				return
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Errorf("SelectTopK(%v, %d) = %v, want %v", tc.data, tc.k, got, tc.want)
			}
		})
	}
}

// TestSelectTopKDeterministicOnTies: selection is a pure function of the
// input even when every magnitude ties, and takes the lowest indices.
func TestSelectTopKDeterministicOnTies(t *testing.T) {
	data := make([]float64, 200)
	for i := range data {
		data[i] = 1.5
	}
	for trial := 0; trial < 10; trial++ {
		got := SelectTopK(data, 50, nil)
		if len(got) != 50 {
			t.Fatalf("trial %d: selected %d, want 50", trial, len(got))
		}
		for i, ix := range got {
			if ix != int32(i) {
				t.Fatalf("trial %d: idx[%d] = %d, tied selection should take the lowest indices", trial, i, ix)
			}
		}
	}
}

// TestSelectTopKDominance: never more than k indices, strictly ascending,
// and no unselected magnitude exceeds a selected one.
func TestSelectTopKDominance(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(64)
		k := rng.Intn(n + 1)
		data := make([]float64, n)
		for i := range data {
			if rng.Float64() < 0.7 {
				data[i] = rng.NormFloat64()
			}
		}
		sel := SelectTopK(data, k, nil)
		if len(sel) > k {
			return false
		}
		selected := make([]bool, n)
		minSel := math.Inf(1)
		for i, ix := range sel {
			if i > 0 && ix <= sel[i-1] {
				return false
			}
			selected[ix] = true
			minSel = math.Min(minSel, math.Abs(data[ix]))
		}
		for i, v := range data {
			if !selected[i] && math.Abs(v) > minSel {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRatioK(t *testing.T) {
	cases := []struct {
		ratio float64
		n     int
		want  int
	}{
		{0.125, 1000, 125},
		{0.1, 7, 1},
		{1, 5, 5},
		{0.0001, 100, 1},
		{0.9999, 4, 4},
	}
	for _, tc := range cases {
		if got := ratioK(tc.ratio, tc.n); got != tc.want {
			t.Errorf("ratioK(%g, %d) = %d, want %d", tc.ratio, tc.n, got, tc.want)
		}
	}
}

// TestPow2Exp: the chosen scale always admits |q| <= 127 and is the
// smallest such power of two.
func TestPow2Exp(t *testing.T) {
	for _, maxAbs := range []float64{1e-300, 5e-324, 0.1, 1, 126.9, 127, 127.0001, 128, 1e10, 1e300} {
		e, ok := pow2Exp(maxAbs)
		if !ok {
			if maxAbs <= 127*math.Ldexp(1, maxExp) {
				t.Errorf("pow2Exp(%g) rejected a quantizable magnitude", maxAbs)
			}
			continue
		}
		if maxAbs > 127*math.Ldexp(1, e) {
			t.Errorf("pow2Exp(%g) = %d: 127·2^e = %g < maxAbs", maxAbs, e, 127*math.Ldexp(1, e))
		}
		if e > minExp && maxAbs <= 127*math.Ldexp(1, e-1) {
			t.Errorf("pow2Exp(%g) = %d not minimal", maxAbs, e)
		}
	}
	if _, ok := pow2Exp(math.NaN()); ok {
		t.Error("pow2Exp(NaN) accepted")
	}
	if _, ok := pow2Exp(math.Inf(1)); ok {
		t.Error("pow2Exp(+Inf) accepted")
	}
	if _, ok := pow2Exp(math.MaxFloat64); ok {
		t.Error("pow2Exp(MaxFloat64) accepted (exceeds 127·2^127)")
	}
}

func TestOptionsValidate(t *testing.T) {
	cases := []struct {
		name    string
		opts    Options
		wantErr bool
	}{
		{"topk defaults", Options{Codec: "topk"}, false},
		{"hybrid adaptive", Options{Codec: "hybrid", Adapt: true}, false},
		{"int8 fixed", Options{Codec: "int8"}, false},
		{"none", Options{Codec: "none"}, false},
		{"empty codec", Options{}, true},
		{"unknown codec", Options{Codec: "zstd"}, true},
		{"ratio too high", Options{Codec: "topk", Ratio: 1.5}, true},
		{"ratio negative", Options{Codec: "topk", Ratio: -0.1}, true},
		{"ratio NaN", Options{Codec: "topk", Ratio: math.NaN()}, true},
		{"adapt on int8", Options{Codec: "int8", Adapt: true}, true},
		{"adapt on none", Options{Codec: "none", Adapt: true}, true},
		{"min above ratio", Options{Codec: "topk", Ratio: 0.1, MinRatio: 0.5}, true},
		{"negative AdaptEvery", Options{Codec: "topk", AdaptEvery: -1}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.opts.Validate()
			if (err != nil) != tc.wantErr {
				t.Errorf("Validate() = %v, wantErr %v", err, tc.wantErr)
			}
		})
	}
}

// fakeSignals is a settable LinkSignals for controller tests.
type fakeSignals struct {
	bytes, modelNs, failed, stalls, drops, jitNs map[int]uint64
}

func newFakeSignals() *fakeSignals {
	return &fakeSignals{
		bytes: map[int]uint64{}, modelNs: map[int]uint64{},
		failed: map[int]uint64{}, stalls: map[int]uint64{},
		drops: map[int]uint64{}, jitNs: map[int]uint64{},
	}
}

func (f *fakeSignals) LinkBytes(from, to int) uint64          { return f.bytes[to] }
func (f *fakeSignals) LinkModelNs(from, to int) uint64        { return f.modelNs[to] }
func (f *fakeSignals) FailedWritesLink(from, to int) uint64   { return f.failed[to] }
func (f *fakeSignals) WindowStallsLink(from, to int) uint64   { return f.stalls[to] }
func (f *fakeSignals) InjectedDropsLink(from, to int) uint64  { return f.drops[to] }
func (f *fakeSignals) InjectedJitterLink(from, to int) uint64 { return f.jitNs[to] }

// tickInterval advances the controller one full adapt interval.
func tickInterval(c *Controller, peers []int, every int) {
	for i := 0; i < every; i++ {
		c.Tick(peers)
	}
}

// TestControllerEarlyPressure: pressure that lands inside a link's FIRST
// adapt interval must still tighten it. The first Tick snapshots the
// baseline, so a blackout that comes and goes before the AdaptEvery-th
// scatter surfaces as a delta at the first re-pick instead of vanishing
// into initialization — the regime of wall-clock chaos on slow scatter
// cadences (maltrun -chaos with a large cb).
func TestControllerEarlyPressure(t *testing.T) {
	sig := newFakeSignals()
	opts := Options{Codec: "topk", Ratio: 0.4, MinRatio: 0.05, Adapt: true, AdaptEvery: 8}
	c, err := NewController(opts, sig, 0)
	if err != nil {
		t.Fatal(err)
	}
	peers := []int{1}
	c.Tick(peers) // scatter 1 snapshots the link's baseline
	sig.drops[1] += 3
	for i := 0; i < 7; i++ { // scatters 2..8; 8 re-picks
		c.Tick(peers)
	}
	if got := c.Ratio(1); got != 0.2 {
		t.Errorf("ratio after first-interval drops = %g, want 0.2", got)
	}
	if p := c.Perf(); p.TightestRatio != 0.2 {
		t.Errorf("TightestRatio = %g, want 0.2", p.TightestRatio)
	}
}

// TestControllerTightensAndRelaxes: chaos drops on one link halve its ratio
// down to the floor; once the pressure stops the ratio climbs back to base.
func TestControllerTightensAndRelaxes(t *testing.T) {
	sig := newFakeSignals()
	opts := Options{Codec: "topk", Ratio: 0.4, MinRatio: 0.05, Adapt: true, AdaptEvery: 2}
	c, err := NewController(opts, sig, 0)
	if err != nil {
		t.Fatal(err)
	}
	peers := []int{1, 2}
	advance := func() {
		// Both links move the same traffic at the same cost, so the
		// congestion heuristic stays quiet; only explicit pressure
		// counters matter here.
		for _, p := range peers {
			sig.bytes[p] += 1000
			sig.modelNs[p] += 1000
		}
		tickInterval(c, peers, 2)
	}
	advance() // first interval only snapshots (inited=0 → no deltas)
	if got := c.Ratio(1); got != 0.4 {
		t.Fatalf("ratio after baseline interval = %g, want 0.4", got)
	}

	// Blackout on link 0→1: drops every interval.
	for i := 0; i < 4; i++ {
		sig.drops[1] += 5
		advance()
	}
	if got := c.Ratio(1); got != 0.05 {
		t.Errorf("pressured link ratio = %g, want floor 0.05", got)
	}
	if got := c.Ratio(2); got != 0.4 {
		t.Errorf("healthy link ratio = %g, want base 0.4", got)
	}
	if p := c.Perf(); p.HardestRatio != 0.05 || p.Adaptations == 0 {
		t.Errorf("Perf = %+v, want hardest 0.05 and adaptations > 0", p)
	}

	// Blackout lifts: the link relaxes back to base.
	for i := 0; i < 8; i++ {
		advance()
	}
	if got := c.Ratio(1); got != 0.4 {
		t.Errorf("healed link ratio = %g, want base 0.4", got)
	}
	if p := c.Perf(); p.HardestRatio != 0.4 {
		t.Errorf("hardest after heal = %g, want 0.4", p.HardestRatio)
	}
	// The peak is not erased by relaxation: an end-of-run harvest still
	// shows how hard the blackout squeezed the link.
	if p := c.Perf(); p.TightestRatio != 0.05 {
		t.Errorf("tightest after heal = %g, want floor 0.05", p.TightestRatio)
	}
}

// TestControllerCongestion: a link whose modeled ns/byte is far above the
// cheapest link's tightens even without chaos counters.
func TestControllerCongestion(t *testing.T) {
	sig := newFakeSignals()
	c, err := NewController(Options{Codec: "hybrid", Ratio: 0.4, MinRatio: 0.1, Adapt: true, AdaptEvery: 1}, sig, 0)
	if err != nil {
		t.Fatal(err)
	}
	peers := []int{1, 2}
	advance := func(slowFactor uint64) {
		sig.bytes[1] += 1000
		sig.modelNs[1] += 1000
		sig.bytes[2] += 1000
		sig.modelNs[2] += 1000 * slowFactor
		tickInterval(c, peers, 1)
	}
	advance(10) // baseline snapshot
	for i := 0; i < 3; i++ {
		advance(10)
	}
	if got := c.Ratio(2); got != 0.1 {
		t.Errorf("congested link ratio = %g, want floor 0.1", got)
	}
	if got := c.Ratio(1); got != 0.4 {
		t.Errorf("cheap link ratio = %g, want base 0.4", got)
	}
}

// TestControllerDropPeer: eviction resets the link to the base ratio.
func TestControllerDropPeer(t *testing.T) {
	sig := newFakeSignals()
	c, _ := NewController(Options{Codec: "topk", Ratio: 0.4, MinRatio: 0.05, Adapt: true, AdaptEvery: 1}, sig, 0)
	peers := []int{1}
	c.Tick(peers) // baseline
	for i := 0; i < 5; i++ {
		sig.drops[1]++
		c.Tick(peers)
	}
	if got := c.Ratio(1); got == 0.4 {
		t.Fatal("link never tightened under drops")
	}
	c.DropPeer(1)
	if got := c.Ratio(1); got != 0.4 {
		t.Errorf("ratio after DropPeer = %g, want base 0.4", got)
	}
}

// TestControllerRejectsBadOptions: Adapt-less or invalid options fail.
func TestControllerRejectsBadOptions(t *testing.T) {
	sig := newFakeSignals()
	if _, err := NewController(Options{Codec: "topk"}, sig, 0); err == nil {
		t.Error("controller accepted Adapt=false")
	}
	if _, err := NewController(Options{Codec: "int8", Adapt: true}, sig, 0); err == nil {
		t.Error("controller accepted a non-ratio-driven codec")
	}
	if _, err := NewController(Options{Codec: "topk", Adapt: true}, nil, 0); err == nil {
		t.Error("controller accepted nil signals")
	}
}

// TestDecodeRejectsCorruption: structurally invalid frames error rather
// than panic or decode silently.
func TestDecodeRejectsCorruption(t *testing.T) {
	data := []float64{1, -2, 3, 0, 5.5, -6.25, 0, 8}
	out := make([]float64, len(data))
	for _, codec := range Names() {
		c, _ := Lookup(codec)
		p := &Plan{}
		c.Plan(p, data, 0.5)
		frame := AppendFrame(nil, p, 0, len(data))

		if err := Decode(out, 0, frame[:len(frame)-1]); err == nil {
			t.Errorf("%s: truncated frame accepted", codec)
		}
		if err := Decode(out, 0, append(append([]byte{}, frame...), 0)); err == nil {
			t.Errorf("%s: oversized frame accepted", codec)
		}
		bad := append([]byte{}, frame...)
		bad[0] ^= 0xFF
		if err := Decode(out, 0, bad); err == nil {
			t.Errorf("%s: bad magic accepted", codec)
		}
		bad = append([]byte{}, frame...)
		bad[1] = 0x7E
		if err := Decode(out, 0, bad); err == nil {
			t.Errorf("%s: unknown codec ID accepted", codec)
		}
		bad = append([]byte{}, frame...)
		bad[2]++
		if err := Decode(out, 0, bad); err == nil {
			t.Errorf("%s: count mismatch accepted", codec)
		}
		if err := Decode(out, 0, frame[:3]); err == nil {
			t.Errorf("%s: short header accepted", codec)
		}
	}
}

// TestMaxBodyBytes: real bodies never exceed the advertised bound.
func TestMaxBodyBytes(t *testing.T) {
	for name, data := range testVectors() {
		for _, codec := range Names() {
			c, _ := Lookup(codec)
			p := &Plan{}
			c.Plan(p, data, 1.0) // worst case: ship everything
			for _, span := range [][2]int{{0, len(data)}, {0, min(5, len(data))}, {len(data) / 2, len(data)}} {
				lo, hi := span[0], span[1]
				body := c.EncodeRange(nil, p, lo, hi)
				if len(body) > c.MaxBodyBytes(hi-lo) {
					t.Errorf("%s/%s [%d,%d): body %d > bound %d", codec, name, lo, hi, len(body), c.MaxBodyBytes(hi-lo))
				}
			}
		}
	}
}

// TestCompressionRatios documents the headline wire savings on a dense
// gradient: every lossy codec beats 4x at the default ratio.
func TestCompressionRatios(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	data := make([]float64, 4096)
	for i := range data {
		data[i] = rng.NormFloat64()
	}
	raw := 8 * len(data)
	for codec, wantAtLeast := range map[string]float64{"topk": 4, "int8": 7, "hybrid": 10} {
		c, _ := Lookup(codec)
		p := &Plan{}
		c.Plan(p, data, DefaultRatio)
		frame := AppendFrame(nil, p, 0, len(data))
		ratio := float64(raw) / float64(len(frame))
		if ratio < wantAtLeast {
			t.Errorf("%s: %d → %d bytes = %.1fx, want ≥ %.0fx", codec, raw, len(frame), ratio, wantAtLeast)
		}
	}
}
