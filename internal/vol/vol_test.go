package vol

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"malt/internal/dataflow"
	"malt/internal/dstorm"
	"malt/internal/fabric"
	"malt/internal/ml/linalg"
)

func newVectors(t testing.TB, ranks, dim int, typ Type, opts Options) []*Vector {
	t.Helper()
	f, err := fabric.New(fabric.Config{Ranks: ranks})
	if err != nil {
		t.Fatal(err)
	}
	c := dstorm.NewCluster(f)
	g, err := dataflow.New(dataflow.All, ranks)
	if err != nil {
		t.Fatal(err)
	}
	vecs := make([]*Vector, ranks)
	errs := make([]error, ranks)
	var wg sync.WaitGroup
	for r := 0; r < ranks; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			vecs[r], errs[r] = Create(c.Node(r), "w", typ, dim, g, opts)
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	return vecs
}

func TestDenseScatterGatherAverage(t *testing.T) {
	vecs := newVectors(t, 3, 4, Dense, Options{})
	for r, v := range vecs {
		for i := range v.Data() {
			v.Data()[i] = float64(r + 1) // rank r holds r+1 everywhere
		}
		if _, err := v.Scatter(1); err != nil {
			t.Fatal(err)
		}
	}
	// Rank 0 folds updates {2,3} with local 1 → mean 2.
	st, err := vecs[0].Gather(Average)
	if err != nil {
		t.Fatal(err)
	}
	if st.Updates != 2 {
		t.Fatalf("Updates = %d", st.Updates)
	}
	for i, got := range vecs[0].Data() {
		if math.Abs(got-2) > 1e-12 {
			t.Fatalf("data[%d] = %v, want 2", i, got)
		}
	}
}

func TestGatherUDFs(t *testing.T) {
	mk := func() Fold {
		return Fold{
			Self:  0,
			Local: []float64{10, 20},
			Updates: []Update{
				{From: 1, Iter: 1, Data: []float64{2, 4}},
				{From: 2, Iter: 2, Data: []float64{4, 8}},
			},
		}
	}
	f := mk()
	Average(f)
	if math.Abs(f.Local[0]-16.0/3) > 1e-12 || math.Abs(f.Local[1]-32.0/3) > 1e-12 {
		t.Fatalf("Average = %v", f.Local)
	}
	f = mk()
	AverageIncoming(f)
	if f.Local[0] != 3 || f.Local[1] != 6 {
		t.Fatalf("AverageIncoming = %v", f.Local)
	}
	f = mk()
	Sum(f)
	if f.Local[0] != 16 || f.Local[1] != 32 {
		t.Fatalf("Sum = %v", f.Local)
	}
	f = mk()
	Replace(f)
	if f.Local[0] != 4 || f.Local[1] != 8 {
		t.Fatalf("Replace = %v", f.Local)
	}
	// Replace picks the freshest by iteration stamp, not arrival order.
	f = mk()
	f.Updates[0].Iter = 9
	Replace(f)
	if f.Local[0] != 2 || f.Local[1] != 4 {
		t.Fatalf("Replace by iter = %v", f.Local)
	}
	// No updates: every UDF must leave local unchanged.
	for name, udf := range map[string]UDF{"Average": Average, "AverageIncoming": AverageIncoming, "Sum": Sum, "Replace": Replace} {
		local := []float64{7, 8}
		udf(Fold{Self: 0, Local: local})
		if local[0] != 7 || local[1] != 8 {
			t.Fatalf("%s with no updates modified local: %v", name, local)
		}
	}
}

func TestAverageCanonicalOrder(t *testing.T) {
	// Three ranks hold values a, b, c. Each averages the other two with its
	// own: the results must be bit-identical across ranks because Average
	// folds in global rank order.
	vals := [][]float64{
		{0.1, 1e16, -3},
		{0.3, -1e16, 7},
		{0.7, 1, 11},
	}
	results := make([][]float64, 3)
	for self := 0; self < 3; self++ {
		local := append([]float64(nil), vals[self]...)
		var ups []Update
		for r := 0; r < 3; r++ {
			if r != self {
				ups = append(ups, Update{From: r, Data: vals[r]})
			}
		}
		Average(Fold{Self: self, Local: local, Updates: ups})
		results[self] = local
	}
	for r := 1; r < 3; r++ {
		for i := range results[0] {
			if results[0][i] != results[r][i] {
				t.Fatalf("rank %d averaged differently at %d: %v vs %v",
					r, i, results[0][i], results[r][i])
			}
		}
	}
}

func TestSparseScatterGather(t *testing.T) {
	vecs := newVectors(t, 2, 8, Sparse, Options{})
	d := vecs[0].Data()
	d[1] = 2.5
	d[6] = -1
	if _, err := vecs[0].Scatter(1); err != nil {
		t.Fatal(err)
	}
	st, err := vecs[1].Gather(Sum)
	if err != nil {
		t.Fatal(err)
	}
	if st.Updates != 1 {
		t.Fatalf("Updates = %d", st.Updates)
	}
	got := vecs[1].Data()
	if got[1] != 2.5 || got[6] != -1 || got[0] != 0 {
		t.Fatalf("sparse round trip = %v", got)
	}
}

func TestScatterSparseExplicitUpdate(t *testing.T) {
	vecs := newVectors(t, 2, 8, Sparse, Options{})
	up := linalg.FromMap(map[int32]float64{3: 1.5})
	if _, err := vecs[0].ScatterSparse(up, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := vecs[1].Gather(Sum); err != nil {
		t.Fatal(err)
	}
	if vecs[1].Data()[3] != 1.5 {
		t.Fatalf("data = %v", vecs[1].Data())
	}
	// Dense vectors reject ScatterSparse.
	dv := newVectors(t, 2, 4, Dense, Options{})
	if _, err := dv[0].ScatterSparse(up, 1); err == nil {
		t.Fatal("ScatterSparse on dense vector should fail")
	}
}

func TestSparseMaxNNZEnforced(t *testing.T) {
	vecs := newVectors(t, 2, 100, Sparse, Options{MaxNNZ: 2})
	up := linalg.FromMap(map[int32]float64{1: 1, 2: 2, 3: 3})
	if _, err := vecs[0].ScatterSparse(up, 1); err == nil {
		t.Fatal("update exceeding MaxNNZ should fail")
	}
	small := linalg.FromMap(map[int32]float64{1: 1})
	if _, err := vecs[0].ScatterSparse(small, 1); err != nil {
		t.Fatal(err)
	}
}

func TestGatherStatsIterRange(t *testing.T) {
	vecs := newVectors(t, 3, 2, Dense, Options{QueueLen: 8})
	if _, err := vecs[1].Scatter(5); err != nil {
		t.Fatal(err)
	}
	if _, err := vecs[2].Scatter(9); err != nil {
		t.Fatal(err)
	}
	st, err := vecs[0].Gather(Average)
	if err != nil {
		t.Fatal(err)
	}
	if st.MinIter != 5 || st.MaxIter != 9 {
		t.Fatalf("iter range = [%d,%d], want [5,9]", st.MinIter, st.MaxIter)
	}
}

func TestAsMatrixSharesStorage(t *testing.T) {
	vecs := newVectors(t, 1, 6, Dense, Options{})
	m := vecs[0].AsMatrix(2, 3)
	m.Set(1, 2, 42)
	if vecs[0].Data()[5] != 42 {
		t.Fatal("AsMatrix does not share storage")
	}
}

func TestCreateValidation(t *testing.T) {
	f, _ := fabric.New(fabric.Config{Ranks: 1})
	c := dstorm.NewCluster(f)
	g, _ := dataflow.New(dataflow.All, 1)
	if _, err := Create(c.Node(0), "w", Dense, 0, g, Options{}); err == nil {
		t.Fatal("dim=0 should fail")
	}
	if _, err := Create(c.Node(0), "w", Type(99), 4, g, Options{}); err == nil {
		t.Fatal("unknown type should fail")
	}
}

func TestDenseCodecRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		dim := 1 + r.Intn(64)
		data := make([]float64, dim)
		for i := range data {
			data[i] = r.NormFloat64()
		}
		buf := make([]byte, 8*dim)
		enc := encodeDense(buf, data)
		dec := make([]float64, dim)
		if err := decodeDenseInto(dec, enc); err != nil {
			return false
		}
		for i := range data {
			if data[i] != dec[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSparseCodecRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := make(map[int32]float64)
		for i := 0; i < r.Intn(20); i++ {
			m[int32(r.Intn(1000))] = r.NormFloat64()
		}
		sv := linalg.FromMap(m)
		buf := make([]byte, 4+12*sv.NNZ())
		enc, err := encodeSparse(buf, sv)
		if err != nil {
			return false
		}
		dec, err := decodeSparse(enc)
		if err != nil {
			return false
		}
		if dec.NNZ() != sv.NNZ() {
			return false
		}
		for i := range sv.Idx {
			if sv.Idx[i] != dec.Idx[i] || sv.Val[i] != dec.Val[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSparseCodecCorruptPayloads(t *testing.T) {
	if _, err := decodeSparse([]byte{1, 2}); err == nil {
		t.Fatal("short payload should fail")
	}
	// Count far beyond payload size.
	if _, err := decodeSparse([]byte{255, 255, 255, 255, 0, 0, 0, 0}); err == nil {
		t.Fatal("oversized count should fail")
	}
}

func TestVectorBarrier(t *testing.T) {
	vecs := newVectors(t, 3, 2, Dense, Options{})
	var wg sync.WaitGroup
	for _, v := range vecs {
		wg.Add(1)
		go func(v *Vector) {
			defer wg.Done()
			if err := v.Barrier(); err != nil {
				t.Errorf("barrier: %v", err)
			}
		}(v)
	}
	wg.Wait()
}

func TestHogwildStyleReplaceConverges(t *testing.T) {
	// Two ranks repeatedly scatter and replace: both end with the freshest
	// value rather than diverging.
	vecs := newVectors(t, 2, 2, Dense, Options{QueueLen: 4})
	vecs[0].Data()[0] = 1
	if _, err := vecs[0].Scatter(1); err != nil {
		t.Fatal(err)
	}
	if _, err := vecs[1].Gather(Replace); err != nil {
		t.Fatal(err)
	}
	if vecs[1].Data()[0] != 1 {
		t.Fatalf("replace did not propagate: %v", vecs[1].Data())
	}
}

func TestScatterToSubsetVector(t *testing.T) {
	vecs := newVectors(t, 3, 2, Dense, Options{})
	vecs[0].Data()[0] = 7
	if _, err := vecs[0].ScatterTo([]int{2}, 1); err != nil {
		t.Fatal(err)
	}
	st, err := vecs[1].Gather(Sum)
	if err != nil {
		t.Fatal(err)
	}
	if st.Updates != 0 {
		t.Fatal("rank 1 should receive nothing")
	}
	if _, err := vecs[2].Gather(Sum); err != nil {
		t.Fatal(err)
	}
	if vecs[2].Data()[0] != 7 {
		t.Fatalf("rank 2 data = %v", vecs[2].Data())
	}
}

func TestVectorAccessors(t *testing.T) {
	vecs := newVectors(t, 2, 4, Sparse, Options{QueueLen: 3})
	v := vecs[0]
	if v.Name() != "w" || v.Type() != Sparse || v.Dim() != 4 {
		t.Fatalf("accessors: %s %v %d", v.Name(), v.Type(), v.Dim())
	}
	if v.Type().String() != "sparse" || Dense.String() != "dense" {
		t.Fatal("type names wrong")
	}
	if v.Segment() == nil {
		t.Fatal("Segment() nil")
	}
}

func TestVectorPeerItersAndSetIteration(t *testing.T) {
	vecs := newVectors(t, 2, 1, Dense, Options{})
	//maltlint:allow iterskew -- single-round test pins one stamp to assert PeerIters propagation, not an SSP loop
	vecs[0].SetIteration(5)
	if _, err := vecs[0].Scatter(0); err != nil { // 0 → use stored iteration
		t.Fatal(err)
	}
	if got := vecs[1].PeerIters()[0]; got != 5 {
		t.Fatalf("PeerIters = %d, want 5", got)
	}
}

func TestVectorClose(t *testing.T) {
	vecs := newVectors(t, 2, 1, Dense, Options{})
	if err := vecs[1].Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := vecs[1].Gather(Sum); err == nil {
		t.Fatal("gather on closed vector should fail")
	}
	// Scatters toward the closed vector report it as a failed peer.
	failed, err := vecs[0].Scatter(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(failed) != 1 || failed[0] != 1 {
		t.Fatalf("failed = %v", failed)
	}
}

func TestVectorRemovePeer(t *testing.T) {
	vecs := newVectors(t, 3, 1, Dense, Options{})
	vecs[0].RemovePeer(1)
	if _, err := vecs[0].Scatter(1); err != nil {
		t.Fatal(err)
	}
	st, err := vecs[1].Gather(Sum)
	if err != nil {
		t.Fatal(err)
	}
	if st.Updates != 0 {
		t.Fatal("removed peer still receives")
	}
	st, err = vecs[2].Gather(Sum)
	if err != nil {
		t.Fatal(err)
	}
	if st.Updates != 1 {
		t.Fatal("remaining peer should receive")
	}
}

func TestVectorGatherWeakCountsTorn(t *testing.T) {
	// Weak gathers over a chunked writer may observe torn payloads; the
	// stats must count them and the atomic gather must never see any.
	//maltlint:allow queuelen -- the depth-1 ring forces overwrites so weak gathers can observe tearing; that pressure is the property under test
	vecs := newVectors(t, 2, 8192, Dense, Options{QueueLen: 1, ChunkSize: 256})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := uint64(1); ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := vecs[0].Scatter(i); err != nil {
				t.Errorf("scatter: %v", err)
				return
			}
		}
	}()
	deadline := time.Now().Add(2 * time.Second)
	torn := 0
	for time.Now().Before(deadline) && torn == 0 {
		st, err := vecs[1].GatherWeak(Replace)
		if err != nil {
			t.Fatal(err)
		}
		torn += st.Torn
	}
	close(stop)
	wg.Wait()
	if torn == 0 {
		t.Skip("no torn read observed within the window (scheduling-dependent)")
	}
}

func TestVectorSegStats(t *testing.T) {
	vecs := newVectors(t, 2, 1, Dense, Options{QueueLen: 2})
	for i := 1; i <= 5; i++ {
		if _, err := vecs[0].Scatter(uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := vecs[1].Gather(Sum); err != nil {
		t.Fatal(err)
	}
	st := vecs[1].SegStats()
	if st.Consumed != 2 || st.Overwritten != 3 {
		t.Fatalf("SegStats = %+v", st)
	}
}
