package vol

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"
	"time"
	"unsafe"

	"malt/internal/dataflow"
	"malt/internal/dstorm"
	"malt/internal/fabric/udsnet"
	"malt/internal/ml/linalg"
)

// wireValues returns special float64s — signed zeros, infinities,
// subnormals, extremes and NaNs with distinct payloads and signs —
// followed by n values with random bit patterns (random NaNs included).
func wireValues(seed int64, n int) []float64 {
	out := []float64{
		0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		math.Float64frombits(0x000F_FFFF_FFFF_FFFF), math.MaxFloat64, -math.MaxFloat64,
		math.Float64frombits(0x7FF8_0000_0000_0001), math.Float64frombits(0x7FF0_0000_0000_0001),
		math.Float64frombits(0xFFF8_0000_0000_0123), math.Float64frombits(0x7FFF_FFFF_FFFF_FFFF),
	}
	r := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		out = append(out, math.Float64frombits(r.Uint64()))
	}
	return out
}

// alignedBytes returns n zero bytes starting on an 8-byte boundary.
func alignedBytes(n int) []byte {
	back := make([]float64, (n+7)/8+1)
	return unsafe.Slice((*byte)(unsafe.Pointer(&back[0])), 8*len(back))[:n]
}

func sameBits(a, b []float64) bool {
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

// TestWireImageMatchesReferenceEncode: a framed vector's storage is the
// frame dstorm ships, its payload bytes equal the PutUint64 reference
// loop, and the peer folds the same bits.
func TestWireImageMatchesReferenceEncode(t *testing.T) {
	vals := wireValues(1, 300)
	vecs := newVectors(t, 2, len(vals), Dense, Options{})
	src := vecs[0]
	if !nativeLE {
		if src.frame != nil || src.encBuf == nil {
			t.Fatal("big-endian host: a dense vector must use the encode loop")
		}
		return
	}
	if src.encBuf != nil {
		t.Fatal("framed vector allocated an encode buffer")
	}
	if len(src.frame) != dstorm.HeaderSize+8*len(vals) || &src.frame[dstorm.HeaderSize] != (*byte)(unsafe.Pointer(&src.Data()[0])) {
		t.Fatal("frame does not end in the vector's own storage")
	}
	copy(src.Data(), vals)
	want := encodeDense(make([]byte, 8*len(vals)), vals)
	if !bytes.Equal(src.frame[dstorm.HeaderSize:], want) {
		t.Fatal("wire image differs from the reference encoding")
	}
	if _, err := src.Scatter(7); err != nil {
		t.Fatal(err)
	}
	// Replace copies the update, so NaN payloads survive the fold.
	st, err := vecs[1].Gather(Replace)
	if err != nil || st.Updates != 1 || st.MaxIter != 7 {
		t.Fatalf("gather: %+v %v", st, err)
	}
	if !sameBits(vecs[1].Data(), vals) {
		t.Fatal("receiver folded different bits than were scattered")
	}
	if vecs[1].scratch[0].dense != nil {
		t.Fatal("an aligned dense payload allocated decode scratch")
	}
}

// TestDenseViewMatchesReferenceDecode: reading an aligned payload in place
// gives the Float64frombits reference loop's bits, sharing the payload's
// memory.
func TestDenseViewMatchesReferenceDecode(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		vals := wireValues(seed, 257)
		payload := alignedBytes(8 * len(vals))
		encodeDense(payload, vals)
		ref := make([]float64, len(vals))
		if err := decodeDenseInto(ref, payload); err != nil {
			t.Fatal(err)
		}
		view := denseView(payload, len(vals))
		if !nativeLE {
			if view != nil {
				t.Fatal("big-endian host returned a view")
			}
			continue
		}
		if !sameBits(view, ref) || !sameBits(view, vals) {
			t.Fatalf("seed %d: view differs from the reference decode", seed)
		}
		if unsafe.Pointer(&view[0]) != unsafe.Pointer(&payload[0]) {
			t.Fatal("view copied the payload")
		}
	}
}

// TestDenseMisalignedPayloadFallsBack: a payload off the 8-byte grid, or
// of the wrong length, has no view; the copy decode gives equal bits (or
// the length error).
func TestDenseMisalignedPayloadFallsBack(t *testing.T) {
	vals := wireValues(2, 61)
	dim := len(vals)
	vecs := newVectors(t, 2, dim, Dense, Options{})
	v := vecs[1]
	buf := alignedBytes(8*dim + 8)
	for off := 0; off < 8; off++ {
		payload := buf[off : off+8*dim]
		encodeDense(payload, vals)
		if view := denseView(payload, dim); (view != nil) != (off == 0 && nativeLE) {
			t.Fatalf("offset %d: view %v", off, view != nil)
		}
		s := &updScratch{view: denseView(payload, dim), dense: make([]float64, dim)}
		if err := v.decodeInto(s, payload); err != nil {
			t.Fatal(err)
		}
		if !sameBits(s.decoded(), vals) {
			t.Fatalf("offset %d: decode differs from the scattered bits", off)
		}
	}
	short := buf[:8*dim-8]
	if denseView(short, dim) != nil {
		t.Fatal("short payload got a view")
	}
	if err := v.decodeInto(&updScratch{dense: make([]float64, dim)}, short); err == nil {
		t.Fatal("short payload decoded without error")
	}
}

// TestSparseEncodeMatchesFromDense: the one-pass sparse encode is byte
// for byte encodeSparse(FromDense(data)) — -0.0 skipped, NaN kept — and
// fails the MaxNNZ capacity check with the same error.
func TestSparseEncodeMatchesFromDense(t *testing.T) {
	check := func(name string, data []float64, maxNNZ int) {
		t.Helper()
		got, gerr := encodeSparseDense(make([]byte, 4+12*maxNNZ), data)
		want, werr := encodeSparse(make([]byte, 4+12*maxNNZ), linalg.FromDense(data))
		if fmt.Sprint(gerr) != fmt.Sprint(werr) {
			t.Fatalf("%s: error %v, want %v", name, gerr, werr)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: one-pass encode differs from encodeSparse(FromDense)", name)
		}
	}
	fill := func(dim int, f float64) []float64 {
		d := make([]float64, dim)
		for i := range d {
			d[i] = f
		}
		return d
	}
	nonzero := wireValues(4, 40)[2:] // every value but ±0
	check("all zero", make([]float64, 50), 5)
	check("all -0", fill(50, math.Copysign(0, -1)), 1)
	check("all NaN", fill(50, math.NaN()), 50)
	check("all nonzero", nonzero, len(nonzero))
	check("all nonzero over capacity", nonzero, len(nonzero)-1)

	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		dim := 1 + r.Intn(300)
		data := make([]float64, dim)
		for i := range data {
			switch r.Intn(6) {
			case 0:
				data[i] = r.NormFloat64()
			case 1:
				data[i] = math.Copysign(0, -1)
			case 2:
				data[i] = math.Float64frombits(r.Uint64()) // NaNs included
			}
		}
		check(fmt.Sprintf("trial %d", trial), data, 1+r.Intn(dim))
	}
}

// newUDSVectors creates one dense vector per rank, each rank on its own
// Unix-socket endpoint at the default write window.
func newUDSVectors(t *testing.T, ranks, dim int) []*Vector {
	t.Helper()
	dir := t.TempDir()
	addrs := make([]string, ranks)
	for i := range addrs {
		addrs[i] = filepath.Join(dir, fmt.Sprintf("r%d.sock", i))
	}
	nets := make([]*udsnet.Net, ranks)
	for i := range nets {
		nt, err := udsnet.New(udsnet.Config{
			Rank:              i,
			Peers:             addrs,
			RendezvousTimeout: 10 * time.Second,
			BarrierTimeout:    10 * time.Second,
			HeartbeatInterval: 10 * time.Millisecond,
		})
		if err != nil {
			t.Fatalf("rank %d: %v", i, err)
		}
		nets[i] = nt
		t.Cleanup(func() { nt.Close() })
	}
	g, err := dataflow.New(dataflow.All, ranks)
	if err != nil {
		t.Fatal(err)
	}
	vecs := make([]*Vector, ranks)
	errs := make([]error, ranks)
	var wg sync.WaitGroup
	for r := range nets {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			if errs[r] = nets[r].Rendezvous(); errs[r] == nil {
				vecs[r], errs[r] = Create(dstorm.NewCluster(nets[r]).Node(r), "w", Dense, dim, g, Options{})
			}
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	for _, v := range vecs {
		t.Cleanup(func() { v.Close() })
	}
	return vecs
}

// TestFramedScatterOverwriteAfterReturn: under ASP over uds the trainer
// overwrites v.Data() the moment Scatter returns, and every update the
// receiver folds still holds the values of its own iteration.
func TestFramedScatterOverwriteAfterReturn(t *testing.T) {
	const dim, rounds = 4096, 200
	vecs := newUDSVectors(t, 2, dim)
	val := func(iter uint64, i int) float64 { return float64(iter)*1e6 + float64(i) }
	sent := make(chan error, 1)
	go func() {
		src := vecs[0]
		d := src.Data()
		for it := uint64(1); it <= rounds; it++ {
			for i := range d {
				d[i] = val(it, i)
			}
			if failed, err := src.Scatter(it); err != nil || len(failed) > 0 {
				sent <- fmt.Errorf("iter %d: failed %v, err %v", it, failed, err)
				return
			}
			for i := range d {
				d[i] = math.NaN()
			}
		}
		sent <- nil
	}()
	dst := vecs[1]
	deadline := time.After(30 * time.Second)
	var last uint64
	folds := 0
	for {
		st, err := dst.GatherLatest(Replace)
		if err != nil {
			t.Fatal(err)
		}
		if st.Updates > 0 {
			folds++
			last = st.MaxIter
			for i, x := range dst.Data() {
				if x != val(last, i) {
					t.Fatalf("iter %d coord %d: folded %v, want %v", last, i, x, val(last, i))
				}
			}
		}
		if last == rounds {
			break
		}
		select {
		case <-dst.Arrivals():
		case <-deadline:
			t.Fatalf("last folded iteration %d of %d", last, rounds)
		}
	}
	if err := <-sent; err != nil {
		t.Fatal(err)
	}
	t.Logf("%d folds checked", folds)
}

// TestFramedBSPReplicasBitEqual: under BSP every replica of a framed
// vector stays Float64bits-equal, in process and over uds.
func TestFramedBSPReplicasBitEqual(t *testing.T) {
	const ranks, dim, rounds = 3, 1000, 5
	for _, tr := range []string{"sim", "uds"} {
		t.Run(tr, func(t *testing.T) {
			var vecs []*Vector
			if tr == "sim" {
				vecs = newVectors(t, ranks, dim, Dense, Options{})
			} else {
				vecs = newUDSVectors(t, ranks, dim)
			}
			errs := make([]error, ranks)
			var wg sync.WaitGroup
			for r, v := range vecs {
				wg.Add(1)
				go func(r int, v *Vector) {
					defer wg.Done()
					errs[r] = bspRounds(v, r, ranks, rounds)
				}(r, v)
			}
			wg.Wait()
			for r, err := range errs {
				if err != nil {
					t.Fatalf("rank %d: %v", r, err)
				}
			}
			for r := 1; r < ranks; r++ {
				if !sameBits(vecs[r].Data(), vecs[0].Data()) {
					t.Fatalf("rank %d's replica differs from rank 0's", r)
				}
			}
			for r, v := range vecs {
				if nativeLE && v.scratch[0].dense != nil {
					t.Fatalf("rank %d allocated dense decode scratch", r)
				}
			}
		})
	}
}

// bspRounds runs one rank's BSP loop: a rank-specific gradient step,
// scatter, barrier, Average gather, barrier.
func bspRounds(v *Vector, rank, ranks, rounds int) error {
	d := v.Data()
	for round := 1; round <= rounds; round++ {
		for i := range d {
			d[i] += 1 / float64(i+31*rank+7*round)
		}
		if failed, err := v.Scatter(uint64(round)); err != nil || len(failed) > 0 {
			return fmt.Errorf("round %d scatter: failed %v, err %v", round, failed, err)
		}
		if err := v.Barrier(); err != nil {
			return err
		}
		st, err := v.Gather(Average)
		if err != nil {
			return err
		}
		if st.Updates != ranks-1 {
			return fmt.Errorf("round %d folded %d updates, want %d", round, st.Updates, ranks-1)
		}
		if err := v.Barrier(); err != nil {
			return err
		}
	}
	return nil
}
