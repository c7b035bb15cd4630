package probes

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"malt/internal/compress"
)

// compress times the hybrid codec at dense-bsp-codec's shape: State.Begin
// (residual-corrected update, plan, new residual), State.EncodeRange and
// Decode, per coordinate. The updates are dense noise: in the workload the
// int8 quantisation error of everything ever shipped stays behind in the
// residual, so within a few hundred steps the residual-corrected update has
// hardly a zero left and the plan selects among all 200 000 coordinates.
func (p *prober) compress() error {
	rng := rand.New(rand.NewSource(p.seed))
	updates := make([][]float64, 4)
	for i := range updates {
		updates[i] = gaussian(rng, denseDim, 1)
	}
	st, err := compress.NewState(compress.Options{Codec: "hybrid"}, denseDim)
	if err != nil {
		return err
	}
	ratio := st.Options().Ratio
	frame := make([]byte, 0, st.MaxFrameBytes(denseDim))
	out := make([]float64, denseDim)

	// Counts first, on a fixed sequence so they repeat exactly; the checks
	// ride along.
	const peer = 1
	for it := 0; it < 16; it++ {
		data := updates[it%len(updates)]
		old := append([]float64(nil), st.Residual(peer)...)
		st.Begin(peer, data, ratio)
		//maltlint:allow resfeedback -- frame is this probe's own destination buffer: re-sliced to length 0 and rewritten whole by EncodeRange after every Begin, never read across one
		frame = st.EncodeRange(frame[:0], 0, denseDim)
		if err := compress.Decode(out, 0, frame); err != nil {
			return err
		}
		recon, residual := st.Recon(), st.Residual(peer)
		for i := range out {
			if math.Float64bits(out[i]) != math.Float64bits(recon[i]) {
				return fmt.Errorf("decoded[%d] = %v, planned reconstruction %v", i, out[i], recon[i])
			}
			want := data[i]
			if old != nil {
				want += old[i]
			}
			if recon[i]+residual[i] != want {
				return fmt.Errorf("coordinate %d: shipped %v + residual %v != update %v", i, recon[i], residual[i], want)
			}
		}
	}
	perf := st.Perf()
	p.add("compress.wire_ratio", float64(perf.BytesPre)/float64(perf.BytesPost))
	p.add("compress.residual_l1", st.ResidualNorm())

	it := 0
	ns, _, err := p.bench(func(n int) ([]time.Duration, error) {
		var begin, encode, decode time.Duration
		for i := 0; i < n; i++ {
			data := updates[it%len(updates)]
			it++
			t0 := time.Now()
			st.Begin(peer, data, ratio)
			t1 := time.Now()
			//maltlint:allow resfeedback -- as above: caller-owned destination buffer, rewritten whole after every Begin
			frame = st.EncodeRange(frame[:0], 0, denseDim)
			t2 := time.Now()
			if err := compress.Decode(out, 0, frame); err != nil {
				return nil, err
			}
			begin += t1.Sub(t0)
			encode += t2.Sub(t1)
			decode += time.Since(t2)
		}
		return []time.Duration{begin, encode, decode}, nil
	})
	if err != nil {
		return err
	}
	beginAllocs := allocsPerOp(8, func(i int) { st.Begin(peer, updates[i%len(updates)], ratio) })
	p.add("compress.begin_ns_per_coord", ns[0]/denseDim)
	p.add("compress.encode_ns_per_coord", ns[1]/denseDim)
	p.add("compress.decode_ns_per_coord", ns[2]/denseDim)
	p.add("compress.begin_allocs_per_op", beginAllocs)
	return nil
}
