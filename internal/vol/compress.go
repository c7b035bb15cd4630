package vol

import (
	"encoding/binary"
	"math"

	"malt/internal/compress"
)

// Compressed scatter path.
//
// A compressed Vector ships codec frames (internal/compress) instead of raw
// float64s. The payload depends on the destination's error-feedback
// residual, but destinations whose residuals and ratios agree — all of them
// under an all-to-all dataflow at one ratio — receive identical bytes, so a
// scatter asks the compression state to group its destinations, plans and
// encodes each frame once per group, and hands dstorm the group's peer list.
// A link leaves its group when it diverges (an adaptive ratio, a subset
// scatter, an eviction); dstorm's Segment copies each payload into its own
// buffers synchronously, so one encode buffer serves every group.
//
// Composed with bucketing, each fragment is an ordinary bucket header whose
// body is the frame for that bucket's coordinate range, sliced from the one
// whole-update plan. Global planning is what keeps the reassembled update —
// and the fold — bitwise identical at any bucket size: the union of the
// per-bucket frames decodes to exactly the whole-vector frame's
// reconstruction.

// compState bundles a vector's compression state with the optional
// adaptive per-link ratio controller.
type compState struct {
	st     *compress.State
	ctl    *compress.Controller
	ratios []float64 // per-scatter ratio of each destination, reused
}

// ratio returns the ratio in force for one destination.
func (c *compState) ratio(peer int) float64 {
	if c.ctl != nil {
		return c.ctl.Ratio(peer)
	}
	return c.st.Options().Ratio
}

// CompressPerf summarizes a compressed vector's wire savings and adaptive
// activity. Owned by the vector's goroutine, like GatherPerf.
type CompressPerf struct {
	// BytesPre is the raw bytes the scatters would have shipped
	// uncompressed (8·dim per destination per update).
	BytesPre uint64
	// BytesPost is the frame bytes actually produced.
	BytesPost uint64
	// Frames is the number of frames produced.
	Frames uint64
	// PlanNs is wall-clock nanoseconds spent planning updates (residual
	// correction, selection, quantization) — once per group of
	// destinations sharing a residual, not once per destination.
	PlanNs uint64
	// ResidualNormMicro is the current L1 norm of all per-link residuals
	// in micro-units (×1e6) — the gradient mass deferred by error
	// feedback right now.
	ResidualNormMicro uint64
	// Adaptations counts adaptive per-link ratio changes (0 when the
	// controller is off).
	Adaptations uint64
	// HardestInvRatioMilli is 1000 / the smallest per-link ratio that
	// was ever in force, rounded — 8000 means some link shipped 1/8 of
	// its coordinates at its tightest. The peak survives post-pressure
	// relaxation (a healed link drifts back to base, but the harvest
	// still shows how hard the blackout squeezed it); equals 1000/base
	// ratio when adaptation is off or no link was ever pressured.
	HardestInvRatioMilli uint64
}

// Compressed reports whether scatters ship codec frames.
func (v *Vector) Compressed() bool { return v.comp != nil }

// CompressPerf returns the compression engine's counters (zero value when
// the vector is not compressed).
func (v *Vector) CompressPerf() CompressPerf {
	if v.comp == nil {
		return CompressPerf{}
	}
	p := v.comp.st.Perf()
	out := CompressPerf{
		BytesPre:          p.BytesPre,
		BytesPost:         p.BytesPost,
		Frames:            p.Frames,
		PlanNs:            p.PlanNs,
		ResidualNormMicro: uint64(math.Round(v.comp.st.ResidualNorm() * 1e6)),
	}
	hardest := v.comp.st.Options().Ratio
	if v.comp.ctl != nil {
		cp := v.comp.ctl.Perf()
		out.Adaptations = cp.Adaptations
		hardest = cp.TightestRatio
	}
	if !v.comp.st.Codec().RatioDriven() {
		hardest = 1
	}
	out.HardestInvRatioMilli = uint64(math.Round(1000 / hardest))
	return out
}

// dropCompressPeer evicts a peer's residual and adaptive-ratio state.
func (v *Vector) dropCompressPeer(rank int) {
	if v.comp == nil {
		return
	}
	v.comp.st.DropPeer(rank)
	if v.comp.ctl != nil {
		v.comp.ctl.DropPeer(rank)
	}
}

// scatterCompressed pushes the local value to peers (nil = the dataflow
// send list) as codec frames — one plan and one encode per group of
// destinations that share a residual and a ratio — fragmented per bucket
// when the vector is bucketed.
func (v *Vector) scatterCompressed(peers []int, iter uint64) ([]int, error) {
	if peers == nil {
		peers = v.seg.SendPeers()
	}
	v.scatterID++
	c := v.comp
	c.ratios = c.ratios[:0]
	for _, peer := range peers {
		c.ratios = append(c.ratios, c.ratio(peer))
	}
	var failed []int
	for _, g := range c.st.Groups(peers, c.ratios) {
		c.st.BeginGroup(g, v.data)
		if v.bucket == nil {
			frame := c.st.EncodeRange(v.encBuf[:0], 0, v.dim)
			f, err := v.seg.ScatterTo(g.Peers, frame, iter)
			if err != nil {
				return failed, err
			}
			failed = mergeFailed(failed, f)
			continue
		}
		for b := 0; b < v.bucket.buckets; b++ {
			lo, hi := v.bucket.bucketRange(v.dim, b)
			buf := v.encBuf[:bucketHeaderSize]
			binary.LittleEndian.PutUint64(buf[0:8], v.scatterID)
			binary.LittleEndian.PutUint32(buf[8:12], uint32(lo))
			binary.LittleEndian.PutUint32(buf[12:16], uint32(hi-lo))
			binary.LittleEndian.PutUint32(buf[16:20], uint32(v.bucket.buckets))
			payload := c.st.EncodeRange(buf, lo, hi)
			v.bucket.perf.FragmentsSent += uint64(len(g.Peers))
			f, err := v.seg.ScatterTo(g.Peers, payload, iter)
			if err != nil {
				return failed, err
			}
			failed = mergeFailed(failed, f)
		}
	}
	if c.ctl != nil {
		c.ctl.Tick(peers)
	}
	return failed, nil
}
