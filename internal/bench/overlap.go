package bench

import (
	"math"
	"strconv"
	"sync"

	"malt/internal/consistency"
	"malt/internal/core"
	"malt/internal/dataflow"
	"malt/internal/dstorm"
	"malt/internal/fabric"
	"malt/internal/vol"
)

// Model constants. Latency and bandwidth mirror the simulated fabric's
// defaults (1.5 µs per write, 5 GiB/s); the compute cost is a nominal
// 16 ns/coordinate gradient-production rate chosen so the full model's
// compute time exceeds its wire time — the compute-bound regime where
// bucketing can hide communication entirely and exposure falls toward the
// last bucket's wire cost (in the comm-bound regime exposure floors at
// wire − compute and per-bucket latency overhead eventually dominates).
// Only relative numbers between configurations sharing the model are
// meaningful.
const (
	overlapLatencyNs      = 1500.0
	overlapNsPerByte      = 1.0e9 / (5 * float64(1<<30))
	overlapCompNsPerCoord = 16.0
	overlapFragHdrBytes   = 20 // vol bucket fragment header
)

// overlapModelExposedNs plays one iteration's send/compute timeline: bucket
// i's compute finishes at computeEnd(i), its write (fanout destinations,
// one latency charge + payload bytes each) starts when both the bucket is
// ready and the previous write has left, and exposed time is whatever wire
// work remains after the last bucket's compute ends. buckets == 1 is the
// unbucketed baseline: the whole message's wire time is exposed.
func overlapModelExposedNs(dim, ranks, buckets int) float64 {
	if buckets < 1 {
		buckets = 1
	}
	fanout := float64(ranks - 1)
	coords := (dim + buckets - 1) / buckets
	var computeEnd, sendEnd float64
	for lo := 0; lo < dim; lo += coords {
		hi := lo + coords
		if hi > dim {
			hi = dim
		}
		computeEnd += float64(hi-lo) * overlapCompNsPerCoord
		bytes := float64(overlapFragHdrBytes + 8*(hi-lo))
		w := fanout * (overlapLatencyNs + bytes*overlapNsPerByte)
		sendEnd = math.Max(computeEnd, sendEnd) + w
	}
	return sendEnd - computeEnd
}

// overlapTrial is one measured arm of the overlap sweep.
type overlapTrial struct {
	fragsTotal uint64    // fragments scattered across all ranks and rounds
	assembled  uint64    // logical updates reassembled from fragments
	evicted    uint64    // incomplete assemblies abandoned
	dups       uint64    // duplicate fragments absorbed
	folded     uint64    // updates folded across all ranks and rounds
	data       []float64 // rank 0's final model, for bitwise comparison
}

// runOverlapTrial runs rounds of the canonical BSP superstep (produce
// gradient bucket by bucket + scatter each bucket as it is ready, advance,
// gather Average, commit) on a fresh in-process cluster. bucketBytes == 0
// is the unbucketed arm. Gradient values are reciprocals with full
// mantissas so a single out-of-order addition shows up bitwise.
func runOverlapTrial(ranks, dim, rounds, bucketBytes int) (overlapTrial, error) {
	var t overlapTrial
	cl, err := core.NewCluster(core.Config{
		Ranks:         ranks,
		Dataflow:      dataflow.All,
		Sync:          consistency.BSP,
		Pipeline:      &dstorm.PipelineConfig{},
		GatherWorkers: 4,
		BucketBytes:   bucketBytes,
		Fabric:        fabric.Config{Delay: fabric.DelayNone},
	})
	if err != nil {
		return t, err
	}
	defer cl.Close()
	var mu sync.Mutex
	res := cl.Run(func(ctx *core.Context) error {
		v, err := ctx.CreateVector("overlap", vol.Dense, dim)
		if err != nil {
			return err
		}
		defer v.Close()
		r := ctx.Rank()
		var folded uint64
		for round := 1; round <= rounds; round++ {
			ctx.SetIteration(uint64(round))
			err := ctx.ScatterBucketed(v, func(lo, hi int) {
				d := v.Data()
				for i := lo; i < hi; i++ {
					d[i] = 1 / float64(i+31*r+7*round)
				}
			})
			if err != nil {
				return err
			}
			if err := ctx.Advance(v); err != nil {
				return err
			}
			st, err := ctx.Gather(v, vol.Average)
			if err != nil {
				return err
			}
			folded += uint64(st.Updates)
			if err := ctx.Commit(v); err != nil {
				return err
			}
		}
		bp := v.BucketPerf()
		mu.Lock()
		t.fragsTotal += bp.FragmentsSent
		t.assembled += bp.Assembled
		t.evicted += bp.Evicted
		t.dups += bp.Duplicates
		t.folded += folded
		if r == 0 {
			t.data = append([]float64(nil), v.Data()...)
		}
		mu.Unlock()
		return nil
	})
	if err := res.FirstError(); err != nil {
		return t, err
	}
	return t, nil
}

// runOverlap measures comm/compute overlap via gradient bucketing. Eight
// ranks run BSP gradient rounds over an all-to-all dataflow; each round the
// trainer produces its gradient bucket by bucket (core.ScatterBucketed) so
// bucket i is on the send pipeline's wire while bucket i+1 is still being
// written. The sweep grows the bucket count and watches the modeled exposed
// communication time — the wire time left on the critical path at the
// iteration edge — shrink toward the single-bucket wire latency floor.
//
// The exposed-time model is an analytic send/compute timeline driven by
// the *observed* fragment counts: if the bucketing engine silently stops
// splitting, the observed bucket count collapses to 1 and the modeled
// speedup with it. Reassembly before folding means every bucketed arm
// folds the same inputs in the same order as the unbucketed arm, so the
// final models are compared bitwise. TestExperimentsQuick asserts the
// fragment count and zero mismatched, lost or duplicate updates.
func runOverlap(o Options, r *Report) error {
	ranks, dim, rounds := 8, 1<<18, 4*o.Scale
	sweep := []int{1, 2, 4, 8, 16, 32, 64}
	if o.Quick {
		ranks, dim, rounds = 4, 1<<15, 2
		sweep = []int{1, 4, 16}
	}
	expectedFolds := uint64(ranks * (ranks - 1) * rounds)

	var (
		trials   = make([]overlapTrial, len(sweep))
		exposed  = make([]float64, len(sweep))
		mismatch int
		lost     uint64
		lostUpd  uint64
		dups     uint64
	)
	for k, b := range sweep {
		bucketBytes := 0
		if b > 1 {
			bucketBytes = 8 * ((dim + b - 1) / b)
		}
		o.logf("overlap: arm buckets=%d bucketBytes=%d (ranks=%d dim=%d rounds=%d)", b, bucketBytes, ranks, dim, rounds)
		t, err := runOverlapTrial(ranks, dim, rounds, bucketBytes)
		if err != nil {
			return err
		}
		trials[k] = t

		// The model consumes the *observed* per-scatter fragment count, so
		// it collapses if the engine stops splitting.
		obsB := 1
		if b > 1 {
			obsB = int(t.fragsTotal) / (ranks * rounds)
			lost += uint64(ranks*(ranks-1)*rounds) - t.assembled
		}
		exposed[k] = overlapModelExposedNs(dim, ranks, obsB)
		lostUpd += expectedFolds - t.folded
		dups += t.dups + t.evicted
		for i := range trials[0].data {
			if math.Float64bits(trials[0].data[i]) != math.Float64bits(t.data[i]) {
				mismatch++
			}
		}
	}

	// Exposed comm must shrink monotonically as buckets grow.
	monotonic := 0
	for k := 1; k < len(sweep); k++ {
		if exposed[k] > exposed[k-1] {
			monotonic++
		}
	}
	last := len(sweep) - 1

	r.Metric("model_ns_exposed_unbucketed", exposed[0])
	r.Metric("model_ns_exposed_bucketed", exposed[last])
	r.Metric("model_speedup_exposed", speedup(exposed[0], exposed[last]))
	r.Metric("model_overlapped_frac", 1-exposed[last]/exposed[0])
	r.Metric("failed_fold_mismatch", float64(mismatch))
	r.Metric("failed_overlap_monotonic", float64(monotonic))
	r.Metric("lost_buckets", float64(lost))
	r.Metric("lost_updates_overlap", float64(lostUpd))
	r.Metric("dup_buckets", float64(dups))
	r.Metric("buckets_sent_exact", float64(trials[last].fragsTotal))

	r.Linef("%d ranks, dim %d: modeled exposed comm %.0f -> %.0f ns/iter (%.1fx, %.0f%% of wire time hidden) at %d buckets",
		ranks, dim, exposed[0], exposed[last], speedup(exposed[0], exposed[last]),
		100*(1-exposed[last]/exposed[0]), sweep[last])
	r.Linef("largest arm: %d fragments sent, %d updates reassembled, %d bitwise-mismatched coords vs unbucketed",
		trials[last].fragsTotal, trials[last].assembled, mismatch)

	curve := Series{Label: "modeled exposed comm ns vs bucket count (dim " + strconv.Itoa(dim) + ")"}
	for k, b := range sweep {
		curve.Points = append(curve.Points, Point{Iter: float64(b), Value: exposed[k]})
	}
	r.Series = append(r.Series, curve)
	return nil
}
