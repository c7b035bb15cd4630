package core

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"malt/internal/compress"
	"malt/internal/consistency"
	"malt/internal/dstorm"
	"malt/internal/fabric"
	"malt/internal/vol"
)

// syncResult is one rank's view at the end of a ScatterBucketed schedule:
// its final local model and how many updates it folded.
type syncResult struct {
	data   []float64
	folded int
}

// runScatterBucketed trains rounds of the SetIteration → ScatterBucketed →
// Advance → Gather → Commit loop under the send pipeline and returns every
// rank's result plus the fabric's total bytes. It fails unless every
// ScatterBucketed calls compute exactly once, over (0, dim). A final
// barrier + gather drains stragglers so ASP/SSP totals are conserved (the
// queue is deep enough that nothing is overwritten).
func runScatterBucketed(t *testing.T, cfg Config, dim, rounds int) ([]syncResult, uint64) {
	t.Helper()
	cfg.StalenessBound = uint64(rounds) // SSP: lax enough that no update is filtered
	cfg.QueueLen = rounds + 1
	cfg.Pipeline = &dstorm.PipelineConfig{}
	cfg.GatherWorkers = 2
	cfg.Fabric = fabric.Config{Delay: fabric.DelayNone}
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	results := make([]syncResult, cfg.Ranks)
	res := c.Run(func(ctx *Context) error {
		v, err := ctx.CreateVector("w", vol.Dense, dim)
		if err != nil {
			return err
		}
		defer v.Close()
		if v.Buckets() != 1 {
			return fmt.Errorf("Buckets() = %d, want 1", v.Buckets())
		}
		folded := 0
		for round := 1; round <= rounds; round++ {
			ctx.SetIteration(uint64(round))
			var calls [][2]int
			err := ctx.ScatterBucketed(v, func(lo, hi int) {
				calls = append(calls, [2]int{lo, hi})
				d := v.Data()
				for i := lo; i < hi; i++ {
					d[i] = 1 / float64(i+31*ctx.Rank()+7*round)
				}
			})
			if err != nil {
				return fmt.Errorf("round %d scatter: %w", round, err)
			}
			if len(calls) != 1 || calls[0] != [2]int{0, dim} {
				return fmt.Errorf("round %d: compute calls %v, want exactly [[0 %d]]", round, calls, dim)
			}
			if err := ctx.Advance(v); err != nil {
				return fmt.Errorf("round %d advance: %w", round, err)
			}
			st, err := ctx.Gather(v, vol.Sum)
			if err != nil {
				return fmt.Errorf("round %d gather: %w", round, err)
			}
			folded += st.Updates
			if cfg.Sync == consistency.BSP && st.Updates != cfg.Ranks-1 {
				return fmt.Errorf("round %d: BSP folded %d updates, want %d", round, st.Updates, cfg.Ranks-1)
			}
			if err := ctx.Commit(v); err != nil {
				return fmt.Errorf("round %d commit: %w", round, err)
			}
		}
		// Drain stragglers: ASP/SSP gathers are free-running, so some
		// updates are still in flight (or queued) when the loop ends.
		if err := ctx.Barrier(v); err != nil {
			return err
		}
		st, err := ctx.Gather(v, vol.Sum)
		if err != nil {
			return err
		}
		folded += st.Updates
		mu.Lock()
		results[ctx.Rank()] = syncResult{data: append([]float64(nil), v.Data()...), folded: folded}
		mu.Unlock()
		return ctx.Barrier(v)
	})
	if err := res.FirstError(); err != nil {
		t.Fatal(err)
	}
	return results, c.Fabric().Stats().TotalBytes()
}

// TestScatterBucketedSyncModes pins the compatibility shims kept for
// benchmark/: Config.BucketBytes is accepted and ignored, and
// Context.ScatterBucketed is one compute(0, Dim) followed by Scatter.
//
//   - BSP: a cluster with 64 KiB BucketBytes — more than one bucket's worth
//     of coordinates — ships the same fabric bytes and ends Float64bits-equal
//     to one with 0, raw and compressed.
//   - ASP/SSP: exact folds are unordered, so the invariant is conservation:
//     with a deep enough queue, every rank folds exactly rounds×(ranks-1)
//     updates through the pipeline.
func TestScatterBucketedSyncModes(t *testing.T) {
	const (
		ranks  = 4
		dim    = 9001 // over 64 KiB of float64s
		rounds = 4
	)
	t.Run("BSP-bitwise", func(t *testing.T) {
		for _, copts := range []compress.Options{{}, {Codec: "hybrid"}} {
			ref, refBytes := runScatterBucketed(t, Config{Ranks: ranks, Sync: consistency.BSP, Compress: copts}, dim, rounds)
			got, gotBytes := runScatterBucketed(t, Config{Ranks: ranks, Sync: consistency.BSP, Compress: copts, BucketBytes: 64 << 10}, dim, rounds)
			if gotBytes != refBytes {
				t.Fatalf("codec %q: BucketBytes=64KiB shipped %d fabric bytes, 0 shipped %d", copts.Codec, gotBytes, refBytes)
			}
			for r := range ref {
				if got[r].folded != ref[r].folded {
					t.Fatalf("codec %q rank %d folded %d, want %d", copts.Codec, r, got[r].folded, ref[r].folded)
				}
				for i := range ref[r].data {
					if math.Float64bits(ref[r].data[i]) != math.Float64bits(got[r].data[i]) {
						t.Fatalf("codec %q rank %d coord %d: %x != %x", copts.Codec, r, i,
							math.Float64bits(got[r].data[i]), math.Float64bits(ref[r].data[i]))
					}
				}
			}
		}
	})
	for _, tc := range []struct {
		name string
		sync consistency.Model
	}{
		{"ASP-conservation", consistency.ASP},
		{"SSP-conservation", consistency.SSP},
	} {
		t.Run(tc.name, func(t *testing.T) {
			results, _ := runScatterBucketed(t, Config{Ranks: ranks, Sync: tc.sync, BucketBytes: 64 << 10}, dim, rounds)
			want := rounds * (ranks - 1)
			for r, got := range results {
				if got.folded != want {
					t.Fatalf("rank %d folded %d updates, want %d", r, got.folded, want)
				}
			}
		})
	}
}
