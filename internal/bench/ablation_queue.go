package bench

import (
	"fmt"
	"sync"
	"time"

	"malt/internal/consistency"
	"malt/internal/core"
	"malt/internal/dataflow"
	"malt/internal/vol"
)

// Ablation: per-sender receive-queue depth (paper §3.1). The ring
// overwrites the oldest unconsumed update when a sender outruns the
// consumer; deeper queues retain more history at the cost of memory
// (object size × depth × senders per segment). This experiment runs an
// asynchronous producer/consumer imbalance and reports, per depth, how
// many updates the slow consumer lost to overwrites — the
// freshness-vs-completeness dial.
func runAblationQueue(o Options, r *Report) error {
	depths := []int{1, 2, 4, 8, 16}
	rounds := 400
	if o.Quick {
		depths = []int{1, 4, 16}
		rounds = 150
	}
	const ranks, dim = 4, 256

	r.Linef("%-8s %10s %12s %12s", "depth", "sent/peer", "consumed", "overwritten")
	for _, depth := range depths {
		consumed, overwritten, err := runQueueImbalance(ranks, dim, depth, rounds)
		if err != nil {
			return err
		}
		r.Linef("%-8d %10d %12d %12d", depth, rounds, consumed, overwritten)
		r.Metric(fmt.Sprintf("overwritten_q%d", depth), float64(overwritten))
		r.Metric(fmt.Sprintf("consumed_q%d", depth), float64(consumed))
		// Conservation invariant: every deposited update is
		// either consumed or overwritten — never lost, never
		// duplicated. The split between the two is timing
		// noise; the sum is exact.
		r.Metric(fmt.Sprintf("delivered_q%d_exact", depth), float64(consumed+overwritten))
	}
	r.Linef("(deeper rings lose fewer updates; MALT accepts the loss — updates are approximate)")
	return nil
}

// runQueueImbalance drives ranks 1..N-1 as fast producers and rank 0 as a
// deliberately slow consumer, returning rank 0's consumed/overwritten
// counts.
func runQueueImbalance(ranks, dim, depth, rounds int) (consumed, overwritten uint64, err error) {
	cluster, err := core.NewCluster(core.Config{
		Ranks: ranks, Dataflow: dataflow.All, Sync: consistency.ASP, QueueLen: depth,
	})
	if err != nil {
		return 0, 0, err
	}
	var mu sync.Mutex
	res := cluster.Run(func(ctx *core.Context) error {
		v, err := ctx.CreateVectorOpts("q", vol.Dense, dim, vol.Options{QueueLen: depth})
		if err != nil {
			return err
		}
		if err := ctx.Barrier(v); err != nil {
			return err
		}
		if ctx.Rank() == 0 {
			// Slow consumer: gathers only every few producer rounds.
			for i := 0; i < rounds/8; i++ {
				time.Sleep(200 * time.Microsecond) //maltlint:allow rawsleep -- deliberate slow-consumer pacing; the lag IS the experiment
				if _, err := ctx.Gather(v, vol.Average); err != nil {
					return err
				}
			}
			if err := ctx.Barrier(v); err != nil { // producers done
				return err
			}
			if _, err := ctx.Gather(v, vol.Average); err != nil { // drain tail
				return err
			}
			st := v.SegStats()
			mu.Lock()
			consumed, overwritten = st.Consumed, st.Overwritten
			mu.Unlock()
			return nil
		}
		// Fast producers.
		for i := 1; i <= rounds; i++ {
			ctx.SetIteration(uint64(i))
			if err := ctx.Scatter(v); err != nil {
				return err
			}
			// Keep their own queues drained so only rank 0 lags.
			if _, err := ctx.Gather(v, vol.Average); err != nil {
				return err
			}
		}
		return ctx.Barrier(v)
	})
	if e := res.FirstError(); e != nil {
		return 0, 0, e
	}
	return consumed, overwritten, nil
}
