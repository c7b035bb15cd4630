package bench

import (
	"math"
	"sync"

	"malt/internal/baseline/allreduce"
	"malt/internal/dstorm"
	"malt/internal/fabric"
)

// allreduceTrial is one strategy's measured run.
type allreduceTrial struct {
	msgsPerReduce float64 // successful fabric writes per Reduce call
	modelNs       float64 // modeled wire time per Reduce call
	mismatches    int     // coordinates off the true average beyond 1e-9
}

// runAllreduceTrial runs `rounds` collective reductions of deterministic
// per-rank vectors and checks every rank's result against the directly
// computed global average.
func runAllreduceTrial(s allreduce.Strategy, ranks, dim, rounds int) (allreduceTrial, error) {
	var t allreduceTrial
	f, err := fabric.New(fabric.Config{Ranks: ranks})
	if err != nil {
		return t, err
	}
	defer f.Close()
	c := dstorm.NewCluster(f)

	// input(r, round) is each rank's vector; reciprocals carry full
	// mantissas so a wrong contribution cannot hide in round-off.
	input := func(r, round, i int) float64 { return 1 / float64(1+i+dim*r+7*round) }

	results := make([][]float64, ranks)
	errs := make([]error, ranks)
	var wg sync.WaitGroup
	for r := 0; r < ranks; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			red, err := allreduce.New(c.Node(r), s, dim)
			if err != nil {
				errs[r] = err
				return
			}
			defer red.Close()
			x := make([]float64, dim)
			for round := 0; round < rounds; round++ {
				for i := range x {
					x[i] = input(r, round, i)
				}
				if err := red.Reduce(x); err != nil {
					errs[r] = err
					return
				}
				// Only the last round's result is kept for checking; every
				// round reduces a fresh vector, so they are all equivalent.
				if round == rounds-1 {
					results[r] = append([]float64(nil), x...)
				}
			}
		}(r)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return t, err
		}
	}

	want := make([]float64, dim)
	for i := range want {
		sum := 0.0
		for r := 0; r < ranks; r++ {
			sum += input(r, rounds-1, i)
		}
		want[i] = sum / float64(ranks)
	}
	for r := 0; r < ranks; r++ {
		for i := range want {
			if math.Abs(results[r][i]-want[i]) > 1e-9 {
				t.mismatches++
			}
		}
	}

	t.msgsPerReduce = float64(f.Stats().TotalMessages()) / float64(rounds)
	t.modelNs = float64(f.Stats().ModeledNetworkTime().Nanoseconds()) / float64(rounds)
	return t, nil
}

// runAllreduce is the baseline for the paper's §3.4 comparison of MALT's
// dataflows against classic all-reduce strategies. Eight ranks average
// their vectors with naive all-to-all, tree reduce-broadcast and butterfly
// mixing. The per-reduce message counts are closed-form invariants of each
// algorithm (naive N(N−1), tree 2(N−1), butterfly N·log₂N), so
// TestExperimentsQuick asserts them exactly, along with zero result
// mismatches against the directly computed average. The modeled wire time
// per reduce rides the fabric's cost model.
func runAllreduce(o Options, r *Report) error {
	ranks, dim, rounds := 8, 1<<12, 8*o.Scale
	if o.Quick {
		dim, rounds = 1<<8, 2
	}
	strategies := []allreduce.Strategy{allreduce.Naive, allreduce.Tree, allreduce.Butterfly}
	mismatches := 0
	for _, s := range strategies {
		o.logf("allreduce: %v (ranks=%d dim=%d rounds=%d)", s, ranks, dim, rounds)
		t, err := runAllreduceTrial(s, ranks, dim, rounds)
		if err != nil {
			return err
		}
		r.Linef("%-9v %5.0f msgs/reduce, modeled %8.0f ns/reduce, %d mismatched coords",
			s, t.msgsPerReduce, t.modelNs, t.mismatches)
		// Message counts are algorithm invariants, independent of dim,
		// rounds and machine.
		r.Metric("msgs_per_reduce_"+s.String()+"_exact", t.msgsPerReduce)
		r.Metric("model_ns_reduce_"+s.String(), t.modelNs)
		mismatches += t.mismatches
	}
	r.Metric("failed_result_mismatch", float64(mismatches))
	return nil
}
