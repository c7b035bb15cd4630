// Package probes times single layers of the program under test, each
// through that layer's public functions only, at the shapes the workloads
// use. A probe times one layer and asserts that layer's output (decoded ==
// encoded, folded sum matches, every record arrived), so a "faster" layer
// that drops work fails instead of scoring.
//
// Timing is the package's own loop, not testing.Benchmark: most probes time
// two phases of one operation (scatter then gather) and testing.B's
// StopTimer/StartTimer read MemStats on every call, which would swamp the
// 4 KB probes.
package probes

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"malt/benchmark/harness"
)

// Batch lengths: a probe runs three batches of about this long after
// calibrating its iteration count, and reports the best. Short fits every
// probe into one traced run of one workload; Long is what `--workload all`
// uses, once for all workloads.
const (
	Short = 60 * time.Millisecond
	Long  = 300 * time.Millisecond
)

// Shapes shared with the workloads the probes stand in for.
const (
	denseDim   = 200000 // dense-bsp, dense-bsp-codec: 1.6 MB updates
	sparseDim  = 47152  // sparse-asp
	sparseNNZ  = 10000  // distinct coordinates a sparse-asp step touches
	smallBytes = 4000   // small-bsp-tcp: 500 float64s
	largeBytes = 8 * denseDim
	fanInDim   = 50000
)

type prober struct {
	batch   time.Duration
	seed    int64
	sockDir string
	out     []harness.Metric
}

// Run executes every probe and returns its metrics, named as in
// harness.PerLayer.
func Run(batch time.Duration, sockDir string, seed int64) ([]harness.Metric, error) {
	p := &prober{batch: batch, seed: seed, sockDir: sockDir}
	for _, probe := range []struct {
		name string
		run  func() error
	}{
		{"ml", p.ml},
		{"compress", p.compress},
		{"vol", p.vol},
		{"dstorm", p.dstorm},
		{"stream", p.stream},
		{"sim", p.sim},
	} {
		if err := probe.run(); err != nil {
			return nil, fmt.Errorf("%s: %w", probe.name, err)
		}
	}
	return p.out, nil
}

func (p *prober) add(name string, value float64) {
	p.out = append(p.out, harness.Metric{Name: name, Value: value})
}

// bench sizes n so that op(n) lasts about one batch, runs three batches and
// returns, per phase op reports, the best time per operation in ns, plus
// the allocations per operation of the last batch.
func (p *prober) bench(op func(n int) ([]time.Duration, error)) ([]float64, float64, error) {
	n := 1
	for {
		start := time.Now()
		if _, err := op(n); err != nil {
			return nil, 0, err
		}
		d := time.Since(start)
		if d >= p.batch/2 || n >= 1<<24 {
			break
		}
		grow := 2.0
		if d > 0 {
			grow = math.Min(100, math.Max(2, 1.2*float64(p.batch)/float64(d)))
		}
		n = int(float64(n) * grow)
	}
	var best []float64
	var allocs float64
	for round := 0; round < 3; round++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		phases, err := op(n)
		if err != nil {
			return nil, 0, err
		}
		runtime.ReadMemStats(&after)
		allocs = float64(after.Mallocs-before.Mallocs) / float64(n)
		if best == nil {
			best = make([]float64, len(phases))
			for i := range best {
				best[i] = math.Inf(1)
			}
		}
		for i, d := range phases {
			best[i] = math.Min(best[i], float64(d)/float64(n))
		}
	}
	return best, allocs, nil
}

// allocsPerOp runs fn n times and returns the heap allocations per call.
func allocsPerOp(n int, fn func(i int)) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		fn(i)
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n)
}

// gaussian fills a vector with seeded noise in which about one coordinate
// in `every` is non-zero.
func gaussian(rng *rand.Rand, dim, every int) []float64 {
	v := make([]float64, dim)
	for i := range v {
		if every <= 1 || rng.Intn(every) == 0 {
			v[i] = rng.NormFloat64()
		}
	}
	return v
}
