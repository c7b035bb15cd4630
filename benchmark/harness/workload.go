// Package harness runs maltperf's training workloads: two MALT ranks hosted
// in one process, each with its own stream.Net endpoint and its own
// core.Cluster driven through RunLocal — what two maltrun processes would
// hold, sharing nothing but sockets (and the read-only generated dataset).
// The replica loops here are the benchmark's own (not bench.RunSVM, which
// evaluates loss inside the timed region) and call only public functions of
// the program under test.
package harness

import (
	"fmt"
	"math"

	"malt/internal/compress"
	"malt/internal/consistency"
	"malt/internal/fabric/stream"
	"malt/internal/ml/sgd"
)

// Ranks is the cluster size of every workload: the box has two cores, so a
// third rank would measure the scheduler, not MALT.
const Ranks = 2

// Rounds is the number of untraced rounds per run, each a fresh process.
// Interference on a shared box only ever adds time, so timing metrics take
// the best round; never lower this below 3 (see README, noise rules).
const Rounds = 3

// Workload is one fixed training configuration. Everything a run needs is
// derived from these fields plus the seed; nothing is read from the
// environment.
type Workload struct {
	Name string
	// Why is the one-line reason the workload exists (BENCHMARK.json).
	Why string

	// Network is the stream flavor: stream.NetworkUnix or stream.NetworkTCP.
	Network string
	Sync    consistency.Model
	// NN selects the three-vector KDD12-shaped network trained with model
	// averaging; otherwise a linear model trained with gradient averaging.
	NN bool
	// Sparse selects the sparse wire format (linear model only).
	Sparse bool
	// Loss is the linear model's loss (nil = hinge).
	Loss sgd.Loss

	// Dataset shape. Train and Test are example counts; the replicas cycle
	// over their shard, so Train only has to cover a few batches.
	Dim, NNZ, Train, Test int
	// CB is the communication batch: examples per rank per step.
	CB int

	// The PR 8-10 send stack; all zero for the default runtime options.
	Compress    compress.Options
	BucketBytes int
	Pipeline    bool

	// RanksAgree says both ranks must end with Float64bits-equal models.
	// True under BSP except with a lossy codec, where each rank folds its
	// own exact delta with the peer's reconstruction.
	RanksAgree bool

	// StepsPerSecond sizes the fixed step count: a run given --seconds S
	// executes round(StepsPerSecond*S) timed steps split over Rounds. It is
	// a constant calibrated once on the defining box (≈ the step rate there)
	// and must not follow the code: a faster program finishes the same
	// steps sooner, which is what step_ms_p50 reports.
	StepsPerSecond float64
	// SerialExamples is the size of one serial-trainer baseline repetition:
	// a few tens of milliseconds of work.
	SerialExamples int
}

// DefaultSeconds is BENCHMARK.json's run_seconds.
const DefaultSeconds = 15

// Steps returns the timed steps of one round for a run of the given
// length, and the warm-up steps (10% of them) that precede the timed
// region.
func (w *Workload) Steps(seconds float64) (steps, warmup int) {
	steps = int(math.Round(w.StepsPerSecond * seconds / Rounds))
	if steps < 10 {
		steps = 10
	}
	return steps, (steps + 9) / 10
}

// Hidden-layer widths of the nn workload (maltrun -app nn uses the same).
const (
	nnH1 = 64
	nnH2 = 32
)

// Workloads is the fixed list, in the order rounds interleave.
var Workloads = []*Workload{
	{
		Name:    "dense-bsp",
		Why:     "1.6 MB dense updates over uds under BSP with default options: the raw bandwidth path (encode, sendbuf copy, stream window, ring deposit, drain, decode, fold) plus two barriers",
		Network: stream.NetworkUnix, Sync: consistency.BSP,
		Dim: 200000, NNZ: 150, Train: 12000, Test: 2000, CB: 100,
		RanksAgree:     true,
		StepsPerSecond: 140, SerialExamples: 100000,
	},
	{
		Name:    "dense-bsp-codec",
		Why:     "dense-bsp with hybrid compression, 64 KiB buckets and the send pipeline: the only workload where compress does most of the work, so a codec gain must show here and not on dense-bsp",
		Network: stream.NetworkUnix, Sync: consistency.BSP,
		Dim: 200000, NNZ: 150, Train: 12000, Test: 2000, CB: 100,
		Compress: compress.Options{Codec: "hybrid"}, BucketBytes: 64 << 10, Pipeline: true,
		StepsPerSecond: 19, SerialExamples: 100000,
	},
	{
		Name:    "sparse-asp",
		Why:     "rcv1-shaped sparse logistic updates under ASP: the same vol/dstorm layers used barrier-free with sparse encode and ring overwrite, so a dense-path gain that costs this path shows",
		Network: stream.NetworkUnix, Sync: consistency.ASP, Sparse: true, Loss: sgd.Logistic{},
		Dim: 47152, NNZ: 75, Train: 48000, Test: 4000, CB: 200,
		StepsPerSecond: 1400, SerialExamples: 100000,
	},
	{
		Name:    "small-bsp-tcp",
		Why:     "4 KB dense updates over tcp loopback under BSP: per-message and barrier latency with almost no bytes, and the only tcp coverage; bandwidth and codec work must not move it",
		Network: stream.NetworkTCP, Sync: consistency.BSP,
		Dim: 500, NNZ: 50, Train: 50000, Test: 5000, CB: 10,
		RanksAgree:     true,
		StepsPerSecond: 440, SerialExamples: 300000,
	},
	{
		Name:    "nn-compute-bsp",
		Why:     "KDD12-shaped 10000-64-32 net as three dense vectors with BSP model averaging: about 90% compute, the bypass for every communication optimisation and the one workload where 2 ranks beat serial",
		Network: stream.NetworkUnix, Sync: consistency.BSP, NN: true,
		Dim: 10000, NNZ: 30, Train: 8000, Test: 2000, CB: 500,
		RanksAgree:     true,
		StepsPerSecond: 5, SerialExamples: 150,
	},
}

// Lookup returns the named workload.
func Lookup(name string) (*Workload, error) {
	for _, w := range Workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}
