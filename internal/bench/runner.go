package bench

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"malt/internal/chaos"
	"malt/internal/compress"
	"malt/internal/consistency"
	"malt/internal/core"
	"malt/internal/data"
	"malt/internal/dataflow"
	"malt/internal/dstorm"
	"malt/internal/fabric"
	"malt/internal/fault"
	"malt/internal/ml/svm"
	"malt/internal/trace"
	"malt/internal/vol"
)

// CommMode selects what a replica scatters each communication batch. In
// both modes the replica runs per-example SVM-SGD locally over the cb
// examples; the difference is what crosses the network (the paper's
// gradavg vs modelavg configurations).
type CommMode int

const (
	// GradAvg scatters the accumulated model delta ("gradient" in the
	// paper's terminology: the sum of the batch's SGD updates) and applies
	// the peer average on top of the pre-batch model.
	GradAvg CommMode = iota
	// ModelAvg scatters the whole model and averages it with the peers'.
	ModelAvg
)

// String returns the paper's label.
func (m CommMode) String() string {
	if m == ModelAvg {
		return "modelavg"
	}
	return "gradavg"
}

// SVMOpts parameterizes one distributed SVM run.
type SVMOpts struct {
	DS    *data.Dataset
	Eval  []data.Example // defaults to DS.Test
	Ranks int
	// CB is the communication batch size in examples (already scaled).
	CB       int
	Dataflow dataflow.Kind
	Graph    *dataflow.Graph // overrides Dataflow when non-nil
	Sync     consistency.Model
	Bound    uint64
	Cutoff   uint64
	Mode     CommMode
	// Epochs bounds the run; Goal (training loss ≤ Goal) stops it early
	// when positive.
	Epochs int
	Goal   float64
	// EvalEvery is the number of batches between rank-0 loss evaluations.
	// Default 5.
	EvalEvery int
	SVM       svm.Config
	// Sparse selects the sparse wire format for scatters.
	Sparse   bool
	QueueLen int
	Fabric   fabric.Config
	// Transport, when non-nil, replaces the simulated fabric with an
	// external interconnect (e.g. tcpnet over real sockets). The run then
	// executes only LocalRank's replica in this process; the other ranks
	// run their own RunSVM in their own processes against the same peer
	// list, and the returned RunStats covers the local rank only (curve
	// and final model are populated only where rank 0 lives). Chaos
	// requires the simulated fabric and is rejected.
	Transport fabric.Transport
	// LocalRank is this process's rank when Transport is set.
	LocalRank int
	// Rejoin re-admits LocalRank into an already-running multi-process
	// cluster instead of rendezvousing: the transport mints a fresh
	// membership epoch, a snapshot is pulled from a publishing survivor
	// (see PublishState), and the replica resumes from it. Requires
	// Transport; the restarted process must not have called Rendezvous.
	Rejoin bool
	// KillRank/KillAtIter inject a crash: the given rank dies when it
	// reaches the given batch count (0 disables).
	KillRank   int
	KillAtIter uint64
	// Chaos, when non-nil, drives the fabric through the scripted fault
	// scenario for the duration of the run (transient drops, blackouts,
	// stragglers, timed kills, rejoins and partitions). Pending events are
	// cancelled when training finishes first. Scripted join/restart events
	// run the full cluster-level rejoin: the rank is readmitted under a
	// fresh epoch, pulls a state snapshot from a publishing survivor (see
	// PublishState), and its replica goroutine is relaunched.
	Chaos *chaos.Script
	// PublishState makes every replica publish its recoverable state (model,
	// iteration counter, SGD step count) after each batch, so it can donate a
	// snapshot to a rank rejoining via a scripted join/restart event. Costs
	// one model copy per batch.
	PublishState bool
	// Retry bounds per-write transient-fault retrying (zero = defaults).
	Retry dstorm.RetryPolicy
	// Pipeline, when non-nil, enables the per-destination send coalescer on
	// every rank (the batching ablation knob; see dstorm.PipelineConfig).
	Pipeline *dstorm.PipelineConfig
	// GatherWorkers enables the parallel gather engine on every rank
	// (0 = serial, -1 = default pool size; see core.Config.GatherWorkers).
	GatherWorkers int
	// FoldChunk is the coordinate-chunk size for parallel folds
	// (0 = vol.DefaultFoldChunk).
	FoldChunk int
	// Compress enables lossy gradient compression with per-link
	// error-feedback residuals on every dense vector (see
	// core.Config.Compress). Dense-only: incompatible with Sparse.
	Compress compress.Options
	// Suspicion tunes the K-strikes failure detector (zero = defaults).
	Suspicion fault.SuspicionConfig
	// Jitter models per-machine compute-speed variance. The single-core
	// host schedules goroutines fairly, which hides the stragglers that
	// BSP suffers from on a real cluster; a per-batch sleep (which
	// overlaps across ranks, restoring parallel-machine semantics)
	// reintroduces them.
	Jitter JitterSpec
	// ModelSyncEvery interleaves a whole-model averaging round every this
	// many gradient rounds in GradAvg mode — the paper's §2 design
	// ("interleaving gradient updates with parameter values"). Gradient
	// deltas alone never contract replica drift on partial dataflows like
	// Halton; the periodic model average does. 0 uses the default of 10;
	// negative disables interleaving.
	ModelSyncEvery int
}

// JitterSpec is a per-batch compute-delay model: every batch takes an
// extra Base + U[0,Spread), and with probability StragglerProb the whole
// delay is multiplied by StragglerMult (a transient straggler: page fault,
// background daemon, packet storm).
type JitterSpec struct {
	Base          time.Duration
	Spread        time.Duration
	StragglerProb float64
	StragglerMult int
}

func (j JitterSpec) enabled() bool { return j.Base > 0 || j.Spread > 0 }

// delay draws the next batch's simulated compute time.
func (j JitterSpec) delay(rng *rand.Rand) time.Duration {
	d := j.Base
	if j.Spread > 0 {
		d += time.Duration(rng.Int63n(int64(j.Spread)))
	}
	if j.StragglerProb > 0 && rng.Float64() < j.StragglerProb {
		mult := j.StragglerMult
		if mult <= 1 {
			mult = 4
		}
		d *= time.Duration(mult)
	}
	return d
}

func (o *SVMOpts) setDefaults() error {
	if o.DS == nil {
		return fmt.Errorf("bench: SVMOpts.DS is required")
	}
	if o.Eval == nil {
		o.Eval = o.DS.Test
	}
	if o.Ranks <= 0 {
		return fmt.Errorf("bench: Ranks must be positive")
	}
	if o.CB <= 0 {
		return fmt.Errorf("bench: CB must be positive")
	}
	if o.Epochs <= 0 {
		o.Epochs = 10
	}
	if o.EvalEvery <= 0 {
		o.EvalEvery = 5
	}
	if o.SVM.Dim == 0 {
		o.SVM.Dim = o.DS.Dim
	}
	if o.ModelSyncEvery == 0 {
		o.ModelSyncEvery = 10
	}
	if o.Compress.Enabled() {
		if o.Sparse {
			return fmt.Errorf("bench: Compress requires the dense wire format (drop Sparse)")
		}
		if err := o.Compress.Validate(); err != nil {
			return fmt.Errorf("bench: %w", err)
		}
	}
	return nil
}

// RunStats reports one distributed run.
type RunStats struct {
	// Curve is the loss trajectory sampled by rank 0. Point.Iter counts
	// examples processed per rank (batches × cb), comparable with a serial
	// run's example count.
	Curve Series
	// Reached reports whether Goal was hit; TimeToGoal/ItersToGoal locate it.
	Reached     bool
	TimeToGoal  float64
	ItersToGoal float64
	// FinalW is rank 0's final model.
	FinalW []float64
	// FinalWTail is rank 0's tail-averaged model (the mean iterate over the
	// second half of training) — a lower-variance convergence estimate than
	// the raw final iterate, which under ASP carries one batch's noise.
	FinalWTail []float64
	// Timers are the per-rank phase breakdowns.
	Timers []*trace.Timer
	// Stats is the fabric traffic accounting.
	Stats *fabric.Stats
	// Elapsed is the wall-clock duration of the training region.
	Elapsed time.Duration
	// Batches is the number of communication batches rank 0 executed.
	Batches uint64
	// Cluster is the (finished) cluster, exposed so callers can inspect the
	// per-rank fault monitors and retry counters after a chaos run.
	Cluster *core.Cluster
	// Retry aggregates the transient-fault write counters over all ranks.
	Retry dstorm.RetryStats
	// ChaosLog is the list of scenario events that fired (nil without Chaos).
	ChaosLog []chaos.LogEntry
}

// RunSVM executes one distributed SVM training run and collects its
// convergence curve, per-phase timers and traffic totals.
func RunSVM(opts SVMOpts) (*RunStats, error) {
	if err := opts.setDefaults(); err != nil {
		return nil, err
	}
	if opts.Rejoin && opts.Transport == nil {
		return nil, fmt.Errorf("bench: Rejoin requires an external transport (in-process runs rejoin via chaos join events)")
	}
	if opts.Chaos != nil {
		if opts.Transport != nil {
			return nil, fmt.Errorf("bench: chaos injection requires the simulated fabric; it is not supported on an external transport")
		}
		// Catch scripts that are incoherent for this cluster size before any
		// goroutine starts: a bad rank id or a blackout of an already-killed
		// rank should fail the run loudly, not surface as a mid-run fabric
		// error buried in the chaos log.
		if err := opts.Chaos.Validate(opts.Ranks); err != nil {
			return nil, err
		}
	}
	cluster, err := core.NewCluster(core.Config{
		Ranks:          opts.Ranks,
		Transport:      opts.Transport,
		Dataflow:       opts.Dataflow,
		Graph:          opts.Graph,
		Sync:           opts.Sync,
		StalenessBound: opts.Bound,
		ASPCutoff:      opts.Cutoff,
		QueueLen:       opts.QueueLen,
		Fabric:         opts.Fabric,
		Retry:          opts.Retry,
		Suspicion:      opts.Suspicion,
		Pipeline:       opts.Pipeline,
		GatherWorkers:  opts.GatherWorkers,
		FoldChunk:      opts.FoldChunk,
		Compress:       opts.Compress,
	})
	if err != nil {
		return nil, err
	}
	vtype := vol.Dense
	if opts.Sparse {
		vtype = vol.Sparse
	}
	var (
		stop       atomic.Bool
		mu         sync.Mutex
		curve      Series
		start      time.Time
		finalW     []float64
		finalWTail []float64
	)
	udf := vol.Average
	replica := func(ctx *core.Context) error {
		v, err := ctx.CreateVectorOpts("svm", vtype, opts.SVM.Dim, vol.Options{QueueLen: opts.QueueLen})
		if err != nil {
			return err
		}
		tr, err := svm.New(opts.SVM)
		if err != nil {
			return err
		}
		w := make([]float64, opts.SVM.Dim)
		if opts.Mode == ModelAvg {
			w = v.Data() // the model itself is the shared vector
		}
		before := make([]float64, opts.SVM.Dim) // pre-batch model for delta exchange
		tailSum := make([]float64, opts.SVM.Dim)
		tailN := 0
		jrng := rand.New(rand.NewSource(int64(1000 + ctx.Rank())))
		iter := uint64(0)
		startEpoch := 0
		if resume := ctx.Resume(); resume != nil {
			// Rejoined mid-training: seed the model, iteration counter and
			// SGD step count from the donated snapshot instead of iteration
			// zero, and skip ahead to the epoch the cluster is in.
			copy(w, resume.Model)
			iter = resume.Iter
			tr.SetSteps(uint64(resume.Opt["steps"]))
			if nb := (len(opts.DS.Train) / len(ctx.Survivors())) / opts.CB; nb > 0 {
				startEpoch = int(iter) / nb
			}
		}
		if !ctx.Rejoining() {
			// A rejoining rank must not enter the startup barrier: the
			// standing members passed it long ago and will never re-enter.
			if err := ctx.Barrier(v); err != nil {
				return err
			}
		}
		// Rank 0 anchors the convergence-curve clock; under an external
		// transport each process hosts one rank, so that rank stamps the
		// training region or Elapsed would read zero off-rank-0.
		if ctx.Rank() == 0 || opts.Transport != nil {
			mu.Lock()
			start = time.Now()
			mu.Unlock()
		}
		for epoch := startEpoch; epoch < opts.Epochs && !stop.Load(); epoch++ {
			lo, hi, err := ctx.Shard(len(opts.DS.Train))
			if err != nil {
				return err // this rank is dead (removed from survivor list)
			}
			shard := opts.DS.Train[lo:hi]
			// Every live rank must execute the same number of batches per
			// epoch or the BSP barriers deadlock at the epoch tail: derive
			// the count from the *minimum* shard size over the survivor
			// view, which is identical on all ranks.
			minShard := len(opts.DS.Train) / len(ctx.Survivors())
			nBatches := minShard / opts.CB
			if nBatches == 0 {
				return fmt.Errorf("bench: cb %d exceeds shard size %d", opts.CB, minShard)
			}
			for b := 0; b < nBatches && !stop.Load(); b++ {
				at := b * opts.CB
				batch := shard[at : at+opts.CB]
				iter++
				if opts.KillAtIter > 0 && ctx.Rank() == opts.KillRank && iter == opts.KillAtIter {
					if err := cluster.Transport().Kill(ctx.Rank()); err != nil {
						return err
					}
					return fmt.Errorf("bench: injected crash on rank %d at iter %d", ctx.Rank(), iter)
				}
				// A chaos script may have killed this rank out of band: a
				// dead replica must stop computing (its error is filtered by
				// LiveErrors below) instead of striking its live peers.
				if !cluster.Transport().Alive(ctx.Rank()) {
					return fmt.Errorf("bench: rank %d killed externally at iter %d", ctx.Rank(), iter)
				}
				ctx.SetIteration(iter)
				if opts.Jitter.enabled() {
					d := opts.Jitter.delay(jrng)
					ctx.Compute(func() { time.Sleep(d) })
				}
				modelRound := opts.Mode == ModelAvg ||
					(opts.ModelSyncEvery > 0 && iter%uint64(opts.ModelSyncEvery) == 0)
				switch {
				case opts.Mode == GradAvg && !modelRound:
					// Local per-example SGD over the batch; the scattered
					// "gradient" is the accumulated model delta.
					ctx.Compute(func() {
						copy(before, w)
						tr.TrainEpoch(w, batch)
						delta := v.Data()
						for i := range delta {
							delta[i] = w[i] - before[i]
						}
					})
					if err := ctx.Scatter(v); err != nil {
						return err
					}
					if err := ctx.Advance(v); err != nil {
						return err
					}
					if _, err := ctx.Gather(v, udf); err != nil {
						return err
					}
					ctx.Compute(func() {
						delta := v.Data()
						for i := range w {
							w[i] = before[i] + delta[i]
						}
					})
				case opts.Mode == GradAvg && modelRound:
					// Interleaved whole-model round (§2: gradient updates
					// interleaved with parameter values): averaging the
					// models themselves contracts the drift that pure delta
					// exchange accumulates on partial dataflows.
					ctx.Compute(func() {
						tr.TrainEpoch(w, batch)
						copy(v.Data(), w)
					})
					if err := ctx.Scatter(v); err != nil {
						return err
					}
					if err := ctx.Advance(v); err != nil {
						return err
					}
					if _, err := ctx.GatherLatest(v, udf); err != nil {
						return err
					}
					ctx.Compute(func() { copy(w, v.Data()) })
				case opts.Mode == ModelAvg:
					ctx.Compute(func() { tr.TrainEpoch(w, batch) })
					if err := ctx.Scatter(v); err != nil {
						return err
					}
					if err := ctx.Advance(v); err != nil {
						return err
					}
					// Freshest model per peer: an older snapshot carries no
					// information once a newer one has arrived.
					if _, err := ctx.GatherLatest(v, udf); err != nil {
						return err
					}
				}
				// Evaluation before the superstep commit so that a BSP stop
				// decision is visible to every rank at the same round.
				if ctx.Rank() == 0 && iter%uint64(opts.EvalEvery) == 0 {
					loss := tr.Loss(w, opts.Eval)
					mu.Lock()
					curve.Points = append(curve.Points, Point{
						Time:  time.Since(start).Seconds(),
						Iter:  float64(iter) * float64(opts.CB),
						Value: loss,
					})
					mu.Unlock()
					if opts.Goal > 0 && loss <= opts.Goal {
						stop.Store(true)
					}
				}
				if ctx.Rank() == 0 && epoch >= opts.Epochs/2 {
					for i := range tailSum {
						tailSum[i] += w[i]
					}
					tailN++
				}
				if opts.PublishState {
					if err := ctx.PublishState(iter, w, map[string]float64{"steps": float64(tr.Steps())}); err != nil {
						return err
					}
				}
				if err := ctx.Commit(v); err != nil {
					return err
				}
			}
		}
		if ctx.Rank() == 0 {
			mu.Lock()
			finalW = append([]float64(nil), w...)
			if tailN > 0 {
				finalWTail = make([]float64, len(tailSum))
				for i := range finalWTail {
					finalWTail[i] = tailSum[i] / float64(tailN)
				}
			}
			curve.Label = fmt.Sprintf("%s/%s/%s/cb=%d/ranks=%d",
				opts.DS.Name, opts.Sync, opts.Mode, opts.CB, opts.Ranks)
			mu.Unlock()
		}
		return nil
	}
	// Scripted join/restart events run the full elastic-membership path:
	// cluster-level rejoin (epoch mint, send/receive-list restore, snapshot
	// pull from a publishing survivor) followed by a relaunch of the rank's
	// replica goroutine, whose outcome replaces the killed incarnation's.
	var (
		rejoinWG  sync.WaitGroup
		rejoinMu  sync.Mutex
		rejoinErr = map[int]error{}
	)
	var chaosRunner *chaos.Runner
	if opts.Chaos != nil {
		opts.Chaos.HandleJoin(func(rank int) error {
			if _, err := cluster.Rejoin(rank); err != nil {
				return err
			}
			rejoinWG.Add(1)
			go func() {
				err := cluster.Context(rank).Monitor().Guard(func() error {
					return replica(cluster.Context(rank))
				})
				rejoinMu.Lock()
				rejoinErr[rank] = err
				rejoinMu.Unlock()
				rejoinWG.Done()
			}()
			return nil
		})
		chaosRunner = opts.Chaos.Run(cluster.Fabric())
		defer chaosRunner.Stop()
	}
	var res *core.Result
	if opts.Transport != nil {
		if opts.Rejoin {
			// Restarted process: re-admit this rank (minting a fresh
			// membership epoch) and pull a snapshot from a publishing
			// survivor before the replica starts. The replica observes
			// ctx.Rejoining() and resumes instead of starting cold.
			if _, err := cluster.Rejoin(opts.LocalRank); err != nil {
				return nil, err
			}
		}
		// Multi-process: this process hosts exactly one replica; its peers
		// run in their own processes over the shared transport.
		res, err = cluster.RunLocal(opts.LocalRank, replica)
		if err != nil {
			return nil, err
		}
	} else {
		res = cluster.Run(replica)
	}
	if chaosRunner != nil {
		// Stop first (no further joins can fire), then wait out any replica
		// a join event relaunched and adopt its outcome in place of the
		// killed incarnation's expected error.
		chaosRunner.Stop()
		rejoinWG.Wait()
		for rank, e := range rejoinErr {
			res.PerRank[rank].Err = e
		}
	}
	if errs := res.LiveErrors(cluster.Transport().Alive); len(errs) > 0 {
		return nil, errs[0]
	}

	out := &RunStats{
		Curve:      curve,
		FinalW:     finalW,
		FinalWTail: finalWTail,
		Timers:     make([]*trace.Timer, opts.Ranks),
		Stats:      cluster.Transport().Stats(),
		Cluster:    cluster,
	}
	for r := 0; r < opts.Ranks; r++ {
		st := cluster.Context(r).RetryStats()
		out.Retry.Attempts += st.Attempts
		out.Retry.Retries += st.Retries
		out.Retry.Recovered += st.Recovered
		out.Retry.Exhausted += st.Exhausted
	}
	if chaosRunner != nil {
		out.ChaosLog = chaosRunner.Log()
	}
	mu.Lock()
	if !start.IsZero() {
		out.Elapsed = time.Since(start)
	}
	mu.Unlock()
	for _, rr := range res.PerRank {
		out.Timers[rr.Rank] = rr.Timer
	}
	if len(curve.Points) > 0 {
		out.Batches = uint64(curve.Points[len(curve.Points)-1].Iter) / uint64(opts.CB)
	}
	if opts.Goal > 0 {
		if t, ok := curve.TimeToReach(opts.Goal); ok {
			out.Reached = true
			out.TimeToGoal = t
			out.ItersToGoal, _ = curve.ItersToReach(opts.Goal)
		}
	}
	return out, nil
}

// SerialOpts parameterizes the single-rank SGD baseline.
type SerialOpts struct {
	DS        *data.Dataset
	Eval      []data.Example
	SVM       svm.Config
	Epochs    int
	Goal      float64
	EvalEvery int // examples between evaluations; default 2000
}

// RunSerialSVM runs Bottou-style serial SGD and collects the same curve
// shape as RunSVM (Point.Iter counts examples processed).
func RunSerialSVM(opts SerialOpts) (*RunStats, error) {
	if opts.DS == nil {
		return nil, fmt.Errorf("bench: SerialOpts.DS is required")
	}
	if opts.Eval == nil {
		opts.Eval = opts.DS.Test
	}
	if opts.Epochs <= 0 {
		opts.Epochs = 10
	}
	if opts.EvalEvery <= 0 {
		opts.EvalEvery = 2000
	}
	if opts.SVM.Dim == 0 {
		opts.SVM.Dim = opts.DS.Dim
	}
	tr, err := svm.New(opts.SVM)
	if err != nil {
		return nil, err
	}
	w := make([]float64, opts.SVM.Dim)
	curve := Series{Label: fmt.Sprintf("%s/serial-sgd", opts.DS.Name)}
	start := time.Now()
	timer := &trace.Timer{}
	seen := 0
	reached := false
outer:
	for epoch := 0; epoch < opts.Epochs; epoch++ {
		for _, ex := range opts.DS.Train {
			timer.Time(trace.Compute, func() { tr.Step(w, ex) })
			seen++
			if seen%opts.EvalEvery == 0 {
				loss := tr.Loss(w, opts.Eval)
				curve.Points = append(curve.Points, Point{
					Time:  time.Since(start).Seconds(),
					Iter:  float64(seen),
					Value: loss,
				})
				if opts.Goal > 0 && loss <= opts.Goal {
					reached = true
					break outer
				}
			}
		}
	}
	out := &RunStats{
		Curve:   curve,
		FinalW:  w,
		Timers:  []*trace.Timer{timer},
		Elapsed: time.Since(start),
		Reached: reached,
	}
	if opts.Goal > 0 && reached {
		out.TimeToGoal, _ = curve.TimeToReach(opts.Goal)
		out.ItersToGoal, _ = curve.ItersToReach(opts.Goal)
	}
	return out, nil
}
