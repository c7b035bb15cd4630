// Package core is the MALT runtime: it assembles the fabric, dstorm,
// vector library, consistency controller and fault monitors into a cluster
// of model replicas, and runs one user-supplied training function per rank
// (the paper's "write code once, run everywhere" model — no separate
// master/server program exists).
//
// The public package malt at the module root is a thin facade over this
// package; see there for the user-facing documentation.
package core

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"malt/internal/compress"
	"malt/internal/consistency"
	"malt/internal/data"
	"malt/internal/dataflow"
	"malt/internal/dstorm"
	"malt/internal/fabric"
	"malt/internal/fault"
	"malt/internal/trace"
	"malt/internal/vol"
)

// Config describes a MALT cluster.
type Config struct {
	// Ranks is the number of model replicas.
	Ranks int
	// Dataflow selects the pre-built communication graph. Default All.
	Dataflow dataflow.Kind
	// Graph overrides Dataflow with an explicit adjacency when non-nil.
	Graph *dataflow.Graph
	// Sync selects the consistency model. Default BSP.
	Sync consistency.Model
	// StalenessBound is the SSP bound (see consistency.Policy.Bound).
	StalenessBound uint64
	// ASPCutoff is the ASP stale-update filter (consistency.Policy.ASPCutoff).
	ASPCutoff uint64
	// QueueLen is the per-sender receive queue depth for vectors.
	QueueLen int
	// Pipeline, when non-nil, enables the per-destination send coalescer on
	// every rank: scatters return after enqueue, small updates for the same
	// peer merge into one fabric write, and BSP/SSP barriers drain the
	// pipeline so consistency is unchanged. Zero-valued fields use dstorm
	// defaults.
	Pipeline *dstorm.PipelineConfig
	// GatherWorkers enables the parallel gather engine on every rank:
	// per-sender ring drains and update decodes fan out across a worker
	// pool, and folds whose UDFs have chunk forms split across the
	// coordinate axis (bitwise identical to the serial fold). 0 disables
	// (serial gathers); -1 selects the default pool size; > 0 is an
	// explicit worker count.
	GatherWorkers int
	// FoldChunk is the coordinate-chunk size for parallel folds (vectors
	// created via Context inherit it; 0 = vol.DefaultFoldChunk).
	FoldChunk int
	// BucketBytes is ignored; kept so benchmark/ compiles until ROADMAP
	// item 12.
	BucketBytes int
	// Compress selects gradient compression with per-destination
	// error-feedback residuals for Dense vectors created via Context
	// (inherited into vol.Options.Compress; see internal/compress).
	// Scatters ship codec frames — top-k sparsified and/or
	// int8-quantized — and the dropped mass is carried into the next
	// update, so wire bytes shrink while convergence holds. With Adapt
	// set, each link re-picks its ratio from observed fabric.Stats
	// pressure signals. The zero value disables compression.
	Compress compress.Options
	// Fabric tunes the simulated interconnect (zero value = defaults).
	// Ignored when Transport is set.
	Fabric fabric.Config
	// Transport, when non-nil, replaces the simulated fabric with an
	// externally built backend (e.g. fabric/stream over real sockets).
	// Its Ranks() must match Config.Ranks. With a transport whose ranks
	// live in other OS processes, use RunLocal instead of Run: this process
	// drives only its own rank. Chaos injection requires the simulated
	// fabric and is rejected when Transport is set.
	Transport fabric.Transport
	// Retry bounds per-write retrying of transient fabric faults (zero
	// value = dstorm defaults: 4 attempts, exponential backoff).
	Retry dstorm.RetryPolicy
	// Suspicion tunes the K-strikes failure detector (zero value = fault
	// defaults: 3 strikes, 10 s decay).
	Suspicion fault.SuspicionConfig
}

func (c Config) withDefaults() (Config, error) {
	if c.Ranks <= 0 {
		return c, fmt.Errorf("core: Ranks must be positive, got %d", c.Ranks)
	}
	c.Fabric.Ranks = c.Ranks
	return c, nil
}

// Cluster is a MALT cluster: Ranks replicas sharing one transport. With
// the default simulated fabric all replicas run in this process; with an
// external Transport (fabric/stream) this process may host just one rank
// of a multi-process cluster.
type Cluster struct {
	cfg    Config
	fab    fabric.Transport
	sim    *fabric.Fabric // non-nil only for the default simulated fabric
	dsc    *dstorm.Cluster
	faults *fault.Group
	graph  *dataflow.Graph

	contexts []*Context
}

// NewCluster builds the cluster, its transport (the simulated fabric
// unless cfg.Transport overrides it), and its dataflow graph.
func NewCluster(cfg Config) (*Cluster, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	var fab fabric.Transport
	var sim *fabric.Fabric
	if cfg.Transport != nil {
		if cfg.Transport.Ranks() != cfg.Ranks {
			return nil, fmt.Errorf("core: transport has %d ranks, config says %d", cfg.Transport.Ranks(), cfg.Ranks)
		}
		if cfg.Fabric.Chaos != nil {
			return nil, errors.New("core: chaos injection requires the simulated fabric; it is not supported on an external transport")
		}
		fab = cfg.Transport
	} else {
		sim, err = fabric.New(cfg.Fabric)
		if err != nil {
			return nil, err
		}
		fab = sim
	}
	graph := cfg.Graph
	if graph == nil {
		graph, err = dataflow.New(cfg.Dataflow, cfg.Ranks)
		if err != nil {
			return nil, err
		}
	} else if graph.N() != cfg.Ranks {
		return nil, fmt.Errorf("core: graph covers %d ranks, config says %d", graph.N(), cfg.Ranks)
	}
	c := &Cluster{
		cfg:    cfg,
		fab:    fab,
		sim:    sim,
		dsc:    dstorm.NewCluster(fab),
		faults: fault.NewGroupWith(fab, cfg.Suspicion),
		graph:  graph,
	}
	c.contexts = make([]*Context, cfg.Ranks)
	for r := 0; r < cfg.Ranks; r++ {
		c.dsc.Node(r).SetRetryPolicy(cfg.Retry)
		c.contexts[r] = c.newContext(r)
	}
	// Elastic membership: transport-level admissions flow into every local
	// monitor, whose OnJoin callbacks then restore the rank in send/receive
	// lists — the inverse of the OnDeath rebuild.
	if m, ok := fab.(fabric.Membership); ok {
		m.OnJoin(func(rank int, epoch uint64) {
			for _, ctx := range c.contexts {
				if ctx.rank != rank {
					ctx.monitor.AdmitJoin(rank)
				}
			}
		})
	}
	return c, nil
}

// Config returns the cluster configuration.
func (c *Cluster) Config() Config { return c.cfg }

// Fabric exposes the simulated interconnect (stats, failure injection).
// It is nil when the cluster runs on an external Transport; use
// Transport() for the backend-agnostic surface.
func (c *Cluster) Fabric() *fabric.Fabric { return c.sim }

// Transport exposes the interconnect the cluster actually runs on — the
// simulated fabric by default, or the external backend from
// Config.Transport.
func (c *Cluster) Transport() fabric.Transport { return c.fab }

// Close closes the simulated fabric. It does not close an external
// Transport supplied via Config.Transport — that is owned by the caller
// who built it.
func (c *Cluster) Close() error {
	if c.sim != nil {
		return c.sim.Close()
	}
	return nil
}

// Graph returns the cluster's dataflow graph.
func (c *Cluster) Graph() *dataflow.Graph { return c.graph }

// Context returns the per-rank context (for tests and tools; Run hands the
// same contexts to the training function).
func (c *Cluster) Context(rank int) *Context { return c.contexts[rank] }

// RankResult is one replica's outcome.
type RankResult struct {
	// Rank identifies the replica.
	Rank int
	// Err is the training function's error (nil on success). A replica
	// killed by failure injection typically returns a non-nil error.
	Err error
	// Timer holds the per-phase time breakdown.
	Timer *trace.Timer
}

// Result aggregates a Run.
type Result struct {
	// PerRank has one entry per rank, indexed by rank.
	PerRank []RankResult
	// Elapsed is the wall-clock duration of the whole run.
	Elapsed time.Duration
}

// FirstError returns the first non-nil rank error, or nil.
func (r *Result) FirstError() error {
	for _, rr := range r.PerRank {
		if rr.Err != nil {
			return rr.Err
		}
	}
	return nil
}

// LiveErrors returns the errors of ranks that were still alive at the end
// of the run — failures of deliberately killed replicas are expected and
// usually filtered out this way.
func (r *Result) LiveErrors(alive func(rank int) bool) []error {
	var errs []error
	for _, rr := range r.PerRank {
		if rr.Err != nil && alive(rr.Rank) {
			errs = append(errs, fmt.Errorf("rank %d: %w", rr.Rank, rr.Err))
		}
	}
	return errs
}

// Run executes fn once per rank, each on its own goroutine (the replicas of
// the paper's Figure 1), and waits for all of them. Panics in fn are
// trapped by the rank's fault monitor and converted into rank errors plus
// fabric death, so surviving replicas observe a crash, not a hang.
func (c *Cluster) Run(fn func(ctx *Context) error) *Result {
	start := time.Now()
	res := &Result{PerRank: make([]RankResult, c.cfg.Ranks)}
	var wg sync.WaitGroup
	for r := 0; r < c.cfg.Ranks; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			res.PerRank[r] = c.runRank(r, fn)
		}(r)
	}
	wg.Wait()
	res.Elapsed = time.Since(start)
	return res
}

// RunLocal executes fn for a single rank of the cluster and waits for it —
// the entry point for multi-process transports, where each OS process
// hosts exactly one rank and the others are reached over the network. The
// Result has one entry (for rank); panics are trapped exactly as in Run.
func (c *Cluster) RunLocal(rank int, fn func(ctx *Context) error) (*Result, error) {
	if rank < 0 || rank >= c.cfg.Ranks {
		return nil, fmt.Errorf("core: local rank %d out of range [0,%d)", rank, c.cfg.Ranks)
	}
	start := time.Now()
	res := &Result{PerRank: []RankResult{c.runRank(rank, fn)}}
	res.Elapsed = time.Since(start)
	return res, nil
}

// runRank drives one replica: engine setup, the guarded training function,
// and the trace-counter harvest.
func (c *Cluster) runRank(r int, fn func(ctx *Context) error) RankResult {
	ctx := c.contexts[r]
	if c.cfg.Pipeline != nil {
		ctx.node.EnablePipeline(*c.cfg.Pipeline)
	}
	if c.cfg.GatherWorkers != 0 {
		ctx.node.EnableParallelGather(c.cfg.GatherWorkers)
	}
	err := ctx.monitor.Guard(func() error { return fn(ctx) })
	if c.cfg.GatherWorkers != 0 {
		ctx.node.DisableParallelGather()
	}
	// Record the gather engine's work counters for Fig 8-style
	// breakdowns regardless of whether the pool was enabled (serial
	// chunk folds and scratch hits count too).
	ctx.mu.Lock()
	vecs := append([]*vol.Vector(nil), ctx.vectors...)
	ctx.mu.Unlock()
	for _, v := range vecs {
		gp := v.GatherPerf()
		ctx.timer.AddCount(trace.DecodeTasks, gp.DecodeTasks)
		ctx.timer.AddCount(trace.ChunksFolded, gp.ChunksFolded)
		ctx.timer.AddCount(trace.ScratchHits, gp.ScratchHits)
		if v.Compressed() {
			cp := v.CompressPerf()
			ctx.timer.AddCount(trace.BytesPrecompress, cp.BytesPre)
			ctx.timer.AddCount(trace.BytesPostcompress, cp.BytesPost)
			ctx.timer.AddCount(trace.CompressPlanNs, cp.PlanNs)
			ctx.timer.AddCount(trace.ResidualNorm, cp.ResidualNormMicro)
			ctx.timer.MaxCount(trace.RatioPerLink, cp.HardestInvRatioMilli)
		}
	}
	if c.cfg.Pipeline != nil {
		// Drain before snapshotting so the counters reflect only
		// completed batches, then record them for Fig 8-style
		// breakdowns and shut the worker pool down.
		_ = ctx.node.Drain()
		ps := ctx.node.PipelineStats()
		ctx.timer.AddCount(trace.WritesSaved, ps.WritesSaved)
		ctx.timer.AddCount(trace.BytesMerged, ps.BytesMerged)
		ctx.timer.MaxCount(trace.QueuePeak, ps.QueuePeak)
		ctx.node.DisablePipeline()
		ctx.reportFailures(nil)
	}
	return RankResult{Rank: r, Err: err, Timer: ctx.timer}
}

// Context is one rank's handle on the cluster, passed to the training
// function. It owns the rank's fault monitor, consistency controller and
// phase timer, and instruments every MALT call with them. A Context must
// only be used from its own replica goroutine.
type Context struct {
	cluster *Cluster
	rank    int
	node    *dstorm.Node
	monitor *fault.Monitor
	ctrl    *consistency.Controller
	timer   *trace.Timer

	mu      sync.Mutex
	vectors []*vol.Vector
	iter    uint64

	// Elastic-membership state (see snapshot.go).
	snapMu    sync.Mutex
	snap      *Snapshot      // latest state published for donors
	snapSvc   bool           // snapshot-request service registered
	snapCh    chan *Snapshot // rejoin landing channel
	resume    *Snapshot      // snapshot adopted at rejoin
	rejoining bool           // vector creation skips the creation barrier
}

func (c *Cluster) newContext(rank int) *Context {
	ctx := &Context{
		cluster: c,
		rank:    rank,
		node:    c.dsc.Node(rank),
		monitor: c.faults.Monitor(rank),
		timer:   &trace.Timer{},
	}
	ctx.ctrl = consistency.New(consistency.Policy{
		Model:     c.cfg.Sync,
		Bound:     c.cfg.StalenessBound,
		ASPCutoff: c.cfg.ASPCutoff,
		Alive:     ctx.monitor.Alive,
	})
	// Failure recovery: when this rank's monitor confirms a peer dead,
	// rebuild this rank's send/receive lists (paper §3.3).
	ctx.monitor.OnDeath(func(dead int) {
		ctx.mu.Lock()
		vecs := append([]*vol.Vector(nil), ctx.vectors...)
		ctx.mu.Unlock()
		for _, v := range vecs {
			v.RemovePeer(dead)
		}
	})
	// Elastic recovery: a re-admitted peer returns to the send/receive
	// lists at its original dataflow position, with fresh receive rings.
	ctx.monitor.OnJoin(func(joined int) {
		ctx.mu.Lock()
		vecs := append([]*vol.Vector(nil), ctx.vectors...)
		ctx.mu.Unlock()
		for _, v := range vecs {
			v.RestorePeer(joined)
		}
	})
	return ctx
}

// Rank returns this replica's rank.
func (ctx *Context) Rank() int { return ctx.rank }

// Ranks returns the cluster size (including dead ranks).
func (ctx *Context) Ranks() int { return ctx.cluster.cfg.Ranks }

// Survivors returns this rank's current view of the live ranks.
func (ctx *Context) Survivors() []int { return ctx.monitor.Survivors() }

// Alive reports this rank's view of a peer.
func (ctx *Context) Alive(rank int) bool { return ctx.monitor.Alive(rank) }

// Timer returns the per-phase time accounting for this rank.
func (ctx *Context) Timer() *trace.Timer { return ctx.timer }

// Monitor returns the rank's fault monitor (for explicit health checks and
// model validation).
func (ctx *Context) Monitor() *fault.Monitor { return ctx.monitor }

// RetryStats returns this rank's cumulative transient-fault write counters
// (attempts, retries, recoveries, exhaustions).
func (ctx *Context) RetryStats() dstorm.RetryStats { return ctx.node.RetryStats() }

// SetIteration records the replica's logical iteration count; scatters are
// stamped with it and staleness policies compare against it.
func (ctx *Context) SetIteration(iter uint64) { ctx.iter = iter }

// Iteration returns the last value passed to SetIteration.
func (ctx *Context) Iteration() uint64 { return ctx.iter }

// CreateVector collectively creates a shared model/gradient vector over
// the cluster's dataflow graph. All live ranks must call it with identical
// arguments (it blocks until they have).
func (ctx *Context) CreateVector(name string, typ vol.Type, dim int) (*vol.Vector, error) {
	return ctx.CreateVectorOpts(name, typ, dim, vol.Options{QueueLen: ctx.cluster.cfg.QueueLen})
}

// CreateVectorOpts is CreateVector with explicit vector options.
func (ctx *Context) CreateVectorOpts(name string, typ vol.Type, dim int, opts vol.Options) (*vol.Vector, error) {
	if opts.QueueLen == 0 {
		opts.QueueLen = ctx.cluster.cfg.QueueLen
	}
	if opts.FoldChunk == 0 {
		opts.FoldChunk = ctx.cluster.cfg.FoldChunk
	}
	if !opts.Compress.Enabled() && typ == vol.Dense {
		opts.Compress = ctx.cluster.cfg.Compress
	}
	if ctx.Rejoining() {
		// The standing members passed this vector's creation barrier long
		// ago; a rejoining rank registers and proceeds.
		opts.SkipCreationBarrier = true
	}
	v, err := vol.Create(ctx.node, name, typ, dim, ctx.cluster.graph, opts)
	if err != nil {
		return nil, err
	}
	ctx.mu.Lock()
	ctx.vectors = append(ctx.vectors, v)
	ctx.mu.Unlock()
	// Drop peers this rank already knows are dead (vector created after a
	// failure, e.g. during recovery).
	for r := 0; r < ctx.Ranks(); r++ {
		if !ctx.monitor.Alive(r) {
			v.RemovePeer(r)
		}
	}
	return v, nil
}

// CreateAddVector collectively creates a fetch-and-add gradient
// accumulator (the hardware-averaging extension from the paper's
// conclusion): peers' scatters merge into a single accumulator at deposit
// time and Drain fetches the running average. All live ranks must call it
// with identical arguments.
func (ctx *Context) CreateAddVector(name string, dim int) (*dstorm.AddSegment, error) {
	s, err := ctx.node.CreateAddSegment(name, dim, ctx.cluster.graph)
	if err != nil {
		return nil, err
	}
	ctx.monitor.OnDeath(func(dead int) { s.RemovePeer(dead) })
	for r := 0; r < ctx.Ranks(); r++ {
		if !ctx.monitor.Alive(r) {
			s.RemovePeer(r)
		}
	}
	return s, nil
}

// Scatter pushes v to its dataflow peers, stamped with the current
// iteration, charging the scatter phase and feeding any failed writes into
// the fault monitor (which may trigger recovery before Scatter returns).
func (ctx *Context) Scatter(v *vol.Vector) error {
	return ctx.timer.TimeErr(trace.Scatter, func() error {
		failed, err := v.Scatter(ctx.iter)
		if err != nil {
			return err
		}
		ctx.reportFailures(failed)
		return nil
	})
}

// ScatterBucketed charges compute(0, Dim) to the compute phase — the
// trainer fills v.Data() — then scatters v. Kept so benchmark/ compiles
// until ROADMAP item 12; trainers call Compute and Scatter directly.
func (ctx *Context) ScatterBucketed(v *vol.Vector, compute func(lo, hi int)) error {
	ctx.Compute(func() { compute(0, v.Dim()) })
	return ctx.Scatter(v)
}

// Gather folds arrived updates into v with udf under the cluster's
// consistency policy, charging the gather phase.
func (ctx *Context) Gather(v *vol.Vector, udf vol.UDF) (vol.GatherStats, error) {
	var stats vol.GatherStats
	err := ctx.timer.TimeErr(trace.Gather, func() error {
		var gerr error
		stats, gerr = ctx.ctrl.Gather(v, udf, ctx.iter)
		return gerr
	})
	return stats, err
}

// GatherLatest folds only the freshest update per peer into v — the right
// fold for model averaging, where an old snapshot of a peer carries no
// information once a newer one has arrived. Staleness filters do not apply
// (the freshest update is by definition the least stale available).
func (ctx *Context) GatherLatest(v *vol.Vector, udf vol.UDF) (vol.GatherStats, error) {
	var stats vol.GatherStats
	err := ctx.timer.TimeErr(trace.Gather, func() error {
		var gerr error
		stats, gerr = v.GatherLatest(udf)
		return gerr
	})
	return stats, err
}

// Advance runs the post-scatter synchronization (BSP barrier, SSP stall,
// or nothing for ASP), charging barrier/wait phases. Under BSP, call
// Advance after Scatter and before Gather so the gather observes exactly
// the current round's updates, and call Commit after applying the gathered
// result so no rank scatters the next round into a peer that has not yet
// consumed this one — the classic two-barrier superstep.
func (ctx *Context) Advance(v *vol.Vector) error {
	// Whatever the send pipeline still holds at this iteration edge must
	// now be waited out on the critical path. BSP/SSP drain inside
	// ctrl.Advance anyway — draining here first splits the wait into its
	// scatter and barrier parts. ASP never drains (its communication bleeds
	// into the next compute), so nothing is charged.
	if ctx.cluster.cfg.Sync != consistency.ASP && ctx.node.PipelineOutstanding() {
		start := time.Now()
		_ = ctx.node.Drain()
		ctx.timer.Add(trace.Scatter, time.Since(start))
	}
	waited, err := ctx.ctrl.Advance(v, ctx.iter)
	switch ctx.cluster.cfg.Sync {
	case consistency.BSP:
		ctx.timer.Add(trace.Barrier, waited)
	default:
		ctx.timer.Add(trace.Wait, waited)
	}
	// Advance drains the send pipeline (BSP barrier, SSP stall); poll for
	// any asynchronous delivery failures it surfaced so the fault monitor
	// learns about dead peers at iteration edges, not only at shutdown.
	ctx.reportFailures(nil)
	if err != nil && errors.Is(err, dstorm.ErrDead) {
		return err
	}
	return err
}

// Commit closes a BSP superstep: a second barrier that keeps any rank from
// scattering the next round before all ranks consumed this one. Under ASP
// and SSP it is a no-op (those disciplines embrace mixed rounds).
func (ctx *Context) Commit(v *vol.Vector) error {
	if ctx.cluster.cfg.Sync != consistency.BSP {
		return nil
	}
	return ctx.timer.TimeErr(trace.Barrier, func() error { return v.Barrier() })
}

// Barrier is an explicit bulk-synchronous barrier on v (the paper's
// g.barrier()), independent of the consistency policy.
func (ctx *Context) Barrier(v *vol.Vector) error {
	return ctx.timer.TimeErr(trace.Barrier, func() error { return v.Barrier() })
}

// Compute charges fn's duration to the compute phase. Training loops wrap
// their gradient computation in it so Fig 8-style breakdowns are exact.
func (ctx *Context) Compute(fn func()) {
	ctx.timer.Time(trace.Compute, fn)
}

// Shard returns this rank's [lo, hi) share of n examples over the ranks
// this replica currently believes are alive. After a confirmed failure the
// same call re-shards over the survivors, implementing the paper's data
// redistribution.
func (ctx *Context) Shard(n int) (lo, hi int, err error) {
	return data.ShardOver(n, ctx.rank, ctx.monitor.Survivors())
}

// WatchFaults starts the rank's background fault watchdog (probing every
// peer each interval); the returned stop function terminates it. Useful
// for phases that compute for a long time without communicating.
func (ctx *Context) WatchFaults(interval time.Duration) (stop func()) {
	return ctx.monitor.Watch(interval)
}

func (ctx *Context) reportFailures(peers []int) {
	if len(peers) == 0 {
		// Pipelined sends surface failures out of band; poll them here so
		// the monitor still learns about dead peers promptly.
		peers = ctx.node.AsyncFailures()
		if len(peers) == 0 {
			return
		}
	}
	ctx.monitor.ReportFailedWrites(peers)
}
