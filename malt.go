// Package malt is a Go implementation of MALT — distributed
// data-parallelism for existing machine-learning applications (Li, Kadav,
// Kruus, Ungureanu; EuroSys 2015).
//
// MALT turns a serial SGD loop into a data-parallel one with four calls
// (the paper's Table 1): CreateVector allocates a model-parameter or
// gradient vector shared over a one-sided remote-memory fabric; Scatter
// pushes it to the peers named by a dataflow graph; Gather locally folds
// whatever peer updates have arrived through a user-defined function; and
// Barrier provides optional bulk-synchrony. There is no parameter server
// and no master: every replica runs the same code, updates flow peer to
// peer, and a failed replica is simply dropped from the dataflow while the
// survivors retrain over its data.
//
// The paper's serial Algorithm 1 becomes its data-parallel Algorithm 2:
//
//	cfg := malt.Config{Ranks: 10, Dataflow: malt.All, Sync: malt.BSP}
//	res, err := malt.Run(cfg, func(ctx *malt.Context) error {
//	    g, err := ctx.CreateVector("grad", malt.Sparse, dim)
//	    if err != nil {
//	        return err
//	    }
//	    w := make([]float64, dim)
//	    lo, hi, _ := ctx.Shard(len(examples)) // load_data(f)
//	    for epoch := 0; epoch < maxEpochs; epoch++ {
//	        for _, batch := range batches(examples[lo:hi], cb) {
//	            computeGradient(g.Data(), w, batch)
//	            ctx.SetIteration(ctx.Iteration() + 1)
//	            ctx.Scatter(g)           // g.scatter(ALL)
//	            ctx.Advance(g)           // barrier under BSP
//	            ctx.Gather(g, malt.Average) // g.gather(AVG)
//	            apply(w, g.Data())
//	            ctx.Commit(g)
//	        }
//	    }
//	    return nil
//	})
//
// Substituted substrate: the original system runs over GASPI/InfiniBand
// RDMA on a physical cluster. This implementation reproduces the full
// stack in-process — a simulated one-sided RDMA fabric with a cost model
// and traffic accounting, dstorm segments with per-sender lock-free
// receive queues, the vector object library, BSP/ASP/SSP consistency, and
// fail-stop fault tolerance — so every experiment in the paper can be
// rerun on one machine. See DESIGN.md for the substitution map.
package malt

import (
	"io"

	"malt/internal/consistency"
	"malt/internal/core"
	"malt/internal/data"
	"malt/internal/dataflow"
	"malt/internal/dstorm"
	"malt/internal/fabric"
	"malt/internal/fault"
	"malt/internal/ml/linalg"
	"malt/internal/vol"
)

// Config describes a MALT cluster: replica count, dataflow, consistency
// discipline and fabric parameters.
type Config = core.Config

// Cluster is an in-process MALT cluster of model replicas.
type Cluster = core.Cluster

// Context is one replica's handle on the cluster, passed to the training
// function; it provides the Table 1 API (CreateVector, Scatter, Gather,
// Barrier, Shard) plus consistency control and fault reporting.
type Context = core.Context

// Result aggregates a Run: per-rank errors and phase timings.
type Result = core.Result

// RankResult is one replica's outcome within a Result.
type RankResult = core.RankResult

// Vector is a shared model-parameter or gradient vector (dense or sparse
// wire format) created through Context.CreateVector.
type Vector = vol.Vector

// VectorOptions tunes queue depth, chunking and sparse capacity.
type VectorOptions = vol.Options

// GatherStats summarizes one gather: updates folded and their staleness.
type GatherStats = vol.GatherStats

// Fold is the input handed to a gather UDF.
type Fold = vol.Fold

// Update is one decoded peer update within a Fold.
type Update = vol.Update

// UDF is a gather user-defined function folding peer updates into the
// local vector.
type UDF = vol.UDF

// FabricConfig tunes the simulated interconnect (latency, bandwidth,
// imposed delay).
type FabricConfig = fabric.Config

// ChaosConfig seeds the fabric's transient-fault model: per-link drop
// probabilities, blackout windows and straggler jitter (Config.Fabric.Chaos,
// or Fabric.EnableChaos at runtime).
type ChaosConfig = fabric.ChaosConfig

// LinkFault is the transient-fault model of one directed link.
type LinkFault = fabric.LinkFault

// RetryPolicy bounds per-write retrying of transient fabric faults
// (Config.Retry).
type RetryPolicy = dstorm.RetryPolicy

// RetryStats counts a rank's transient-fault handling
// (Context.RetryStats).
type RetryStats = dstorm.RetryStats

// SuspicionConfig tunes the K-strikes failure detector (Config.Suspicion):
// a peer is health-checked only after Strikes independent failed-write
// reports within the Decay window.
type SuspicionConfig = fault.SuspicionConfig

// SuspicionStats counts a rank's failure-detector activity
// (Context.Monitor().SuspicionStats).
type SuspicionStats = fault.SuspicionStats

// ErrTransient marks a fabric operation dropped by the chaos layer: the
// packet is gone but the link is not. The runtime retries these under
// Config.Retry; only permanent failures reach the fault monitor.
var ErrTransient = fabric.ErrTransient

// ErrStaleEpoch marks an operation fenced by the membership-epoch check: it
// was issued by (or to) a zombie incarnation of a rank whose admission has
// been superseded. Permanent — the rank must rejoin (Cluster.Rejoin).
var ErrStaleEpoch = fabric.ErrStaleEpoch

// Snapshot is the recoverable state of one replica (model vector,
// iteration counter, optimizer scalars), published with
// Context.PublishState and adopted by a rejoining rank via Cluster.Rejoin /
// Context.Resume.
type Snapshot = core.Snapshot

// Membership is the optional elastic-membership extension of a transport:
// a monotonically-increasing epoch minted on every confirmed death and
// every join, with stale-epoch traffic fenced.
type Membership = fabric.Membership

// Vector wire representations.
const (
	// Dense sends the full float64 vector on every scatter.
	Dense = vol.Dense
	// Sparse sends only non-zero (index, value) pairs.
	Sparse = vol.Sparse
)

// Pre-built dataflow graphs (paper §3.4).
const (
	// All sends every update to every peer: O(N²) updates per round.
	All = dataflow.All
	// Halton sends each update to ~log₂N peers chosen by the Halton
	// sequence: O(N log N) updates per round with uniform dissemination.
	Halton = dataflow.Halton
	// Ring sends each update to the successor rank only.
	Ring = dataflow.Ring
	// MasterSlave stars all communication through rank 0.
	MasterSlave = dataflow.MasterSlave
)

// Consistency disciplines (paper §3.2).
const (
	// BSP is bulk-synchronous parallel training.
	BSP = consistency.BSP
	// ASP is fully asynchronous training.
	ASP = consistency.ASP
	// SSP is bounded-staleness training.
	SSP = consistency.SSP
)

// Gather user-defined functions.
var (
	// Average replaces the local value with the mean of it and all
	// incoming updates, folding in canonical rank order.
	Average = vol.Average
	// AverageIncoming averages only the incoming updates ("modelavg").
	AverageIncoming = vol.AverageIncoming
	// Sum adds every incoming update into the local value.
	Sum = vol.Sum
	// Replace overwrites the local value with the freshest incoming update
	// (distributed Hogwild).
	Replace = vol.Replace
	// ReplaceCoords overwrites only the coordinates each sparse update
	// shipped (per-row Hogwild for factor matrices).
	ReplaceCoords = vol.ReplaceCoords
)

// SparseUpdate is an explicit sparse payload for Vector.ScatterSparse:
// strictly increasing indices with their values.
type SparseUpdate = linalg.SparseVector

// AddVector is a fetch-and-add gradient accumulator (the paper's proposed
// hardware-averaging extension), created with Context.CreateAddVector:
// peer scatters merge into the accumulator at deposit time; Drain fetches
// the running average and resets it.
type AddVector = dstorm.AddSegment

// ParseDataflow converts a flag string ("all", "halton", "ring",
// "masterslave") to a dataflow kind.
func ParseDataflow(s string) (dataflow.Kind, error) { return dataflow.ParseKind(s) }

// CustomDataflow builds an arbitrary communication graph from an
// out-neighbour adjacency (adj[i] lists the ranks i scatters to), for
// Config.Graph. The graph must be connected; CreateVector enforces it.
func CustomDataflow(adj [][]int) (*dataflow.Graph, error) { return dataflow.FromAdjacency(adj) }

// ParseSync converts a flag string ("bsp", "asp", "ssp") to a consistency
// model.
func ParseSync(s string) (consistency.Model, error) { return consistency.ParseModel(s) }

// NewCluster builds a MALT cluster without running anything, for callers
// that need to inject failures or inspect fabric statistics around a Run.
func NewCluster(cfg Config) (*Cluster, error) {
	return core.NewCluster(cfg)
}

// Run builds a cluster and executes fn once per rank, each on its own
// replica goroutine, waiting for all of them. It is the one-call entry
// point; use NewCluster + Cluster.Run for more control.
func Run(cfg Config, fn func(ctx *Context) error) (*Result, error) {
	c, err := core.NewCluster(cfg)
	if err != nil {
		return nil, err
	}
	return c.Run(fn), nil
}

// Example is one labelled training instance (sparse features, ±1 label for
// classification).
type Example = data.Example

// Dataset is an in-memory labelled dataset with train and test splits.
type Dataset = data.Dataset

// LoadLibSVM reads a libsvm-format dataset ("label idx:val …"), the
// interchange format of the paper's SVM workloads. Pass dim 0 to infer the
// dimensionality from the data.
func LoadLibSVM(r io.Reader, name string, dim int) (*Dataset, error) {
	return data.ReadLibSVM(r, name, dim)
}
