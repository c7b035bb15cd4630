// Package vol is MALT's Vector Object Library (paper §3.2): it raises the
// raw shared-memory segments of dstorm to typed model-parameter/gradient
// vectors with representation optimizations (dense or sparse wire formats)
// and gather-side user-defined functions (average, sum, replace, …).
//
// Creating a Vector collectively creates a dstorm segment sized for the
// chosen representation; Scatter serializes the local value (or a sparse
// delta) and pushes it one-sidedly to the dataflow peers; Gather decodes
// whatever updates have arrived locally and folds them into the local value
// with the UDF. A Vector is owned by one rank's training goroutine; it is
// not safe for concurrent use by multiple goroutines of the same rank.
package vol

import (
	"errors"
	"fmt"

	"malt/internal/compress"
	"malt/internal/dataflow"
	"malt/internal/dstorm"
	"malt/internal/ml/linalg"
	"malt/internal/par"
)

// Type selects the wire representation of scattered updates.
type Type int

const (
	// Dense sends the full float64 vector every scatter.
	Dense Type = iota
	// Sparse sends only non-zero entries as (index, value) pairs. The
	// segment is still sized for the worst case (MaxNNZ).
	Sparse
)

// String returns "dense" or "sparse".
func (t Type) String() string {
	if t == Sparse {
		return "sparse"
	}
	return "dense"
}

// Options tunes a Vector beyond its type and dimension.
type Options struct {
	// QueueLen is the per-sender receive-queue depth (dstorm default if 0).
	QueueLen int
	// ChunkSize forwards to dstorm.SegmentOptions.ChunkSize.
	ChunkSize int
	// MaxNNZ caps the entries of a sparse update; 0 means dim (worst case).
	MaxNNZ int
	// FoldChunk is the coordinate-chunk size for parallel folds (see
	// fold.go); 0 means DefaultFoldChunk. Only consulted when the owning
	// node's parallel-gather pool is enabled.
	FoldChunk int
	// BucketBytes is ignored; kept so benchmark/ compiles until ROADMAP
	// item 12. Every scatter is one whole update.
	BucketBytes int
	// Compress selects gradient compression with per-destination
	// error-feedback residuals (see compress.go and internal/compress).
	// Scatters ship codec frames instead of raw floats — per destination,
	// because each link's residual differs — and receivers decode before
	// the fold. Rejected for Sparse vectors. The zero value disables
	// compression.
	Compress compress.Options
	// SkipCreationBarrier forwards to
	// dstorm.SegmentOptions.SkipCreationBarrier: register without the
	// collective creation barrier (elastic-membership rejoin only).
	SkipCreationBarrier bool
}

// GatherStats summarizes one gather call.
type GatherStats struct {
	// Updates is the number of peer updates folded.
	Updates int
	// MinIter and MaxIter are the smallest and largest iteration stamps
	// among the folded updates (both 0 when Updates is 0).
	MinIter, MaxIter uint64
	// Torn counts updates observed mid-write (weak gathers only).
	Torn int
}

// Update is one decoded peer update handed to a UDF. Data aliases gather
// buffers valid only for the duration of the UDF call.
type Update struct {
	// From is the sender's rank.
	From int
	// Iter is the sender's iteration stamp.
	Iter uint64
	// Data is the decoded (densified) payload.
	Data []float64
	// Sparse is the raw sparse payload for Sparse-typed vectors (nil for
	// Dense). UDFs that must distinguish "sent as zero" from "not sent" —
	// coordinate-wise Hogwild replacement, for example — read it instead
	// of Data.
	Sparse *linalg.SparseVector
}

// Fold is the input to a gather UDF: the folding rank's identity and local
// value plus the incoming updates, ordered by sender rank then sequence.
type Fold struct {
	// Self is the rank performing the gather.
	Self int
	// Local is the rank's current value, mutated in place by the UDF.
	Local []float64
	// Updates are the incoming peer updates.
	Updates []Update
}

// UDF folds incoming peer updates into the local vector. Implementations
// must not retain f.Updates' Data slices — they alias gather buffers.
//
// The built-in UDFs (Average, AverageIncoming, Sum, ReplaceCoords, Replace)
// live in fold.go alongside their chunk forms, which parallel gathers use
// to fold coordinate ranges concurrently with bitwise-identical results.
type UDF func(f Fold)

// GatherPerf counts the parallel gather engine's work since the vector was
// created. The counters are owned by the vector's goroutine (like the
// vector itself); read them between gathers.
type GatherPerf struct {
	// DecodeTasks is the number of update decodes fanned out to the node's
	// parallel-gather pool (serial decodes are not counted).
	DecodeTasks uint64
	// ChunksFolded is the number of chunk-form UDF invocations; a serial
	// fold through a chunk form counts one whole-vector chunk.
	ChunksFolded uint64
	// ScratchHits is the number of updates decoded without allocating: a
	// dense payload read in place, or a reused decode scratch buffer. The
	// steady-state value equals the number of updates decoded.
	ScratchHits uint64
}

// updScratch is one update slot's reusable decode storage.
type updScratch struct {
	view  []float64 // this gather's dense payload read in place, or nil
	dense []float64 // decode storage, allocated when a payload has no view
	sv    linalg.SparseVector
}

// decoded returns the slot's decoded update.
func (s *updScratch) decoded() []float64 {
	if s.view != nil {
		return s.view
	}
	return s.dense
}

// Vector is a shared model-parameter or gradient vector.
type Vector struct {
	name      string
	typ       Type
	dim       int
	rank      int
	seg       *dstorm.Segment
	data      []float64
	foldChunk int

	frame     []byte                           // header headroom + data: the wire image (codec.go), or nil
	encBuf    []byte                           // encode buffer of vectors without a wire image
	updateBuf []Update                         // per-gather decoded views
	accept    func(from int, iter uint64) bool // transient GatherIf filter

	acceptBuf []dstorm.Update // per-gather accept-filtered raw updates
	scratch   []updScratch    // per-slot decode buffers, reused across gathers
	errBuf    []error         // per-slot decode outcomes
	perf      GatherPerf

	// Compression state (nil unless Options.Compress names a codec; see
	// compress.go).
	comp *compState
}

// Create collectively creates a Vector named name over the node's cluster.
// Like dstorm segment creation, every rank in the graph must call Create
// with identical parameters; the call blocks until all have.
func Create(node *dstorm.Node, name string, typ Type, dim int, graph *dataflow.Graph, opts Options) (*Vector, error) {
	if dim <= 0 {
		return nil, fmt.Errorf("vol: dimension must be positive, got %d", dim)
	}
	maxNNZ := opts.MaxNNZ
	if maxNNZ <= 0 || maxNNZ > dim {
		maxNNZ = dim
	}
	var objSize int
	switch typ {
	case Dense:
		objSize = 8 * dim
	case Sparse:
		objSize = 4 + 12*maxNNZ // count + (int32 idx, float64 val) pairs
	default:
		return nil, fmt.Errorf("vol: unknown vector type %d", typ)
	}
	var comp *compState
	if opts.Compress.Enabled() {
		if typ != Dense {
			return nil, errors.New("vol: Compress requires a Dense vector (sparse scatters are already deltas)")
		}
		st, err := compress.NewState(opts.Compress, dim)
		if err != nil {
			return nil, err
		}
		comp = &compState{st: st}
		if opts.Compress.Adapt {
			ctl, err := compress.NewController(opts.Compress, node.Cluster().Fabric().Stats(), node.Rank())
			if err != nil {
				return nil, err
			}
			comp.ctl = ctl
		}
		// Ring slots hold frames, not raw floats; size for the codec's
		// worst case (a frame can exceed 8·dim at ratio 1).
		objSize = st.MaxFrameBytes(dim)
	}
	seg, err := node.CreateSegment("vol/"+name, dstorm.SegmentOptions{
		ObjectSize:          objSize,
		QueueLen:            opts.QueueLen,
		Graph:               graph,
		ChunkSize:           opts.ChunkSize,
		SkipCreationBarrier: opts.SkipCreationBarrier,
	})
	if err != nil {
		return nil, err
	}
	v := &Vector{
		name:      name,
		typ:       typ,
		dim:       dim,
		rank:      node.Rank(),
		seg:       seg,
		foldChunk: opts.FoldChunk,
		comp:      comp,
	}
	if typ == Dense && comp == nil && nativeLE {
		v.data, v.frame = newWireImage(dim)
	} else {
		v.data = make([]float64, dim)
		v.encBuf = make([]byte, objSize)
	}
	return v, nil
}

// Name returns the vector's name.
func (v *Vector) Name() string { return v.name }

// Type returns the wire representation.
func (v *Vector) Type() Type { return v.typ }

// Dim returns the vector length.
func (v *Vector) Dim() int { return v.dim }

// Data returns the local value. The slice is the vector's backing store:
// the training loop reads and writes it directly (this is the "shared
// memory" programming model — no copies between the model and the
// communication layer).
func (v *Vector) Data() []float64 { return v.data }

// AsMatrix views the local value as a rows×cols matrix sharing storage.
// rows*cols must equal Dim. Neural-network layers and MF factor matrices
// use this to train directly inside the scatter buffer.
func (v *Vector) AsMatrix(rows, cols int) *linalg.Matrix {
	return linalg.WrapMatrix(rows, cols, v.data)
}

// Segment exposes the underlying dstorm segment for advanced control
// (staleness peeks, peer removal on failure).
func (v *Vector) Segment() *dstorm.Segment { return v.seg }

// SetIteration stamps subsequent scatters with the given iteration count.
func (v *Vector) SetIteration(iter uint64) { v.seg.SetIteration(iter) }

// Scatter serializes the local value and pushes it to all dataflow peers,
// returning the peers whose writes failed. A dense vector that is its own
// wire image (codec.go) is handed to the transport as it is; the local
// value may be overwritten as soon as Scatter returns.
func (v *Vector) Scatter(iter uint64) ([]int, error) {
	if v.comp != nil {
		return v.scatterCompressed(nil, iter)
	}
	if v.frame != nil {
		return v.seg.ScatterFramed(v.frame, iter)
	}
	payload, err := v.encode(v.data)
	if err != nil {
		return nil, err
	}
	return v.seg.Scatter(payload, iter)
}

// ScatterTo pushes the local value to a subset of the dataflow peers,
// giving per-call dataflow control (paper Table 1: scatter takes an
// optional dataflow argument).
func (v *Vector) ScatterTo(peers []int, iter uint64) ([]int, error) {
	if v.comp != nil {
		return v.scatterCompressed(peers, iter)
	}
	if v.frame != nil {
		return v.seg.ScatterTo(peers, v.frame[dstorm.HeaderSize:], iter)
	}
	payload, err := v.encode(v.data)
	if err != nil {
		return nil, err
	}
	return v.seg.ScatterTo(peers, payload, iter)
}

// ScatterSparse pushes an explicit sparse update (for example, only the
// coordinates touched by the last mini-batch) instead of the full local
// value. The vector must have been created with the Sparse type.
func (v *Vector) ScatterSparse(update *linalg.SparseVector, iter uint64) ([]int, error) {
	if v.typ != Sparse {
		return nil, errors.New("vol: ScatterSparse requires a Sparse vector")
	}
	payload, err := encodeSparse(v.encBuf, update)
	if err != nil {
		return nil, err
	}
	return v.seg.Scatter(payload, iter)
}

// Buckets returns 1: every scatter is one whole update. Kept so
// benchmark/ compiles until ROADMAP item 12.
func (v *Vector) Buckets() int { return 1 }

// Gather folds all newly arrived peer updates into the local value with the
// given UDF (atomic snapshots; never torn).
func (v *Vector) Gather(udf UDF) (GatherStats, error) {
	return v.gather(udf, dstorm.GatherAllNew, false)
}

// GatherIf folds only the updates for which accept returns true; rejected
// updates are consumed and dropped. Staleness policies (the paper's ASP
// configuration skips merging updates from stragglers) pass an iteration
// filter here. GatherStats.Updates counts only accepted updates.
func (v *Vector) GatherIf(udf UDF, accept func(from int, iter uint64) bool) (GatherStats, error) {
	v.accept = accept
	defer func() { v.accept = nil }()
	return v.gather(udf, dstorm.GatherAllNew, false)
}

// GatherLatest folds only the freshest update per peer.
func (v *Vector) GatherLatest(udf UDF) (GatherStats, error) {
	return v.gather(udf, dstorm.GatherLatest, false)
}

// GatherWeak folds updates without torn-read protection; GatherStats.Torn
// counts how many folded payloads were observed mid-write. Exists to
// quantify the consistency trade-off of §3.2.
func (v *Vector) GatherWeak(udf UDF) (GatherStats, error) {
	return v.gather(udf, dstorm.GatherAllNew, true)
}

// gather is the receive half of the parallel gather engine. It runs in
// three stages: (1) accept-filter the raw updates serially (the GatherIf
// callback is caller-owned state) and assign each survivor a reusable
// decode-scratch slot, viewing an uncompressed dense payload in place and
// allocating decode storage only for payloads without a view; (2) decode —
// fanned across the node's gather pool when one is enabled, serial
// otherwise; (3) assemble the decoded views in
// arrival order and fold them, chunked across the coordinate axis when the
// UDF has a registered chunk form. Stage ordering keeps the observable
// behaviour (update order, error choice, stats) identical to the serial
// path at any worker count.
func (v *Vector) gather(udf UDF, mode dstorm.GatherMode, weak bool) (GatherStats, error) {
	var (
		ups []dstorm.Update
		err error
	)
	if weak {
		ups, err = v.seg.GatherWeak(mode)
	} else {
		ups, err = v.seg.Gather(mode)
	}
	if err != nil {
		return GatherStats{}, err
	}
	stats := GatherStats{}
	v.updateBuf = v.updateBuf[:0]

	// Stage 1: accept filter + scratch slot assignment.
	acc := v.acceptBuf[:0]
	for _, u := range ups {
		if v.accept != nil && !v.accept(u.From, u.Iter) {
			continue
		}
		acc = append(acc, u)
	}
	v.acceptBuf = acc
	for len(v.scratch) < len(acc) {
		v.scratch = append(v.scratch, updScratch{})
	}
	for len(v.errBuf) < len(acc) {
		v.errBuf = append(v.errBuf, nil)
	}
	inPlace := v.typ == Dense && v.comp == nil
	for i, u := range acc {
		s := &v.scratch[i]
		s.view = nil
		if inPlace {
			s.view = denseView(u.Data, v.dim)
		}
		if s.view != nil || len(s.dense) == v.dim {
			v.perf.ScratchHits++
		} else {
			s.dense = make([]float64, v.dim)
		}
	}

	// Stage 2: decode. Slots are disjoint, so decodes are independent.
	pool := v.seg.Node().GatherPool()
	if pool != nil && len(acc) > 1 {
		g := pool.NewGroup()
		for i := range acc {
			i := i
			g.Go(func() { v.errBuf[i] = v.decodeInto(&v.scratch[i], acc[i].Data) })
			v.perf.DecodeTasks++
		}
		g.Wait()
	} else {
		for i := range acc {
			v.errBuf[i] = v.decodeInto(&v.scratch[i], acc[i].Data)
		}
	}

	// Stage 3: assemble in arrival order, then fold.
	for i, u := range acc {
		if derr := v.errBuf[i]; derr != nil {
			if weak && u.Torn {
				stats.Torn++
				continue // torn payloads may be undecodable; drop
			}
			return stats, derr
		}
		v.noteUpdate(&stats, u)
		upd := Update{From: u.From, Iter: u.Iter, Data: v.scratch[i].decoded()}
		if v.typ == Sparse {
			upd.Sparse = &v.scratch[i].sv
		}
		v.updateBuf = append(v.updateBuf, upd)
	}
	if udf != nil {
		v.fold(udf, pool)
	}
	if weak {
		for _, u := range ups {
			if u.Torn {
				stats.Torn++
			}
		}
	}
	return stats, nil
}

// decodeInto decodes one raw payload into an update slot's scratch (a
// no-op when stage 1 found a view). Sparse updates are densified so every
// UDF sees a uniform dense view.
func (v *Vector) decodeInto(s *updScratch, payload []byte) error {
	if s.view != nil {
		return nil
	}
	if v.comp != nil {
		return compress.Decode(s.dense, 0, payload)
	}
	switch v.typ {
	case Sparse:
		if err := decodeSparseInto(&s.sv, payload); err != nil {
			return err
		}
		linalg.Zero(s.dense)
		s.sv.AxpyDense(1, s.dense)
		return nil
	default:
		return decodeDenseInto(s.dense, payload)
	}
}

// fold applies the UDF, chunked across the coordinate axis when a chunk
// form is registered and a pool is available. Chunk boundaries never split
// a coordinate, so per-coordinate fold order — and therefore the float
// result — is bitwise identical to the serial fold.
func (v *Vector) fold(udf UDF, pool *par.Pool) {
	chunkFn := chunkFormOf(udf)
	if chunkFn == nil {
		udf(Fold{Self: v.rank, Local: v.data, Updates: v.updateBuf})
		return
	}
	cs := v.foldChunk
	if cs <= 0 {
		cs = DefaultFoldChunk
	}
	if pool == nil || v.dim <= cs {
		chunkFn(Chunk{Self: v.rank, Lo: 0, Hi: v.dim, Local: v.data, Updates: v.updateBuf})
		v.perf.ChunksFolded++
		return
	}
	g := pool.NewGroup()
	for lo := 0; lo < v.dim; lo += cs {
		hi := lo + cs
		if hi > v.dim {
			hi = v.dim
		}
		c := Chunk{Self: v.rank, Lo: lo, Hi: hi, Local: v.data, Updates: v.updateBuf}
		g.Go(func() { chunkFn(c) })
		v.perf.ChunksFolded++
	}
	g.Wait()
}

// GatherPerf returns the engine's cumulative work counters.
func (v *Vector) GatherPerf() GatherPerf { return v.perf }

func (v *Vector) noteUpdate(stats *GatherStats, u dstorm.Update) {
	if stats.Updates == 0 || u.Iter < stats.MinIter {
		stats.MinIter = u.Iter
	}
	if u.Iter > stats.MaxIter {
		stats.MaxIter = u.Iter
	}
	stats.Updates++
}

// PeerIters reports the latest iteration stamp seen from each inbound peer
// without consuming updates (staleness policies check it on each Arrivals
// signal).
func (v *Vector) PeerIters() map[int]uint64 { return v.seg.PeerIters() }

// Arrivals signals after a peer update lands or a peer is removed (see
// dstorm.Segment.Arrivals). Its one waiter is the rank's training
// goroutine, which re-checks PeerIters after each signal.
func (v *Vector) Arrivals() <-chan struct{} { return v.seg.Arrivals() }

// Barrier blocks until all live ranks reach the vector's barrier — the
// paper's g.barrier() for bulk-synchronous training. The owning node's send
// pipeline is drained first (see dstorm.Segment.Barrier).
func (v *Vector) Barrier() error { return v.seg.Barrier() }

// Drain blocks until every scatter accepted by the owning node's coalescing
// pipeline has been delivered or exhausted its retries. A no-op when the
// pipeline is disabled. SSP calls this before staleness stalls.
func (v *Vector) Drain() error { return v.seg.Node().Drain() }

// Flush posts the pipeline's partial batches without waiting for delivery.
func (v *Vector) Flush() { v.seg.Node().Flush() }

// RemovePeer drops a failed rank from the vector's send/receive lists. On a
// compressed vector the peer's error-feedback residual is evicted too: the
// deferred mass was owed to an incarnation that no longer exists.
func (v *Vector) RemovePeer(rank int) {
	v.seg.RemovePeer(rank)
	v.dropCompressPeer(rank)
}

// RestorePeer re-admits a rejoined rank to the vector's send/receive lists
// (at its original dataflow position, with a fresh receive queue). The
// inverse of RemovePeer; idempotent. Compression residuals for the rank are
// evicted (again — RemovePeer already did) so the rejoined incarnation
// starts from a clean slate: it received a state snapshot, not our backlog,
// and replaying pre-death residual mass would poison it.
func (v *Vector) RestorePeer(rank int) {
	v.seg.RestorePeer(rank)
	v.dropCompressPeer(rank)
}

// Close releases the underlying segment.
func (v *Vector) Close() error { return v.seg.Close() }

// SegStats returns the receive-side counters of the underlying segment:
// how many updates gathers consumed and how many were lost to ring
// overwrites before consumption.
func (v *Vector) SegStats() dstorm.Stats { return v.seg.Stats() }
