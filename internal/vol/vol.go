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
	// BucketBytes, when positive, splits every scatter of a Dense vector
	// into byte-capped coordinate-range fragments (gradient bucketing, see
	// bucket.go): fragment i is on the wire while the trainer produces
	// fragment i+1, and receivers reassemble fragments into whole logical
	// updates before folding, so results are bitwise identical to the
	// unbucketed path. The receive-ring depth (QueueLen) is per logical
	// update — it is scaled by the fragment count internally. Rejected for
	// Sparse vectors (sparse scatters are already deltas).
	BucketBytes int
	// Compress selects gradient compression with per-destination
	// error-feedback residuals (see compress.go and internal/compress).
	// Scatters ship codec frames instead of raw floats — per destination,
	// because each link's residual differs — and receivers decode before
	// reassembly/fold. Composes with BucketBytes (fragments carry frame
	// slices of one globally planned update, so folds stay bitwise
	// identical to unbucketed at any bucket size). Rejected for Sparse
	// vectors. The zero value disables compression.
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
	// ScratchHits is the number of decode scratch buffers reused without
	// allocation — the steady-state value equals the number of updates
	// decoded.
	ScratchHits uint64
}

// updScratch is one update slot's reusable decode storage.
type updScratch struct {
	dense []float64
	sv    linalg.SparseVector
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

	encBuf    []byte
	updateBuf []Update                         // per-gather decoded views
	accept    func(from int, iter uint64) bool // transient GatherIf filter

	acceptBuf []dstorm.Update // per-gather accept-filtered raw updates
	scratch   []updScratch    // per-slot decode buffers, reused across gathers
	errBuf    []error         // per-slot decode outcomes
	foldBuf   []float64       // dim-length fold accumulator, split per chunk
	perf      GatherPerf

	// Bucketing state (nil unless Options.BucketBytes > 0; see bucket.go).
	bucket    *bucketState
	scatterID uint64       // logical scatter counter stamped into fragments
	fragTasks []fragTask   // per-gather planned fragment decodes
	readyAsm  []readyUpd   // per-gather completed assemblies, in fold order
	doneAsm   []*bucketAsm // assemblies to recycle after the fold

	// Compression state (nil unless Options.Compress names a codec; see
	// compress.go).
	comp *compState
}

// readyUpd is one completed logical update awaiting the fold.
type readyUpd struct {
	from int
	a    *bucketAsm
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
	var bs *bucketState
	queueLen := opts.QueueLen
	if opts.BucketBytes > 0 {
		if typ != Dense {
			return nil, errors.New("vol: BucketBytes requires a Dense vector (sparse scatters are already deltas)")
		}
		bs = newBucketState(dim, opts.BucketBytes)
		objSize = bucketHeaderSize + 8*bs.coords
		// The dstorm ring is per fragment; multiply the caller's (logical)
		// depth so the ring still holds the same number of whole updates.
		if queueLen == 0 {
			queueLen = dstorm.DefaultQueueLen
		}
		queueLen *= bs.buckets
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
		if bs != nil {
			bs.compressed = true
			objSize = bucketHeaderSize + st.MaxFrameBytes(bs.coords)
		} else {
			objSize = st.MaxFrameBytes(dim)
		}
	}
	seg, err := node.CreateSegment("vol/"+name, dstorm.SegmentOptions{
		ObjectSize:          objSize,
		QueueLen:            queueLen,
		Graph:               graph,
		ChunkSize:           opts.ChunkSize,
		SkipCreationBarrier: opts.SkipCreationBarrier,
	})
	if err != nil {
		return nil, err
	}
	return &Vector{
		name:      name,
		typ:       typ,
		dim:       dim,
		rank:      node.Rank(),
		seg:       seg,
		data:      make([]float64, dim),
		foldChunk: opts.FoldChunk,
		encBuf:    make([]byte, objSize),
		bucket:    bs,
		comp:      comp,
	}, nil
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
// returning the peers whose writes failed. On a bucketed vector the value
// goes out as Buckets() fragments back to back; with the send pipeline
// enabled the fragments drain in the background while the trainer moves on.
func (v *Vector) Scatter(iter uint64) ([]int, error) {
	if v.comp != nil {
		return v.scatterCompressed(nil, iter)
	}
	if v.bucket != nil {
		return v.scatterBuckets(nil, iter)
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
	if v.bucket != nil {
		return v.scatterBuckets(peers, iter)
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

// Bucketed reports whether scatters are split into byte-capped fragments.
func (v *Vector) Bucketed() bool { return v.bucket != nil }

// Buckets returns the number of fragments per logical update (1 when the
// vector is not bucketed).
func (v *Vector) Buckets() int {
	if v.bucket == nil {
		return 1
	}
	return v.bucket.buckets
}

// BucketRange returns the coordinate range [lo, hi) of bucket b.
func (v *Vector) BucketRange(b int) (lo, hi int) {
	if v.bucket == nil {
		return 0, v.dim
	}
	return v.bucket.bucketRange(v.dim, b)
}

// ScatterBucket encodes and pushes bucket b of the current local value to
// the given peers (nil = the full send list). Buckets of one logical update
// must go out in order, 0 first: bucket 0 stamps a fresh scatter ID that
// the later buckets share, and receivers rely on per-sender FIFO delivery
// for reassembly. Callers composing their own overlap loop (compute bucket
// b+1 while bucket b is in flight) use this; everyone else calls Scatter or
// ScatterBucketed.
func (v *Vector) ScatterBucket(b int, peers []int, iter uint64) ([]int, error) {
	if v.bucket == nil {
		return nil, errors.New("vol: ScatterBucket requires a bucketed vector (Options.BucketBytes)")
	}
	if v.comp != nil {
		return nil, errors.New("vol: ScatterBucket is unavailable on a compressed vector (error-feedback planning is whole-update); use Scatter or ScatterBucketed")
	}
	if b < 0 || b >= v.bucket.buckets {
		return nil, fmt.Errorf("vol: bucket %d out of range [0,%d)", b, v.bucket.buckets)
	}
	if b == 0 {
		v.scatterID++
	}
	lo, hi := v.bucket.bucketRange(v.dim, b)
	payload := encodeFragment(v.encBuf, v.scatterID, lo, v.data[lo:hi], v.bucket.buckets)
	v.bucket.perf.FragmentsSent++
	if peers == nil {
		return v.seg.Scatter(payload, iter)
	}
	//maltlint:allow bufretain -- exclusive branch with the Scatter above (the return separates them), and Segment encodes payload into its own buffer synchronously before enqueue
	return v.seg.ScatterTo(peers, payload, iter)
}

// ScatterBucketed interleaves gradient production with communication: for
// each bucket it first invokes compute over that bucket's coordinate range
// (the trainer fills v.Data()[lo:hi]) and then pushes the fragment, so
// bucket b is on the wire — drained by the send pipeline's workers — while
// compute produces bucket b+1. The classic DDP overlap. On an unbucketed
// vector it degenerates to compute(0, Dim) followed by a whole Scatter.
func (v *Vector) ScatterBucketed(iter uint64, compute func(lo, hi int)) ([]int, error) {
	if v.bucket == nil || v.comp != nil {
		// A compressed update is planned whole (the residual-corrected
		// top-k selection needs every coordinate), so per-bucket
		// compute/send interleaving is impossible: run compute to
		// completion, then scatter — still fragmented on the wire when
		// bucketed, so the send pipeline drains frames in the background.
		if compute != nil {
			if v.bucket == nil {
				compute(0, v.dim)
			} else {
				for b := 0; b < v.bucket.buckets; b++ {
					lo, hi := v.bucket.bucketRange(v.dim, b)
					compute(lo, hi)
				}
			}
		}
		return v.Scatter(iter)
	}
	var failed []int
	for b := 0; b < v.bucket.buckets; b++ {
		lo, hi := v.bucket.bucketRange(v.dim, b)
		if compute != nil {
			compute(lo, hi)
		}
		f, err := v.ScatterBucket(b, nil, iter)
		if err != nil {
			return failed, err
		}
		failed = mergeFailed(failed, f)
	}
	return failed, nil
}

// scatterBuckets pushes the whole local value as fragments (Scatter and
// ScatterTo on a bucketed vector).
func (v *Vector) scatterBuckets(peers []int, iter uint64) ([]int, error) {
	var failed []int
	for b := 0; b < v.bucket.buckets; b++ {
		f, err := v.ScatterBucket(b, peers, iter)
		if err != nil {
			return failed, err
		}
		failed = mergeFailed(failed, f)
	}
	return failed, nil
}

// mergeFailed unions per-fragment failed-peer lists without duplicates.
func mergeFailed(acc, more []int) []int {
	for _, p := range more {
		dup := false
		for _, q := range acc {
			if q == p {
				dup = true
				break
			}
		}
		if !dup {
			acc = append(acc, p)
		}
	}
	return acc
}

// BucketPerf returns the bucketing engine's cumulative counters (zero value
// when the vector is not bucketed).
func (v *Vector) BucketPerf() BucketPerf {
	if v.bucket == nil {
		return BucketPerf{}
	}
	return v.bucket.perf
}

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
// decode-scratch slot; (2) decode — fanned across the node's gather pool
// when one is enabled, serial otherwise; (3) assemble the decoded views in
// arrival order and fold them, chunked across the coordinate axis when the
// UDF has a registered chunk form. Stage ordering keeps the observable
// behaviour (update order, error choice, stats) identical to the serial
// path at any worker count.
func (v *Vector) gather(udf UDF, mode dstorm.GatherMode, weak bool) (GatherStats, error) {
	if v.bucket != nil {
		return v.gatherBucketed(udf, mode, weak)
	}
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
	for i := range acc {
		if len(v.scratch[i].dense) == v.dim {
			v.perf.ScratchHits++
		} else {
			v.scratch[i].dense = make([]float64, v.dim)
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
		upd := Update{From: u.From, Iter: u.Iter, Data: v.scratch[i].dense}
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

// gatherBucketed is the receive half for bucketed vectors: fragments are
// routed to per-sender assemblies, decoded (fanned across the gather pool —
// fragment ranges are disjoint, so decodes into one assembly are
// independent), and only *complete* logical updates are folded, in the same
// (sender rank, scatter) order the serial path would use — so the fold
// input multiset and order, and therefore the float result bit for bit,
// match the unbucketed path. Incomplete assemblies persist across gathers
// until their fragments arrive or a newer scatter evicts them; they are
// never folded partially.
func (v *Vector) gatherBucketed(udf UDF, mode dstorm.GatherMode, weak bool) (GatherStats, error) {
	// Always drain everything at the dstorm layer: one logical update spans
	// many ring slots, so a dstorm-level GatherLatest would keep one
	// *fragment* per sender, not one update. Latest semantics are applied
	// after reassembly instead.
	var (
		ups []dstorm.Update
		err error
	)
	if weak {
		ups, err = v.seg.GatherWeak(dstorm.GatherAllNew)
	} else {
		ups, err = v.seg.Gather(dstorm.GatherAllNew)
	}
	if err != nil {
		return GatherStats{}, err
	}
	stats := GatherStats{}
	v.updateBuf = v.updateBuf[:0]
	v.fragTasks = v.fragTasks[:0]
	v.readyAsm = v.readyAsm[:0]

	// Stage 1 (serial): route fragments to assemblies in arrival order
	// (sender rank asc, then sequence asc — the dstorm drain order). The
	// GatherIf filter runs per fragment; all fragments of one update carry
	// the same sender and iteration stamp, so the accept decision is
	// consistent across an update. A completion is recorded the moment a
	// sender's last fragment lands, which keeps completions grouped by
	// sender and ascending in scatter ID — the serial fold order.
	for _, u := range ups {
		if v.accept != nil && !v.accept(u.From, u.Iter) {
			continue
		}
		h, herr := v.bucket.decodeFragHeader(v.dim, u.Data)
		if herr != nil {
			if weak && u.Torn {
				continue // torn fragments may be undecodable; counted below
			}
			return stats, herr
		}
		if t := v.bucket.planFragment(v.dim, u.From, u.Iter, h, u.Data); t != nil {
			if v.comp != nil {
				// Compressed fragments decode here in stage 1, not on the
				// pool: the frame decoder can fail (torn or corrupt
				// frames) and only this serial stage has error handling.
				dst := t.asm.data[t.h.lo : t.h.lo+t.h.count]
				if derr := compress.Decode(dst, t.h.lo, t.payload[bucketHeaderSize:]); derr != nil {
					// Roll the deposit back so a retried fragment can
					// still land in this assembly.
					t.asm.seen[t.h.lo/v.bucket.coords] = false
					t.asm.got--
					if weak && u.Torn {
						continue
					}
					return stats, derr
				}
			} else {
				v.fragTasks = append(v.fragTasks, *t)
			}
			if a := v.bucket.completeAsm(u.From); a != nil {
				v.readyAsm = append(v.readyAsm, readyUpd{from: u.From, a: a})
			}
		}
	}

	ready := v.readyAsm
	if mode == dstorm.GatherLatest {
		// Freshest complete update per sender. readyAsm is sender-grouped
		// with ascending scatter IDs, so the last entry of each group wins;
		// superseded assemblies skip the fold and are recycled below.
		kept := ready[:0]
		for i, r := range ready {
			if i+1 < len(ready) && ready[i+1].from == r.from {
				v.doneAsm = append(v.doneAsm, r.a)
				continue
			}
			kept = append(kept, r)
		}
		ready = kept
	}

	// Stage 2: decode fragments into their assemblies.
	pool := v.seg.Node().GatherPool()
	if pool != nil && len(v.fragTasks) > 1 {
		g := pool.NewGroup()
		for i := range v.fragTasks {
			t := &v.fragTasks[i]
			g.Go(func() { decodeFragInto(t.asm.data, t.h, t.payload) })
			v.perf.DecodeTasks++
		}
		g.Wait()
	} else {
		for i := range v.fragTasks {
			t := &v.fragTasks[i]
			decodeFragInto(t.asm.data, t.h, t.payload)
		}
	}

	// Stage 3: fold the complete updates.
	for _, r := range ready {
		v.noteUpdate(&stats, dstorm.Update{From: r.from, Iter: r.a.iter})
		v.updateBuf = append(v.updateBuf, Update{From: r.from, Iter: r.a.iter, Data: r.a.data})
		v.doneAsm = append(v.doneAsm, r.a)
	}
	if udf != nil {
		v.fold(udf, pool)
	}
	for _, a := range v.doneAsm {
		v.bucket.releaseAsm(a)
	}
	v.doneAsm = v.doneAsm[:0]
	for _, a := range v.bucket.retired {
		v.bucket.releaseAsm(a)
	}
	v.bucket.retired = v.bucket.retired[:0]
	if weak {
		for _, u := range ups {
			if u.Torn {
				stats.Torn++
			}
		}
	}
	return stats, nil
}

// decodeInto decodes one raw payload into an update slot's scratch. Sparse
// updates are densified so every UDF sees a uniform dense view.
func (v *Vector) decodeInto(s *updScratch, payload []byte) error {
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
	if v.foldBuf == nil {
		v.foldBuf = make([]float64, v.dim)
	}
	cs := v.foldChunk
	if cs <= 0 {
		cs = DefaultFoldChunk
	}
	if pool == nil || v.dim <= cs {
		chunkFn(Chunk{Self: v.rank, Lo: 0, Hi: v.dim, Local: v.data, Updates: v.updateBuf, Acc: v.foldBuf})
		v.perf.ChunksFolded++
		return
	}
	g := pool.NewGroup()
	for lo := 0; lo < v.dim; lo += cs {
		hi := lo + cs
		if hi > v.dim {
			hi = v.dim
		}
		c := Chunk{Self: v.rank, Lo: lo, Hi: hi, Local: v.data, Updates: v.updateBuf, Acc: v.foldBuf[lo:hi]}
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
// without consuming updates (staleness policies poll this).
func (v *Vector) PeerIters() map[int]uint64 { return v.seg.PeerIters() }

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
