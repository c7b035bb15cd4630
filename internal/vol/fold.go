package vol

import (
	"reflect"
	"sync"

	"malt/internal/ml/linalg"
)

// This file is the fold half of the parallel gather engine. Every built-in
// UDF has two forms: the whole-vector form (the public API since v0 —
// Average, Sum, …) and a chunk form that folds only the coordinate range
// [Lo, Hi). The whole-vector forms are now thin wrappers over their chunk
// forms, so both paths run the same arithmetic.
//
// Parallel folds split the COORDINATE axis, never the update axis: each
// coordinate's additions still happen in exactly the serial order (ascending
// sender rank, with the local value inserted at the folding rank's own
// position). Because float addition is non-associative, that is the only
// split that keeps the parallel result bitwise identical to the serial one
// at any worker count or chunk size.

// DefaultFoldChunk is the coordinate-chunk size used when Options.FoldChunk
// is zero: 4096 float64s = 32 KiB per chunk, small enough to stay inside an
// L1/L2 slice while large enough to amortize task dispatch.
const DefaultFoldChunk = 4096

// Chunk is the input to a chunk-form UDF: one coordinate range of a fold.
type Chunk struct {
	// Self is the rank performing the gather.
	Self int
	// Lo and Hi bound the coordinate range this call owns: the UDF must
	// read and write Local only inside [Lo, Hi).
	Lo, Hi int
	// Local is the rank's FULL current value; the chunk's slice of it is
	// Local[Lo:Hi].
	Local []float64
	// Updates are the full incoming peer updates (same slice for every
	// chunk of one fold); UDFs index their Data with absolute coordinates.
	Updates []Update
}

// ChunkUDF folds the incoming updates into Local restricted to the chunk's
// coordinate range. Implementations must be pure over their range: no
// writes outside Local[Lo:Hi), no mutation of shared state — chunks of one
// fold run concurrently.
type ChunkUDF func(c Chunk)

// chunkForms maps a whole-vector UDF (by code pointer) to its chunk form.
// Reads happen on every gather from every rank's goroutine; writes only
// through RegisterChunkUDF.
var chunkForms struct {
	sync.RWMutex
	m map[uintptr]ChunkUDF
}

// RegisterChunkUDF associates a chunk form with a whole-vector UDF so
// parallel gathers can fold it chunked. Both must compute identical results
// (chunk form over [0, dim) ≡ whole form). Only top-level named functions
// may be registered: distinct closure instances share one code pointer, so
// registering a closure would silently claim all its siblings. Call during
// init — registering while gathers are running is safe but the new form is
// not guaranteed visible to them.
func RegisterChunkUDF(whole UDF, chunk ChunkUDF) {
	chunkForms.Lock()
	defer chunkForms.Unlock()
	if chunkForms.m == nil {
		chunkForms.m = make(map[uintptr]ChunkUDF)
	}
	chunkForms.m[reflect.ValueOf(whole).Pointer()] = chunk
}

// chunkFormOf returns the registered chunk form for udf, or nil.
func chunkFormOf(udf UDF) ChunkUDF {
	if udf == nil {
		return nil
	}
	chunkForms.RLock()
	defer chunkForms.RUnlock()
	return chunkForms.m[reflect.ValueOf(udf).Pointer()]
}

func init() {
	RegisterChunkUDF(Average, AverageChunk)
	RegisterChunkUDF(AverageIncoming, AverageIncomingChunk)
	RegisterChunkUDF(Sum, SumChunk)
	RegisterChunkUDF(ReplaceCoords, ReplaceCoordsChunk)
	RegisterChunkUDF(Replace, ReplaceChunk)
}

// Average replaces local with the mean of {local} ∪ updates — the paper's
// default gradient-averaging gather. The summation folds in ascending rank
// order (treating the local value as rank Self's contribution), so that
// when every rank sees the same multiset of updates — as in synchronous
// all-to-all training — every rank computes the bit-identical result
// regardless of which contribution is its own.
func Average(f Fold) {
	AverageChunk(Chunk{Self: f.Self, Lo: 0, Hi: len(f.Local), Local: f.Local, Updates: f.Updates})
}

// AverageChunk is the chunk form of Average. Each coordinate's sum starts
// at +0 (which is what turns a lone −0 into +0) and gains scale·x from
// every contribution in fold order. The sums are built a block at a time in
// a stack buffer that stays in L1, so each contribution is read once and
// local written once. The block sums with linalg.Axpy, which adds the new
// term to the running sum as (scale·x) + sum: when two NaNs meet, x86
// keeps the first operand's payload, and that order is part of the
// bitwise result.
func AverageChunk(c Chunk) {
	if len(c.Updates) == 0 {
		return
	}
	scale := 1.0 / float64(len(c.Updates)+1)
	local := c.Local[c.Lo:c.Hi]
	// The contributions in fold order, local at Self's position. The array
	// keeps up to 16 of them off the heap.
	var buf [16][]float64
	srcs := buf[:0]
	localAdded := false
	for _, u := range c.Updates {
		if !localAdded && c.Self < u.From {
			srcs = append(srcs, local)
			localAdded = true
		}
		srcs = append(srcs, u.Data[c.Lo:c.Hi])
	}
	if !localAdded {
		srcs = append(srcs, local)
	}
	var block [averageBlock]float64
	for lo := 0; lo < len(local); lo += averageBlock {
		acc := block[:min(averageBlock, len(local)-lo)]
		clear(acc)
		for _, src := range srcs {
			linalg.Axpy(scale, src[lo:lo+len(acc)], acc)
		}
		copy(local[lo:], acc)
	}
}

// averageBlock is AverageChunk's block length: 2 KiB of sums.
const averageBlock = 256

// AverageIncoming replaces local with the mean of the incoming updates
// only, leaving local untouched when nothing arrived. Model-averaging
// configurations ("modelavg") use it: the local parameters are mixed into
// the scatter itself, not the fold.
func AverageIncoming(f Fold) {
	AverageIncomingChunk(Chunk{Self: f.Self, Lo: 0, Hi: len(f.Local), Local: f.Local, Updates: f.Updates})
}

// AverageIncomingChunk is the chunk form of AverageIncoming.
func AverageIncomingChunk(c Chunk) {
	if len(c.Updates) == 0 {
		return
	}
	local := c.Local[c.Lo:c.Hi]
	linalg.Zero(local)
	scale := 1.0 / float64(len(c.Updates))
	for _, u := range c.Updates {
		linalg.Axpy(scale, u.Data[c.Lo:c.Hi], local)
	}
}

// Sum adds every incoming update into local.
func Sum(f Fold) {
	SumChunk(Chunk{Self: f.Self, Lo: 0, Hi: len(f.Local), Local: f.Local, Updates: f.Updates})
}

// SumChunk is the chunk form of Sum.
func SumChunk(c Chunk) {
	local := c.Local[c.Lo:c.Hi]
	for _, u := range c.Updates {
		linalg.Axpy(1, u.Data[c.Lo:c.Hi], local)
	}
}

// ReplaceCoords overwrites, for every incoming sparse update in arrival
// order, exactly the coordinates the sender shipped, leaving all others
// untouched. This is the distributed Hogwild gather for models where each
// update touches a few rows (matrix factorization: the changed rows and
// columns of the factor matrices). Dense updates fall back to whole-vector
// replacement.
func ReplaceCoords(f Fold) {
	ReplaceCoordsChunk(Chunk{Self: f.Self, Lo: 0, Hi: len(f.Local), Local: f.Local, Updates: f.Updates})
}

// ReplaceCoordsChunk is the chunk form of ReplaceCoords. Each chunk scans
// every update's index list and applies only the indices inside its range —
// O(nnz) per chunk, but per-coordinate write order stays the serial arrival
// order.
func ReplaceCoordsChunk(c Chunk) {
	lo, hi := int32(c.Lo), int32(c.Hi)
	for _, u := range c.Updates {
		if u.Sparse == nil {
			copy(c.Local[c.Lo:c.Hi], u.Data[c.Lo:c.Hi])
			continue
		}
		for i, idx := range u.Sparse.Idx {
			if idx >= lo && idx < hi {
				c.Local[idx] = u.Sparse.Val[i]
			}
		}
	}
}

// Replace overwrites local with the freshest incoming update (highest
// iteration stamp, ties broken by arrival order) — the distributed Hogwild
// gather used by the matrix-factorization workload.
func Replace(f Fold) {
	ReplaceChunk(Chunk{Self: f.Self, Lo: 0, Hi: len(f.Local), Local: f.Local, Updates: f.Updates})
}

// ReplaceChunk is the chunk form of Replace. Freshest-update selection is a
// pure function of the update list, so every chunk picks the same winner.
func ReplaceChunk(c Chunk) {
	if len(c.Updates) == 0 {
		return
	}
	best := 0
	for i, u := range c.Updates {
		if u.Iter >= c.Updates[best].Iter {
			best = i
		}
	}
	copy(c.Local[c.Lo:c.Hi], c.Updates[best].Data[c.Lo:c.Hi])
}
