package bench

import (
	"math"
	"strconv"
	"sync"

	"malt/internal/dataflow"
	"malt/internal/dstorm"
	"malt/internal/fabric"
	"malt/internal/vol"
)

// Modeled per-coordinate costs. Like the fabric's 3 µs base latency these
// are model constants, not measurements: 1 ns to decode one coordinate off
// the wire, 1 ns to fold one coordinate of one vector. Only relative
// numbers between configurations sharing the model are meaningful.
const (
	gatherDecNsPerCoord  = 1.0
	gatherFoldNsPerCoord = 1.0
)

// gatherTrial is one measured arm of the gather ablation.
type gatherTrial struct {
	modelNs      float64   // modeled gather+fold ns per gather (deterministic)
	folded       uint64    // updates folded across all rounds
	decodeTasks  uint64    // decodes fanned out to the pool
	chunksFolded uint64    // chunk-form UDF invocations
	data         []float64 // rank 0's final model, for bitwise comparison
}

// gatherModelNs models one gather's critical path from the engine's observed
// counters. Decode: serial decodes run back to back (one wave per update);
// fanned decodes run in ceil(updates/workers) waves. Fold: a serial fold is
// one whole-vector chunk; a chunked fold runs ceil(chunks/workers) waves of
// foldChunk-coordinate chunks, each folding local + updates vectors.
func gatherModelNs(dim, rounds, workers, foldChunk int, t gatherTrial) float64 {
	upd := float64(t.folded) / float64(rounds)
	decWaves := upd
	if t.decodeTasks > 0 && workers > 0 {
		decWaves = math.Ceil(upd / float64(workers))
	}
	decode := decWaves * float64(dim) * gatherDecNsPerCoord
	fold := float64(dim) * (upd + 1) * gatherFoldNsPerCoord
	if chunksPerGather := float64(t.chunksFolded) / float64(rounds); chunksPerGather > 1 && workers > 0 {
		fold = math.Ceil(chunksPerGather/float64(workers)) * float64(foldChunk) * (upd + 1) * gatherFoldNsPerCoord
	}
	return decode + fold
}

// runGatherTrial runs rounds of [every sender scatters once, rank 0 gathers
// Average]. Scatters are synchronous, so both arms fold the identical
// update multiset every round and the folded model must match bitwise.
// workers == 0 runs the serial engine.
func runGatherTrial(senders, dim, rounds, workers, foldChunk int) (gatherTrial, error) {
	var t gatherTrial
	ranks := senders + 1
	f, err := fabric.New(fabric.Config{Ranks: ranks})
	if err != nil {
		return t, err
	}
	defer f.Close()
	c := dstorm.NewCluster(f)
	g, err := dataflow.New(dataflow.MasterSlave, ranks)
	if err != nil {
		return t, err
	}
	vecs := make([]*vol.Vector, ranks)
	errs := make([]error, ranks)
	var wg sync.WaitGroup
	for r := 0; r < ranks; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			vecs[r], errs[r] = vol.Create(c.Node(r), "gather", vol.Dense, dim, g,
				vol.Options{QueueLen: 2, FoldChunk: foldChunk})
		}(r)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return t, err
		}
	}
	defer func() {
		for _, v := range vecs {
			v.Close()
		}
	}()
	if workers > 0 {
		c.Node(0).EnableParallelGather(workers)
		defer c.Node(0).DisableParallelGather()
	}

	for round := 1; round <= rounds; round++ {
		for r := 1; r <= senders; r++ {
			d := vecs[r].Data()
			// Reciprocals give full mantissas, so a single out-of-order
			// addition anywhere shows up in the bitwise comparison.
			for i := range d {
				d[i] = 1 / float64(i+31*r+7*round)
			}
			if _, err := vecs[r].Scatter(uint64(round)); err != nil {
				return t, err
			}
		}
		st, err := vecs[0].Gather(vol.Average)
		if err != nil {
			return t, err
		}
		t.folded += uint64(st.Updates)
	}
	perf := vecs[0].GatherPerf()
	t.decodeTasks = perf.DecodeTasks
	t.chunksFolded = perf.ChunksFolded
	t.modelNs = gatherModelNs(dim, rounds, workers, foldChunk, t)
	t.data = append([]float64(nil), vecs[0].Data()...)
	return t, nil
}

// runGather is the ablation of the parallel gather/fold engine. Eight
// senders scatter dense 64K-dim models into rank 0 over a MasterSlave star;
// rank 0 gathers with Average. The serial arm runs the single-threaded
// engine; the parallel arm fans decodes across the node's gather pool and
// folds the coordinate axis in chunks.
//
// The modeled gather+fold latency is a coordinate-cost model driven by the
// engine's observed GatherPerf counters: if the engine silently stops
// fanning out decodes or folding in chunks, the counters collapse and the
// modeled speedup falls. Chunked folding preserves each coordinate's
// addition order, so the two arms' final models are compared bitwise;
// TestExperimentsQuick asserts zero mismatches, zero lost updates, full
// decode fan-out and the exact chunk count.
func runGather(o Options, r *Report) error {
	senders, dim, rounds := 8, 1<<16, 24*o.Scale
	workers, foldChunk := 4, vol.DefaultFoldChunk
	if o.Quick {
		dim, rounds = 1<<14, 8
	}

	o.logf("gather: serial arm (senders=%d dim=%d rounds=%d)", senders, dim, rounds)
	serial, err := runGatherTrial(senders, dim, rounds, 0, 0)
	if err != nil {
		return err
	}
	o.logf("gather: parallel arm (workers=%d foldChunk=%d)", workers, foldChunk)
	par, err := runGatherTrial(senders, dim, rounds, workers, foldChunk)
	if err != nil {
		return err
	}

	mismatch := 0
	for i := range serial.data {
		if math.Float64bits(serial.data[i]) != math.Float64bits(par.data[i]) {
			mismatch++
		}
	}
	expected := uint64(rounds * senders)

	r.Metric("model_ns_gather_serial", serial.modelNs)
	r.Metric("model_ns_gather_parallel", par.modelNs)
	r.Metric("model_speedup_gather", speedup(serial.modelNs, par.modelNs))
	r.Metric("decode_fanout_frac", float64(par.decodeTasks)/float64(expected))
	r.Metric("chunks_folded_exact", float64(par.chunksFolded))
	r.Metric("failed_fold_mismatch", float64(mismatch))
	r.Metric("lost_updates_gather", float64(expected-serial.folded)+float64(expected-par.folded))
	r.Linef("%d senders, dim %d: modeled %.0f -> %.0f ns/gather (%.2fx)",
		senders, dim, serial.modelNs, par.modelNs, speedup(serial.modelNs, par.modelNs))
	r.Linef("parallel arm: %d decode tasks, %d chunks folded, %d bitwise-mismatched coords",
		par.decodeTasks, par.chunksFolded, mismatch)

	// Worker-count ablation curve at the full dimension: modeled speedup
	// over the serial engine as the pool grows.
	sweep := Series{Label: "modeled gather speedup vs workers (dim " + strconv.Itoa(dim) + ")"}
	for _, w := range []int{1, 2, 4, 8} {
		o.logf("gather: ablation workers=%d", w)
		t, err := runGatherTrial(senders, dim, rounds, w, foldChunk)
		if err != nil {
			return err
		}
		sweep.Points = append(sweep.Points, Point{Iter: float64(w), Value: speedup(serial.modelNs, t.modelNs)})
	}
	r.Series = append(r.Series, sweep)
	return nil
}
