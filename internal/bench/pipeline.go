package bench

import (
	"fmt"
	"sync"
	"time"

	"malt/internal/dataflow"
	"malt/internal/dstorm"
	"malt/internal/fabric"
)

// pipeTrial is one measured configuration of the coalescing ablation.
type pipeTrial struct {
	modelNsOp   float64 // modeled wire ns per delivered update
	delivered   uint64  // updates that reached a peer ring
	expected    uint64  // ranks * ops * fan-out
	writesSaved uint64  // fabric writes eliminated by coalescing
	bytesMerged uint64  // payload bytes that travelled in a merged batch
	exhausted   uint64  // retries that gave up (must be 0: no chaos here)
	failed      uint64  // fabric-level failed writes (must be 0)
}

// runPipeTrial scatters ops updates of size bytes from every rank to every
// peer. batch <= 1 runs the synchronous path; batch > 1 enables the
// pipeline with count-only flushing so every fabric write carries exactly
// batch records (ops must divide evenly).
func runPipeTrial(ranks, ops, size, batch int) (pipeTrial, error) {
	var t pipeTrial
	if batch > 1 && ops%batch != 0 {
		return t, fmt.Errorf("ops %d not divisible by batch %d: partial flushes would break determinism", ops, batch)
	}
	f, err := fabric.New(fabric.Config{
		Ranks:   ranks,
		Delay:   fabric.DelaySpin,
		Latency: 3 * time.Microsecond,
	})
	if err != nil {
		return t, err
	}
	defer f.Close()
	c := dstorm.NewCluster(f)
	g, err := dataflow.New(dataflow.All, ranks)
	if err != nil {
		return t, err
	}
	segs := make([]*dstorm.Segment, ranks)
	errs := make([]error, ranks)
	var wg sync.WaitGroup
	for r := 0; r < ranks; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			segs[r], errs[r] = c.Node(r).CreateSegment("pipe", dstorm.SegmentOptions{
				ObjectSize: size,
				QueueLen:   4,
				Graph:      g,
			})
		}(r)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return t, err
		}
	}
	if batch > 1 {
		for r := 0; r < ranks; r++ {
			c.Node(r).EnablePipeline(dstorm.PipelineConfig{
				MaxBatchCount: batch,
				MaxBatchBytes: 1 << 30,
				MaxDelay:      time.Hour,
			})
		}
		defer func() {
			for r := 0; r < ranks; r++ {
				c.Node(r).DisablePipeline()
			}
		}()
	}

	f.Stats().Reset() // measure only the scatter traffic, not segment setup
	for r := 0; r < ranks; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			payload := make([]byte, size)
			for i := 0; i < ops; i++ {
				//maltlint:allow bufretain -- steady-state benchmark deliberately re-posts one read-only buffer; reuse is the workload under measurement
				if _, err := segs[r].Scatter(payload, uint64(i+1)); err != nil {
					errs[r] = err
					return
				}
			}
			errs[r] = c.Node(r).Drain()
		}(r)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return t, err
		}
	}

	st := f.Stats()
	t.expected = uint64(ranks * ops * (ranks - 1))
	if batch > 1 {
		t.delivered = st.CoalescedRecords()
		for r := 0; r < ranks; r++ {
			ps := c.Node(r).PipelineStats()
			t.writesSaved += ps.WritesSaved
			t.bytesMerged += ps.BytesMerged
		}
	} else {
		t.delivered = st.TotalMessages()
	}
	t.modelNsOp = float64(st.ModeledNetworkTime().Nanoseconds()) / float64(t.expected)
	t.failed = st.FailedWrites()
	for r := 0; r < ranks; r++ {
		t.exhausted += c.Node(r).RetryStats().Exhausted
	}
	return t, nil
}

// runPipeline is the ablation of the per-destination send coalescer. Eight
// ranks scatter model-sized updates all-to-all over a DelaySpin fabric with
// the paper's upper-range InfiniBand base latency (3 µs per write). The
// sync arm pays that latency once per destination per update; the batched
// arm merges MaxBatchCount updates per destination into one fabric write.
// The modeled wire time per update comes from the fabric cost model.
// TestExperimentsQuick asserts the writes-saved fraction (1 - 1/batch with
// count-only flushing) and zero lost, exhausted and failed writes.
func runPipeline(o Options, r *Report) error {
	ranks, ops, batch := 8, 256*o.Scale, 16
	if o.Quick {
		ranks, ops = 4, 64
	}
	sizes := []int{1 << 10, 4 << 10}
	labels := []string{"1KiB", "4KiB"}

	var exhausted, failed uint64
	for i, size := range sizes {
		lbl := labels[i]
		o.logf("pipeline: %s sync vs batched (ranks=%d ops=%d batch=%d)", lbl, ranks, ops, batch)
		base, err := runPipeTrial(ranks, ops, size, 1)
		if err != nil {
			return err
		}
		bat, err := runPipeTrial(ranks, ops, size, batch)
		if err != nil {
			return err
		}
		r.Metric("model_ns_update_sync_"+lbl, base.modelNsOp)
		r.Metric("model_ns_update_batched_"+lbl, bat.modelNsOp)
		r.Metric("model_speedup_"+lbl, speedup(base.modelNsOp, bat.modelNsOp))
		r.Metric("writes_saved_frac_"+lbl, float64(bat.writesSaved)/float64(bat.expected))
		r.Metric("lost_updates_"+lbl, float64(base.expected-base.delivered)+float64(bat.expected-bat.delivered))
		exhausted += base.exhausted + bat.exhausted
		failed += base.failed + bat.failed
		r.Linef("%s: modeled %.0f -> %.0f ns/update (%.2fx), %d/%d writes saved",
			lbl, base.modelNsOp, bat.modelNsOp, speedup(base.modelNsOp, bat.modelNsOp),
			bat.writesSaved, bat.expected)
	}
	r.Metric("exhausted_writes", float64(exhausted))
	r.Metric("failed_writes", float64(failed))

	// Batch-size ablation curve at 1 KiB: modeled cost per update as the
	// coalescer's count threshold grows. batch=1 is the sync path.
	model := Series{Label: "modeled ns/update vs batch (1KiB)"}
	for _, b := range []int{1, 2, 4, 8, 16, 32} {
		if ops%b != 0 {
			continue
		}
		o.logf("pipeline: ablation batch=%d", b)
		t, err := runPipeTrial(ranks, ops, 1<<10, b)
		if err != nil {
			return err
		}
		model.Points = append(model.Points, Point{Iter: float64(b), Value: t.modelNsOp})
	}
	r.Series = append(r.Series, model)
	return nil
}
