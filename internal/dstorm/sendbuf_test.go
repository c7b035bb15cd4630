package dstorm

import (
	"testing"
	"time"

	"malt/internal/fabric"
)

// TestSendScratchSteadyState locks in the send-side buffer pooling: after
// a warm-up phase, the coalescing pipeline must serve its payload copies
// from the pool. A regression (a code path
// allocating fresh copies again) shows up as pool misses growing with the
// workload instead of staying flat.
func TestSendScratchSteadyState(t *testing.T) {
	pcfg := slowFlush()
	pcfg.MaxBatchCount = 8
	c, segs := newPipelineCluster(t, fabric.Config{Ranks: 3},
		SegmentOptions{ObjectSize: 64, QueueLen: 4096}, pcfg)

	const warm, measured = 256, 512
	payload := make([]byte, 64)
	for i := 0; i < warm; i++ {
		//maltlint:allow bufretain -- Scatter copies the payload into a pooled sendBuf before enqueueing (the property this test pins)
		if _, err := segs[0].Scatter(payload, uint64(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Node(0).Drain(); err != nil {
		t.Fatal(err)
	}

	missesBefore, getsBefore := sendBufMisses.Load(), sendBufGets.Load()
	// Drain periodically: a paced producer (a training loop alternating
	// compute and scatter) runs against a recycled working set; an
	// unpaced burst legitimately grows it.
	for i := 0; i < measured; i++ {
		//maltlint:allow bufretain -- Scatter copies the payload into a pooled sendBuf before enqueueing (the property this test pins)
		if _, err := segs[0].Scatter(payload, uint64(warm+i+1)); err != nil {
			t.Fatal(err)
		}
		if i%64 == 63 {
			if err := c.Node(0).Drain(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := c.Node(0).Drain(); err != nil {
		t.Fatal(err)
	}
	gets := sendBufGets.Load() - getsBefore
	misses := sendBufMisses.Load() - missesBefore
	if gets < measured {
		t.Fatalf("pipeline send path acquired %d buffers for %d scatters", gets, measured)
	}
	// A GC between runs may evict pooled buffers; allow a small residue but
	// fail if copies are being allocated per operation again.
	if misses > gets/10 && !raceEnabled {
		t.Fatalf("steady-state pool misses = %d of %d gets; send copies are not being recycled", misses, gets)
	}
}

// TestPipelineTimerReuse pins the deadline-timer free list: buckets created
// after a deadline flush re-arm the expired timer instead of allocating a
// new one.
func TestPipelineTimerReuse(t *testing.T) {
	pcfg := slowFlush()
	pcfg.MaxDelay = 5 * time.Millisecond
	c, segs := newPipelineCluster(t, fabric.Config{Ranks: 2},
		SegmentOptions{ObjectSize: 64, QueueLen: 1024}, pcfg)
	for round := 0; round < 5; round++ {
		if _, err := segs[0].Scatter([]byte("tick"), uint64(round+1)); err != nil {
			t.Fatal(err)
		}
		waitForCond(t, "deadline flush", func() bool {
			return c.Node(0).PipelineStats().FlushDeadline == uint64(round+1)
		})
	}
	p := c.Node(0).pipe
	p.mu.Lock()
	free := len(p.timers)
	p.mu.Unlock()
	if free != 1 {
		t.Fatalf("timer free list holds %d timers after 5 sequential deadline rounds, want 1 (reuse)", free)
	}
}

func waitForCond(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		//maltlint:allow rawsleep -- bounded poll helper in tests; no fabric retry involved
		time.Sleep(time.Millisecond)
	}
}

// BenchmarkScatterSend measures the pipelined scatter enqueue cost with
// allocation reporting — the dstorm face of the zero-alloc send path.
func BenchmarkScatterSend(b *testing.B) {
	pcfg := PipelineConfig{Workers: 2, MaxBatchBytes: 1 << 20, MaxBatchCount: 16, MaxDelay: time.Millisecond}
	segs := benchCluster(b, 2, SegmentOptions{ObjectSize: 1 << 10, QueueLen: 4096})
	node := segs[0].node
	node.EnablePipeline(pcfg)
	defer node.DisablePipeline()
	payload := make([]byte, 1<<10)
	for i := 0; i < 256; i++ { // warm the pools
		//maltlint:allow bufretain -- Scatter copies the payload into a pooled sendBuf before enqueueing (the property this test pins)
		if _, err := segs[0].Scatter(payload, uint64(i+1)); err != nil {
			b.Fatal(err)
		}
	}
	if err := node.Drain(); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(1 << 10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		//maltlint:allow bufretain -- Scatter copies the payload into a pooled sendBuf before enqueueing (the property this test pins)
		if _, err := segs[0].Scatter(payload, uint64(256+i+1)); err != nil {
			b.Fatal(err)
		}
	}
	if err := node.Drain(); err != nil {
		b.Fatal(err)
	}
}
