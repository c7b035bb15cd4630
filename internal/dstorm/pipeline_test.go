package dstorm

import (
	"encoding/binary"
	"sync"
	"testing"
	"time"

	"malt/internal/dataflow"
	"malt/internal/fabric"
)

// newPipelineCluster is newTestCluster with an explicit fabric config (for
// chaos seeding) and the coalescing pipeline enabled on every node.
func newPipelineCluster(t *testing.T, fcfg fabric.Config, opts SegmentOptions, pcfg PipelineConfig) (*Cluster, []*Segment) {
	t.Helper()
	f, err := fabric.New(fcfg)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCluster(f)
	if opts.Graph == nil {
		g, err := dataflow.New(dataflow.All, fcfg.Ranks)
		if err != nil {
			t.Fatal(err)
		}
		opts.Graph = g
	}
	segs := make([]*Segment, fcfg.Ranks)
	errs := make([]error, fcfg.Ranks)
	var wg sync.WaitGroup
	for r := 0; r < fcfg.Ranks; r++ {
		c.Node(r).EnablePipeline(pcfg)
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			segs[r], errs[r] = c.Node(r).CreateSegment("grad", opts)
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d CreateSegment: %v", r, err)
		}
	}
	t.Cleanup(func() {
		for r := 0; r < fcfg.Ranks; r++ {
			c.Node(r).DisablePipeline()
		}
	})
	return c, segs
}

// slowFlush is a pipeline config whose byte/count/deadline triggers are far
// out of reach, so only the trigger under test (or an explicit flush) fires.
func slowFlush() PipelineConfig {
	return PipelineConfig{
		Workers:       2,
		MaxBatchBytes: 1 << 30,
		MaxBatchCount: 1 << 20,
		MaxDelay:      time.Hour,
	}
}

func TestPipelineCountFlush(t *testing.T) {
	pcfg := slowFlush()
	pcfg.MaxBatchCount = 4
	c, segs := newPipelineCluster(t, fabric.Config{Ranks: 2}, SegmentOptions{ObjectSize: 64, QueueLen: 32}, pcfg)
	for i := 0; i < 8; i++ {
		if _, err := segs[0].Scatter([]byte("update"), uint64(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Node(0).Drain(); err != nil {
		t.Fatal(err)
	}
	ps := c.Node(0).PipelineStats()
	if ps.Enqueued != 8 || ps.Batches != 2 || ps.FlushCount != 2 {
		t.Fatalf("want 8 enqueued in 2 count-flushed batches, got %+v", ps)
	}
	if ps.WritesSaved != 6 {
		t.Fatalf("want 6 writes saved, got %d", ps.WritesSaved)
	}
	st := c.Fabric().Stats()
	if st.CoalescedRecords() != 8 || st.CoalescedWrites() != 2 || st.WritesSaved() != 6 {
		t.Fatalf("fabric coalescing counters: recs=%d writes=%d saved=%d",
			st.CoalescedRecords(), st.CoalescedWrites(), st.WritesSaved())
	}
	ups, err := segs[1].Gather(GatherAllNew)
	if err != nil {
		t.Fatal(err)
	}
	if len(ups) != 8 {
		t.Fatalf("receiver got %d updates, want 8", len(ups))
	}
}

func TestPipelineByteFlush(t *testing.T) {
	pcfg := slowFlush()
	pcfg.MaxBatchBytes = 200 // header(20)+64 per record → third record trips it
	c, segs := newPipelineCluster(t, fabric.Config{Ranks: 2}, SegmentOptions{ObjectSize: 64, QueueLen: 32}, pcfg)
	payload := make([]byte, 64)
	for i := 0; i < 3; i++ {
		//maltlint:allow bufretain -- re-posts one read-only buffer to trip the byte-cap flush; Scatter encodes it synchronously
		if _, err := segs[0].Scatter(payload, uint64(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Node(0).Drain(); err != nil {
		t.Fatal(err)
	}
	ps := c.Node(0).PipelineStats()
	if ps.FlushBytes != 1 {
		t.Fatalf("want 1 byte-budget flush, got %+v", ps)
	}
}

func TestPipelineDeadlineFlush(t *testing.T) {
	pcfg := slowFlush()
	pcfg.MaxDelay = 2 * time.Millisecond
	c, segs := newPipelineCluster(t, fabric.Config{Ranks: 2}, SegmentOptions{ObjectSize: 64, QueueLen: 32}, pcfg)
	if _, err := segs[0].Scatter([]byte("late"), 1); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for c.Node(0).PipelineStats().FlushDeadline == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("deadline flush never fired: %+v", c.Node(0).PipelineStats())
		}
		time.Sleep(time.Millisecond) //maltlint:allow rawsleep -- bounded poll for the deadline-timer flush to fire; no fabric retry involved
	}
	if err := c.Node(0).Drain(); err != nil {
		t.Fatal(err)
	}
	if ups, err := segs[1].Gather(GatherAllNew); err != nil || len(ups) != 1 {
		t.Fatalf("gather after deadline flush: %d updates, err=%v", len(ups), err)
	}
}

func TestPipelineExplicitFlushAndDrain(t *testing.T) {
	c, segs := newPipelineCluster(t, fabric.Config{Ranks: 2}, SegmentOptions{ObjectSize: 64, QueueLen: 32}, slowFlush())
	if _, err := segs[0].Scatter([]byte("a"), 1); err != nil {
		t.Fatal(err)
	}
	c.Node(0).Flush()
	if _, err := segs[0].Scatter([]byte("b"), 2); err != nil {
		t.Fatal(err)
	}
	if err := c.Node(0).Drain(); err != nil {
		t.Fatal(err)
	}
	ps := c.Node(0).PipelineStats()
	if ps.FlushExplicit != 2 || ps.Batches != 2 {
		t.Fatalf("want 2 explicit flushes, got %+v", ps)
	}
	if ups, err := segs[1].Gather(GatherAllNew); err != nil || len(ups) != 2 {
		t.Fatalf("gather after drain: %d updates, err=%v", len(ups), err)
	}
}

// TestPipelineBackPressure drives a one-batch worker queue with a flush per
// scatter, so the producer blocks on the full queue (§3.1's back-pressure)
// instead of dropping sends. After Drain the receiver's ring holds the
// newest QueueLen updates, the newest one intact.
func TestPipelineBackPressure(t *testing.T) {
	const sends, qlen = 50, 2
	pcfg := PipelineConfig{Workers: 1, MaxBatchCount: 1, MaxBatchBytes: 1 << 30, MaxDelay: time.Hour, QueueDepth: 1}
	c, segs := newPipelineCluster(t, fabric.Config{Ranks: 2},
		SegmentOptions{ObjectSize: 1 << 16, QueueLen: qlen}, pcfg)
	payload := make([]byte, 1<<16)
	for i := 1; i <= sends; i++ {
		//maltlint:allow bufretain -- Scatter copies the payload into a pooled sendBuf before enqueueing; mutate-then-repost is the overwrite pressure under test
		payload[0] = byte(i)
		//maltlint:allow bufretain -- Scatter copies the payload into a pooled sendBuf before enqueueing; mutate-then-repost is the overwrite pressure under test
		if _, err := segs[0].Scatter(payload, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Node(0).Drain(); err != nil {
		t.Fatal(err)
	}
	if ps := c.Node(0).PipelineStats(); ps.Enqueued != sends || ps.Batches != sends {
		t.Fatalf("want %d one-record batches, got %+v", sends, ps)
	}
	ups, err := segs[1].Gather(GatherAllNew)
	if err != nil {
		t.Fatal(err)
	}
	if len(ups) != qlen {
		t.Fatalf("gathered %d updates, want the newest %d", len(ups), qlen)
	}
	for k, u := range ups {
		want := sends - qlen + 1 + k
		if u.Seq != uint64(want) || u.Data[0] != byte(want) {
			t.Fatalf("update %d: seq %d payload %d, want %d", k, u.Seq, u.Data[0], want)
		}
	}
}

// TestPipelineBarrierDrains checks the consistency contract: once a
// segment Barrier releases, every rank's pre-barrier scatters are visible
// at their receivers even though Scatter returned at enqueue.
func TestPipelineBarrierDrains(t *testing.T) {
	const ranks, K = 3, 10
	c, segs := newPipelineCluster(t, fabric.Config{Ranks: ranks},
		SegmentOptions{ObjectSize: 16, QueueLen: 2 * K}, slowFlush())
	var wg sync.WaitGroup
	for r := 0; r < ranks; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < K; i++ {
				if _, err := segs[r].Scatter([]byte{byte(r)}, uint64(i+1)); err != nil {
					t.Error(err)
					return
				}
			}
			if err := segs[r].Barrier(); err != nil {
				t.Error(err)
			}
		}(r)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	for r := 0; r < ranks; r++ {
		ups, err := segs[r].Gather(GatherAllNew)
		if err != nil {
			t.Fatal(err)
		}
		if want := (ranks - 1) * K; len(ups) != want {
			t.Fatalf("rank %d sees %d updates after barrier, want %d", r, len(ups), want)
		}
	}
	_ = c
}

// TestPipelineUnderChaosDrops runs batched async scatter against a seeded
// lossy fabric and asserts that once Drain returns every update arrived
// exactly once: nothing lost (retries absorbed every drop) and nothing
// double-folded (a retried batch overwrites its own ring slots).
func TestPipelineUnderChaosDrops(t *testing.T) {
	const ranks, K = 4, 40
	pcfg := PipelineConfig{Workers: 2, MaxBatchCount: 4, MaxBatchBytes: 1 << 30, MaxDelay: time.Hour}
	c, segs := newPipelineCluster(t, fabric.Config{
		Ranks: ranks,
		Chaos: &fabric.ChaosConfig{Seed: 42, Default: fabric.LinkFault{DropProb: 0.3}},
	}, SegmentOptions{ObjectSize: 16, QueueLen: 2 * K}, pcfg)
	for r := 0; r < ranks; r++ {
		c.Node(r).SetRetryPolicy(RetryPolicy{
			MaxAttempts: 100,
			Backoff:     time.Microsecond,
			Deadline:    30 * time.Second,
		})
	}

	var wg sync.WaitGroup
	for r := 0; r < ranks; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			buf := make([]byte, 12)
			for i := 0; i < K; i++ {
				binary.LittleEndian.PutUint32(buf[0:4], uint32(r))
				binary.LittleEndian.PutUint64(buf[4:12], uint64(i+1))
				//maltlint:allow bufretain -- Scatter copies the payload into its encode buffer before returning, so per-iteration reuse cannot tear
				if _, err := segs[r].Scatter(buf, uint64(i+1)); err != nil {
					t.Error(err)
					return
				}
			}
		}(r)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	for r := 0; r < ranks; r++ {
		if err := c.Node(r).Drain(); err != nil {
			t.Fatal(err)
		}
	}
	for r := 0; r < ranks; r++ {
		rs := c.Node(r).RetryStats()
		if rs.Exhausted != 0 {
			t.Fatalf("rank %d exhausted %d batches; drops should have been absorbed", r, rs.Exhausted)
		}
		if rs.Retries == 0 {
			t.Fatalf("rank %d saw no retries under 30%% drop — chaos not exercised", r)
		}
		if fails := c.Node(r).AsyncFailures(); len(fails) != 0 {
			t.Fatalf("rank %d reported async failures %v on a healed fabric", r, fails)
		}
	}

	for r := 0; r < ranks; r++ {
		ups, err := segs[r].Gather(GatherAllNew)
		if err != nil {
			t.Fatal(err)
		}
		// Exactly-once accounting per sender: sequence i from sender s must
		// appear exactly once, carrying the payload s wrote at i.
		seen := make(map[int]map[uint64]int)
		for _, u := range ups {
			from := int(binary.LittleEndian.Uint32(u.Data[0:4]))
			idx := binary.LittleEndian.Uint64(u.Data[4:12])
			if from != u.From || idx != u.Seq {
				t.Fatalf("rank %d: update header (from=%d seq=%d) disagrees with payload (from=%d idx=%d)",
					r, u.From, u.Seq, from, idx)
			}
			if seen[from] == nil {
				seen[from] = make(map[uint64]int)
			}
			seen[from][idx]++
		}
		for s := 0; s < ranks; s++ {
			if s == r {
				continue
			}
			for i := uint64(1); i <= K; i++ {
				switch n := seen[s][i]; n {
				case 1:
				case 0:
					t.Fatalf("rank %d lost update %d from sender %d", r, i, s)
				default:
					t.Fatalf("rank %d folded update %d from sender %d %d times", r, i, s, n)
				}
			}
		}
	}
}

// TestPipelineUnderBlackout parks every update behind a full-rank blackout,
// lifts it, and asserts Drain still delivers everything exactly once — the
// retry loop, not the fault layer, absorbs the outage.
func TestPipelineUnderBlackout(t *testing.T) {
	const ranks, K = 3, 8
	pcfg := PipelineConfig{Workers: 2, MaxBatchCount: 4, MaxBatchBytes: 1 << 30, MaxDelay: time.Hour}
	c, segs := newPipelineCluster(t, fabric.Config{Ranks: ranks},
		SegmentOptions{ObjectSize: 16, QueueLen: 2 * K}, pcfg)
	for r := 0; r < ranks; r++ {
		c.Node(r).SetRetryPolicy(RetryPolicy{
			MaxAttempts: 1 << 20,
			Backoff:     100 * time.Microsecond,
			BackoffMult: 1,
			Deadline:    30 * time.Second,
		})
	}
	if err := simFab(c).SetRankBlackout(1, true); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < ranks; r++ {
		for i := 0; i < K; i++ {
			if _, err := segs[r].Scatter([]byte{byte(r)}, uint64(i+1)); err != nil {
				t.Fatal(err)
			}
		}
		c.Node(r).Flush() // batches now sit in worker retry loops
	}
	if err := simFab(c).SetRankBlackout(1, false); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < ranks; r++ {
		if err := c.Node(r).Drain(); err != nil {
			t.Fatal(err)
		}
		if rs := c.Node(r).RetryStats(); rs.Exhausted != 0 {
			t.Fatalf("rank %d exhausted %d batches across the blackout", r, rs.Exhausted)
		}
	}
	for r := 0; r < ranks; r++ {
		ups, err := segs[r].Gather(GatherAllNew)
		if err != nil {
			t.Fatal(err)
		}
		if want := (ranks - 1) * K; len(ups) != want {
			t.Fatalf("rank %d sees %d updates after blackout heal, want %d", r, len(ups), want)
		}
	}
}

// TestPipelineSuspicionPreserved: batching must not hide real failures.
// Writes to a dead rank fail permanently inside the worker pool and must
// surface through AsyncFailures — the suspicion feed — exactly once.
func TestPipelineSuspicionPreserved(t *testing.T) {
	const ranks = 3
	c, segs := newPipelineCluster(t, fabric.Config{Ranks: ranks},
		SegmentOptions{ObjectSize: 16, QueueLen: 8}, slowFlush())
	if err := c.Fabric().Kill(1); err != nil {
		t.Fatal(err)
	}
	if _, err := segs[0].Scatter([]byte("x"), 1); err != nil {
		t.Fatal(err)
	}
	if err := c.Node(0).Drain(); err != nil {
		t.Fatal(err)
	}
	fails := c.Node(0).AsyncFailures()
	if len(fails) != 1 || fails[0] != 1 {
		t.Fatalf("want async failure against rank 1, got %v", fails)
	}
	if again := c.Node(0).AsyncFailures(); again != nil {
		t.Fatalf("AsyncFailures should clear once read, got %v", again)
	}
	if ps := c.Node(0).PipelineStats(); ps.Failed == 0 {
		t.Fatalf("pipeline Failed counter not incremented: %+v", ps)
	}
}

// TestPipelineWorkerPoolConcurrency hammers the coalescer from all ranks at
// once with deadline flushes racing count flushes and interleaved explicit
// Flush/Drain calls. Run under -race this is the worker-pool data-race
// check; the final accounting asserts delivery stayed exact.
func TestPipelineWorkerPoolConcurrency(t *testing.T) {
	const ranks, K = 4, 200
	pcfg := PipelineConfig{Workers: 4, MaxBatchCount: 8, MaxBatchBytes: 1 << 30, MaxDelay: 50 * time.Microsecond, QueueDepth: 16}
	c, segs := newPipelineCluster(t, fabric.Config{Ranks: ranks},
		SegmentOptions{ObjectSize: 16, QueueLen: 2 * K}, pcfg)
	var wg sync.WaitGroup
	for r := 0; r < ranks; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < K; i++ {
				if _, err := segs[r].Scatter([]byte{byte(r)}, uint64(i+1)); err != nil {
					t.Error(err)
					return
				}
				if i%17 == 0 {
					c.Node(r).Flush()
				}
				if i%43 == 0 {
					if err := c.Node(r).Drain(); err != nil {
						t.Error(err)
						return
					}
				}
			}
			if err := c.Node(r).Drain(); err != nil {
				t.Error(err)
			}
		}(r)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	for r := 0; r < ranks; r++ {
		ups, err := segs[r].Gather(GatherAllNew)
		if err != nil {
			t.Fatal(err)
		}
		if want := (ranks - 1) * K; len(ups) != want {
			t.Fatalf("rank %d folded %d updates, want %d", r, len(ups), want)
		}
		ps := c.Node(r).PipelineStats()
		if ps.Enqueued != uint64((ranks-1)*K) {
			t.Fatalf("rank %d enqueued %d records, want %d", r, ps.Enqueued, (ranks-1)*K)
		}
		if ps.QueuePeak == 0 {
			t.Fatalf("rank %d queue peak never recorded", r)
		}
	}
}

// TestPipelineDisableFallsBack: after DisablePipeline the scatter path must
// revert to synchronous writes and still deliver.
func TestPipelineDisableFallsBack(t *testing.T) {
	c, segs := newPipelineCluster(t, fabric.Config{Ranks: 2},
		SegmentOptions{ObjectSize: 16, QueueLen: 8}, slowFlush())
	if _, err := segs[0].Scatter([]byte("before"), 1); err != nil {
		t.Fatal(err)
	}
	c.Node(0).DisablePipeline()
	if c.Node(0).PipelineEnabled() {
		t.Fatal("pipeline still enabled after DisablePipeline")
	}
	if _, err := segs[0].Scatter([]byte("after"), 2); err != nil {
		t.Fatal(err)
	}
	ups, err := segs[1].Gather(GatherAllNew)
	if err != nil {
		t.Fatal(err)
	}
	if len(ups) != 2 {
		t.Fatalf("want both pre-disable (drained) and post-disable updates, got %d", len(ups))
	}
}
