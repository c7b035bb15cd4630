package dstorm

import (
	"errors"
	"sync"
	"testing"
	"time"

	"malt/internal/dataflow"
	"malt/internal/fabric"
)

// newChaosCluster is newTestCluster over a fabric with a chaos model.
func newChaosCluster(t *testing.T, ranks int, chaos fabric.ChaosConfig, opts SegmentOptions) (*Cluster, []*Segment) {
	t.Helper()
	f, err := fabric.New(fabric.Config{Ranks: ranks, Chaos: &chaos})
	if err != nil {
		t.Fatal(err)
	}
	c := NewCluster(f)
	if opts.Graph == nil {
		g, err := dataflow.New(dataflow.All, ranks)
		if err != nil {
			t.Fatal(err)
		}
		opts.Graph = g
	}
	segs := make([]*Segment, ranks)
	errs := make([]error, ranks)
	var wg sync.WaitGroup
	for r := 0; r < ranks; r++ {
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
	return c, segs
}

// A 50% drop rate is far above anything the retry budget cannot absorb:
// with 6 attempts the per-write failure probability is ~1.6%, and the test
// scatters enough times that the expected number of exhausted writes over a
// clean run is visible in the stats while deliveries still dominate.
func TestScatterRetriesTransientDrops(t *testing.T) {
	c, segs := newChaosCluster(t, 2,
		fabric.ChaosConfig{Seed: 11, Default: fabric.LinkFault{DropProb: 0.5}},
		SegmentOptions{ObjectSize: 8, QueueLen: 64})
	c.Node(0).SetRetryPolicy(RetryPolicy{MaxAttempts: 12, Backoff: time.Microsecond})

	delivered := 0
	for i := 1; i <= 40; i++ {
		failed, err := segs[0].Scatter([]byte("payload!"), uint64(i))
		if err != nil {
			t.Fatal(err)
		}
		if len(failed) == 0 {
			delivered++
		}
	}
	if delivered < 38 {
		t.Fatalf("only %d/40 scatters delivered under 50%% drop with retries", delivered)
	}
	st := c.Node(0).RetryStats()
	if st.Retries == 0 || st.Recovered == 0 {
		t.Fatalf("retry stats show no transient absorption: %+v", st)
	}
	if st.Attempts <= 40 {
		t.Fatalf("Attempts = %d, want > scatter count (retries happened)", st.Attempts)
	}
	ups, err := segs[1].Gather(GatherAllNew)
	if err != nil {
		t.Fatal(err)
	}
	if len(ups) != delivered {
		t.Fatalf("receiver got %d updates, sender delivered %d", len(ups), delivered)
	}
}

func TestScatterBlackoutExhaustsRetries(t *testing.T) {
	c, segs := newChaosCluster(t, 2, fabric.ChaosConfig{Seed: 3},
		SegmentOptions{ObjectSize: 8})
	c.Node(0).SetRetryPolicy(RetryPolicy{MaxAttempts: 3, Backoff: time.Microsecond})
	if err := simFab(c).SetRankBlackout(1, true); err != nil {
		t.Fatal(err)
	}
	failed, err := segs[0].Scatter([]byte("payload!"), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(failed) != 1 || failed[0] != 1 {
		t.Fatalf("failed = %v, want [1]", failed)
	}
	st := c.Node(0).RetryStats()
	if st.Exhausted != 1 {
		t.Fatalf("Exhausted = %d, want 1", st.Exhausted)
	}
	// Blackout lifts: the same path recovers without any rebuild.
	if err := simFab(c).SetRankBlackout(1, false); err != nil {
		t.Fatal(err)
	}
	failed, err = segs[0].Scatter([]byte("payload!"), 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(failed) != 0 {
		t.Fatalf("post-blackout scatter failed: %v", failed)
	}
}

func TestRetryDoesNotMaskPermanentFailure(t *testing.T) {
	c, segs := newChaosCluster(t, 3,
		fabric.ChaosConfig{Seed: 5, Default: fabric.LinkFault{DropProb: 0.2}},
		SegmentOptions{ObjectSize: 8})
	if err := c.Fabric().Kill(2); err != nil {
		t.Fatal(err)
	}
	before := c.Node(0).RetryStats()
	failed, err := segs[0].Scatter([]byte("payload!"), 1)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, p := range failed {
		if p == 2 {
			found = true
		}
	}
	if !found {
		t.Fatalf("dead peer missing from failed list: %v", failed)
	}
	// The write to the dead rank must not have consumed retries.
	after := c.Node(0).RetryStats()
	if after.Exhausted != before.Exhausted {
		t.Fatalf("permanent failure counted as exhausted transient: %+v", after)
	}
}

func TestRetryDeadlineBoundsOneWrite(t *testing.T) {
	c, segs := newChaosCluster(t, 2, fabric.ChaosConfig{Seed: 4},
		SegmentOptions{ObjectSize: 8})
	c.Node(0).SetRetryPolicy(RetryPolicy{
		MaxAttempts: 1 << 20, // effectively unbounded attempts
		Backoff:     200 * time.Microsecond,
		Deadline:    2 * time.Millisecond,
	})
	if err := simFab(c).SetRankBlackout(1, true); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	failed, err := segs[0].Scatter([]byte("payload!"), 1)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 500*time.Millisecond {
		t.Fatalf("deadline did not bound the write: took %v", elapsed)
	}
	if len(failed) != 1 {
		t.Fatalf("failed = %v, want the blacked-out peer", failed)
	}
}

func TestDefaultRetryPolicy(t *testing.T) {
	f, err := fabric.New(fabric.Config{Ranks: 1})
	if err != nil {
		t.Fatal(err)
	}
	p := NewCluster(f).Node(0).Retry()
	if p.MaxAttempts != 4 || p.Backoff <= 0 || p.BackoffMult < 1 || p.Deadline <= 0 {
		t.Fatalf("defaults not applied: %+v", p)
	}
	if errors.Is(nil, fabric.ErrTransient) {
		t.Fatal("sanity")
	}
}
