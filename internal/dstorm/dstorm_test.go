package dstorm

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"malt/internal/dataflow"
	"malt/internal/fabric"
)

// simFab unwraps the simulated fabric behind a test cluster for the
// sim-only controls (partitions, blackouts) the Transport interface does
// not carry.
func simFab(c *Cluster) *fabric.Fabric { return c.Fabric().(*fabric.Fabric) }

// newTestCluster creates a fabric+cluster and opens the named segment on
// every rank concurrently (creation is a collective operation).
func newTestCluster(t *testing.T, ranks int, opts SegmentOptions) (*Cluster, []*Segment) {
	t.Helper()
	f, err := fabric.New(fabric.Config{Ranks: ranks})
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
	var wg sync.WaitGroup
	errs := make([]error, ranks)
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

func TestScatterGatherAllToAll(t *testing.T) {
	_, segs := newTestCluster(t, 3, SegmentOptions{ObjectSize: 16})
	for r, s := range segs {
		if _, err := s.Scatter([]byte(fmt.Sprintf("update-%d", r)), 1); err != nil {
			t.Fatal(err)
		}
	}
	for r, s := range segs {
		ups, err := s.Gather(GatherAllNew)
		if err != nil {
			t.Fatal(err)
		}
		if len(ups) != 2 {
			t.Fatalf("rank %d gathered %d updates, want 2", r, len(ups))
		}
		for _, u := range ups {
			want := fmt.Sprintf("update-%d", u.From)
			if string(u.Data) != want {
				t.Fatalf("rank %d got %q from %d, want %q", r, u.Data, u.From, want)
			}
			if u.Iter != 1 {
				t.Fatalf("iter = %d, want 1", u.Iter)
			}
			if u.Torn {
				t.Fatal("atomic gather returned a torn update")
			}
		}
	}
	// Second gather with nothing new returns empty.
	ups, err := segs[0].Gather(GatherAllNew)
	if err != nil {
		t.Fatal(err)
	}
	if len(ups) != 0 {
		t.Fatalf("second gather returned %d updates", len(ups))
	}
}

func TestScatterRespectsDataflow(t *testing.T) {
	g, err := dataflow.FromAdjacency([][]int{{1}, {2}, {0}}) // 3-cycle
	if err != nil {
		t.Fatal(err)
	}
	_, segs := newTestCluster(t, 3, SegmentOptions{ObjectSize: 8, Graph: g})
	if _, err := segs[0].Scatter([]byte("x"), 1); err != nil {
		t.Fatal(err)
	}
	ups, err := segs[1].Gather(GatherAllNew)
	if err != nil {
		t.Fatal(err)
	}
	if len(ups) != 1 || ups[0].From != 0 {
		t.Fatalf("rank 1 updates = %+v", ups)
	}
	ups, err = segs[2].Gather(GatherAllNew)
	if err != nil {
		t.Fatal(err)
	}
	if len(ups) != 0 {
		t.Fatalf("rank 2 should receive nothing from rank 0, got %+v", ups)
	}
}

func TestScatterToSubset(t *testing.T) {
	_, segs := newTestCluster(t, 4, SegmentOptions{ObjectSize: 8})
	if _, err := segs[0].ScatterTo([]int{2}, []byte("only2"), 1); err != nil {
		t.Fatal(err)
	}
	ups, err := segs[2].Gather(GatherAllNew)
	if err != nil {
		t.Fatal(err)
	}
	if len(ups) != 1 || string(ups[0].Data) != "only2" {
		t.Fatalf("rank 2 updates = %+v", ups)
	}
	ups, err = segs[1].Gather(GatherAllNew)
	if err != nil {
		t.Fatal(err)
	}
	if len(ups) != 0 {
		t.Fatalf("rank 1 should have nothing, got %+v", ups)
	}
	// Send list must be restored afterwards.
	if _, err := segs[0].Scatter([]byte("all"), 2); err != nil {
		t.Fatal(err)
	}
	ups, err = segs[3].Gather(GatherAllNew)
	if err != nil {
		t.Fatal(err)
	}
	if len(ups) != 1 {
		t.Fatalf("send list not restored: rank 3 got %+v", ups)
	}
	// Peers outside the dataflow are rejected.
	if _, err := segs[0].ScatterTo([]int{0}, []byte("self"), 1); err == nil {
		t.Fatal("ScatterTo(self) should fail")
	}
}

func TestQueueOverwriteOnFull(t *testing.T) {
	_, segs := newTestCluster(t, 2, SegmentOptions{ObjectSize: 8, QueueLen: 2})
	// Send 5 updates without any gather: ring of 2 keeps only the last 2.
	for i := 1; i <= 5; i++ {
		if _, err := segs[0].Scatter([]byte(fmt.Sprintf("u%d", i)), uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	ups, err := segs[1].Gather(GatherAllNew)
	if err != nil {
		t.Fatal(err)
	}
	if len(ups) != 2 {
		t.Fatalf("gathered %d, want 2 (older updates overwritten)", len(ups))
	}
	if string(ups[0].Data) != "u4" || string(ups[1].Data) != "u5" {
		t.Fatalf("got %q, %q; want u4, u5", ups[0].Data, ups[1].Data)
	}
}

func TestGatherLatestSkipsOld(t *testing.T) {
	_, segs := newTestCluster(t, 2, SegmentOptions{ObjectSize: 8, QueueLen: 4})
	for i := 1; i <= 3; i++ {
		if _, err := segs[0].Scatter([]byte(fmt.Sprintf("u%d", i)), uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	ups, err := segs[1].Gather(GatherLatest)
	if err != nil {
		t.Fatal(err)
	}
	if len(ups) != 1 || string(ups[0].Data) != "u3" {
		t.Fatalf("GatherLatest = %+v", ups)
	}
	// The older items are considered consumed.
	ups, err = segs[1].Gather(GatherAllNew)
	if err != nil {
		t.Fatal(err)
	}
	if len(ups) != 0 {
		t.Fatalf("items resurfaced after GatherLatest: %+v", ups)
	}
}

func TestPayloadTooLarge(t *testing.T) {
	_, segs := newTestCluster(t, 2, SegmentOptions{ObjectSize: 4})
	if _, err := segs[0].Scatter(make([]byte, 5), 1); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("err = %v, want ErrTooLarge", err)
	}
}

func TestPeerIters(t *testing.T) {
	_, segs := newTestCluster(t, 3, SegmentOptions{ObjectSize: 8})
	if _, err := segs[1].Scatter([]byte("a"), 7); err != nil {
		t.Fatal(err)
	}
	iters := segs[0].PeerIters()
	if iters[1] != 7 {
		t.Fatalf("PeerIters[1] = %d, want 7", iters[1])
	}
	if iters[2] != 0 {
		t.Fatalf("PeerIters[2] = %d, want 0 (nothing arrived)", iters[2])
	}
	// Peeking does not consume.
	ups, err := segs[0].Gather(GatherAllNew)
	if err != nil {
		t.Fatal(err)
	}
	if len(ups) != 1 {
		t.Fatalf("gather after peek = %+v", ups)
	}
}

func TestScatterReportsFailedPeers(t *testing.T) {
	c, segs := newTestCluster(t, 3, SegmentOptions{ObjectSize: 8})
	if err := c.Fabric().Kill(2); err != nil {
		t.Fatal(err)
	}
	failed, err := segs[0].Scatter([]byte("x"), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(failed) != 1 || failed[0] != 2 {
		t.Fatalf("failed = %v, want [2]", failed)
	}
	// Rank 1 still received the update.
	ups, err := segs[1].Gather(GatherAllNew)
	if err != nil {
		t.Fatal(err)
	}
	if len(ups) != 1 {
		t.Fatalf("live peer missed the update: %+v", ups)
	}
}

func TestRemovePeer(t *testing.T) {
	_, segs := newTestCluster(t, 3, SegmentOptions{ObjectSize: 8})
	segs[0].RemovePeer(2)
	if _, err := segs[0].Scatter([]byte("x"), 1); err != nil {
		t.Fatal(err)
	}
	peers := segs[0].SendPeers()
	if len(peers) != 1 || peers[0] != 1 {
		t.Fatalf("SendPeers after removal = %v", peers)
	}
	// Receive side: drop rank 2's queue on rank 0; a zombie write bounces.
	if _, err := segs[2].Scatter([]byte("zombie"), 1); err != nil {
		t.Fatal(err)
	}
	ups, err := segs[0].Gather(GatherAllNew)
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range ups {
		if u.From == 2 {
			t.Fatal("gathered update from removed peer")
		}
	}
}

func TestSegmentBarrierReleasesAllRanks(t *testing.T) {
	_, segs := newTestCluster(t, 4, SegmentOptions{ObjectSize: 8})
	var wg sync.WaitGroup
	reached := make(chan int, 4)
	for r, s := range segs {
		wg.Add(1)
		go func(r int, s *Segment) {
			defer wg.Done()
			if err := s.Barrier(); err != nil {
				t.Errorf("rank %d barrier: %v", r, err)
				return
			}
			reached <- r
		}(r, s)
	}
	wg.Wait()
	close(reached)
	count := 0
	for range reached {
		count++
	}
	if count != 4 {
		t.Fatalf("%d ranks passed the barrier, want 4", count)
	}
}

func TestBarrierSkipsDeadRank(t *testing.T) {
	c, segs := newTestCluster(t, 3, SegmentOptions{ObjectSize: 8})
	done := make(chan error, 2)
	go func() { done <- segs[0].Barrier() }()
	go func() { done <- segs[1].Barrier() }()
	// Give the two live ranks a moment to block, then kill rank 2, which
	// never arrives. The barrier must release the survivors.
	time.Sleep(20 * time.Millisecond)
	if err := c.Fabric().Kill(2); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("barrier: %v", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("barrier did not release after straggler death")
		}
	}
}

func TestBarrierFromDeadRankFails(t *testing.T) {
	c, segs := newTestCluster(t, 2, SegmentOptions{ObjectSize: 8})
	if err := c.Fabric().Kill(0); err != nil {
		t.Fatal(err)
	}
	if err := segs[0].Barrier(); !errors.Is(err, ErrDead) {
		t.Fatalf("err = %v, want ErrDead", err)
	}
}

func TestRepeatedBarriers(t *testing.T) {
	c, _ := newTestCluster(t, 3, SegmentOptions{ObjectSize: 8})
	const rounds = 50
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if err := c.Barrier(r); err != nil {
					t.Errorf("rank %d round %d: %v", r, i, err)
					return
				}
			}
		}(r)
	}
	wg.Wait()
}

func TestTornReadsObservableWithWeakGather(t *testing.T) {
	// Large object + tiny chunks maximize the window; a spinning weak
	// reader should observe at least one torn snapshot while atomic
	// gathers never do.
	const objSize = 1 << 16
	_, segs := newTestCluster(t, 2, SegmentOptions{ObjectSize: objSize, QueueLen: 1, ChunkSize: 512})

	payloadA := bytes.Repeat([]byte{0xAA}, objSize)
	payloadB := bytes.Repeat([]byte{0xBB}, objSize)

	stop := make(chan struct{})
	var writerWg sync.WaitGroup
	writerWg.Add(1)
	go func() {
		defer writerWg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			p := payloadA
			if i%2 == 1 {
				p = payloadB
			}
			if _, err := segs[0].Scatter(p, uint64(i+1)); err != nil {
				t.Errorf("scatter: %v", err)
				return
			}
		}
	}()

	sawTorn := false
	sawMixed := false
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) && !(sawTorn && sawMixed) {
		ups, err := segs[1].GatherWeak(GatherLatest)
		if err != nil {
			t.Fatal(err)
		}
		for _, u := range ups {
			if u.Torn {
				sawTorn = true
			}
			if len(u.Data) > 0 {
				first := u.Data[0]
				for _, b := range u.Data {
					if b != first {
						sawMixed = true
						break
					}
				}
			}
		}
	}
	close(stop)
	writerWg.Wait()
	if !sawTorn {
		t.Fatal("weak gather never observed a torn (mid-write) update")
	}
	if !sawMixed {
		t.Fatal("weak gather never observed mixed old/new bytes")
	}
}

func TestAtomicGatherNeverTorn(t *testing.T) {
	const objSize = 1 << 14
	_, segs := newTestCluster(t, 2, SegmentOptions{ObjectSize: objSize, QueueLen: 2, ChunkSize: 256})

	stop := make(chan struct{})
	var writerWg sync.WaitGroup
	writerWg.Add(1)
	go func() {
		defer writerWg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			payload := bytes.Repeat([]byte{byte(i)}, objSize)
			if _, err := segs[0].Scatter(payload, uint64(i+1)); err != nil {
				t.Errorf("scatter: %v", err)
				return
			}
		}
	}()

	deadline := time.Now().Add(2 * time.Second)
	checked := 0
	for time.Now().Before(deadline) {
		ups, err := segs[1].Gather(GatherAllNew)
		if err != nil {
			t.Fatal(err)
		}
		for _, u := range ups {
			if u.Torn {
				t.Fatal("atomic gather returned Torn=true")
			}
			if len(u.Data) == 0 {
				continue
			}
			first := u.Data[0]
			for _, b := range u.Data {
				if b != first {
					t.Fatalf("atomic gather returned mixed payload (seq %d)", u.Seq)
				}
			}
			checked++
		}
	}
	close(stop)
	writerWg.Wait()
	if checked == 0 {
		t.Fatal("no updates observed")
	}
}

func TestCreateSegmentValidation(t *testing.T) {
	f, err := fabric.New(fabric.Config{Ranks: 2})
	if err != nil {
		t.Fatal(err)
	}
	c := NewCluster(f)
	g2, _ := dataflow.New(dataflow.All, 2)
	if _, err := c.Node(0).CreateSegment("s", SegmentOptions{ObjectSize: 0, Graph: g2}); err == nil {
		t.Fatal("ObjectSize=0 should fail")
	}
	if _, err := c.Node(0).CreateSegment("s", SegmentOptions{ObjectSize: 8}); err == nil {
		t.Fatal("missing graph should fail")
	}
	g3, _ := dataflow.New(dataflow.All, 3)
	if _, err := c.Node(0).CreateSegment("s", SegmentOptions{ObjectSize: 8, Graph: g3}); err == nil {
		t.Fatal("graph/fabric rank mismatch should fail")
	}
	bad, _ := dataflow.FromAdjacency([][]int{{1}, {0}, {3}, {2}})
	f4, _ := fabric.New(fabric.Config{Ranks: 4})
	c4 := NewCluster(f4)
	if _, err := c4.Node(0).CreateSegment("s", SegmentOptions{ObjectSize: 8, Graph: bad}); err == nil {
		t.Fatal("disconnected graph should fail")
	}
}

func TestClosedSegment(t *testing.T) {
	_, segs := newTestCluster(t, 2, SegmentOptions{ObjectSize: 8})
	if err := segs[0].Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := segs[0].Scatter([]byte("x"), 1); !errors.Is(err, ErrClosed) {
		t.Fatalf("scatter on closed: %v", err)
	}
	if _, err := segs[0].Gather(GatherAllNew); !errors.Is(err, ErrClosed) {
		t.Fatalf("gather on closed: %v", err)
	}
	if err := segs[0].Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
	// Writing into a closed segment's registration fails at the fabric.
	if _, err := segs[1].Scatter([]byte("y"), 1); err != nil {
		t.Fatalf("scatter from live rank: %v", err)
	}
}

func TestIterationStamping(t *testing.T) {
	_, segs := newTestCluster(t, 2, SegmentOptions{ObjectSize: 8})
	//maltlint:allow iterskew -- single-round test pins one distinctive stamp to assert it rides the wire
	segs[0].SetIteration(42)
	if _, err := segs[0].Scatter([]byte("x"), 0); err != nil { // 0 = use stored iter
		t.Fatal(err)
	}
	ups, err := segs[1].Gather(GatherAllNew)
	if err != nil {
		t.Fatal(err)
	}
	if len(ups) != 1 || ups[0].Iter != 42 {
		t.Fatalf("ups = %+v, want iter 42", ups)
	}
}

func TestSequenceNumbersMonotonic(t *testing.T) {
	_, segs := newTestCluster(t, 2, SegmentOptions{ObjectSize: 8, QueueLen: 16})
	for i := 0; i < 10; i++ {
		if _, err := segs[0].Scatter([]byte("x"), uint64(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	ups, err := segs[1].Gather(GatherAllNew)
	if err != nil {
		t.Fatal(err)
	}
	if len(ups) != 10 {
		t.Fatalf("gathered %d", len(ups))
	}
	for i, u := range ups {
		if u.Seq != uint64(i+1) {
			t.Fatalf("ups[%d].Seq = %d, want %d", i, u.Seq, i+1)
		}
	}
}

func TestSegmentStatsCountConsumedAndOverwritten(t *testing.T) {
	_, segs := newTestCluster(t, 2, SegmentOptions{ObjectSize: 8, QueueLen: 2})
	// 5 scatters into a depth-2 ring with no consumption: 3 overwritten.
	for i := 1; i <= 5; i++ {
		if _, err := segs[0].Scatter([]byte("x"), uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := segs[1].Gather(GatherAllNew); err != nil {
		t.Fatal(err)
	}
	st := segs[1].Stats()
	if st.Consumed != 2 {
		t.Fatalf("Consumed = %d, want 2", st.Consumed)
	}
	if st.Overwritten != 3 {
		t.Fatalf("Overwritten = %d, want 3", st.Overwritten)
	}
	// GatherLatest drops queued-but-older items: they count as overwritten.
	for i := 6; i <= 7; i++ {
		if _, err := segs[0].Scatter([]byte("x"), uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := segs[1].Gather(GatherLatest); err != nil {
		t.Fatal(err)
	}
	st = segs[1].Stats()
	if st.Consumed != 3 {
		t.Fatalf("Consumed = %d, want 3", st.Consumed)
	}
	if st.Overwritten != 4 {
		t.Fatalf("Overwritten = %d, want 4", st.Overwritten)
	}
	// Sender side saw no loss at all.
	if s := segs[0].Stats(); s.Consumed != 0 || s.Overwritten != 0 {
		t.Fatalf("sender stats = %+v", s)
	}
}

// TestLappedSlotCountsOverwritten laps a slot between a drain's peek and its
// read — the ASP race, made deterministic by running the two halves of
// drainQueue by hand with a scatter in between — and checks the account
// stays exact: every delivered update is consumed or overwritten, the one
// lost to the lap included.
func TestLappedSlotCountsOverwritten(t *testing.T) {
	const qlen = 4
	_, segs := newTestCluster(t, 2, SegmentOptions{ObjectSize: 8, QueueLen: qlen})
	send := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if _, err := segs[0].Scatter([]byte("x"), 1); err != nil {
				t.Fatal(err)
			}
		}
	}
	send(qlen) // sequences 1..4 fill the ring
	recv := segs[1]
	q := recv.queues[0]
	q.consumedMu.Lock()
	newest := q.newestSeq() // the drain peeks: 4
	send(1)                 // sequence 5 laps the slot holding 1
	recv.drainUpTo(0, q, newest, GatherAllNew, true)
	got := len(q.ups)
	q.consumedMu.Unlock()
	if newest != qlen || got != qlen-1 {
		t.Fatalf("peeked newest %d, drained %d updates; want %d and %d", newest, got, qlen, qlen-1)
	}
	if st := recv.Stats(); st.Overwritten != 1 {
		t.Fatalf("Overwritten = %d after a lapped slot, want 1", st.Overwritten)
	}
	ups, err := recv.Gather(GatherAllNew) // picks up sequence 5
	if err != nil {
		t.Fatal(err)
	}
	if len(ups) != 1 || ups[0].Seq != qlen+1 {
		t.Fatalf("follow-up gather = %+v, want sequence %d alone", ups, qlen+1)
	}
	// Consumed counts what Gather returned; add the hand-run drain's.
	if st := recv.Stats(); st.Consumed+uint64(got)+st.Overwritten != qlen+1 {
		t.Fatalf("consumed %d+%d + overwritten %d != %d delivered", st.Consumed, got, st.Overwritten, qlen+1)
	}
}

// TestSkippedSequenceIsNotOverwritten: a ScatterTo subset leaves holes in
// the sequence numbers the other peers see; a hole is not a lost update.
func TestSkippedSequenceIsNotOverwritten(t *testing.T) {
	_, segs := newTestCluster(t, 3, SegmentOptions{ObjectSize: 8, QueueLen: 4})
	for i := 0; i < 3; i++ {
		if _, err := segs[0].ScatterTo([]int{1 + i%2}, []byte("x"), 1); err != nil {
			t.Fatal(err)
		}
	}
	for r, want := range map[int]int{1: 2, 2: 1} {
		ups, err := segs[r].Gather(GatherAllNew)
		if err != nil {
			t.Fatal(err)
		}
		if st := segs[r].Stats(); len(ups) != want || st.Overwritten != 0 {
			t.Fatalf("rank %d gathered %d (want %d), overwritten %d (want 0)", r, len(ups), want, st.Overwritten)
		}
	}
}

func TestBarrierScopedToPartition(t *testing.T) {
	// Four ranks block at a barrier; a partition splits them 2+2 mid-wait.
	// Each side's barrier must release independently — the paper's
	// "training resumes on both clusters" semantics — instead of
	// deadlocking on unreachable peers.
	c, segs := newTestCluster(t, 4, SegmentOptions{ObjectSize: 8})
	done := make(chan int, 4)
	for r := 0; r < 4; r++ {
		go func(r int) {
			if err := segs[r].Barrier(); err != nil {
				t.Errorf("rank %d: %v", r, err)
			}
			done <- r
		}(r)
	}
	// Let all four block (none can complete: they need each other), then
	// cut the network into {0,1} and {2,3}.
	time.Sleep(20 * time.Millisecond)
	if err := simFab(c).Partition([][]int{{0, 1}, {2, 3}}); err != nil {
		t.Fatal(err)
	}
	released := map[int]bool{}
	for i := 0; i < 4; i++ {
		select {
		case r := <-done:
			released[r] = true
		case <-time.After(10 * time.Second):
			t.Fatalf("barrier deadlocked across the partition; released: %v", released)
		}
	}
	// After healing, a cluster-wide barrier must span all ranks again.
	simFab(c).Heal()
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			if err := segs[r].Barrier(); err != nil {
				t.Errorf("post-heal rank %d: %v", r, err)
			}
		}(r)
	}
	wg.Wait()
}

func TestBarrierWithinPartitionGroups(t *testing.T) {
	// With a partition already in place, each group barriers among itself.
	c, segs := newTestCluster(t, 4, SegmentOptions{ObjectSize: 8})
	if err := simFab(c).Partition([][]int{{0, 1}, {2, 3}}); err != nil {
		t.Fatal(err)
	}
	// Only group 0 barriers: must complete without group 1 participating.
	done := make(chan error, 2)
	go func() { done <- segs[0].Barrier() }()
	go func() { done <- segs[1].Barrier() }()
	for i := 0; i < 2; i++ {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("group-0 barrier waited on the unreachable group")
		}
	}
}
