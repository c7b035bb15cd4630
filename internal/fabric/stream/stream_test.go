package stream

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"malt/internal/fabric"
)

// newTestCluster builds an n-rank loopback cluster in one process: each
// rank pre-binds a :0 listener so the full peer list is known before any
// Net is constructed, then all ranks rendezvous concurrently. The default
// (windowed) data path is in effect; tests that assert the legacy
// synchronous semantics pass a mutate function setting WindowFrames: 1.
func newTestCluster(t *testing.T, n int) []*Net {
	return newTestClusterCfg(t, n, nil)
}

func newTestClusterCfg(t *testing.T, n int, mutate func(*Config)) []*Net {
	t.Helper()
	lns := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("rank %d: listen: %v", i, err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	nets := make([]*Net, n)
	for i := range nets {
		cfg := Config{
			Rank:              i,
			Peers:             addrs,
			Listener:          lns[i],
			DialTimeout:       time.Second,
			AckTimeout:        2 * time.Second,
			RendezvousTimeout: 10 * time.Second,
			BarrierTimeout:    10 * time.Second,
			HeartbeatInterval: 10 * time.Millisecond,
		}
		if mutate != nil {
			mutate(&cfg)
		}
		nt, err := New(cfg)
		if err != nil {
			t.Fatalf("rank %d: New: %v", i, err)
		}
		nets[i] = nt
	}
	t.Cleanup(func() {
		for _, nt := range nets {
			nt.Close()
		}
	})
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i, nt := range nets {
		wg.Add(1)
		go func(i int, nt *Net) {
			defer wg.Done()
			errs[i] = nt.Rendezvous()
		}(i, nt)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: rendezvous: %v", i, err)
		}
	}
	return nets
}

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
	}{
		{"no peers", Config{Rank: 0}},
		{"rank out of range", Config{Rank: 3, Peers: []string{"a:1", "b:1"}}},
		{"negative rank", Config{Rank: -1, Peers: []string{"a:1"}}},
		{"empty address", Config{Rank: 0, Peers: []string{"a:1", ""}}},
		{"duplicate address", Config{Rank: 0, Peers: []string{"a:1", "a:1"}}},
	}
	for _, tc := range cases {
		if err := tc.cfg.Validate(); err == nil {
			t.Errorf("%s: want error, got nil", tc.name)
		}
	}
	if err := (Config{Rank: 1, Peers: []string{"a:1", "b:1"}}).Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

func TestRendezvousSharesGeneration(t *testing.T) {
	nets := newTestCluster(t, 3)
	gen := nets[0].Generation()
	if gen == 0 {
		t.Fatal("rank 0 has zero generation")
	}
	for i, nt := range nets {
		if nt.Generation() != gen {
			t.Fatalf("rank %d generation %d != rank 0 generation %d", i, nt.Generation(), gen)
		}
	}
}

func TestWriteDepositsIntoHandler(t *testing.T) {
	nets := newTestCluster(t, 3)

	type rec struct {
		from int
		data string
	}
	var mu sync.Mutex
	var got []rec
	if err := nets[1].Register(1, "w", func(from int, b []byte) error {
		mu.Lock()
		got = append(got, rec{from, string(b)})
		mu.Unlock()
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	if err := nets[0].Write(0, 1, "w", []byte("hello")); err != nil {
		t.Fatalf("write: %v", err)
	}
	if err := nets[2].WriteBatch(2, 1, "w", [][]byte{[]byte("a"), []byte("b"), []byte("c")}); err != nil {
		t.Fatalf("write batch: %v", err)
	}
	// Windowed writes return before the deposit: drain both senders so the
	// cumulative acks (which carry the deposit outcome and move the stats)
	// have landed.
	if err := nets[0].Drain(); err != nil {
		t.Fatalf("drain rank 0: %v", err)
	}
	if err := nets[2].Drain(); err != nil {
		t.Fatalf("drain rank 2: %v", err)
	}

	// Each sender's records arrive in its send order, but windowed writes
	// promise no order across senders: compare per-sender subsequences.
	mu.Lock()
	defer mu.Unlock()
	bySender := map[int][]string{}
	for _, r := range got {
		bySender[r.from] = append(bySender[r.from], r.data)
	}
	want := map[int][]string{0: {"hello"}, 2: {"a", "b", "c"}}
	if fmt.Sprint(bySender) != fmt.Sprint(want) {
		t.Fatalf("records by sender = %v, want %v (arrival order %v)", bySender, want, got)
	}

	// The batch was one frame with one ack: the coalesced counters moved.
	if recs := nets[2].Stats().CoalescedRecords(); recs != 3 {
		t.Fatalf("coalesced records = %d, want 3", recs)
	}
	if ops := nets[2].Stats().CoalescedWrites(); ops != 1 {
		t.Fatalf("coalesced writes = %d, want 1", ops)
	}
}

// TestWriteErrors pins the legacy synchronous error semantics: with
// WindowFrames: 1 every Write blocks for its covering ack and reports that
// frame's deposit status directly, exactly like the old ack-per-frame
// path. (TestWindowedDeferredErrors covers the pipelined reporting.)
func TestWriteErrors(t *testing.T) {
	nets := newTestClusterCfg(t, 2, func(c *Config) { c.WindowFrames = 1 })

	if err := nets[0].Write(0, 1, "nope", []byte("x")); !errors.Is(err, fabric.ErrNotRegistered) {
		t.Fatalf("unregistered key: want ErrNotRegistered, got %v", err)
	}
	if err := nets[0].Write(1, 0, "w", []byte("x")); err == nil {
		t.Fatal("write on behalf of a remote rank: want error, got nil")
	}
	if err := nets[0].Register(1, "w", func(int, []byte) error { return nil }); err == nil {
		t.Fatal("remote register: want error, got nil")
	}
	if err := nets[1].Register(1, "w", func(int, []byte) error { return errors.New("boom") }); err != nil {
		t.Fatal(err)
	}
	if err := nets[0].Write(0, 1, "w", []byte("x")); err == nil {
		t.Fatal("handler error: want error, got nil")
	}
	if err := nets[1].Unregister(1, "w"); err != nil {
		t.Fatal(err)
	}
	if err := nets[0].Write(0, 1, "w", []byte("x")); !errors.Is(err, fabric.ErrNotRegistered) {
		t.Fatalf("after unregister: want ErrNotRegistered, got %v", err)
	}
}

func TestPingDirectAndDelegated(t *testing.T) {
	nets := newTestCluster(t, 3)

	if err := nets[0].Ping(0, 2); err != nil {
		t.Fatalf("direct ping: %v", err)
	}
	// Delegated: ask rank 1 to probe rank 2 from its own vantage point —
	// the fault monitor's cross-confirmation path.
	if err := nets[0].Ping(1, 2); err != nil {
		t.Fatalf("delegated ping: %v", err)
	}

	nets[2].Kill(2)
	waitFor(t, "rank 0 sees rank 2 dead", func() bool { return !nets[0].Alive(2) })
	if err := nets[0].Ping(0, 2); err == nil {
		t.Fatal("ping to dead rank: want error, got nil")
	}
	waitFor(t, "rank 1 sees rank 2 dead", func() bool { return !nets[1].Alive(2) })
	if err := nets[0].Ping(1, 2); err == nil {
		t.Fatal("delegated ping to dead rank: want error, got nil")
	}
}

func TestBarrierReleasesAllRanks(t *testing.T) {
	nets := newTestCluster(t, 3)
	for round := 0; round < 3; round++ {
		name := fmt.Sprintf("step:%d", round)
		var wg sync.WaitGroup
		errs := make([]error, len(nets))
		for i, nt := range nets {
			wg.Add(1)
			go func(i int, nt *Net) {
				defer wg.Done()
				errs[i] = nt.Barrier(name, nt.Rank())
			}(i, nt)
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Fatalf("round %d rank %d: %v", round, i, err)
			}
		}
	}
}

func TestKillDrivesLivenessAndBarrierPruning(t *testing.T) {
	nets := newTestCluster(t, 3)

	var observed atomic.Int32
	nets[0].OnLivenessChange(func(rank int, alive bool) {
		if rank == 2 && !alive {
			observed.Add(1)
		}
	})

	// Rank 2 dies mid-run. Its own endpoint reports sender-dead; peers
	// converge on unreachable via heartbeat strike-out (refused dials).
	if err := nets[2].Kill(2); err != nil {
		t.Fatal(err)
	}
	if err := nets[2].Write(2, 0, "w", []byte("x")); !errors.Is(err, fabric.ErrSenderDead) {
		t.Fatalf("write from killed rank: want ErrSenderDead, got %v", err)
	}
	waitFor(t, "rank 0 marks rank 2 dead", func() bool { return !nets[0].Alive(2) })
	waitFor(t, "rank 1 marks rank 2 dead", func() bool { return !nets[1].Alive(2) })
	if observed.Load() != 1 {
		t.Fatalf("liveness watcher fired %d times for rank 2, want 1", observed.Load())
	}
	if err := nets[0].Write(0, 2, "w", []byte("x")); !errors.Is(err, fabric.ErrUnreachable) {
		t.Fatalf("write to dead rank: want ErrUnreachable, got %v", err)
	}

	// Survivors still make progress: the coordinator prunes rank 2 from
	// barrier membership.
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i, nt := range nets[:2] {
		wg.Add(1)
		go func(i int, nt *Net) {
			defer wg.Done()
			errs[i] = nt.Barrier("after-death", nt.Rank())
		}(i, nt)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("survivor rank %d barrier: %v", i, err)
		}
	}

	alive := nets[0].AliveRanks()
	if len(alive) != 2 || alive[0] != 0 || alive[1] != 1 {
		t.Fatalf("alive ranks = %v, want [0 1]", alive)
	}
}

func TestKillRemoteRejected(t *testing.T) {
	nets := newTestCluster(t, 2)
	if err := nets[0].Kill(1); err == nil {
		t.Fatal("remote kill: want error, got nil")
	}
}

func TestStaleEpochRejected(t *testing.T) {
	nets := newTestClusterCfg(t, 2, func(c *Config) { c.WindowFrames = 1 })
	if err := nets[1].Register(1, "w", func(int, []byte) error { return nil }); err != nil {
		t.Fatal(err)
	}
	// A zombie from a previous incarnation stamps an epoch below the
	// sender's admission floor at the receiver.
	nets[0].gen.Store(nets[0].gen.Load() - 1)
	err := nets[0].Write(0, 1, "w", []byte("x"))
	if !errors.Is(err, fabric.ErrStaleEpoch) {
		t.Fatalf("stale-epoch write: want ErrStaleEpoch, got %v", err)
	}
	if got := nets[1].StaleEpochRejected(); got != 1 {
		t.Fatalf("receiver StaleEpochRejected() = %d, want 1", got)
	}
	// Epochs only move forward: a frame stamped above the admission floor
	// (a lagging receiver, a fresher sender) must still land.
	nets[0].gen.Store(nets[0].gen.Load() + 2)
	if err := nets[0].Write(0, 1, "w", []byte("x")); err != nil {
		t.Fatalf("ahead-of-floor write: %v", err)
	}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		//maltlint:allow rawsleep -- bounded poll helper for membership convergence; no fabric retry involved
		time.Sleep(2 * time.Millisecond)
	}
}

// rejoinRank builds a fresh Net for a previously-killed rank on the same
// address book — the restarted process — and runs the Join handshake.
func rejoinRank(t *testing.T, nets []*Net, rank int) *Net {
	t.Helper()
	addrs := nets[0].cfg.Peers
	nt, err := New(Config{
		Rank:              rank,
		Peers:             addrs,
		DialTimeout:       time.Second,
		AckTimeout:        2 * time.Second,
		RendezvousTimeout: 10 * time.Second,
		BarrierTimeout:    10 * time.Second,
		HeartbeatInterval: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("rank %d: New (rejoin): %v", rank, err)
	}
	t.Cleanup(func() { nt.Close() })
	if _, err := nt.Join(rank); err != nil {
		t.Fatalf("rank %d: Join: %v", rank, err)
	}
	return nt
}

func TestJoinReadmitsKilledRank(t *testing.T) {
	nets := newTestCluster(t, 3)
	base := nets[0].Generation()

	var joinRank atomic.Int64
	var joinEpoch atomic.Uint64
	nets[1].OnJoin(func(rank int, epoch uint64) {
		joinRank.Store(int64(rank))
		joinEpoch.Store(epoch)
	})

	if err := nets[2].Kill(2); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "rank 0 sees rank 2 dead", func() bool { return !nets[0].Alive(2) })
	waitFor(t, "rank 1 sees rank 2 dead", func() bool { return !nets[1].Alive(2) })

	// The confirmed death minted an epoch at the membership authority.
	if e := nets[0].Epoch(); e <= base {
		t.Fatalf("epoch after death = %d, want > base %d", e, base)
	}

	nt2 := rejoinRank(t, nets, 2)
	epoch := nt2.Epoch()
	//maltlint:allow epochcmp -- the stale base is deliberate: the assertion is that the rejoin minted a strictly newer epoch
	if epoch <= base {
		t.Fatalf("joiner epoch = %d, want > base %d", epoch, base)
	}
	// The announce ran before the join ack, so survivors already admit it.
	if !nets[0].Alive(2) || !nets[1].Alive(2) {
		t.Fatalf("survivors alive view of rank 2 = %v/%v, want true/true",
			nets[0].Alive(2), nets[1].Alive(2))
	}
	if joinRank.Load() != 2 || joinEpoch.Load() != epoch {
		t.Fatalf("rank 1 join watcher saw (%d, %d), want (2, %d)",
			joinRank.Load(), joinEpoch.Load(), epoch)
	}

	// Traffic flows both ways with the new incarnation.
	got := make(chan string, 1)
	if err := nt2.Register(2, "w2", func(from int, b []byte) error {
		got <- string(b)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := nets[0].Write(0, 2, "w2", []byte("welcome back")); err != nil {
		t.Fatalf("write to rejoined rank: %v", err)
	}
	if msg := <-got; msg != "welcome back" {
		t.Fatalf("rejoined rank received %q", msg)
	}
	if err := nets[1].Register(1, "w1", func(int, []byte) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if err := nt2.Write(2, 1, "w1", []byte("alive")); err != nil {
		t.Fatalf("write from rejoined rank: %v", err)
	}

	// The old incarnation's frames carry the base epoch, which is now below
	// rank 2's admission everywhere: a raw zombie write is fenced.
	zc, err := net.Dial("tcp", nets[1].Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer zc.Close()
	zombie := &Frame{Type: frameData, From: 2, Gen: base, Seq: 1, Key: "w1", Records: [][]byte{[]byte("poison")}}
	if err := writeFrame(zc, zombie); err != nil {
		t.Fatal(err)
	}
	ack, err := readFrame(bufio.NewReader(zc))
	if err != nil {
		t.Fatal(err)
	}
	if ack.Type != frameAckCum || ack.Seq != 1 {
		t.Fatalf("zombie write ack = type %d seq %d, want cumulative ack for seq 1", ack.Type, ack.Seq)
	}
	if len(ack.Records) != 1 || len(ack.Records[0]) != 1 || ack.Records[0][0] != statusStaleEpoch {
		t.Fatalf("zombie write status = %v, want statusStaleEpoch", ack.Records)
	}
	if nets[1].StaleEpochRejected() == 0 {
		t.Fatal("receiver did not count the fenced zombie write")
	}
}

func TestJoinRules(t *testing.T) {
	nets := newTestCluster(t, 2)
	if _, err := nets[0].Join(0); err == nil {
		t.Fatal("rank 0 join: want error, got nil")
	}
	if _, err := nets[1].Join(0); err == nil {
		t.Fatal("join on behalf of another rank: want error, got nil")
	}
	if _, err := nets[1].Join(7); err == nil {
		t.Fatal("out-of-range join: want error, got nil")
	}
}

// TestBarrierReleasesDuringJoinAndDeath is the elastic-membership barrier
// contract: a rank joining while a barrier is pending extends membership,
// and a rank dying inside the same barrier window still releases every
// transport-alive member.
func TestBarrierReleasesDuringJoinAndDeath(t *testing.T) {
	nets := newTestCluster(t, 4)

	if err := nets[3].Kill(3); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 3; r++ {
		waitFor(t, "survivor sees rank 3 dead", func() bool { return !nets[r].Alive(3) })
	}

	// Ranks 0 and 2 enter and block: rank 1 is alive but absent.
	var wg sync.WaitGroup
	errs := make([]error, 4)
	for _, r := range []int{0, 2} {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			errs[r] = nets[r].Barrier("mid", r)
		}(r)
	}
	waitFor(t, "ranks 0 and 2 pending at the coordinator", func() bool {
		nets[0].coord.mu.Lock()
		defer nets[0].coord.mu.Unlock()
		st := nets[0].coord.barriers["mid"]
		return st != nil && st.entered[0] && st.entered[2]
	})

	// Rank 3 rejoins mid-barrier: membership grows to {0,1,2,3}.
	nt3 := rejoinRank(t, nets, 3)

	// Rank 1 dies inside the barrier window without ever entering, and the
	// joiner enters. Alive membership is {0,2,3} — all entered — so every
	// transport-alive member must release.
	if err := nets[1].Kill(1); err != nil {
		t.Fatal(err)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		errs[3] = nt3.Barrier("mid", 3)
	}()
	wg.Wait()
	for _, r := range []int{0, 2, 3} {
		if errs[r] != nil {
			t.Fatalf("rank %d barrier: %v", r, errs[r])
		}
	}
}
