package fabric

import (
	"errors"
	"sync"
	"testing"
	"time"
)

func newTestFabric(t *testing.T, ranks int) *Fabric {
	t.Helper()
	f, err := New(Config{Ranks: ranks})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{Ranks: 0}); err == nil {
		t.Fatal("Ranks=0 should fail")
	}
	f := newTestFabric(t, 3)
	if f.Ranks() != 3 {
		t.Fatalf("Ranks = %d", f.Ranks())
	}
	if f.Config().Latency == 0 || f.Config().Bandwidth == 0 {
		t.Fatal("defaults not applied")
	}
}

func TestOneSidedWriteDelivers(t *testing.T) {
	f := newTestFabric(t, 2)
	var got []byte
	var from int
	err := f.Register(1, "seg", func(sender int, p []byte) error {
		from = sender
		got = append([]byte(nil), p...)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Write(0, 1, "seg", []byte("hello")); err != nil {
		t.Fatal(err)
	}
	if from != 0 || string(got) != "hello" {
		t.Fatalf("delivered from=%d payload=%q", from, got)
	}
}

func TestWriteToUnregisteredKey(t *testing.T) {
	f := newTestFabric(t, 2)
	err := f.Write(0, 1, "nope", []byte("x"))
	if !errors.Is(err, ErrNotRegistered) {
		t.Fatalf("err = %v, want ErrNotRegistered", err)
	}
}

func TestWriteRankValidation(t *testing.T) {
	f := newTestFabric(t, 2)
	if err := f.Write(-1, 1, "k", nil); err == nil {
		t.Fatal("negative sender should fail")
	}
	if err := f.Write(0, 5, "k", nil); err == nil {
		t.Fatal("out-of-range dest should fail")
	}
}

func TestKillMakesUnreachable(t *testing.T) {
	f := newTestFabric(t, 3)
	if err := f.Register(2, "seg", func(int, []byte) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if err := f.Kill(2); err != nil {
		t.Fatal(err)
	}
	if f.Alive(2) {
		t.Fatal("rank 2 should be dead")
	}
	err := f.Write(0, 2, "seg", []byte("x"))
	if !errors.Is(err, ErrUnreachable) {
		t.Fatalf("write to dead rank: err = %v", err)
	}
	if err := f.Ping(0, 2); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("ping to dead rank: err = %v", err)
	}
	if got := f.Stats().FailedWrites(); got != 1 {
		t.Fatalf("FailedWrites = %d, want 1", got)
	}
	alive := f.AliveRanks()
	if len(alive) != 2 || alive[0] != 0 || alive[1] != 1 {
		t.Fatalf("AliveRanks = %v", alive)
	}
}

func TestDeadSenderCannotWrite(t *testing.T) {
	f := newTestFabric(t, 2)
	if err := f.Register(1, "seg", func(int, []byte) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if err := f.Kill(0); err != nil {
		t.Fatal(err)
	}
	if err := f.Write(0, 1, "seg", []byte("x")); !errors.Is(err, ErrSenderDead) {
		t.Fatalf("err = %v, want ErrSenderDead", err)
	}
}

func TestReviveRestoresReachability(t *testing.T) {
	f := newTestFabric(t, 2)
	called := false
	if err := f.Register(1, "seg", func(int, []byte) error { called = true; return nil }); err != nil {
		t.Fatal(err)
	}
	if err := f.Kill(1); err != nil {
		t.Fatal(err)
	}
	if err := f.Revive(1); err != nil {
		t.Fatal(err)
	}
	if err := f.Write(0, 1, "seg", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if !called {
		t.Fatal("handler not invoked after revive")
	}
}

func TestLivenessCallback(t *testing.T) {
	f := newTestFabric(t, 2)
	var mu sync.Mutex
	var events []bool
	f.OnLivenessChange(func(rank int, alive bool) {
		mu.Lock()
		events = append(events, alive)
		mu.Unlock()
	})
	if err := f.Kill(1); err != nil {
		t.Fatal(err)
	}
	if err := f.Kill(1); err != nil { // no change, no event
		t.Fatal(err)
	}
	if err := f.Revive(1); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(events) != 2 || events[0] != false || events[1] != true {
		t.Fatalf("events = %v", events)
	}
}

func TestPartition(t *testing.T) {
	f := newTestFabric(t, 4)
	if err := f.Register(2, "seg", func(int, []byte) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if err := f.Partition([][]int{{0, 1}, {2, 3}}); err != nil {
		t.Fatal(err)
	}
	if err := f.Write(0, 2, "seg", []byte("x")); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("cross-partition write: err = %v", err)
	}
	if err := f.Ping(3, 2); err != nil {
		t.Fatalf("intra-partition ping failed: %v", err)
	}
	f.Heal()
	if err := f.Write(0, 2, "seg", []byte("x")); err != nil {
		t.Fatalf("post-heal write failed: %v", err)
	}
	if err := f.Partition([][]int{{9}}); err == nil {
		t.Fatal("out-of-range partition rank should fail")
	}
}

func TestStatsAccounting(t *testing.T) {
	f := newTestFabric(t, 3)
	for r := 0; r < 3; r++ {
		if err := f.Register(r, "seg", func(int, []byte) error { return nil }); err != nil {
			t.Fatal(err)
		}
	}
	payload := make([]byte, 1000)
	if err := f.Write(0, 1, "seg", payload); err != nil {
		t.Fatal(err)
	}
	//maltlint:allow bufretain -- stats test re-posts one read-only buffer to count bytes; the fabric copies on deposit
	if err := f.Write(0, 2, "seg", payload); err != nil {
		t.Fatal(err)
	}
	//maltlint:allow bufretain -- stats test re-posts one read-only buffer to count bytes; the fabric copies on deposit
	if err := f.Write(1, 0, "seg", payload[:500]); err != nil {
		t.Fatal(err)
	}
	st := f.Stats()
	if st.BytesSent(0) != 2000 {
		t.Fatalf("BytesSent(0) = %d", st.BytesSent(0))
	}
	if st.BytesReceived(0) != 500 {
		t.Fatalf("BytesReceived(0) = %d", st.BytesReceived(0))
	}
	if st.TotalBytes() != 2500 {
		t.Fatalf("TotalBytes = %d", st.TotalBytes())
	}
	if st.TotalMessages() != 3 {
		t.Fatalf("TotalMessages = %d", st.TotalMessages())
	}
	if st.LinkBytes(0, 1) != 1000 {
		t.Fatalf("LinkBytes(0,1) = %d", st.LinkBytes(0, 1))
	}
	if st.ModeledNetworkTime() <= 0 {
		t.Fatal("modeled time should accumulate")
	}
	st.Reset()
	if st.TotalBytes() != 0 || st.TotalMessages() != 0 {
		t.Fatal("Reset did not clear counters")
	}
}

func TestModelCost(t *testing.T) {
	f, err := New(Config{Ranks: 2, Latency: time.Microsecond, Bandwidth: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	// 1 GiB at 1 GiB/s = 1 s, plus 1 µs latency.
	got := f.modelCost(1 << 30)
	if got < time.Second || got > time.Second+time.Millisecond {
		t.Fatalf("modelCost(1GiB) = %v", got)
	}
	if c := f.modelCost(0); c != time.Microsecond {
		t.Fatalf("modelCost(0) = %v", c)
	}
}

func TestDelaySleepImposed(t *testing.T) {
	f, err := New(Config{Ranks: 2, Latency: 20 * time.Millisecond, Bandwidth: 1 << 40, Delay: DelaySleep})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Register(1, "seg", func(int, []byte) error { return nil }); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := f.Write(0, 1, "seg", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 15*time.Millisecond {
		t.Fatalf("DelaySleep write returned in %v, want >= ~20ms", elapsed)
	}
}

func TestConcurrentWritesAreSafe(t *testing.T) {
	f := newTestFabric(t, 8)
	var mu sync.Mutex
	count := 0
	for r := 0; r < 8; r++ {
		if err := f.Register(r, "seg", func(int, []byte) error {
			mu.Lock()
			count++
			mu.Unlock()
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for from := 0; from < 8; from++ {
		wg.Add(1)
		go func(from int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				to := (from + 1 + i) % 8
				if to == from {
					continue
				}
				if err := f.Write(from, to, "seg", []byte{byte(i)}); err != nil {
					t.Errorf("write: %v", err)
					return
				}
			}
		}(from)
	}
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	if uint64(count) != f.Stats().TotalMessages() {
		t.Fatalf("handler invocations %d != messages %d", count, f.Stats().TotalMessages())
	}
}

func TestUnregister(t *testing.T) {
	f := newTestFabric(t, 2)
	if err := f.Register(1, "seg", func(int, []byte) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if err := f.Unregister(1, "seg"); err != nil {
		t.Fatal(err)
	}
	if err := f.Write(0, 1, "seg", []byte("x")); !errors.Is(err, ErrNotRegistered) {
		t.Fatalf("err = %v, want ErrNotRegistered", err)
	}
}

func TestDelaySpinImposed(t *testing.T) {
	f, err := New(Config{Ranks: 2, Latency: 5 * time.Millisecond, Bandwidth: 1 << 40, Delay: DelaySpin})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Register(1, "seg", func(int, []byte) error { return nil }); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := f.Write(0, 1, "seg", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 4*time.Millisecond {
		t.Fatalf("DelaySpin write returned in %v, want >= ~5ms", elapsed)
	}
}

func TestRegisterValidation(t *testing.T) {
	f := newTestFabric(t, 2)
	if err := f.Register(0, "k", nil); err == nil {
		t.Fatal("nil handler should fail")
	}
	if err := f.Register(9, "k", func(int, []byte) error { return nil }); err == nil {
		t.Fatal("out-of-range rank should fail")
	}
	if err := f.Unregister(9, "k"); err == nil {
		t.Fatal("out-of-range unregister should fail")
	}
}

func TestInProcCloseNoop(t *testing.T) {
	f, err := New(Config{Ranks: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestGroupOfAndReachable(t *testing.T) {
	f := newTestFabric(t, 4)
	if f.GroupOf(2) != 0 || !f.Reachable(0, 3) {
		t.Fatal("unpartitioned fabric should be one group")
	}
	if err := f.Partition([][]int{{0, 1}, {2, 3}}); err != nil {
		t.Fatal(err)
	}
	if f.GroupOf(0) != 0 || f.GroupOf(3) != 1 {
		t.Fatalf("groups = %d/%d", f.GroupOf(0), f.GroupOf(3))
	}
	if f.Reachable(0, 2) {
		t.Fatal("cross-partition ranks reported reachable")
	}
	if !f.Reachable(2, 3) {
		t.Fatal("same-partition ranks reported unreachable")
	}
	if err := f.Kill(3); err != nil {
		t.Fatal(err)
	}
	if f.Reachable(2, 3) {
		t.Fatal("dead rank reported reachable")
	}
	if f.GroupOf(-1) != 0 || f.Reachable(-1, 0) {
		t.Fatal("out-of-range ranks mishandled")
	}
}

func TestPartitionNotifiesWatchers(t *testing.T) {
	f := newTestFabric(t, 2)
	var mu sync.Mutex
	calls := 0
	f.OnLivenessChange(func(int, bool) {
		mu.Lock()
		calls++
		mu.Unlock()
	})
	if err := f.Partition([][]int{{0}, {1}}); err != nil {
		t.Fatal(err)
	}
	f.Heal()
	mu.Lock()
	defer mu.Unlock()
	if calls < 2 {
		t.Fatalf("watchers notified %d times, want >= 2 (partition + heal)", calls)
	}
}
