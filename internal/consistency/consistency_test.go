package consistency

import (
	"sync"
	"testing"
	"time"

	"malt/internal/dataflow"
	"malt/internal/dstorm"
	"malt/internal/fabric"
	"malt/internal/vol"
)

func newVectors(t *testing.T, ranks, dim int) ([]*vol.Vector, *fabric.Fabric) {
	t.Helper()
	f, err := fabric.New(fabric.Config{Ranks: ranks})
	if err != nil {
		t.Fatal(err)
	}
	c := dstorm.NewCluster(f)
	g, err := dataflow.New(dataflow.All, ranks)
	if err != nil {
		t.Fatal(err)
	}
	vecs := make([]*vol.Vector, ranks)
	errs := make([]error, ranks)
	var wg sync.WaitGroup
	for r := 0; r < ranks; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			vecs[r], errs[r] = vol.Create(c.Node(r), "w", vol.Dense, dim, g, vol.Options{QueueLen: 8})
		}(r)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	return vecs, f
}

func TestParseModel(t *testing.T) {
	for s, want := range map[string]Model{"bsp": BSP, "asp": ASP, "ssp": SSP, "BSP": BSP} {
		got, err := ParseModel(s)
		if err != nil || got != want {
			t.Fatalf("ParseModel(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseModel("nope"); err == nil {
		t.Fatal("invalid model should fail")
	}
	if BSP.String() != "BSP" || ASP.String() != "ASP" || SSP.String() != "SSP" {
		t.Fatal("String names wrong")
	}
}

func TestBSPAdvanceBarriers(t *testing.T) {
	vecs, _ := newVectors(t, 3, 2)
	ctrl := New(Policy{Model: BSP})
	var wg sync.WaitGroup
	for _, v := range vecs {
		wg.Add(1)
		go func(v *vol.Vector) {
			defer wg.Done()
			if _, err := ctrl.Advance(v, 1); err != nil {
				t.Errorf("advance: %v", err)
			}
		}(v)
	}
	wg.Wait()
}

func TestASPAdvanceNeverBlocks(t *testing.T) {
	vecs, _ := newVectors(t, 2, 2)
	ctrl := New(Policy{Model: ASP})
	start := time.Now()
	if _, err := ctrl.Advance(vecs[0], 100); err != nil {
		t.Fatal(err)
	}
	if time.Since(start) > 100*time.Millisecond {
		t.Fatal("ASP advance blocked")
	}
}

func TestASPGatherSkipsStaleUpdates(t *testing.T) {
	vecs, _ := newVectors(t, 3, 2)
	// Peer 1 scatters at iteration 1 (stale), peer 2 at iteration 50.
	vecs[1].Data()[0] = 100
	if _, err := vecs[1].Scatter(1); err != nil {
		t.Fatal(err)
	}
	vecs[2].Data()[0] = 60
	if _, err := vecs[2].Scatter(50); err != nil {
		t.Fatal(err)
	}
	ctrl := New(Policy{Model: ASP, ASPCutoff: 10})
	st, err := ctrl.Gather(vecs[0], vol.AverageIncoming, 52)
	if err != nil {
		t.Fatal(err)
	}
	if st.Updates != 1 {
		t.Fatalf("folded %d updates, want 1 (stale one skipped)", st.Updates)
	}
	if vecs[0].Data()[0] != 60 {
		t.Fatalf("data = %v, want the fresh update only", vecs[0].Data())
	}
}

func TestASPGatherNoCutoffFoldsAll(t *testing.T) {
	vecs, _ := newVectors(t, 3, 1)
	if _, err := vecs[1].Scatter(1); err != nil {
		t.Fatal(err)
	}
	if _, err := vecs[2].Scatter(50); err != nil {
		t.Fatal(err)
	}
	ctrl := New(Policy{Model: ASP})
	st, err := ctrl.Gather(vecs[0], vol.Average, 52)
	if err != nil {
		t.Fatal(err)
	}
	if st.Updates != 2 {
		t.Fatalf("folded %d updates, want 2", st.Updates)
	}
}

func TestSSPStallsForStraggler(t *testing.T) {
	vecs, _ := newVectors(t, 2, 1)
	ctrl := New(Policy{Model: SSP, Bound: 3, StallLimit: 5 * time.Second})
	// Peer 1 is at iteration 2; rank 0 wants to advance to 10 (gap 8 > 3).
	if _, err := vecs[1].Scatter(2); err != nil {
		t.Fatal(err)
	}
	released := make(chan time.Duration, 1)
	go func() {
		waited, _ := ctrl.Advance(vecs[0], 10)
		released <- waited
	}()
	select {
	case <-released:
		t.Fatal("SSP advanced despite straggler beyond bound")
	case <-time.After(50 * time.Millisecond):
	}
	// Straggler catches up to iteration 8 (gap 2 ≤ 3): stall releases.
	if _, err := vecs[1].Scatter(8); err != nil {
		t.Fatal(err)
	}
	select {
	case waited := <-released:
		if waited < 40*time.Millisecond {
			t.Fatalf("waited = %v, expected a real stall", waited)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("SSP did not release after straggler caught up")
	}
}

// stallThenRelease starts an SSP Advance on rank 0 that must stall on the
// straggler rank 1, runs release once the stall is under way, and requires
// the stall to end within 2 s. StallLimit is 10 s, so only the release's
// wake-up can end it that soon.
func stallThenRelease(t *testing.T, release func(vecs []*vol.Vector) error) {
	t.Helper()
	vecs, _ := newVectors(t, 2, 1)
	ctrl := New(Policy{Model: SSP, Bound: 3, StallLimit: 10 * time.Second})
	if _, err := vecs[1].Scatter(2); err != nil {
		t.Fatal(err)
	}
	released := make(chan struct{})
	go func() {
		defer close(released)
		if _, err := ctrl.Advance(vecs[0], 10); err != nil {
			t.Errorf("advance: %v", err)
		}
	}()
	select {
	case <-released:
		t.Fatal("SSP advanced despite straggler beyond bound")
	case <-time.After(50 * time.Millisecond):
	}
	start := time.Now()
	if err := release(vecs); err != nil {
		t.Fatal(err)
	}
	select {
	case <-released:
	case <-time.After(2 * time.Second):
		t.Fatal("stall did not wake within 2 s of its release")
	}
	t.Logf("stall ended %v after the release", time.Since(start))
}

func TestSSPStallWakesOnCatchUp(t *testing.T) {
	stallThenRelease(t, func(vecs []*vol.Vector) error {
		_, err := vecs[1].Scatter(8) // gap 2 <= 3
		return err
	})
}

func TestSSPStallWakesOnRemovePeer(t *testing.T) {
	stallThenRelease(t, func(vecs []*vol.Vector) error {
		vecs[0].RemovePeer(1) // the straggler is declared dead
		return nil
	})
}

func TestSSPNoStallWithinBound(t *testing.T) {
	vecs, _ := newVectors(t, 2, 1)
	ctrl := New(Policy{Model: SSP, Bound: 5})
	if _, err := vecs[1].Scatter(8); err != nil {
		t.Fatal(err)
	}
	waited, err := ctrl.Advance(vecs[0], 10) // gap 2 <= 5
	if err != nil {
		t.Fatal(err)
	}
	if waited > 50*time.Millisecond {
		t.Fatalf("waited %v despite being within bound", waited)
	}
}

func TestSSPIgnoresSilentAndDeadPeers(t *testing.T) {
	vecs, f := newVectors(t, 3, 1)
	dead := map[int]bool{}
	ctrl := New(Policy{
		Model: SSP, Bound: 1,
		StallLimit: 5 * time.Second,
		Alive:      func(r int) bool { return !dead[r] },
	})
	// Peer 1 never scattered (iter 0): exempt. Peer 2 scattered long ago
	// but is dead: exempt.
	if _, err := vecs[2].Scatter(1); err != nil {
		t.Fatal(err)
	}
	dead[2] = true
	waited, err := ctrl.Advance(vecs[0], 100)
	if err != nil {
		t.Fatal(err)
	}
	if waited > 100*time.Millisecond {
		t.Fatalf("stalled %v on exempt peers", waited)
	}
	_ = f
}

func TestSSPStallLimitEscapes(t *testing.T) {
	vecs, _ := newVectors(t, 2, 1)
	ctrl := New(Policy{Model: SSP, Bound: 1, StallLimit: 30 * time.Millisecond})
	if _, err := vecs[1].Scatter(1); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	waited, err := ctrl.Advance(vecs[0], 100) // straggler never catches up
	if err != nil {
		t.Fatal(err)
	}
	if time.Since(start) > 2*time.Second {
		t.Fatal("stall limit did not bound the wait")
	}
	if waited < 25*time.Millisecond {
		t.Fatalf("waited %v, expected ~StallLimit", waited)
	}
}

func TestPolicyDefaults(t *testing.T) {
	c := New(Policy{Model: SSP})
	p := c.Policy()
	if p.Bound == 0 || p.StallLimit == 0 {
		t.Fatalf("defaults not applied: %+v", p)
	}
}
