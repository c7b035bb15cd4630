package fabric_test

import (
	"bytes"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"malt/internal/fabric"
	"malt/internal/fabric/tcpnet"
)

// The tests in this file check the Transport contract (transport.go) on
// the real-socket implementation, fabric/stream over loopback TCP, in its
// ack-per-frame mode (WindowFrames: 1): every Write returns only after the
// receiver's handler ran and acknowledged the frame.

// newTCP assembles a ranks-wide loopback TCP cluster inside this process:
// each rank pre-binds a :0 listener so the address book is known before
// any endpoint exists, then all ranks rendezvous.
func newTCP(t *testing.T, ranks int) []*tcpnet.Net {
	t.Helper()
	lns := make([]net.Listener, ranks)
	addrs := make([]string, ranks)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("rank %d: listen: %v", i, err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	nets := make([]*tcpnet.Net, ranks)
	for i := range nets {
		nt, err := tcpnet.New(tcpnet.Config{
			Rank:              i,
			Peers:             addrs,
			Listener:          lns[i],
			WindowFrames:      1,
			RendezvousTimeout: 10 * time.Second,
			BarrierTimeout:    10 * time.Second,
			HeartbeatInterval: 10 * time.Millisecond,
		})
		if err != nil {
			t.Fatalf("rank %d: New: %v", i, err)
		}
		nets[i] = nt
		t.Cleanup(func() { nt.Close() })
	}
	errs := make(chan error, ranks)
	for _, nt := range nets {
		go func(nt *tcpnet.Net) { errs <- nt.Rendezvous() }(nt)
	}
	for range nets {
		if err := <-errs; err != nil {
			t.Fatalf("rendezvous: %v", err)
		}
	}
	return nets
}

func TestTCPWriteDelivers(t *testing.T) {
	nets := newTCP(t, 2)
	got := make(chan []byte, 1)
	var from int
	if err := nets[1].Register(1, "seg", func(sender int, p []byte) error {
		from = sender
		got <- append([]byte(nil), p...)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{0x5A}, 10000)
	if err := nets[0].Write(0, 1, "seg", payload); err != nil {
		t.Fatal(err)
	}
	// The ack guarantees the handler ran before Write returned.
	select {
	case p := <-got:
		if !bytes.Equal(p, payload) {
			t.Fatal("payload corrupted over TCP")
		}
	default:
		t.Fatal("handler did not run before ack")
	}
	if from != 0 {
		t.Fatalf("sender = %d", from)
	}
	if b := nets[0].Stats().TotalBytes(); b != uint64(len(payload)) {
		t.Fatalf("bytes = %d", b)
	}
}

func TestTCPUnregisteredKeyRejected(t *testing.T) {
	nets := newTCP(t, 2)
	if err := nets[0].Write(0, 1, "nope", []byte("x")); !errors.Is(err, fabric.ErrNotRegistered) {
		t.Fatalf("err = %v, want ErrNotRegistered", err)
	}
}

func TestTCPHandlerErrorSurfacesToSender(t *testing.T) {
	nets := newTCP(t, 2)
	if err := nets[1].Register(1, "seg", func(int, []byte) error {
		return errors.New("receiver rejects")
	}); err != nil {
		t.Fatal(err)
	}
	if err := nets[0].Write(0, 1, "seg", []byte("x")); err == nil {
		t.Fatal("handler error should surface as failed write")
	}
}

func TestTCPDeadRankUnreachable(t *testing.T) {
	nets := newTCP(t, 3)
	if err := nets[2].Register(2, "seg", func(int, []byte) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if err := nets[2].Kill(2); err != nil {
		t.Fatal(err)
	}
	// Only rank 2's own endpoint can kill it; rank 0 learns of the death
	// from its heartbeat prober.
	deadline := time.Now().Add(5 * time.Second)
	for nets[0].Alive(2) {
		if time.Now().After(deadline) {
			t.Fatal("rank 0 never saw rank 2 die")
		}
		//maltlint:allow rawsleep -- bounded poll for heartbeat strike-out; no fabric retry involved
		time.Sleep(2 * time.Millisecond)
	}
	if err := nets[0].Write(0, 2, "seg", []byte("x")); !errors.Is(err, fabric.ErrUnreachable) {
		t.Fatalf("err = %v", err)
	}
}

func TestTCPConcurrentWrites(t *testing.T) {
	const ranks, writes = 4, 60
	nets := newTCP(t, ranks)
	var mu sync.Mutex
	count := map[int]int{}
	for r := 0; r < ranks; r++ {
		if err := nets[r].Register(r, "seg", func(from int, p []byte) error {
			mu.Lock()
			count[r]++
			mu.Unlock()
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for from := 0; from < ranks; from++ {
		wg.Add(1)
		go func(from int) {
			defer wg.Done()
			for i := 0; i < writes; i++ {
				to := (from + 1 + i%(ranks-1)) % ranks
				if err := nets[from].Write(from, to, "seg", []byte{byte(i)}); err != nil {
					t.Errorf("write %d->%d: %v", from, to, err)
					return
				}
			}
		}(from)
	}
	wg.Wait()
	mu.Lock()
	total := 0
	for _, c := range count {
		total += c
	}
	mu.Unlock()
	if total != ranks*writes {
		t.Fatalf("delivered %d writes, want %d", total, ranks*writes)
	}
}

func TestTCPCloseIdempotent(t *testing.T) {
	nets := newTCP(t, 2)
	if err := nets[0].Close(); err != nil {
		t.Fatal(err)
	}
	if err := nets[0].Close(); err != nil {
		t.Fatal(err)
	}
}

// TestTCPPingPong bounces payloads between two ranks: each write's deposit
// is visible to the receiver as soon as the sender's Write returns.
func TestTCPPingPong(t *testing.T) {
	nets := newTCP(t, 2)
	recv0 := make(chan byte, 16)
	recv1 := make(chan byte, 16)
	if err := nets[0].Register(0, "pp", func(_ int, p []byte) error { recv0 <- p[0]; return nil }); err != nil {
		t.Fatal(err)
	}
	if err := nets[1].Register(1, "pp", func(_ int, p []byte) error { recv1 <- p[0]; return nil }); err != nil {
		t.Fatal(err)
	}
	for i := byte(0); i < 10; i++ {
		if err := nets[0].Write(0, 1, "pp", []byte{i}); err != nil {
			t.Fatal(err)
		}
		if got := <-recv1; got != i {
			t.Fatalf("rank1 got %d, want %d", got, i)
		}
		if err := nets[1].Write(1, 0, "pp", []byte{i + 100}); err != nil {
			t.Fatal(err)
		}
		if got := <-recv0; got != i+100 {
			t.Fatalf("rank0 got %d, want %d", got, i+100)
		}
	}
}
