package fabric_test

import (
	"bytes"
	"net"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"malt/internal/fabric"
	"malt/internal/fabric/stream"
)

// The tests in this file check the no-retain half of the Transport
// contract: Write and WriteBatch do not read a payload after they return,
// so the caller may overwrite it at once. dstorm's encode-buffer reuse and
// Segment.ScatterFramed (which hands the vector's own storage to the
// transport) depend on it. Each transport runs in its default mode — the
// stream flavors with their default write window, where Write returns
// before the receiver's handler has run.

// retainTransports builds a two-rank cluster per transport and returns
// each rank's Transport (the simulator serves both ranks from one value).
func retainTransports(t *testing.T) map[string][2]fabric.Transport {
	t.Helper()
	sim, err := fabric.New(fabric.Config{Ranks: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sim.Close() })
	out := map[string][2]fabric.Transport{"sim": {sim, sim}}

	dir := t.TempDir()
	uds := newStreamPair(t, stream.NetworkUnix, []string{filepath.Join(dir, "r0.sock"), filepath.Join(dir, "r1.sock")})
	out["uds"] = [2]fabric.Transport{uds[0], uds[1]}
	tcp := newStreamPair(t, stream.NetworkTCP, nil)
	out["tcp"] = [2]fabric.Transport{tcp[0], tcp[1]}
	return out
}

// newStreamPair brings up two stream endpoints at their default window and
// runs the rendezvous. With addrs nil it pre-binds loopback TCP listeners.
func newStreamPair(t *testing.T, network string, addrs []string) [2]*stream.Net {
	t.Helper()
	lns := make([]net.Listener, 2)
	if addrs == nil {
		addrs = make([]string, 2)
		for i := range lns {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatalf("rank %d: listen: %v", i, err)
			}
			lns[i] = ln
			addrs[i] = ln.Addr().String()
		}
	}
	var nets [2]*stream.Net
	for i := range nets {
		nt, err := stream.New(stream.Config{
			Rank:              i,
			Peers:             addrs,
			Network:           network,
			Listener:          lns[i],
			RendezvousTimeout: 10 * time.Second,
			BarrierTimeout:    10 * time.Second,
			HeartbeatInterval: 10 * time.Millisecond,
		})
		if err != nil {
			t.Fatalf("%s rank %d: New: %v", network, i, err)
		}
		nets[i] = nt
		t.Cleanup(func() { nt.Close() })
	}
	errs := make(chan error, 2)
	for _, nt := range nets {
		go func(nt *stream.Net) { errs <- nt.Rendezvous() }(nt)
	}
	for range nets {
		if err := <-errs; err != nil {
			t.Fatalf("%s rendezvous: %v", network, err)
		}
	}
	return nets
}

// scribble overwrites b.
func scribble(b []byte) {
	for i := range b {
		b[i] = 0xEE
	}
}

// pattern fills b with bytes that identify round r.
func pattern(b []byte, r int) {
	for i := range b {
		b[i] = byte(i*7 + r*13 + 1)
	}
}

func TestWriteDoesNotRetainPayload(t *testing.T) {
	const rounds, size = 50, 64 << 10
	for name, tr := range retainTransports(t) {
		t.Run(name, func(t *testing.T) {
			var mu sync.Mutex
			var got [][]byte
			arrived := make(chan struct{}, 3*rounds)
			if err := tr[1].Register(1, "retain", func(_ int, p []byte) error {
				mu.Lock()
				got = append(got, append([]byte(nil), p...))
				mu.Unlock()
				arrived <- struct{}{}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			// One buffer for every Write and one pair for every WriteBatch,
			// each scribbled over the moment the call returns. The bufretain
			// analyzer assumes a longer window (until the next Drain) than
			// the contract checked here, and it works per function: the
			// posts run in closures over the buffers so it does not pair
			// them with the scribbles that follow.
			buf := make([]byte, size)
			recs := [][]byte{make([]byte, size/2), make([]byte, size/4)}
			write := func() error { return tr[0].Write(0, 1, "retain", buf) }
			writeBatch := func() error { return tr[0].WriteBatch(0, 1, "retain", recs) }
			want := make([][]byte, 0, 3*rounds)
			for r := 0; r < rounds; r++ {
				pattern(buf, r)
				want = append(want, append([]byte(nil), buf...))
				if err := write(); err != nil {
					t.Fatalf("round %d Write: %v", r, err)
				}
				scribble(buf)
				for i, rec := range recs {
					pattern(rec, 1000*(i+1)+r)
					want = append(want, append([]byte(nil), rec...))
				}
				if err := writeBatch(); err != nil {
					t.Fatalf("round %d WriteBatch: %v", r, err)
				}
				for _, rec := range recs {
					scribble(rec)
				}
				recs[0], recs[1] = recs[1], recs[0] // the slice of records is the caller's too
			}
			deadline := time.After(10 * time.Second)
			for i := 0; i < len(want); i++ {
				select {
				case <-arrived:
				case <-deadline:
					t.Fatalf("%d of %d records delivered", i, len(want))
				}
			}
			mu.Lock()
			defer mu.Unlock()
			for i := range want {
				if !bytes.Equal(got[i], want[i]) {
					t.Fatalf("record %d: handler saw bytes written after the call returned", i)
				}
			}
		})
	}
}
