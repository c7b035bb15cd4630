package probes

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"malt/benchmark/harness"
	"malt/internal/fabric/stream"
)

// stream times the framed-stream transport on both flavors: windowed
// Write+Drain at 4 KB and 1.6 MB (every byte must reach rank 1's handler),
// the coordinator barrier, and the frame codec on its own.
func (p *prober) stream() error {
	rng := rand.New(rand.NewSource(p.seed))
	small := make([]byte, smallBytes)
	large := make([]byte, largeBytes)
	rng.Read(small)
	rng.Read(large)

	for _, flavor := range []struct{ network, tag string }{
		{stream.NetworkUnix, "uds"},
		{stream.NetworkTCP, "tcp"},
	} {
		nets, err := harness.BringUp(flavor.network, p.sockDir)
		if err != nil {
			return fmt.Errorf("%s bring-up: %w", flavor.tag, err)
		}
		for _, n := range nets {
			defer n.Close()
		}
		var got atomic.Int64
		var want atomic.Pointer[[]byte] // the payload in flight; set before each batch
		var bad atomic.Bool
		if err := nets[1].Register(1, "probe", func(from int, payload []byte) error {
			if !bytes.Equal(payload, *want.Load()) {
				bad.Store(true)
			}
			got.Add(int64(len(payload)))
			return nil
		}); err != nil {
			return err
		}
		write := func(payload []byte) func(n int) ([]time.Duration, error) {
			return func(n int) ([]time.Duration, error) {
				want.Store(&payload)
				got.Store(0)
				start := time.Now()
				for i := 0; i < n; i++ {
					//maltlint:allow bufretain -- stream.Write encodes payload into a pooled frame buffer before it returns, and payload is never mutated
					if err := nets[0].Write(0, 1, "probe", payload); err != nil {
						return nil, err
					}
				}
				if err := nets[0].Drain(); err != nil {
					return nil, err
				}
				d := time.Since(start)
				if bad.Load() || got.Load() != int64(n*len(payload)) {
					return nil, fmt.Errorf("handler received %d of %d bytes (corrupt: %v)", got.Load(), n*len(payload), bad.Load())
				}
				return []time.Duration{d}, nil
			}
		}
		ns, allocs, err := p.bench(write(small))
		if err != nil {
			return fmt.Errorf("%s small write: %w", flavor.tag, err)
		}
		p.add("stream.write_small_us_"+flavor.tag, ns[0]/1e3)
		if flavor.tag == "uds" {
			p.add("stream.write_allocs_per_op", allocs)
		}
		if ns, _, err = p.bench(write(large)); err != nil {
			return fmt.Errorf("%s large write: %w", flavor.tag, err)
		}
		p.add("stream.write_large_mbps_"+flavor.tag, float64(largeBytes)/1e6/(ns[0]/1e9))

		ns, _, err = p.bench(func(n int) ([]time.Duration, error) {
			peer := make(chan error, 1)
			go func() {
				for i := 0; i < n; i++ {
					if err := nets[1].Barrier("probe", 1); err != nil {
						peer <- err
						return
					}
				}
				peer <- nil
			}()
			start := time.Now()
			for i := 0; i < n; i++ {
				if err := nets[0].Barrier("probe", 0); err != nil {
					<-peer
					return nil, err
				}
			}
			d := time.Since(start)
			return []time.Duration{d}, <-peer
		})
		if err != nil {
			return fmt.Errorf("%s barrier: %w", flavor.tag, err)
		}
		p.add("stream.barrier_us_"+flavor.tag, ns[0]/1e3)
	}

	// Frame codec: one 4 KB data frame (frame type 1), encode and decode.
	frame := &stream.Frame{Type: 1, From: 0, Gen: 7, Seq: 1, Key: "dstorm/vol/w", Records: [][]byte{small}}
	buf := make([]byte, 0, 2*smallBytes)
	ns, _, err := p.bench(func(n int) ([]time.Duration, error) {
		var enc, dec time.Duration
		for i := 0; i < n; i++ {
			t0 := time.Now()
			b, err := stream.AppendFrame(buf[:0], frame)
			t1 := time.Now()
			if err != nil {
				return nil, err
			}
			f, used, err := stream.DecodeFrame(b)
			dec += time.Since(t1)
			enc += t1.Sub(t0)
			if err != nil {
				return nil, err
			}
			if used != len(b) || f.Key != frame.Key || f.Seq != frame.Seq || len(f.Records) != 1 || !bytes.Equal(f.Records[0], small) {
				return nil, errors.New("decoded frame differs from the encoded one")
			}
		}
		return []time.Duration{enc, dec}, nil
	})
	if err != nil {
		return fmt.Errorf("frame codec: %w", err)
	}
	p.add("stream.frame_encode_ns", ns[0])
	p.add("stream.frame_decode_ns", ns[1])
	return nil
}
