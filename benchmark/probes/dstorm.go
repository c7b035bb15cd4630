package probes

import (
	"bytes"
	"fmt"
	"math/rand"
	"time"

	"malt/internal/dataflow"
	"malt/internal/dstorm"
)

// dstorm times Segment.Scatter and Segment.Gather with pre-encoded
// payloads over the simulated fabric — the header stamp, the sendbuf copy,
// the ring deposit and the drain snapshot, without vol's encode, decode and
// fold — at dense-bsp's 1.6 MB and small-bsp-tcp's 4 KB, and the send
// pipeline's cost per coalesced record.
func (p *prober) dstorm() error {
	rng := rand.New(rand.NewSource(p.seed))
	c, err := newSimCluster(2, dataflow.All)
	if err != nil {
		return err
	}
	defer c.fab.Close()

	for _, shape := range []struct {
		name  string
		bytes int
		scale float64 // reported per this many bytes (0: per operation)
		sName string
		gName string
	}{
		{"large", largeBytes, 1024, "dstorm.scatter_ns_per_kb", "dstorm.gather_ns_per_kb"},
		{"small", smallBytes, 0, "dstorm.scatter_small_ns", "dstorm.gather_small_ns"},
	} {
		segs, err := c.segments(shape.name, shape.bytes)
		if err != nil {
			return err
		}
		payload := make([]byte, shape.bytes)
		rng.Read(payload)
		ns, _, err := p.bench(func(n int) ([]time.Duration, error) {
			var s, g time.Duration
			for i := 0; i < n; i++ {
				//maltlint:allow bufretain -- no pipeline on this node and the simulated fabric deposits synchronously, so the previous Scatter finished with payload before it returned
				payload[0] = byte(i) // every update differs from the last
				t0 := time.Now()
				//maltlint:allow bufretain -- as above: each Scatter has deposited its copy by the time it returns
				failed, err := segs[0].Scatter(payload, uint64(i+1))
				t1 := time.Now()
				if err != nil || len(failed) > 0 {
					return nil, fmt.Errorf("scatter: failed peers %v: %v", failed, err)
				}
				t2 := time.Now()
				ups, err := segs[1].Gather(dstorm.GatherAllNew)
				t3 := time.Now()
				if err != nil {
					return nil, err
				}
				if len(ups) != 1 || !bytes.Equal(ups[0].Data, payload) {
					return nil, fmt.Errorf("gather returned %d updates, or not the bytes scattered", len(ups))
				}
				s += t1.Sub(t0)
				g += t3.Sub(t2)
			}
			return []time.Duration{s, g}, nil
		})
		if err != nil {
			return fmt.Errorf("%s: %w", shape.name, err)
		}
		per := 1.0
		if shape.scale > 0 {
			per = float64(shape.bytes) / shape.scale
		}
		p.add(shape.sName, ns[0]/per)
		p.add(shape.gName, ns[1]/per)
	}

	// Pipeline: enqueue a burst of small records, drain, and account for
	// every one of them on the receiver.
	segs, err := c.segments("pipe", smallBytes)
	if err != nil {
		return err
	}
	c.nodes[0].EnablePipeline(dstorm.PipelineConfig{})
	defer c.nodes[0].DisablePipeline()
	payload := make([]byte, smallBytes)
	rng.Read(payload)
	sent := uint64(0)
	ns, _, err := p.bench(func(n int) ([]time.Duration, error) {
		start := time.Now()
		for i := 0; i < n; i++ {
			sent++
			//maltlint:allow bufretain -- the pipeline copies payload at enqueue (pooled sendbuf) and payload is never mutated
			if _, err := segs[0].Scatter(payload, sent); err != nil {
				return nil, err
			}
		}
		if err := c.nodes[0].Drain(); err != nil {
			return nil, err
		}
		d := time.Since(start)
		if _, err := segs[1].Gather(dstorm.GatherAllNew); err != nil {
			return nil, err
		}
		if st := segs[1].Stats(); st.Consumed+st.Overwritten != sent {
			return nil, fmt.Errorf("receiver accounts for %d of %d records", st.Consumed+st.Overwritten, sent)
		}
		return []time.Duration{d}, nil
	})
	if err != nil {
		return fmt.Errorf("pipeline: %w", err)
	}
	if failed := c.nodes[0].AsyncFailures(); len(failed) > 0 {
		return fmt.Errorf("pipeline: deliveries to %v failed", failed)
	}
	p.add("dstorm.pipeline_ns_per_record", ns[0])
	return nil
}

func (c *simCluster) segments(name string, objectSize int) ([]*dstorm.Segment, error) {
	return collect(len(c.nodes), func(r int) (*dstorm.Segment, error) {
		return c.nodes[r].CreateSegment(name, dstorm.SegmentOptions{ObjectSize: objectSize, Graph: c.graph})
	})
}
