package probes

import (
	"fmt"
	"sync/atomic"
	"time"

	"malt/internal/consistency"
	"malt/internal/dataflow"
	"malt/internal/par"
	"malt/internal/vol"
)

// sim times what the vol and dstorm probes stand on, so it can be
// subtracted out of them: one simulated-fabric write, one BSP Advance over
// the in-process barrier, one task through a par.Group.
func (p *prober) sim() error {
	c, err := newSimCluster(2, dataflow.All)
	if err != nil {
		return err
	}
	defer c.fab.Close()

	var got atomic.Int64
	if err := c.fab.Register(1, "probe", func(from int, payload []byte) error {
		got.Add(int64(len(payload)))
		return nil
	}); err != nil {
		return err
	}
	payload := make([]byte, smallBytes)
	ns, _, err := p.bench(func(n int) ([]time.Duration, error) {
		got.Store(0)
		start := time.Now()
		for i := 0; i < n; i++ {
			//maltlint:allow bufretain -- the simulated fabric runs the handler before Write returns, and payload is never mutated
			if err := c.fab.Write(0, 1, "probe", payload); err != nil {
				return nil, err
			}
		}
		d := time.Since(start)
		if got.Load() != int64(n*len(payload)) {
			return nil, fmt.Errorf("handler received %d of %d bytes", got.Load(), n*len(payload))
		}
		return []time.Duration{d}, nil
	})
	if err != nil {
		return fmt.Errorf("fabric write: %w", err)
	}
	p.add("fabric.sim_write_ns", ns[0])

	vs, err := c.vectors("advance", vol.Dense, 8, vol.Options{})
	if err != nil {
		return err
	}
	ctl := consistency.New(consistency.Policy{Model: consistency.BSP})
	ns, _, err = p.bench(func(n int) ([]time.Duration, error) {
		peer := make(chan error, 1)
		go func() {
			for i := 0; i < n; i++ {
				if _, err := ctl.Advance(vs[1], uint64(i+1)); err != nil {
					peer <- err
					return
				}
			}
			peer <- nil
		}()
		start := time.Now()
		for i := 0; i < n; i++ {
			if _, err := ctl.Advance(vs[0], uint64(i+1)); err != nil {
				<-peer
				return nil, err
			}
		}
		d := time.Since(start)
		return []time.Duration{d}, <-peer
	})
	if err != nil {
		return fmt.Errorf("advance: %w", err)
	}
	p.add("consistency.advance_us_sim", ns[0]/1e3)

	pool := par.New(2, 0)
	defer pool.Close()
	const tasks = 64
	var ran atomic.Int64
	ns, _, err = p.bench(func(n int) ([]time.Duration, error) {
		ran.Store(0)
		start := time.Now()
		for i := 0; i < n; i++ {
			g := pool.NewGroup()
			for t := 0; t < tasks; t++ {
				g.Go(func() { ran.Add(1) })
			}
			g.Wait()
		}
		d := time.Since(start)
		if ran.Load() != int64(n*tasks) {
			return nil, fmt.Errorf("%d of %d tasks ran", ran.Load(), n*tasks)
		}
		return []time.Duration{d}, nil
	})
	if err != nil {
		return fmt.Errorf("par group: %w", err)
	}
	p.add("par.group_ns_per_task", ns[0]/tasks)
	return nil
}
