package probes

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"malt/internal/compress"
	"malt/internal/dataflow"
	"malt/internal/dstorm"
	"malt/internal/fabric"
	"malt/internal/vol"
)

// simCluster is n dstorm nodes over the zero-latency simulated fabric,
// driven by one goroutine: what vol and dstorm cost with the network and
// the scheduler taken out.
type simCluster struct {
	fab   *fabric.Fabric
	nodes []*dstorm.Node
	graph *dataflow.Graph
}

func newSimCluster(n int, kind dataflow.Kind) (*simCluster, error) {
	fab, err := fabric.New(fabric.Config{Ranks: n})
	if err != nil {
		return nil, err
	}
	graph, err := dataflow.New(kind, n)
	if err != nil {
		fab.Close()
		return nil, err
	}
	dc := dstorm.NewCluster(fab)
	c := &simCluster{fab: fab, graph: graph}
	for r := 0; r < n; r++ {
		c.nodes = append(c.nodes, dc.Node(r))
	}
	return c, nil
}

// collect runs the collective create on every rank at once (creation
// blocks until all ranks have arrived).
func collect[T any](n int, create func(rank int) (T, error)) ([]T, error) {
	out := make([]T, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[r], errs[r] = create(r)
		}()
	}
	wg.Wait()
	return out, errors.Join(errs...)
}

func (c *simCluster) vectors(name string, typ vol.Type, dim int, opts vol.Options) ([]*vol.Vector, error) {
	return collect(len(c.nodes), func(r int) (*vol.Vector, error) {
		return vol.Create(c.nodes[r], name, typ, dim, c.graph, opts)
	})
}

// volPair times rank 0's Scatter and rank 1's Gather(Average) of one
// update, and checks the fold: rank 1 holds zeros, so the average of
// {local, update} must be update/2 (exactly, for the uncompressed formats).
func (p *prober) volPair(c *simCluster, name string, typ vol.Type, dim int, opts vol.Options, update []float64) (scatterNs, gatherNs, scatterAllocs, gatherAllocs float64, err error) {
	vs, err := c.vectors(name, typ, dim, opts)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	defer func() {
		for _, v := range vs {
			v.Close()
		}
	}()
	src, dst := vs[0], vs[1]
	exact := !opts.Compress.Enabled()
	iter := uint64(0)
	round := func() (s, g time.Duration, err error) {
		iter++
		copy(src.Data(), update)
		clear(dst.Data())
		t0 := time.Now()
		failed, err := src.Scatter(iter)
		t1 := time.Now()
		if err != nil || len(failed) > 0 {
			return 0, 0, fmt.Errorf("scatter: failed peers %v: %v", failed, err)
		}
		t2 := time.Now()
		gs, err := dst.Gather(vol.Average)
		t3 := time.Now()
		if err != nil {
			return 0, 0, err
		}
		if gs.Updates != 1 {
			return 0, 0, fmt.Errorf("gather folded %d updates, want 1", gs.Updates)
		}
		return t1.Sub(t0), t3.Sub(t2), nil
	}
	// One checked round (also warms pools and scratch).
	if _, _, err := round(); err != nil {
		return 0, 0, 0, 0, err
	}
	var sum, want float64
	for i, x := range dst.Data() {
		if exact && x != update[i]/2 {
			return 0, 0, 0, 0, fmt.Errorf("folded[%d] = %v, want %v", i, x, update[i]/2)
		}
		sum += x
		want += update[i] / 2
	}
	if !exact && !(sum != 0 && sum/want > 0.05) {
		// A lossy codec ships the largest coordinates; what arrives must
		// still be a real share of the update.
		return 0, 0, 0, 0, fmt.Errorf("compressed fold carried %v of %v", sum, want)
	}
	ns, _, err := p.bench(func(n int) ([]time.Duration, error) {
		var s, g time.Duration
		for i := 0; i < n; i++ {
			ds, dg, err := round()
			if err != nil {
				return nil, err
			}
			s += ds
			g += dg
		}
		return []time.Duration{s, g}, nil
	})
	if err != nil {
		return 0, 0, 0, 0, err
	}
	copy(src.Data(), update)
	scatterAllocs = allocsPerOp(4, func(int) {
		iter++
		if _, serr := src.Scatter(iter); serr != nil {
			err = serr
		}
	})
	gatherAllocs = allocsPerOp(1, func(int) {
		if _, gerr := dst.Gather(vol.Average); gerr != nil {
			err = gerr
		}
	})
	return ns[0], ns[1], scatterAllocs, gatherAllocs, err
}

// vol times the vector library over the simulated fabric in each of the
// forms a workload uses it: dense, sparse, compressed, bucketed, and the
// 7-sender fan-in the 2-rank runs cannot show.
func (p *prober) vol() error {
	rng := rand.New(rand.NewSource(p.seed))
	c, err := newSimCluster(2, dataflow.All)
	if err != nil {
		return err
	}
	defer c.fab.Close()

	dense := gaussian(rng, denseDim, 1)
	s, g, sa, ga, err := p.volPair(c, "dense", vol.Dense, denseDim, vol.Options{}, dense)
	if err != nil {
		return fmt.Errorf("dense: %w", err)
	}
	p.add("vol.scatter_dense_ns_per_coord", s/denseDim)
	p.add("vol.gather_dense_ns_per_coord", g/denseDim)
	p.add("vol.scatter_allocs_per_op", sa)
	p.add("vol.gather_allocs_per_op", ga)

	sparse := gaussian(rng, sparseDim, sparseDim/sparseNNZ)
	nnz := 0
	for _, x := range sparse {
		if x != 0 {
			nnz++
		}
	}
	if s, g, _, _, err = p.volPair(c, "sparse", vol.Sparse, sparseDim, vol.Options{}, sparse); err != nil {
		return fmt.Errorf("sparse: %w", err)
	}
	p.add("vol.scatter_sparse_ns_per_nnz", s/float64(nnz))
	p.add("vol.gather_sparse_ns_per_nnz", g/float64(nnz))

	codec := vol.Options{Compress: compress.Options{Codec: "hybrid"}}
	if s, g, _, _, err = p.volPair(c, "codec", vol.Dense, denseDim, codec, dense); err != nil {
		return fmt.Errorf("codec: %w", err)
	}
	p.add("vol.scatter_codec_ns_per_coord", s/denseDim)
	p.add("vol.gather_codec_ns_per_coord", g/denseDim)

	if _, g, _, _, err = p.volPair(c, "bucketed", vol.Dense, denseDim, vol.Options{BucketBytes: 64 << 10}, dense); err != nil {
		return fmt.Errorf("bucketed: %w", err)
	}
	p.add("vol.gather_bucketed_ns_per_coord", g/denseDim)

	g, err = p.volFanIn(rng)
	if err != nil {
		return fmt.Errorf("fanin7: %w", err)
	}
	p.add("vol.gather_fanin7_ns_per_coord", g/fanInDim)
	return nil
}

// volFanIn times rank 0's Gather(Sum) of seven peers' updates on an 8-rank
// star and checks the folded sum.
func (p *prober) volFanIn(rng *rand.Rand) (float64, error) {
	const ranks = 8
	c, err := newSimCluster(ranks, dataflow.MasterSlave)
	if err != nil {
		return 0, err
	}
	defer c.fab.Close()
	vs, err := c.vectors("fanin", vol.Dense, fanInDim, vol.Options{})
	if err != nil {
		return 0, err
	}
	update := gaussian(rng, fanInDim, 1)
	for _, v := range vs[1:] {
		copy(v.Data(), update)
	}
	iter := uint64(0)
	round := func() (time.Duration, error) {
		iter++
		for _, v := range vs[1:] {
			if failed, err := v.Scatter(iter); err != nil || len(failed) > 0 {
				return 0, fmt.Errorf("scatter: failed peers %v: %v", failed, err)
			}
		}
		clear(vs[0].Data())
		start := time.Now()
		gs, err := vs[0].Gather(vol.Sum)
		d := time.Since(start)
		if err != nil {
			return 0, err
		}
		if gs.Updates != ranks-1 {
			return 0, fmt.Errorf("gather folded %d updates, want %d", gs.Updates, ranks-1)
		}
		return d, nil
	}
	if _, err := round(); err != nil {
		return 0, err
	}
	for i, x := range vs[0].Data() {
		want := 0.0
		for k := 0; k < ranks-1; k++ {
			want += update[i]
		}
		if x != want {
			return 0, fmt.Errorf("folded[%d] = %v, want %v", i, x, want)
		}
	}
	ns, _, err := p.bench(func(n int) ([]time.Duration, error) {
		var g time.Duration
		for i := 0; i < n; i++ {
			d, err := round()
			if err != nil {
				return nil, err
			}
			g += d
		}
		return []time.Duration{g}, nil
	})
	if err != nil {
		return 0, err
	}
	return ns[0], nil
}
