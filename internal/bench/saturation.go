package bench

import (
	"strconv"
	"sync"
	"time"

	"malt/internal/dataflow"
	"malt/internal/dstorm"
	"malt/internal/fabric"
	"malt/internal/vol"
)

// §6.2 network saturation test: all ranks scatter webspam-sized dense
// models back to back; we measure the achieved per-rank scatter throughput
// and the modeled wire time. On the paper's testbed this reached ~5.1 GB/s
// (synchronous) and ~4.2 GB/s per machine (async, 3 ranks/machine) out of
// a 5 GB/s line rate; here the "wire" is memcpy through the simulated
// fabric, so the interesting output is the ratio to the modeled line rate
// and the per-configuration relative numbers.
func runSaturation(o Options, r *Report) error {
	dim := 200000 // webspam-shaped dense model: 1.6 MB
	iters := 50
	ranksSet := []int{2, 4, 8}
	if o.Quick {
		dim = 50000
		iters = 20
		ranksSet = []int{2, 4}
	}
	r.Linef("%-6s %14s %16s %14s", "ranks", "per-rank GB/s", "aggregate GB/s", "modeled-wire")
	for _, n := range ranksSet {
		fab, err := fabric.New(fabric.Config{Ranks: n})
		if err != nil {
			return err
		}
		cluster := dstorm.NewCluster(fab)
		graph, err := dataflow.New(dataflow.All, n)
		if err != nil {
			return err
		}
		var wg sync.WaitGroup
		errs := make([]error, n)
		start := time.Now()
		for rank := 0; rank < n; rank++ {
			wg.Add(1)
			go func(rank int) {
				defer wg.Done()
				v, err := vol.Create(cluster.Node(rank), "sat", vol.Dense, dim, graph, vol.Options{QueueLen: 2})
				if err != nil {
					errs[rank] = err
					return
				}
				for i := 0; i < iters; i++ {
					if _, err := v.Scatter(uint64(i + 1)); err != nil {
						errs[rank] = err
						return
					}
				}
			}(rank)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		elapsed := time.Since(start).Seconds()
		bytes := float64(fab.Stats().TotalBytes())
		perRank := bytes / float64(n) / elapsed / (1 << 30)
		agg := bytes / elapsed / (1 << 30)
		r.Linef("%-6d %13.2f %15.2f %13.2fs", n, perRank, agg,
			fab.Stats().ModeledNetworkTime().Seconds())
		r.Metric("gbps_per_rank_n"+strconv.Itoa(n), perRank)
		// Deterministic counterparts of the wall throughput. The byte
		// total is n·(n−1)·iters dense updates of header + 8·dim
		// bytes, so TestExperimentsQuick pins the dstorm wire format
		// with it; the cost model charges every write the same
		// latency + size/bandwidth.
		r.Metric("wire_bytes_n"+strconv.Itoa(n)+"_exact", bytes)
		r.Metric("model_ns_wire_n"+strconv.Itoa(n),
			float64(fab.Stats().ModeledNetworkTime().Nanoseconds()))
	}
	r.Linef("(paper: 5.1 GB/s sync, 4.2 GB/s async per machine on 56 Gbps InfiniBand)")
	return nil
}
