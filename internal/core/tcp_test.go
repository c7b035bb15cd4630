package core

import (
	"fmt"
	"net"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"malt/internal/consistency"
	"malt/internal/data"
	"malt/internal/fabric/stream"
	"malt/internal/ml/svm"
	"malt/internal/vol"
)

// socketClusters assembles a cfg.Ranks-wide cluster over real sockets
// inside this process: one stream endpoint and one Cluster per rank, as
// separate OS processes would hold them. network is stream.NetworkTCP
// (loopback, pre-bound :0 listeners) or stream.NetworkUnix (socket paths
// in the test's temp dir).
func socketClusters(t *testing.T, network string, cfg Config) []*Cluster {
	t.Helper()
	n := cfg.Ranks
	lns := make([]net.Listener, n)
	addrs := make([]string, n)
	dir := t.TempDir()
	for i := range addrs {
		if network == stream.NetworkUnix {
			addrs[i] = filepath.Join(dir, fmt.Sprintf("r%d.sock", i))
			continue
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("rank %d: listen: %v", i, err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	nets := make([]*stream.Net, n)
	for i := range nets {
		nt, err := stream.New(stream.Config{
			Rank:              i,
			Peers:             addrs,
			Network:           network,
			Listener:          lns[i],
			RendezvousTimeout: 30 * time.Second,
			BarrierTimeout:    60 * time.Second,
			HeartbeatInterval: 10 * time.Millisecond,
		})
		if err != nil {
			t.Fatalf("rank %d: New: %v", i, err)
		}
		nets[i] = nt
		t.Cleanup(func() { nt.Close() })
	}
	errs := make(chan error, n)
	for _, nt := range nets {
		go func(nt *stream.Net) { errs <- nt.Rendezvous() }(nt)
	}
	for range nets {
		if err := <-errs; err != nil {
			t.Fatalf("rendezvous: %v", err)
		}
	}
	clusters := make([]*Cluster, n)
	for i, nt := range nets {
		cfg.Transport = nt
		c, err := NewCluster(cfg)
		if err != nil {
			t.Fatal(err)
		}
		clusters[i] = c
	}
	return clusters
}

// runSockets runs fn on every rank of socketClusters' clusters, each rank
// through its own cluster's RunLocal, and fails on the first rank error.
func runSockets(t *testing.T, clusters []*Cluster, fn func(ctx *Context) error) {
	t.Helper()
	errs := make([]error, len(clusters))
	var wg sync.WaitGroup
	for r, c := range clusters {
		wg.Add(1)
		go func(r int, c *Cluster) {
			defer wg.Done()
			res, err := c.RunLocal(r, fn)
			if err == nil {
				err = res.FirstError()
			}
			errs[r] = err
		}(r, c)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
}

// svmReplica is a BSP delta-exchange SVM replica loop: epochs passes over
// the rank's shard in batches of cb, each batch's model delta scattered,
// averaged with the peers' and applied. Each rank's final model lands in
// finals[rank].
func svmReplica(ds *data.Dataset, cfg svm.Config, epochs, cb int, finals [][]float64) func(ctx *Context) error {
	return func(ctx *Context) error {
		g, err := ctx.CreateVector("grad", vol.Dense, ds.Dim)
		if err != nil {
			return err
		}
		tr, err := svm.New(cfg)
		if err != nil {
			return err
		}
		w := make([]float64, ds.Dim)
		before := make([]float64, ds.Dim)
		lo, hi, err := ctx.Shard(len(ds.Train))
		if err != nil {
			return err
		}
		shard := ds.Train[lo:hi]
		iter := uint64(0)
		for epoch := 0; epoch < epochs; epoch++ {
			for at := 0; at+cb <= len(shard); at += cb {
				copy(before, w)
				ctx.Compute(func() { tr.TrainEpoch(w, shard[at:at+cb]) })
				for i := range w {
					g.Data()[i] = w[i] - before[i]
				}
				iter++
				ctx.SetIteration(iter)
				if err := ctx.Scatter(g); err != nil {
					return err
				}
				if err := ctx.Advance(g); err != nil {
					return err
				}
				if _, err := ctx.Gather(g, vol.Average); err != nil {
					return err
				}
				for i := range w {
					w[i] = before[i] + g.Data()[i]
				}
				if err := ctx.Commit(g); err != nil {
					return err
				}
			}
		}
		finals[ctx.Rank()] = w
		return nil
	}
}

// TestDistributedSVMOverTCP drives the full stack — runtime, vol, dstorm,
// consistency — over loopback TCP instead of in-process memory copies:
// real sockets, real serialization, one endpoint per rank, same results.
func TestDistributedSVMOverTCP(t *testing.T) {
	ds, err := data.GenerateClassification(data.ClassificationSpec{
		Name: "t", Dim: 60, Train: 1200, Test: 300, NNZ: 8, Noise: 0.03, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	const ranks = 3
	clusters := socketClusters(t, stream.NetworkTCP, Config{Ranks: ranks, Sync: consistency.BSP})
	finals := make([][]float64, ranks)
	runSockets(t, clusters, svmReplica(ds, svm.Config{Dim: ds.Dim, Lambda: 1e-4, Eta0: 1}, 5, 100, finals))

	tr, _ := svm.New(svm.Config{Dim: ds.Dim})
	if acc := tr.Accuracy(finals[0], ds.Test); acc < 0.85 {
		t.Fatalf("TCP-transport accuracy %v too low", acc)
	}
	// BSP all-to-all over TCP must still produce identical replicas.
	for r := 1; r < ranks; r++ {
		for i := range finals[0] {
			if finals[0][i] != finals[r][i] {
				t.Fatalf("replicas diverged over TCP at rank %d coordinate %d", r, i)
			}
		}
	}
	var total uint64
	for _, c := range clusters {
		total += c.Transport().Stats().TotalBytes()
	}
	if total == 0 {
		t.Fatal("no traffic accounted over TCP")
	}
}

// TestTransportsProduceIdenticalModels pins that the transport is
// semantically invisible: the same BSP all-to-all training run produces
// bit-identical models on the simulated fabric and over a real Unix
// socket.
func TestTransportsProduceIdenticalModels(t *testing.T) {
	ds, err := data.GenerateClassification(data.ClassificationSpec{
		Name: "t", Dim: 40, Train: 800, Test: 100, NNZ: 6, Noise: 0.05, Seed: 21,
	})
	if err != nil {
		t.Fatal(err)
	}
	const ranks = 2
	cfg := Config{Ranks: ranks, Sync: consistency.BSP}
	replica := func(finals [][]float64) func(ctx *Context) error {
		return svmReplica(ds, svm.Config{Dim: ds.Dim}, 1, 100, finals)
	}

	sim, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	simFinals := make([][]float64, ranks)
	if err := sim.Run(replica(simFinals)).FirstError(); err != nil {
		t.Fatal(err)
	}
	udsFinals := make([][]float64, ranks)
	runSockets(t, socketClusters(t, stream.NetworkUnix, cfg), replica(udsFinals))

	for r := 0; r < ranks; r++ {
		for i := range simFinals[r] {
			if simFinals[r][i] != udsFinals[r][i] {
				t.Fatalf("rank %d: transports diverged at %d: sim %v vs uds %v",
					r, i, simFinals[r][i], udsFinals[r][i])
			}
		}
	}
}
