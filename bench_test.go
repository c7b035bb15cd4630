// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation (dispatching into internal/bench at Quick size; run
// `cmd/maltbench -exp <id>` for the full-size version and the formatted
// report), plus ablation micro-benchmarks for the design choices called
// out in DESIGN.md.
//
//	go test -bench=. -benchmem
//	go test -bench=BenchmarkFig13 -benchtime=1x
package malt_test

import (
	"fmt"
	"sync"
	"testing"

	"malt"

	"malt/internal/baseline/allreduce"
	"malt/internal/bench"
	"malt/internal/compress"
	"malt/internal/dataflow"
	"malt/internal/dstorm"
	"malt/internal/fabric"
	"malt/internal/vol"
)

// benchExperiment runs a registered experiment once per iteration and
// reports its headline metrics through testing.B.
func benchExperiment(b *testing.B, id string, keys ...string) {
	b.Helper()
	e, err := bench.Get(id)
	if err != nil {
		b.Fatal(err)
	}
	var last map[string]float64
	for i := 0; i < b.N; i++ {
		rep, err := e.Run(bench.Options{Quick: true})
		if err != nil {
			b.Fatal(err)
		}
		last = rep.Metrics
	}
	for _, k := range keys {
		if v, ok := last[k]; ok {
			b.ReportMetric(v, k)
		}
	}
}

// Table 2: dataset properties.
func BenchmarkTable2(b *testing.B) { benchExperiment(b, "table2") }

// Table 3: developer effort (MALT LOC per example).
func BenchmarkTable3(b *testing.B) { benchExperiment(b, "table3") }

// Fig 4: RCV1 convergence, MALT_all vs single-rank SGD.
func BenchmarkFig4(b *testing.B) {
	benchExperiment(b, "fig4", "speedup_iters", "speedup_time")
}

// Fig 5: MR-SVM vs MALT-SVM on PASCAL alpha.
func BenchmarkFig5(b *testing.B) {
	benchExperiment(b, "fig5", "speedup_malt", "speedup_mrsvm")
}

// Fig 6: SSI neural network AUC vs time.
func BenchmarkFig6(b *testing.B) {
	benchExperiment(b, "fig6", "speedup_cb20000")
}

// Fig 7: Netflix matrix factorization RMSE vs iterations.
func BenchmarkFig7(b *testing.B) {
	benchExperiment(b, "fig7", "speedup_fixed", "speedup_byiter")
}

// Fig 8: per-phase time breakdown, all vs Halton.
func BenchmarkFig8(b *testing.B) {
	benchExperiment(b, "fig8", "all_scatter_s", "halton_scatter_s")
}

// Fig 9: compute vs wait, MALT vs parameter server.
func BenchmarkFig9(b *testing.B) {
	benchExperiment(b, "fig9", "halton-gradavg_wait_s", "ps-gradavg_wait_s")
}

// Fig 10: BSP vs ASP vs SSP on splice-site.
func BenchmarkFig10(b *testing.B) {
	benchExperiment(b, "fig10", "speedup_ASYNC", "speedup_SSP")
}

// Fig 11: communication batch size sweep.
func BenchmarkFig11(b *testing.B) {
	benchExperiment(b, "fig11", "all_cb5000", "halton_cb5000")
}

// Fig 12: MALT_all vs MALT_Halton on splice-site.
func BenchmarkFig12(b *testing.B) {
	benchExperiment(b, "fig12", "bytes_ratio_all_vs_halton")
}

// Fig 13: network traffic vs rank count.
func BenchmarkFig13(b *testing.B) {
	benchExperiment(b, "fig13", "all_mb_n8", "halton_mb_n8", "paramserver_mb_n8")
}

// Fig 14: fault tolerance.
func BenchmarkFig14(b *testing.B) {
	benchExperiment(b, "fig14", "time_clean_s", "time_faulty_s", "acc_faulty")
}

// §6.2 network saturation.
func BenchmarkSaturation(b *testing.B) {
	benchExperiment(b, "saturation", "gbps_per_rank_n2")
}

// ---------------------------------------------------------------------------
// Ablations (DESIGN.md): micro-benchmarks for the design choices.
// ---------------------------------------------------------------------------

// BenchmarkScatterGather measures one scatter+gather round trip for a
// model-sized dense vector across dataflows — the core communication cost.
func BenchmarkScatterGather(b *testing.B) {
	for _, cfg := range []struct {
		name  string
		kind  dataflow.Kind
		ranks int
		dim   int
	}{
		{"all/8ranks/47k", dataflow.All, 8, 47152},
		{"halton/8ranks/47k", dataflow.Halton, 8, 47152},
		{"all/16ranks/47k", dataflow.All, 16, 47152},
		{"halton/16ranks/47k", dataflow.Halton, 16, 47152},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			vecs := makeVectors(b, cfg.ranks, cfg.kind, vol.Dense, cfg.dim, vol.Options{QueueLen: 4})
			b.SetBytes(int64(8 * cfg.dim * len(vecs[0].Segment().SendPeers())))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := vecs[0].Scatter(uint64(i + 1)); err != nil {
					b.Fatal(err)
				}
				// Peers gather locally (receiver-side cost is zero for the
				// scatter itself; this measures the local fold).
				if _, err := vecs[1].Gather(vol.Average); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkGatherAtomicVsWeak quantifies the cost of torn-read protection
// (seqlock retries) versus the unprotected gather.
func BenchmarkGatherAtomicVsWeak(b *testing.B) {
	const dim = 47152
	vecs := makeVectors(b, 2, dataflow.All, vol.Dense, dim, vol.Options{QueueLen: 4})
	for name, weak := range map[string]bool{"atomic": false, "weak": true} {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := vecs[0].Scatter(uint64(i + 1)); err != nil {
					b.Fatal(err)
				}
				var err error
				if weak {
					_, err = vecs[1].GatherWeak(vol.Average)
				} else {
					_, err = vecs[1].Gather(vol.Average)
				}
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkWireFormats compares dense and sparse scatters at different
// sparsity levels — the representation optimization of §3.2.
func BenchmarkWireFormats(b *testing.B) {
	const dim = 100000
	for _, tc := range []struct {
		name string
		typ  vol.Type
		nnz  int
	}{
		{"dense", vol.Dense, dim},
		{"sparse-1pct", vol.Sparse, dim / 100},
		{"sparse-10pct", vol.Sparse, dim / 10},
	} {
		b.Run(tc.name, func(b *testing.B) {
			vecs := makeVectors(b, 2, dataflow.All, tc.typ, dim, vol.Options{QueueLen: 4})
			d := vecs[0].Data()
			stride := dim / tc.nnz
			for i := 0; i < dim; i += stride {
				d[i] = 1.5
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := vecs[0].Scatter(uint64(i + 1)); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(vecs[0].Segment().Options().ObjectSize), "objsize_bytes")
		})
	}
}

// BenchmarkAllReduceStrategies compares the naive, tree and butterfly
// all-reduce primitives (§3.4's alternatives to Halton dissemination).
func BenchmarkAllReduceStrategies(b *testing.B) {
	const ranks, dim = 8, 4096
	for _, s := range []allreduce.Strategy{allreduce.Naive, allreduce.Tree, allreduce.Butterfly} {
		b.Run(s.String(), func(b *testing.B) {
			f, err := fabric.New(fabric.Config{Ranks: ranks})
			if err != nil {
				b.Fatal(err)
			}
			cluster := dstorm.NewCluster(f)
			reducers := make([]*allreduce.Reducer, ranks)
			var wg sync.WaitGroup
			for r := 0; r < ranks; r++ {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					red, err := allreduce.New(cluster.Node(r), s, dim)
					if err != nil {
						b.Error(err)
						return
					}
					reducers[r] = red
				}(r)
			}
			wg.Wait()
			if b.Failed() {
				b.FailNow()
			}
			xs := make([][]float64, ranks)
			for r := range xs {
				xs[r] = make([]float64, dim)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var wg sync.WaitGroup
				for r := 0; r < ranks; r++ {
					wg.Add(1)
					go func(r int) {
						defer wg.Done()
						if err := reducers[r].Reduce(xs[r]); err != nil {
							b.Error(err)
						}
					}(r)
				}
				wg.Wait()
			}
			b.StopTimer()
			b.ReportMetric(float64(f.Stats().TotalMessages())/float64(b.N), "msgs/round")
		})
	}
}

// BenchmarkHaltonFanout measures the per-round update count of the
// pre-built dataflows as the cluster grows — the O(N²) vs O(N log N)
// argument of §3.4.
func BenchmarkHaltonFanout(b *testing.B) {
	for _, n := range []int{8, 16, 32, 64} {
		for _, kind := range []dataflow.Kind{dataflow.All, dataflow.Halton} {
			b.Run(fmt.Sprintf("%v/%d", kind, n), func(b *testing.B) {
				var edges int
				for i := 0; i < b.N; i++ {
					g, err := dataflow.New(kind, n)
					if err != nil {
						b.Fatal(err)
					}
					edges = g.Edges()
				}
				b.ReportMetric(float64(edges), "updates/round")
			})
		}
	}
}

// BenchmarkPublicAPIRound measures one full MALT superstep (scatter +
// barrier + gather + commit) through the public API under BSP.
func BenchmarkPublicAPIRound(b *testing.B) {
	for _, ranks := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("%dranks", ranks), func(b *testing.B) {
			cluster, err := malt.NewCluster(malt.Config{Ranks: ranks, Dataflow: malt.All, Sync: malt.BSP})
			if err != nil {
				b.Fatal(err)
			}
			const dim = 4096
			b.ResetTimer()
			res := cluster.Run(func(ctx *malt.Context) error {
				v, err := ctx.CreateVector("w", malt.Dense, dim)
				if err != nil {
					return err
				}
				for i := 0; i < b.N; i++ {
					ctx.SetIteration(uint64(i + 1))
					if err := ctx.Scatter(v); err != nil {
						return err
					}
					if err := ctx.Advance(v); err != nil {
						return err
					}
					if _, err := ctx.Gather(v, malt.Average); err != nil {
						return err
					}
					if err := ctx.Commit(v); err != nil {
						return err
					}
				}
				return nil
			})
			if err := res.FirstError(); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// makeVectors builds a cluster of vectors for micro-benchmarks.
func makeVectors(b *testing.B, ranks int, kind dataflow.Kind, typ vol.Type, dim int, opts vol.Options) []*vol.Vector {
	b.Helper()
	f, err := fabric.New(fabric.Config{Ranks: ranks})
	if err != nil {
		b.Fatal(err)
	}
	cluster := dstorm.NewCluster(f)
	g, err := dataflow.New(kind, ranks)
	if err != nil {
		b.Fatal(err)
	}
	vecs := make([]*vol.Vector, ranks)
	errs := make([]error, ranks)
	var wg sync.WaitGroup
	for r := 0; r < ranks; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			vecs[r], errs[r] = vol.Create(cluster.Node(r), "bench", typ, dim, g, opts)
		}(r)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			b.Fatal(err)
		}
	}
	return vecs
}

// BenchmarkFetchAddVsQueues compares queue-based gradient averaging
// (scatter into per-sender queues, gather+fold) with the fetch-and-add
// extension from the paper's conclusion (remote adds merge at deposit
// time; drain is a scaled copy).
func BenchmarkFetchAddVsQueues(b *testing.B) {
	const ranks, dim = 8, 47152
	b.Run("queues", func(b *testing.B) {
		vecs := makeVectors(b, ranks, dataflow.All, vol.Dense, dim, vol.Options{QueueLen: 4})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, v := range vecs {
				if _, err := v.Scatter(uint64(i + 1)); err != nil {
					b.Fatal(err)
				}
			}
			for _, v := range vecs {
				if _, err := v.Gather(vol.Average); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("fetchadd", func(b *testing.B) {
		f, err := fabric.New(fabric.Config{Ranks: ranks})
		if err != nil {
			b.Fatal(err)
		}
		cluster := dstorm.NewCluster(f)
		g, err := dataflow.New(dataflow.All, ranks)
		if err != nil {
			b.Fatal(err)
		}
		segs := make([]*dstorm.AddSegment, ranks)
		var wg sync.WaitGroup
		for r := 0; r < ranks; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				s, err := cluster.Node(r).CreateAddSegment("bench", dim, g)
				if err != nil {
					b.Error(err)
					return
				}
				segs[r] = s
			}(r)
		}
		wg.Wait()
		if b.Failed() {
			b.FailNow()
		}
		vals := make([]float64, dim)
		avg := make([]float64, dim)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, s := range segs {
				//maltlint:allow bufretain -- steady-state benchmark re-posts one read-only buffer; Scatter encodes it synchronously
				if _, err := s.Scatter(vals, uint64(i+1)); err != nil {
					b.Fatal(err)
				}
			}
			for _, s := range segs {
				if _, err := s.Drain(avg); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// BenchmarkPerSenderQueuesVsLockedInbox justifies dstorm's per-sender
// receive queues: N concurrent senders into per-sender slots versus a
// single mutex-guarded inbox that every sender contends on.
func BenchmarkPerSenderQueuesVsLockedInbox(b *testing.B) {
	const senders, dim = 8, 4096
	payload := make([]byte, 8*dim)

	b.Run("per-sender-queues", func(b *testing.B) {
		f, err := fabric.New(fabric.Config{Ranks: senders + 1})
		if err != nil {
			b.Fatal(err)
		}
		cluster := dstorm.NewCluster(f)
		g, err := dataflow.New(dataflow.MasterSlave, senders+1)
		if err != nil {
			b.Fatal(err)
		}
		segs := make([]*dstorm.Segment, senders+1)
		var wg sync.WaitGroup
		for r := 0; r <= senders; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				s, err := cluster.Node(r).CreateSegment("inbox", dstorm.SegmentOptions{
					ObjectSize: len(payload), Graph: g, QueueLen: 4,
				})
				if err != nil {
					b.Error(err)
					return
				}
				segs[r] = s
			}(r)
		}
		wg.Wait()
		if b.Failed() {
			b.FailNow()
		}
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			// Every parallel worker plays a sender pushing to rank 0.
			i := 0
			for pb.Next() {
				i++
				sender := segs[1+(i%senders)]
				//maltlint:allow bufretain -- incast benchmark re-posts one read-only buffer; ScatterTo encodes it synchronously
				if _, err := sender.ScatterTo([]int{0}, payload, uint64(i)); err != nil {
					b.Error(err)
					return
				}
			}
		})
	})

	b.Run("locked-inbox", func(b *testing.B) {
		// Strawman: one mutex-guarded buffer all senders write into.
		var mu sync.Mutex
		inbox := make([]byte, len(payload))
		f, err := fabric.New(fabric.Config{Ranks: senders + 1})
		if err != nil {
			b.Fatal(err)
		}
		if err := f.Register(0, "inbox", func(from int, p []byte) error {
			mu.Lock()
			copy(inbox, p)
			mu.Unlock()
			return nil
		}); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			i := 0
			for pb.Next() {
				i++
				//maltlint:allow bufretain -- raw-fabric baseline re-posts one read-only buffer; the fabric copies on deposit
				if err := f.Write(1+(i%senders), 0, "inbox", payload); err != nil {
					b.Error(err)
					return
				}
			}
		})
	})
}

// BenchmarkGradientCompression measures the traffic and time effect of
// top-K compressed scatters versus full sparse scatters on a
// webspam-shaped delta (§6.2's "compression and other filters").
func BenchmarkGradientCompression(b *testing.B) {
	const dim = 200000
	const touched = 4000 // coordinates the batch actually moved
	for _, tc := range []struct {
		name string
		k    int
	}{
		{"full", touched},
		{"top10pct", touched / 10},
		{"top1pct", touched / 100},
	} {
		b.Run(tc.name, func(b *testing.B) {
			vecs := makeVectors(b, 2, dataflow.All, vol.Sparse, dim, vol.Options{MaxNNZ: touched})
			delta := make([]float64, dim)
			for i := 0; i < touched; i++ {
				delta[i*(dim/touched)] = float64(i%17) - 8
			}
			var up malt.SparseUpdate
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				up.Idx = compress.SelectTopK(delta, tc.k, up.Idx)
				up.Val = up.Val[:0]
				for _, ix := range up.Idx {
					up.Val = append(up.Val, delta[ix])
				}
				if _, err := vecs[0].ScatterSparse(&up, uint64(i+1)); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			per := float64(0)
			if b.N > 0 {
				per = float64(vecs[0].Segment().Node().Cluster().Fabric().Stats().TotalBytes()) / float64(b.N)
			}
			b.ReportMetric(per, "wire_bytes/op")
		})
	}
}
