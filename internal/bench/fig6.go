package bench

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"malt/internal/consistency"
	"malt/internal/core"
	"malt/internal/data"
	"malt/internal/dataflow"
	"malt/internal/ml/nn"
	"malt/internal/vol"
)

// Fig 6: AUC vs time for the three-layer SSI click-prediction network on
// the KDD12 workload (all, BSP, modelavg, ranks=8) across communication
// batch sizes. Every layer is its own MALT vector, synchronized per batch.
// The paper reaches AUC 0.70 up to 1.5× faster than single-rank, with an
// interior-optimal cb (20k beats 15k and 25k).
func runFig6(o Options, r *Report) error {
	spec := data.KDD12Spec(o.Scale)
	ranks, epochs := 8, 6
	nominals := []int{15000, 20000, 25000}
	if o.Quick {
		spec.Dim = 2000
		spec.Train = 8000
		spec.Test = 1500
		ranks, epochs = 4, 3
		nominals = []int{20000}
	}
	ds, err := data.GenerateClicks(spec)
	if err != nil {
		return err
	}
	nnCfg := nn.Config{Input: ds.Dim, H1: 64, H2: 32, Eta0: 0.1}

	o.logf("fig6: single-rank baseline")
	serial, err := runSerialNN(ds, nnCfg, epochs)
	if err != nil {
		return err
	}
	// Model averaging needs more passes to match the serial AUC
	// (each replica sees 1/ranks of the data per epoch), so the
	// distributed runs get extra epochs and stop at the goal.
	distEpochs := 2*epochs + 2
	goal := serial.Final() * 0.98
	serialTime, _ := serial.TimeToExceed(goal)
	r.Series = append(r.Series, serial)
	r.Linef("goal AUC %.4f; single-rank time %.2fs", goal, serialTime)

	for _, nominal := range nominals {
		cb := cbScale(nominal)
		o.logf("fig6: distributed run cb=%d", cb)
		curve, err := runDistributedNN(ds, nnCfg, ranks, cb, distEpochs, goal)
		if err != nil {
			return err
		}
		curve.Label = fmt.Sprintf("kdd12/nn/cb=%d", nominal)
		r.Series = append(r.Series, curve)
		if t, ok := curve.TimeToExceed(goal); ok {
			sp := speedup(serialTime, t)
			r.Linef("MALT_all cb=%-6d (scaled %3d): %6.2fs -> %.2fx", nominal, cb, t, sp)
			r.Metric(fmt.Sprintf("speedup_cb%d", nominal), sp)
		} else {
			r.Linef("MALT_all cb=%-6d (scaled %3d): goal not reached (final AUC %.4f)", nominal, cb, curve.Final())
			r.Metric(fmt.Sprintf("speedup_cb%d", nominal), 0)
		}
	}
	return nil
}

func runSerialNN(ds *data.Dataset, cfg nn.Config, epochs int) (Series, error) {
	net, err := nn.New(cfg, 42)
	if err != nil {
		return Series{}, err
	}
	curve := Series{Label: "kdd12/nn/serial"}
	start := time.Now()
	seen := 0
	const evalEvery = 2000
	for e := 0; e < epochs; e++ {
		for _, ex := range ds.Train {
			net.Step(ex)
			seen++
			if seen%evalEvery == 0 {
				curve.Points = append(curve.Points, Point{
					Time: time.Since(start).Seconds(), Iter: float64(seen), Value: net.AUC(ds.Test),
				})
			}
		}
	}
	return curve, nil
}

// runDistributedNN trains the SSI network data-parallel: each of the three
// layers is a separate MALT vector ("each layer of parameters is
// represented using a separate maltGradient"), scattered and averaged
// every cb examples under BSP.
func runDistributedNN(ds *data.Dataset, cfg nn.Config, ranks, cb, epochs int, goal float64) (Series, error) {
	cluster, err := core.NewCluster(core.Config{
		Ranks: ranks, Dataflow: dataflow.All, Sync: consistency.BSP,
	})
	if err != nil {
		return Series{}, err
	}
	sizes, err := nn.LayerSizes(cfg)
	if err != nil {
		return Series{}, err
	}
	var (
		mu    sync.Mutex
		curve Series
		start time.Time
		stop  atomic.Bool
	)
	res := cluster.Run(func(ctx *core.Context) error {
		layers := make([]*vol.Vector, nn.NumLayers)
		bufs := make([][]float64, nn.NumLayers)
		for i := range layers {
			v, err := ctx.CreateVector(fmt.Sprintf("nn/layer%d", i), vol.Dense, sizes[i])
			if err != nil {
				return err
			}
			layers[i] = v
			bufs[i] = v.Data()
		}
		net, err := nn.NewOver(cfg, bufs)
		if err != nil {
			return err
		}
		net.Init(42) // identical start on every replica
		if err := ctx.Barrier(layers[0]); err != nil {
			return err
		}
		if ctx.Rank() == 0 {
			mu.Lock()
			start = time.Now()
			mu.Unlock()
		}
		iter := uint64(0)
		for epoch := 0; epoch < epochs && !stop.Load(); epoch++ {
			lo, hi, err := ctx.Shard(len(ds.Train))
			if err != nil {
				return err
			}
			shard := ds.Train[lo:hi]
			nBatches := (len(ds.Train) / len(ctx.Survivors())) / cb
			for b := 0; b < nBatches && !stop.Load(); b++ {
				batch := shard[b*cb : (b+1)*cb]
				ctx.Compute(func() { net.TrainEpoch(batch) })
				iter++
				ctx.SetIteration(iter)
				for _, v := range layers {
					if err := ctx.Scatter(v); err != nil {
						return err
					}
				}
				if err := ctx.Advance(layers[0]); err != nil {
					return err
				}
				for _, v := range layers {
					if _, err := ctx.Gather(v, vol.Average); err != nil {
						return err
					}
				}
				if ctx.Rank() == 0 {
					auc := net.AUC(ds.Test)
					mu.Lock()
					curve.Points = append(curve.Points, Point{
						Time:  time.Since(start).Seconds(),
						Iter:  float64(iter) * float64(cb),
						Value: auc,
					})
					mu.Unlock()
					if goal > 0 && auc >= goal {
						stop.Store(true)
					}
				}
				if err := ctx.Commit(layers[0]); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if errs := res.LiveErrors(cluster.Fabric().Alive); len(errs) > 0 {
		return Series{}, errs[0]
	}
	return curve, nil
}
