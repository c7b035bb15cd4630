package bench

import (
	"slices"
	"sync"
	"time"

	"malt/internal/consistency"
	"malt/internal/core"
	"malt/internal/data"
	"malt/internal/dataflow"
	"malt/internal/ml/linalg"
	"malt/internal/ml/mf"
	"malt/internal/ml/sgd"
	"malt/internal/vol"
)

// Fig 7: test RMSE vs iterations for matrix factorization on the
// Netflix-shaped workload — distributed Hogwild (ASYNC, ranks=2, replace
// gather over the changed factor rows) with fixed and by-iteration decayed
// learning rates, against single-rank SGD with a fixed rate. The paper
// reports 1.9× (fixed) and 1.5× (byiter) fewer iterations to the RMSE
// goal.
func runFig7(o Options, r *Report) error {
	spec := data.NetflixSpec(o.Scale)
	epochs := 12
	if o.Quick {
		spec.Users, spec.Items = 600, 200
		spec.Train = 30000
		spec.Test = 3000
		epochs = 8
	}
	// A lower learning rate stretches convergence over several
	// epochs so the iteration axis resolves the configurations.
	eta := 0.01
	ds, err := data.GenerateRatings(spec)
	if err != nil {
		return err
	}
	// The paper sorts by movie and splits across ranks so
	// Hogwild overwrites rarely collide.
	ds.SortByItem()
	const ranks = 2
	cb := 500 // nominal 1000 at the paper's scale
	mfCfg := mf.Config{Users: ds.Users, Items: ds.Items, Rank: ds.Rank, Eta0: eta}

	o.logf("fig7: single-rank SGD (fixed rate)")
	serial, err := runSerialMF(ds, mfCfg, epochs)
	if err != nil {
		return err
	}
	goal := serial.Final() * 1.002
	serialIters, ok := serial.ItersToReach(goal)
	if !ok {
		serialIters = serial.Points[len(serial.Points)-1].Iter
	}
	r.Series = append(r.Series, serial)
	r.Linef("goal test RMSE %.4f; single-rank SGD: %.0f ratings", goal, serialIters)

	for _, sched := range []string{"fixed", "byiter"} {
		o.logf("fig7: MALT %s", sched)
		cfg := mfCfg
		if sched == "byiter" {
			cfg.Schedule = sgd.ByIter{Eta0: mfCfg.Eta0 * 1.5, Every: uint64(len(ds.Train) / ranks), Factor: 0.9}
		}
		curve, err := runDistributedMF(ds, cfg, ranks, cb, 2*epochs)
		if err != nil {
			return err
		}
		curve.Label = "netflix/malt-" + sched
		r.Series = append(r.Series, curve)
		if it, ok := curve.ItersToReach(goal); ok {
			sp := speedup(serialIters, it)
			r.Linef("MALT-%-7s cb=1000 (scaled %d): %.0f ratings/rank -> %.1fx by iterations", sched, cb, it, sp)
			r.Metric("speedup_"+sched, sp)
		} else {
			r.Linef("MALT-%-7s cb=1000 (scaled %d): goal not reached (final %.4f)", sched, cb, curve.Final())
			r.Metric("speedup_"+sched, 0)
		}
	}
	return nil
}

func runSerialMF(ds *data.RatingsDataset, cfg mf.Config, epochs int) (Series, error) {
	m, err := mf.New(cfg, 31)
	if err != nil {
		return Series{}, err
	}
	curve := Series{Label: "netflix/serial-fixed"}
	evalEvery := len(ds.Train) / 50
	seen := 0
	start := time.Now()
	for e := 0; e < epochs; e++ {
		for _, rt := range ds.Train {
			m.Step(rt)
			seen++
			if seen%evalEvery == 0 {
				curve.Points = append(curve.Points, Point{
					Time: time.Since(start).Seconds(), Iter: float64(seen), Value: m.RMSE(ds.Test),
				})
			}
		}
	}
	return curve, nil
}

// runDistributedMF extends Hogwild to multiple nodes over MALT: the two
// factor matrices live in sparse MALT vectors; every cb ratings a replica
// scatters only the factor rows it touched, and gathers peers' rows with a
// coordinate-wise replace, overwriting without locks.
func runDistributedMF(ds *data.RatingsDataset, cfg mf.Config, ranks, cb, epochs int) (Series, error) {
	cluster, err := core.NewCluster(core.Config{
		Ranks: ranks, Dataflow: dataflow.All, Sync: consistency.ASP, QueueLen: 8,
	})
	if err != nil {
		return Series{}, err
	}
	var (
		mu    sync.Mutex
		curve Series
	)
	res := cluster.Run(func(ctx *core.Context) error {
		uDim := cfg.Users * cfg.Rank
		vDim := cfg.Items * cfg.Rank
		uVec, err := ctx.CreateVectorOpts("mf/U", vol.Sparse, uDim, vol.Options{MaxNNZ: uDim})
		if err != nil {
			return err
		}
		vVec, err := ctx.CreateVectorOpts("mf/V", vol.Sparse, vDim, vol.Options{MaxNNZ: vDim})
		if err != nil {
			return err
		}
		model, err := mf.NewOver(cfg, uVec.Data(), vVec.Data())
		if err != nil {
			return err
		}
		model.Init(31) // identical start everywhere
		if err := ctx.Barrier(uVec); err != nil {
			return err
		}
		lo, hi, err := ctx.Shard(len(ds.Train))
		if err != nil {
			return err
		}
		shard := ds.Train[lo:hi]
		start := time.Now()
		iter := uint64(0)
		seen := 0
		touchedU := map[int32]bool{}
		touchedV := map[int32]bool{}
		for epoch := 0; epoch < epochs; epoch++ {
			for at := 0; at+cb <= len(shard); at += cb {
				batch := shard[at : at+cb]
				ctx.Compute(func() {
					for _, rt := range batch {
						model.Step(rt)
						touchedU[rt.User] = true
						touchedV[rt.Item] = true
					}
				})
				seen += len(batch)
				iter++
				ctx.SetIteration(iter)
				// Scatter only the touched rows of each factor matrix.
				if err := scatterRows(ctx, uVec, touchedU, cfg.Rank, iter); err != nil {
					return err
				}
				if err := scatterRows(ctx, vVec, touchedV, cfg.Rank, iter); err != nil {
					return err
				}
				clear(touchedU)
				clear(touchedV)
				// Lockless Hogwild merge: overwrite received coordinates.
				if _, err := ctx.Gather(uVec, vol.ReplaceCoords); err != nil {
					return err
				}
				if _, err := ctx.Gather(vVec, vol.ReplaceCoords); err != nil {
					return err
				}
				if ctx.Rank() == 0 {
					rmse := model.RMSE(ds.Test)
					mu.Lock()
					curve.Points = append(curve.Points, Point{
						Time: time.Since(start).Seconds(), Iter: float64(seen), Value: rmse,
					})
					mu.Unlock()
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

// scatterRows ships the touched factor-matrix rows as one sparse update.
func scatterRows(ctx *core.Context, v *vol.Vector, touched map[int32]bool, rank int, iter uint64) error {
	if len(touched) == 0 {
		return nil
	}
	rows := make([]int32, 0, len(touched))
	for r := range touched {
		rows = append(rows, r)
	}
	// Sparse payloads need strictly increasing indices.
	slices.Sort(rows)
	up := &linalg.SparseVector{}
	dataVec := v.Data()
	for _, row := range rows {
		base := int(row) * rank
		for k := 0; k < rank; k++ {
			up.Append(int32(base+k), dataVec[base+k])
		}
	}
	_, err := v.ScatterSparse(up, iter)
	return err
}
