package probes

import (
	"fmt"
	"time"

	"malt/internal/data"
	"malt/internal/ml/nn"
	"malt/internal/ml/svm"
)

// ml times the serial trainers' inner loops at the dense-bsp and
// nn-compute-bsp shapes: the compute share of every step and the
// denominator of speedup_vs_serial.
func (p *prober) ml() error {
	ds, err := data.GenerateClassification(data.ClassificationSpec{
		Name: "probe", Dim: denseDim, Train: 2000, Test: 1, NNZ: 150, Noise: 0.05, Seed: p.seed,
	})
	if err != nil {
		return err
	}
	tr, err := svm.New(svm.Config{Dim: denseDim, Lambda: -1})
	if err != nil {
		return err
	}
	// The check is one epoch from the fresh model (fixed work, so it does
	// not depend on how long the timed loop then runs).
	w := make([]float64, denseDim)
	before := tr.Loss(w, ds.Train)
	tr.TrainEpoch(w, ds.Train)
	if after := tr.Loss(w, ds.Train); !(after < before) {
		return fmt.Errorf("svm training loss %v did not fall below %v in one epoch", after, before)
	}
	ns, _, err := p.bench(trainLoop(ds.Train, func(batch []data.Example) { tr.TrainEpoch(w, batch) }))
	if err != nil {
		return err
	}
	p.add("ml.svm_ns_per_example", ns[0])

	clicks, err := data.GenerateClicks(data.ClickSpec{
		Name: "probe", Dim: 10000, Hidden: 32, Train: 500, Test: 1, NNZ: 30, CTR: 0.25, Seed: p.seed,
	})
	if err != nil {
		return err
	}
	net, err := nn.New(nn.Config{Input: 10000, H1: 64, H2: 32, Eta0: 0.1}, p.seed)
	if err != nil {
		return err
	}
	before = net.MeanLoss(clicks.Train)
	net.TrainEpoch(clicks.Train)
	if after := net.MeanLoss(clicks.Train); !(after < before) {
		return fmt.Errorf("nn training loss %v did not fall below %v in one epoch", after, before)
	}
	if ns, _, err = p.bench(trainLoop(clicks.Train, net.TrainEpoch)); err != nil {
		return err
	}
	p.add("ml.nn_ns_per_example", ns[0])
	return nil
}

// trainLoop is the benchmark operation of a trainer: n examples, cycling
// over the training set.
func trainLoop(train []data.Example, epoch func(batch []data.Example)) func(n int) ([]time.Duration, error) {
	return func(n int) ([]time.Duration, error) {
		start := time.Now()
		for done := 0; done < n; {
			batch := train[:min(n-done, len(train))]
			epoch(batch)
			done += len(batch)
		}
		return []time.Duration{time.Since(start)}, nil
	}
}
