// maltrun launches one distributed SVM training job over the simulated
// cluster and reports its convergence, per-phase time breakdown and
// network traffic — the operational front end to the MALT runtime.
//
//	maltrun -workload rcv1 -ranks 10 -cb 50 -dataflow halton -sync asp -epochs 10
//	maltrun -data train.libsvm -ranks 4 -cb 100
//
// A chaos scenario subjects the run to a scripted hostile network:
//
//	maltrun -ranks 4 -sync asp -chaos "flaky=0.05;blackout=1@100ms+80ms;kill=3@300ms"
//
// A crashed rank rejoins a still-running tcp cluster (survivors started
// with -publish donate it a state snapshot):
//
//	maltrun -transport tcp -listen 127.0.0.1:7003 -peers 127.0.0.1:7001,127.0.0.1:7002,127.0.0.1:7003 -rejoin -publish ...
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"malt/internal/bench"
	"malt/internal/chaos"
	"malt/internal/consistency"
	"malt/internal/data"
	"malt/internal/dataflow"
	"malt/internal/dstorm"
	"malt/internal/ml/svm"
	"malt/internal/trace"
)

func main() {
	var (
		app       = flag.String("app", "svm", "application: svm|mf|nn|kmeans")
		workload  = flag.String("workload", "rcv1", "synthetic workload shape for svm: rcv1|alpha|dna|webspam|splice")
		dataFile  = flag.String("data", "", "libsvm training file (overrides -workload)")
		scale     = flag.Int("scale", 1, "dataset scale multiplier")
		ranks     = flag.Int("ranks", 4, "model replicas")
		cb        = flag.Int("cb", 50, "communication batch size (examples)")
		epochs    = flag.Int("epochs", 10, "training epochs")
		flowStr   = flag.String("dataflow", "all", "dataflow: all|halton|ring")
		syncStr   = flag.String("sync", "bsp", "consistency: bsp|asp|ssp")
		modeStr   = flag.String("mode", "gradavg", "update exchanged: gradavg|modelavg")
		goal      = flag.Float64("goal", 0, "stop at this training loss (0 = run all epochs)")
		lambda    = flag.Float64("lambda", 1e-5, "L2 regularization")
		eta       = flag.Float64("eta", 1, "initial learning rate")
		sparse    = flag.Bool("sparse", true, "sparse wire format")
		chaosStr  = flag.String("chaos", "", `chaos scenario, e.g. "flaky=0.05;blackout=1@100ms+80ms;kill=3@300ms" (svm only)`)
		chaosSeed = flag.Int64("chaosSeed", 1, "seed for the chaos scenario's injection streams")
		batch     = flag.Bool("batch", false, "coalesce scatters per destination (async send pipeline; svm only)")
		batchCnt  = flag.Int("batchCount", 0, "flush a destination's batch at this many records (0 = default)")
		batchByte = flag.Int("batchBytes", 0, "flush a destination's batch at this many payload bytes (0 = default)")
		batchWait = flag.Duration("batchDelay", 0, "flush a destination's batch after this long (0 = default)")
		gatherW   = flag.Int("gatherWorkers", 0, "parallel gather engine workers (0 = serial, -1 = default pool size; svm only)")
		foldChunk = flag.Int("foldChunk", 0, "coordinate-chunk size for parallel folds (0 = default)")
		transport = flag.String("transport", "inproc", "interconnect: inproc (simulated fabric), tcp (one process per rank over real sockets) or uds (one process per rank over Unix domain sockets; svm only)")
		listen    = flag.String("listen", "", "this rank's host:port (tcp) or socket path (uds)")
		peersStr  = flag.String("peers", "", "comma-separated host:port (tcp) or socket-path (uds) list for every rank; this rank = position of -listen in the list")
		rejoin    = flag.Bool("rejoin", false, "rejoin a running tcp/uds cluster after a crash instead of rendezvousing: mint a fresh membership epoch, pull a state snapshot from a publishing survivor, and resume (non-zero rank)")
		publish   = flag.Bool("publish", false, "publish this rank's recoverable state (model, iteration, optimizer scalars) every batch so it can donate snapshots to rejoining peers (tcp/uds transport)")
		windowFr  = flag.Int("windowFrames", 0, "max unacked data frames per link before the sender stalls (0 = transport default, 1 = synchronous ack-per-frame; tcp/uds transport)")
		windowBy  = flag.Int("windowBytes", 0, "max unacked payload bytes per link before the sender stalls (0 = transport default; tcp/uds transport)")
		compCodec = flag.String("compress", "", "gradient compression codec: none|topk|int8|hybrid (empty = off; requires -sparse=false; svm only)")
		compRatio = flag.Float64("compressRatio", 0, "fraction of coordinates the ratio-driven codecs ship, in (0,1] (0 = default 0.125)")
		compAdapt = flag.Bool("compressAdapt", false, "adapt each link's compression ratio from fabric health signals (requires -compress=topk or hybrid)")
	)
	flag.Parse()

	tspec, err := validateTransportFlags(*transport, *listen, *peersStr, *chaosStr, *rejoin, *windowFr, *windowBy)
	if err != nil {
		log.Fatal(err)
	}
	compOpts, err := validateCompressFlags(*compCodec, *compRatio, *compAdapt, *sparse)
	if err != nil {
		log.Fatal(err)
	}
	if compOpts.Enabled() && *app != "svm" {
		log.Fatalf("maltrun: -compress supports only -app=svm (got %q)", *app)
	}
	if tspec.external() && *app != "svm" {
		log.Fatalf("maltrun: -transport=%s supports only -app=svm (got %q)", tspec.kind, *app)
	}

	switch *app {
	case "svm":
		// handled below
	case "mf":
		if err := runMF(*ranks, *cb*10, *epochs, *scale); err != nil {
			log.Fatal(err)
		}
		return
	case "nn":
		if err := runNN(*ranks, max(*cb, 100), *epochs, *scale); err != nil {
			log.Fatal(err)
		}
		return
	case "kmeans":
		if err := runKMeans(*ranks, *epochs, *scale); err != nil {
			log.Fatal(err)
		}
		return
	default:
		log.Fatalf("unknown -app %q", *app)
	}

	ds, err := loadDataset(*dataFile, *workload, *scale)
	if err != nil {
		log.Fatal(err)
	}
	flow, err := dataflow.ParseKind(*flowStr)
	if err != nil {
		log.Fatal(err)
	}
	sync, err := consistency.ParseModel(*syncStr)
	if err != nil {
		log.Fatal(err)
	}
	var mode bench.CommMode
	switch *modeStr {
	case "gradavg":
		mode = bench.GradAvg
	case "modelavg":
		mode = bench.ModelAvg
	default:
		log.Fatalf("unknown -mode %q", *modeStr)
	}

	if tspec.external() {
		// The peer list is the cluster: every process must derive the same
		// shape, so -ranks is ignored in favor of len(-peers).
		*ranks = len(tspec.peers)
	}

	fmt.Printf("workload %s: %d train / %d test examples, %d features\n",
		ds.Name, len(ds.Train), len(ds.Test), ds.Dim)
	fmt.Printf("cluster: %d ranks, %v dataflow, %v, %s, cb=%d\n", *ranks, flow, sync, mode, *cb)

	var script *chaos.Script
	if *chaosStr != "" {
		script, err = chaos.Parse(*chaosStr, *chaosSeed)
		if err != nil {
			log.Fatal(err)
		}
		if err := script.Validate(*ranks); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("chaos: %q (seed %d, %d timed events)\n", *chaosStr, *chaosSeed, len(script.Events()))
	}

	var pipe *dstorm.PipelineConfig
	if *batch || *batchCnt > 0 || *batchByte > 0 || *batchWait > 0 {
		pipe = &dstorm.PipelineConfig{
			MaxBatchCount: *batchCnt,
			MaxBatchBytes: *batchByte,
			MaxDelay:      *batchWait,
		}
		fmt.Printf("send pipeline: count=%d bytes=%d delay=%v (0 = default)\n",
			*batchCnt, *batchByte, *batchWait)
	}

	if *gatherW != 0 {
		fmt.Printf("parallel gather: workers=%d foldChunk=%d (0 = default)\n", *gatherW, *foldChunk)
	}

	if compOpts.Enabled() {
		fmt.Printf("gradient compression: codec=%s ratio=%g adapt=%v\n", compOpts.Codec, compOpts.Ratio, compOpts.Adapt)
	}

	opts := bench.SVMOpts{
		DS: ds, Ranks: *ranks, CB: *cb,
		Dataflow: flow, Sync: sync, Cutoff: 16, Bound: 4,
		Mode: mode, Epochs: *epochs, Goal: *goal,
		SVM:    svm.Config{Dim: ds.Dim, Lambda: *lambda, Eta0: *eta},
		Sparse: *sparse, EvalEvery: 4,
		Chaos:         script,
		Pipeline:      pipe,
		GatherWorkers: *gatherW,
		FoldChunk:     *foldChunk,
		Compress:      compOpts,
	}
	if tspec.external() {
		tnet, err := dialStream(tspec)
		if err != nil {
			log.Fatal(err)
		}
		defer tnet.Close()
		opts.Transport = tnet
		opts.LocalRank = tspec.rank
		opts.Rejoin = tspec.rejoin
		opts.PublishState = *publish
	}
	res, err := bench.RunSVM(opts)
	if err != nil {
		log.Fatal(err)
	}

	if tspec.external() {
		// Each process's exit-time membership view, so an operator (or the
		// CI smoke) can assert the whole cluster healed after a rejoin.
		fmt.Printf("survivors: %v\n", res.Cluster.Context(tspec.rank).Monitor().Survivors())
	}
	if tspec.external() && tspec.rank != 0 {
		// Only rank 0's process samples the curve and owns the final
		// model; the other processes report their local phase breakdown
		// and traffic and exit.
		fmt.Printf("\nrank %d finished in %v\n", tspec.rank, res.Elapsed.Round(1e6))
		printTimers(res, 1)
		printNetwork(res)
		return
	}

	tr, _ := svm.New(svm.Config{Dim: ds.Dim, Lambda: *lambda})
	fmt.Printf("\ntrained in %v; final test loss %.4f, accuracy %.3f\n",
		res.Elapsed.Round(1e6), res.Curve.Final(), tr.Accuracy(res.FinalW, ds.Test))
	if *goal > 0 {
		if res.Reached {
			fmt.Printf("goal %.4f reached after %.2fs (%.0f examples/rank)\n", *goal, res.TimeToGoal, res.ItersToGoal)
		} else {
			fmt.Printf("goal %.4f not reached\n", *goal)
		}
	}

	agg := printTimers(res, *ranks)
	printNetwork(res)
	if pipe != nil {
		fmt.Printf("coalescing: %d fabric writes saved, %.1f MB merged, peak send queue %d\n",
			agg.Count(trace.WritesSaved), float64(agg.Count(trace.BytesMerged))/(1<<20),
			agg.Count(trace.QueuePeak))
	}
	if *gatherW != 0 {
		fmt.Printf("gather engine: %d decode tasks fanned out, %d chunks folded, %d scratch hits\n",
			agg.Count(trace.DecodeTasks), agg.Count(trace.ChunksFolded), agg.Count(trace.ScratchHits))
	}
	if compOpts.Enabled() {
		pre, post := agg.Count(trace.BytesPrecompress), agg.Count(trace.BytesPostcompress)
		reduction, planMs := 0.0, 0.0
		if post > 0 {
			reduction = float64(pre) / float64(post)
		}
		// One update is one destination's 8·dim raw bytes; destinations
		// that share a plan split its cost.
		if updates := pre / uint64(8*ds.Dim); updates > 0 {
			planMs = float64(agg.Count(trace.CompressPlanNs)) / 1e6 / float64(updates)
		}
		fmt.Printf("compression: %.1f MB raw -> %.1f MB shipped (%.1fx), plan %.4f ms/update, residual L1 %.3f, tightest link ratio 1/%.1f\n",
			float64(pre)/(1<<20), float64(post)/(1<<20), reduction, planMs,
			float64(agg.Count(trace.ResidualNorm))/1e6,
			float64(agg.Count(trace.RatioPerLink))/1e3)
	}

	if script != nil {
		fmt.Printf("\nchaos: %d transient drops injected, %v straggler wire time\n",
			res.Stats.InjectedDrops(), res.Stats.InjectedJitterTime().Round(1e6))
		fmt.Printf("retries: %d attempts, %d retried, %d recovered, %d exhausted\n",
			res.Retry.Attempts, res.Retry.Retries, res.Retry.Recovered, res.Retry.Exhausted)
		for _, ev := range res.ChaosLog {
			status := "ok"
			if ev.Err != nil {
				status = ev.Err.Error()
			}
			fmt.Printf("  %8v %-28s %s\n", ev.At, ev.Desc, status)
		}
		for _, r := range res.Cluster.Fabric().AliveRanks() {
			m := res.Cluster.Context(r).Monitor()
			st := m.SuspicionStats()
			fmt.Printf("  rank %d: survivors %v; %d reports, %d health checks, %d refuted, %d confirmed\n",
				r, m.Survivors(), st.Reports, st.HealthChecks, st.Refuted, st.Confirmed)
		}
	}
}

// printTimers prints the mean per-rank phase breakdown over the n ranks
// that ran in this process (remote ranks have no timer here) and returns
// the aggregate for follow-up reporting.
func printTimers(res *bench.RunStats, n int) *trace.Timer {
	agg := &trace.Timer{}
	for _, tm := range res.Timers {
		if tm != nil {
			agg.Merge(tm)
		}
	}
	fmt.Printf("\nper-rank phase breakdown (mean):\n")
	for _, p := range trace.Phases() {
		fmt.Printf("  %-8s %10.3fs\n", p, agg.Get(p).Seconds()/float64(n))
	}
	return agg
}

func printNetwork(res *bench.RunStats) {
	fmt.Printf("\nnetwork: %.1f MB total, %d messages, modeled wire time %v\n",
		float64(res.Stats.TotalBytes())/(1<<20), res.Stats.TotalMessages(),
		res.Stats.ModeledNetworkTime().Round(1e6))
}

func loadDataset(file, workload string, scale int) (*data.Dataset, error) {
	if file != "" {
		f, err := os.Open(file)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		ds, err := data.ReadLibSVM(f, "user", 0)
		if err != nil {
			return nil, err
		}
		// Hold out 10% for evaluation.
		cut := len(ds.Train) * 9 / 10
		ds.Test = ds.Train[cut:]
		ds.Train = ds.Train[:cut]
		return ds, nil
	}
	return data.Shape(workload).Generate(scale)
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
