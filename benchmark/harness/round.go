package harness

import (
	"errors"
	"fmt"
	"math"
	"net"
	"os"
	"path/filepath"
	"sync"
	"time"

	"malt/internal/core"
	"malt/internal/data"
	"malt/internal/dataflow"
	"malt/internal/dstorm"
	"malt/internal/fabric/stream"
	"malt/internal/fabric/tcpnet"
	"malt/internal/fabric/udsnet"
)

// RoundConfig describes one round: a fixed number of warm-up and timed
// steps of one workload on inputs generated from the seed.
type RoundConfig struct {
	Workload *Workload
	Seed     int64
	Steps    int
	Warmup   int
	// Traced records spans on both ranks and writes TracePath.
	Traced    bool
	TracePath string
	// SockDir holds the uds socket files; keep the path short (sun_path is
	// 108 bytes).
	SockDir string
	// Start is when the round's process started; set-up time runs from it.
	Start time.Time
}

// rankState is what one replica leaves behind for the round's report.
type rankState struct {
	stamps     []int64 // ns since round start at the top of each timed step, plus the end
	start, end counters
	ops        opCount
	params     [][]float64
	loss       float64 // rank 0: test loss of the final model
	lossBefore float64 // rank 0: test loss of the initial model
	sent       uint64  // records this rank's peer should have received (whole run)
	received   uint64  // consumed + overwritten on this rank (whole run)
	rec        *Recorder
}

type round struct {
	cfg   RoundConfig
	w     *Workload
	ds    *data.Dataset
	nets  []*stream.Net
	ranks [Ranks]rankState
	base  time.Time

	procStart, procEnd procCounters
	timedStart         time.Time
}

// RunRound generates the inputs, brings the two-rank cluster up, runs the
// warm-up and timed steps, and checks the outputs. An error means the
// round could not run to the end; failed output checks are reported in the
// result (Failed, Failures) instead.
func RunRound(cfg RoundConfig) (*RoundResult, error) {
	w := cfg.Workload
	r := &round{cfg: cfg, w: w, base: cfg.Start}
	var err error
	if r.ds, err = w.generate(cfg.Seed); err != nil {
		return nil, err
	}
	generated := time.Now()

	serial, err := w.serialRate(r.ds, cfg.Seed)
	if err != nil {
		return nil, err
	}

	bringup := time.Now()
	if r.nets, err = BringUp(w.Network, cfg.SockDir); err != nil {
		return nil, err
	}
	defer closeNets(r.nets)
	bringupMs := float64(time.Since(bringup)) / 1e6

	if err := r.train(); err != nil {
		return nil, err
	}
	closeNets(r.nets)

	after, err := w.serialRate(r.ds, cfg.Seed)
	if err != nil {
		return nil, err
	}

	// Set-up is child start → first timed step, less the serial baseline
	// that ran in between.
	setup := generated.Sub(cfg.Start) + r.timedStart.Sub(bringup)
	res := r.report()
	res.SetupS = setup.Seconds()
	res.BringupMs = bringupMs
	res.SerialExamplesPerS = math.Max(serial, after)
	res.PeakRSSMB = peakRSSMB()
	if cfg.Traced {
		recs := []*Recorder{r.ranks[0].rec, r.ranks[1].rec}
		if err := WriteChromeTrace(cfg.TracePath, recs); err != nil {
			return nil, err
		}
		res.TracePath = cfg.TracePath
		var ledgers [Ranks]Ledger
		for i, rec := range recs {
			if ledgers[i], err = rec.ledger(); err != nil {
				return nil, fmt.Errorf("rank %d: %w", i, err)
			}
		}
		res.Ledger = meanLedger(ledgers[:])
	}
	return res, nil
}

// BringUp creates every endpoint before any rank rendezvouses (uds binds in
// New, tcp on pre-bound listeners), so rank 1's hello always finds rank 0
// listening and never lands on the transport's 100 ms redial tick.
func BringUp(network, sockDir string) ([]*stream.Net, error) {
	nets := make([]*stream.Net, Ranks)
	peers := make([]string, Ranks)
	lns := make([]net.Listener, Ranks)
	for i := range peers {
		if network == stream.NetworkUnix {
			peers[i] = filepath.Join(sockDir, fmt.Sprintf("r%d.sock", i))
			continue
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns[:i] {
				l.Close()
			}
			return nil, err
		}
		lns[i] = ln
		peers[i] = ln.Addr().String()
	}
	for i := range nets {
		cfg := stream.Config{Rank: i, Peers: peers, Listener: lns[i]}
		var err error
		if network == stream.NetworkUnix {
			nets[i], err = udsnet.New(cfg)
		} else {
			nets[i], err = tcpnet.New(cfg)
		}
		if err != nil {
			closeNets(nets[:i])
			for _, l := range lns[i:] {
				if l != nil {
					l.Close()
				}
			}
			return nil, err
		}
	}
	errs := make([]error, Ranks)
	var wg sync.WaitGroup
	for i, n := range nets {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = n.Rendezvous()
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		closeNets(nets)
		return nil, err
	}
	return nets, nil
}

func closeNets(nets []*stream.Net) {
	for _, n := range nets {
		if n != nil {
			n.Close()
		}
	}
}

// train runs one replica per rank, each through its own core.Cluster.
func (r *round) train() error {
	w := r.w
	errs := make([]error, Ranks)
	var wg sync.WaitGroup
	for rank := 0; rank < Ranks; rank++ {
		cfg := core.Config{
			Ranks: Ranks, Dataflow: dataflow.All, Sync: w.Sync,
			Transport: r.nets[rank], Compress: w.Compress, BucketBytes: w.BucketBytes,
		}
		if w.Pipeline {
			cfg.Pipeline = &dstorm.PipelineConfig{}
		}
		cluster, err := core.NewCluster(cfg)
		if err != nil {
			return err
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := cluster.RunLocal(rank, r.replica)
			if err == nil {
				err = res.FirstError()
			}
			if err != nil {
				errs[rank] = fmt.Errorf("rank %d: %w", rank, err)
				// Release the peer from whatever barrier it waits in.
				closeNets(r.nets)
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

func (r *round) replica(ctx *core.Context) error {
	rank := ctx.Rank()
	st := &r.ranks[rank]
	cfg := r.cfg
	m, err := r.w.newModel(ctx, cfg.Seed)
	if err != nil {
		return err
	}
	sync := m.vectors()[0]
	lo, hi, err := ctx.Shard(len(r.ds.Train))
	if err != nil {
		return err
	}
	shard := r.ds.Train[lo:hi]
	cb := r.w.CB
	batches := len(shard) / cb
	if batches == 0 {
		return fmt.Errorf("cb %d exceeds shard of %d examples", cb, len(shard))
	}
	if cfg.Traced {
		perStep := 8 + sync.Buckets() + 2*len(m.vectors())
		st.rec = NewRecorder(cfg.Steps*perStep, r.base)
	}
	st.stamps = make([]int64, 0, cfg.Steps+1)
	if rank == 0 {
		st.lossBefore = m.loss(r.ds.Test)
	}
	if err := st.ops.done(1, ctx.Barrier(sync)); err != nil {
		return err
	}
	var rec *Recorder
	for i := 0; i < cfg.Warmup+cfg.Steps; i++ {
		if i == cfg.Warmup {
			// Align the ranks (ASP free-runs) and settle every ack so the
			// region's counter deltas cover exactly the timed steps.
			if err := st.ops.done(1, ctx.Barrier(sync)); err != nil {
				return err
			}
			st.start = r.counters(rank, m, &st.ops)
			if rank == 0 {
				r.procStart = readProc()
				r.timedStart = time.Now()
			}
			rec = st.rec
		}
		if i >= cfg.Warmup {
			st.stamps = append(st.stamps, int64(time.Since(r.base)))
		}
		ctx.SetIteration(uint64(i + 1))
		b := i % batches
		if err := m.step(ctx, shard[b*cb:(b+1)*cb], rec, i, &st.ops); err != nil {
			return fmt.Errorf("step %d: %w", i, err)
		}
	}
	st.stamps = append(st.stamps, int64(time.Since(r.base)))
	if rank == 0 {
		r.procEnd = readProc()
	}
	// Stats count a transfer when its ack arrives; under ASP some are still
	// in flight here.
	if err := sync.Drain(); err != nil {
		return err
	}
	if err := r.nets[rank].Drain(); err != nil {
		return err
	}
	st.end = r.counters(rank, m, &st.ops)

	// Conservation: once every rank has stopped scattering and a last
	// gather has drained the rings, everything the peer sent was either
	// consumed or overwritten here.
	if err := st.ops.done(1, ctx.Barrier(sync)); err != nil {
		return err
	}
	for _, v := range m.vectors() {
		if _, err := v.Gather(nil); err != nil {
			return err
		}
		ss := v.SegStats()
		st.received += ss.Consumed + ss.Overwritten
	}
	// A pipelined WriteBatch is one message carrying several records.
	fs := r.nets[rank].Stats()
	st.sent = fs.TotalMessages() - fs.CoalescedWrites() + fs.CoalescedRecords()
	st.params = m.params()
	if rank == 0 {
		st.loss = m.loss(r.ds.Test)
	}
	return nil
}

func meanLedger(ls []Ledger) *Ledger {
	var out Ledger
	n := float64(len(ls))
	for _, l := range ls {
		for k := range out.SelfMs {
			out.SelfMs[k] += l.SelfMs[k] / n
		}
		out.Closure += l.Closure / n
	}
	return &out
}

// MakeSockDir creates a fresh directory for a round's socket files under
// parent and returns it with its cleanup.
func MakeSockDir(parent string) (string, func(), error) {
	if err := os.MkdirAll(parent, 0o755); err != nil {
		return "", nil, err
	}
	dir, err := os.MkdirTemp(parent, "s")
	if err != nil {
		return "", nil, err
	}
	return dir, func() { os.RemoveAll(dir) }, nil
}
