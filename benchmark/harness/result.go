package harness

import (
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"syscall"
	"time"

	"malt/internal/consistency"
)

// RoundResult is everything one round measured. Timings are wall clock on
// rank 0 unless noted; counts cover the timed region and all ranks.
type RoundResult struct {
	SetupS    float64 `json:"setup_s"`
	BringupMs float64 `json:"bringup_ms"`
	// StepMs is the mean step time with the fastest and slowest tenth of
	// the steps dropped; the other three are the plain statistics.
	StepMs     float64 `json:"step_ms"`
	StepMsP50  float64 `json:"step_ms_p50"`
	StepMsP95  float64 `json:"step_ms_p95"`
	StepMsMean float64 `json:"step_ms_mean"`
	// SerialExamplesPerS is the best repetition of the serial trainer,
	// before or after the timed region.
	SerialExamplesPerS float64 `json:"serial_examples_per_s"`
	WireBytesPerStep   float64 `json:"wire_bytes_per_step"`
	PeakRSSMB          float64 `json:"peak_rss_mb"`
	FinalLoss          float64 `json:"final_loss"`
	// ModelSum is an FNV-64a over rank 0's final parameter bits.
	ModelSum string `json:"model_sum"`

	Tally

	// Per-layer counts over the timed region.
	UpdatesFoldedPerStep float64 `json:"updates_folded_per_step"`
	ScratchHitShare      float64 `json:"scratch_hit_share"`
	ConsumedPerStep      float64 `json:"consumed_per_step"`
	OverwrittenShare     float64 `json:"overwritten_share"`
	Retries              float64 `json:"retries"`
	WindowStallsPerStep  float64 `json:"window_stalls_per_step"`
	CumAcksPerStep       float64 `json:"cum_acks_per_step"`
	WritesPerStep        float64 `json:"writes_per_step"`
	FailedWrites         float64 `json:"failed_writes"`
	CPUMsPerStep         float64 `json:"cpu_ms_per_step"`
	AllocsPerStep        float64 `json:"allocs_per_step"`
	AllocKBPerStep       float64 `json:"alloc_kb_per_step"`
	GCCycles             float64 `json:"gc_cycles"`
	GCPauseMs            float64 `json:"gc_pause_ms"`

	// Traced rounds only: mean span self time per step, mean over ranks.
	Ledger    *Ledger `json:"ledger,omitempty"`
	TracePath string  `json:"trace_path,omitempty"`
}

// Tally counts operations: one scatter destination, one gather, one barrier
// or one output check each. An operation fails on a returned error or a
// failed check; Failures says which.
type Tally struct {
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Failures  []string `json:"failures,omitempty"`
}

// check records one output check as an operation.
func (t *Tally) check(ok bool, format string, args ...any) {
	t.Attempted++
	if !ok {
		t.Failed++
		t.Failures = append(t.Failures, fmt.Sprintf(format, args...))
	}
}

func (t *Tally) merge(o Tally) {
	t.Attempted += o.Attempted
	t.Failed += o.Failed
	t.Failures = append(t.Failures, o.Failures...)
}

// counters is one rank's cumulative view of the public accessors the
// per-layer counts come from; a timed region's counts are the difference of
// two of them.
type counters [numCounters]uint64

const (
	cBytes = iota
	cMessages
	cStalls
	cCumAcks
	cFailedWrites
	cRetries
	cExhausted
	cConsumed
	cOverwritten
	cScratchHits
	cFolded
	numCounters
)

// procCounters are the process-wide runtime counters.
type procCounters struct {
	cpu            time.Duration
	mallocs, bytes uint64
	gcCycles       uint32
	gcPause        uint64
}

func readProc() procCounters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF with a valid pointer
	return procCounters{
		cpu:      time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs:  ms.Mallocs,
		bytes:    ms.TotalAlloc,
		gcCycles: ms.NumGC,
		gcPause:  ms.PauseTotalNs,
	}
}

// peakRSSMB returns the process's maximum resident set so far.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // see readProc
	return float64(ru.Maxrss) / 1024                // Linux reports KiB
}

// counters reads one rank's cumulative counters through public accessors.
func (r *round) counters(rank int, m replicaModel, ops *opCount) counters {
	fs := r.nets[rank].Stats()
	rs := m.vectors()[0].Segment().Node().RetryStats()
	c := counters{
		cBytes: fs.TotalBytes(), cMessages: fs.TotalMessages(),
		cStalls: fs.WindowStalls(), cCumAcks: fs.CumAcks(), cFailedWrites: fs.FailedWrites(),
		cRetries: rs.Retries, cExhausted: rs.Exhausted,
		cFolded: uint64(ops.folded),
	}
	for _, v := range m.vectors() {
		ss := v.SegStats()
		c[cConsumed] += ss.Consumed
		c[cOverwritten] += ss.Overwritten
		c[cScratchHits] += v.GatherPerf().ScratchHits
	}
	return c
}

// report turns the ranks' raw state into the round's result and runs the
// output checks.
func (r *round) report() *RoundResult {
	w, steps := r.w, float64(r.cfg.Steps)
	res := &RoundResult{}

	stamps := r.ranks[0].stamps
	stepMs := make([]float64, 0, len(stamps)-1)
	for i := 1; i < len(stamps); i++ {
		stepMs = append(stepMs, float64(stamps[i]-stamps[i-1])/1e6)
	}
	res.StepMs = trimmedMean(stepMs, 0.1)
	res.StepMsP50 = median(stepMs)
	res.StepMsP95 = percentile(stepMs, 0.95)
	res.StepMsMean = float64(stamps[len(stamps)-1]-stamps[0]) / 1e6 / steps

	var d counters
	for i := range r.ranks {
		st := &r.ranks[i]
		res.Attempted += st.ops.attempted
		res.Failed += st.ops.failed
		for k := range d {
			d[k] += st.end[k] - st.start[k]
		}
	}
	perStep := func(k int) float64 { return float64(d[k]) / steps }
	res.WireBytesPerStep = perStep(cBytes)
	res.WritesPerStep = perStep(cMessages)
	res.WindowStallsPerStep = perStep(cStalls)
	res.CumAcksPerStep = perStep(cCumAcks)
	res.FailedWrites = float64(d[cFailedWrites])
	res.Retries = float64(d[cRetries])
	res.ConsumedPerStep = perStep(cConsumed) / Ranks
	res.UpdatesFoldedPerStep = perStep(cFolded) / Ranks
	if n := d[cConsumed] + d[cOverwritten]; n > 0 {
		res.OverwrittenShare = float64(d[cOverwritten]) / float64(n)
	}
	if d[cFolded] > 0 {
		res.ScratchHitShare = float64(d[cScratchHits]) / float64(d[cFolded])
	}
	p0, p1 := r.procStart, r.procEnd
	res.CPUMsPerStep = float64(p1.cpu-p0.cpu) / 1e6 / steps
	res.AllocsPerStep = float64(p1.mallocs-p0.mallocs) / steps
	res.AllocKBPerStep = float64(p1.bytes-p0.bytes) / 1024 / steps
	res.GCCycles = float64(p1.gcCycles - p0.gcCycles)
	res.GCPauseMs = float64(p1.gcPause-p0.gcPause) / 1e6

	// A write that failed for good is a failed operation even though the
	// scatter that issued it returned no error.
	if n := d[cFailedWrites] + d[cExhausted]; n > 0 {
		res.Failed += int(n)
		res.Failures = append(res.Failures, fmt.Sprintf("%d failed writes, %d retry-exhausted", d[cFailedWrites], d[cExhausted]))
	}

	res.FinalLoss = r.ranks[0].loss
	h := fnv.New64a()
	var buf [8]byte
	closedForm := 0 // dense uncompressed wire bytes of one rank's step
	for _, p := range r.ranks[0].params {
		closedForm += 20 + 8*len(p)
		for _, f := range p {
			bits := math.Float64bits(f)
			for i := range buf {
				buf[i] = byte(bits >> (8 * i))
			}
			h.Write(buf[:])
		}
	}
	res.ModelSum = fmt.Sprintf("%016x", h.Sum64())

	if w.RanksAgree {
		i := firstDifference(r.ranks[0].params, r.ranks[1].params)
		res.check(i < 0, "rank 0 and rank 1 models differ at parameter %d", i)
	}
	// Dense and uncompressed, every rank ships each vector whole to its one
	// peer: 8 bytes per coordinate behind dstorm's 20-byte update header.
	// Sparse and codec payloads are data-dependent.
	if !w.Sparse && !w.Compress.Enabled() && w.BucketBytes == 0 {
		want := float64(Ranks * closedForm)
		res.check(res.WireBytesPerStep == want, "wire_bytes_per_step %v, closed form %v", res.WireBytesPerStep, want)
	}
	for i := range r.ranks {
		// What rank i holds came from its one peer. Under BSP the account
		// is exact. Under ASP dstorm's drain skips a slot that was lapped
		// between its peek and its read without counting it overwritten,
		// so a few frames per thousand go unaccounted; none may be invented.
		got, sent := r.ranks[i].received, r.ranks[1-i].sent
		slack := uint64(0)
		if w.Sync == consistency.ASP {
			slack = sent / 100
		}
		res.check(got <= sent && sent-got <= slack, "rank %d consumed+overwritten %d of %d frames delivered", i, got, sent)
	}
	// Training must have learnt something: a positive finite test loss
	// below the untrained model's. (A ceiling recorded at one seed would
	// fail other seeds; their losses differ by several percent.)
	before := r.ranks[0].lossBefore
	res.check(res.FinalLoss > 0 && res.FinalLoss < before, "final_loss %v, untrained model %v", res.FinalLoss, before)
	return res
}

// firstDifference returns the index of the first parameter whose bits
// differ between the two models, or -1.
func firstDifference(a, b [][]float64) int {
	n := 0
	for l := range a {
		for i := range a[l] {
			if math.Float64bits(a[l][i]) != math.Float64bits(b[l][i]) {
				return n + i
			}
		}
		n += len(a[l])
	}
	return -1
}
