// Package trace accumulates per-phase wall-clock time for one training
// replica. The paper's Fig 8 breaks a rank's time into gradient
// computation, scatter, gather and barrier; Fig 9 contrasts compute time
// with wait time across MALT and parameter-server configurations. A Timer
// is owned by one goroutine and is deliberately free of synchronization on
// the hot path; Snapshot copies may be taken from other goroutines only
// after the replica has stopped.
package trace

import (
	"fmt"
	"strings"
	"time"
)

// Phase labels one accounted activity.
type Phase int

const (
	// Compute is gradient / model-update computation.
	Compute Phase = iota
	// Scatter is time spent pushing updates to peers.
	Scatter
	// Gather is time spent folding received updates.
	Gather
	// Barrier is time blocked in BSP barriers.
	Barrier
	// Wait is time blocked for other reasons: SSP stalls, parameter-server
	// model pulls.
	Wait
	numPhases
)

// String returns the phase name.
func (p Phase) String() string {
	switch p {
	case Compute:
		return "compute"
	case Scatter:
		return "scatter"
	case Gather:
		return "gather"
	case Barrier:
		return "barrier"
	case Wait:
		return "wait"
	default:
		return fmt.Sprintf("Phase(%d)", int(p))
	}
}

// Phases lists all phases in display order.
func Phases() []Phase {
	return []Phase{Compute, Scatter, Gather, Barrier, Wait}
}

// Counter labels one accounted event count (not a duration). Counters feed
// the coalescing-pipeline and parallel-gather ablations: how many fabric
// writes batching saved, how deep the send coalescer got, how much work the
// gather engine fanned out, and how often its scratch pools avoided
// allocation.
type Counter int

const (
	// WritesSaved is fabric writes eliminated by send-side coalescing.
	WritesSaved Counter = iota
	// BytesMerged is payload bytes that travelled in a merged batch.
	BytesMerged
	// QueuePeak is the peak number of records pending in the coalescer.
	// Merged with Max, not summed.
	QueuePeak
	// DecodeTasks is update decodes fanned to the parallel-gather pool.
	DecodeTasks
	// ChunksFolded is coordinate chunks folded by chunk-form UDFs.
	ChunksFolded
	// ScratchHits is gather decode buffers reused without allocation.
	ScratchHits
	// BytesPrecompress is the raw bytes compressed scatters would have
	// shipped uncompressed (8·dim per destination per update).
	BytesPrecompress
	// BytesPostcompress is the compressed frame bytes actually shipped.
	BytesPostcompress
	// CompressPlanNs is nanoseconds spent planning compressed updates
	// (residual correction, top-k selection, quantization) — the codec's
	// compute cost, as BytesPostcompress is its wire cost.
	CompressPlanNs
	// ResidualNorm is the final L1 norm of the error-feedback residuals in
	// micro-units (×1e6), summed over links — gradient mass still deferred
	// when the run ended.
	ResidualNorm
	// RatioPerLink is 1000 / the tightest (smallest) adaptive per-link
	// compression ratio that was ever in force, so tightening raises it
	// and post-blackout relaxation does not erase the peak. Merged with
	// Max, not summed: the cluster-wide value is the worst link anywhere.
	RatioPerLink
	numCounters
)

// String returns the counter name.
func (c Counter) String() string {
	switch c {
	case WritesSaved:
		return "writes_saved"
	case BytesMerged:
		return "bytes_merged"
	case QueuePeak:
		return "queue_peak"
	case DecodeTasks:
		return "decode_tasks"
	case ChunksFolded:
		return "chunks_folded"
	case ScratchHits:
		return "scratch_hits"
	case BytesPrecompress:
		return "bytes_precompress"
	case BytesPostcompress:
		return "bytes_postcompress"
	case CompressPlanNs:
		return "compress_plan_ns"
	case ResidualNorm:
		return "residual_norm"
	case RatioPerLink:
		return "ratio_per_link"
	default:
		return fmt.Sprintf("Counter(%d)", int(c))
	}
}

// Counters lists all counters in display order.
func Counters() []Counter {
	return []Counter{WritesSaved, BytesMerged, QueuePeak, DecodeTasks, ChunksFolded, ScratchHits, BytesPrecompress, BytesPostcompress, CompressPlanNs, ResidualNorm, RatioPerLink}
}

// Timer accumulates time per phase and event counts per counter.
type Timer struct {
	total  [numPhases]time.Duration
	counts [numCounters]uint64
}

// Time runs fn and charges its duration to phase.
func (t *Timer) Time(p Phase, fn func()) {
	start := time.Now()
	fn()
	t.total[p] += time.Since(start)
}

// TimeErr runs fn and charges its duration to phase, forwarding fn's error.
func (t *Timer) TimeErr(p Phase, fn func() error) error {
	start := time.Now()
	err := fn()
	t.total[p] += time.Since(start)
	return err
}

// Add charges d to phase directly (used when the duration was measured
// elsewhere, e.g. the barrier wait returned by a consistency controller).
func (t *Timer) Add(p Phase, d time.Duration) {
	t.total[p] += d
}

// Get returns the accumulated time for a phase.
func (t *Timer) Get(p Phase) time.Duration { return t.total[p] }

// Total returns the sum over all phases.
func (t *Timer) Total() time.Duration {
	var sum time.Duration
	for _, d := range t.total {
		sum += d
	}
	return sum
}

// Snapshot returns a copy of the per-phase totals.
func (t *Timer) Snapshot() map[Phase]time.Duration {
	out := make(map[Phase]time.Duration, numPhases)
	for p := Phase(0); p < numPhases; p++ {
		out[p] = t.total[p]
	}
	return out
}

// AddCount charges n events to counter c.
func (t *Timer) AddCount(c Counter, n uint64) {
	t.counts[c] += n
}

// MaxCount raises counter c to n if n is larger (for peak-style counters).
func (t *Timer) MaxCount(c Counter, n uint64) {
	if n > t.counts[c] {
		t.counts[c] = n
	}
}

// Count returns the accumulated events for a counter.
func (t *Timer) Count(c Counter) uint64 { return t.counts[c] }

// Merge adds another timer's totals into t (aggregating ranks). Peak-style
// counters (QueuePeak, RatioPerLink) take the max instead of summing.
func (t *Timer) Merge(other *Timer) {
	for p := Phase(0); p < numPhases; p++ {
		t.total[p] += other.total[p]
	}
	for c := Counter(0); c < numCounters; c++ {
		if c == QueuePeak || c == RatioPerLink {
			if other.counts[c] > t.counts[c] {
				t.counts[c] = other.counts[c]
			}
		} else {
			t.counts[c] += other.counts[c]
		}
	}
}

// String formats the totals compactly for logs; counters appear only when
// nonzero.
func (t *Timer) String() string {
	var b strings.Builder
	for i, p := range Phases() {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%v", p, t.total[p].Round(time.Microsecond))
	}
	for _, c := range Counters() {
		if t.counts[c] != 0 {
			fmt.Fprintf(&b, " %s=%d", c, t.counts[c])
		}
	}
	return b.String()
}
