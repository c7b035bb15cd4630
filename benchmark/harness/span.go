package harness

import (
	"bufio"
	"fmt"
	"os"
	"time"
)

// Span kinds: one step span per iteration, with a child around every call
// into core. The compute callback inside ScatterBucketed is a child of the
// scatter span, so a layer's self time is its span minus its children.
type spanKind uint8

const (
	spanStep spanKind = iota
	spanCompute
	spanScatter
	spanAdvance
	spanGather
	spanCommit
	numSpanKinds
)

var spanNames = [numSpanKinds]string{"step", "compute", "scatter", "advance", "gather", "commit"}

type span struct {
	kind       spanKind
	parent     int32 // index of the enclosing span, -1 for a step
	iter       int32 // shared id: the iteration the span belongs to
	start, end int64 // ns since the recorder's base
}

// Recorder keeps one rank's spans in a preallocated slice: begin and end
// never allocate, and a nil *Recorder records nothing, so the untraced
// rounds run the same loop code at the cost of a nil check.
type Recorder struct {
	base    time.Time
	spans   []span
	dropped int
}

// NewRecorder preallocates room for capacity spans.
func NewRecorder(capacity int, base time.Time) *Recorder {
	return &Recorder{base: base, spans: make([]span, 0, capacity)}
}

func (r *Recorder) begin(kind spanKind, iter int, parent int32) int32 {
	if r == nil {
		return -1
	}
	n := len(r.spans)
	if n == cap(r.spans) {
		r.dropped++
		return -1
	}
	r.spans = r.spans[:n+1]
	r.spans[n] = span{kind: kind, parent: parent, iter: int32(iter), start: int64(time.Since(r.base))}
	return int32(n)
}

func (r *Recorder) end(id int32) {
	if r == nil || id < 0 {
		return
	}
	r.spans[id].end = int64(time.Since(r.base))
}

// Ledger is one rank's per-step attribution: every layer's mean self time
// per step, and the share of the traced steps' time the layers account
// for. Means, not medians, so the layers add up to the step: under ASP a
// gather is bursty (p50 4 us, mean 140 us on sparse-asp) and its median
// would say it costs nothing.
type Ledger struct {
	SelfMs  [numSpanKinds]float64
	Closure float64
}

// ledger folds the recorded spans into self times: a span's duration minus
// the part of it its children cover.
func (r *Recorder) ledger() (Ledger, error) {
	if r.dropped > 0 {
		return Ledger{}, fmt.Errorf("span recorder overflowed: %d spans dropped", r.dropped)
	}
	var self [numSpanKinds]int64
	steps := 0
	for _, s := range r.spans {
		self[s.kind] += s.end - s.start
		if s.parent >= 0 {
			self[r.spans[s.parent].kind] -= s.end - s.start
		}
		if s.kind == spanStep {
			steps++
		}
	}
	if steps == 0 {
		return Ledger{}, fmt.Errorf("span recorder holds no steps")
	}
	// A step's self time is what no layer accounts for.
	var l Ledger
	var layers int64
	for k := spanCompute; k < numSpanKinds; k++ {
		l.SelfMs[k] = float64(self[k]) / 1e6 / float64(steps)
		layers += self[k]
	}
	l.Closure = float64(layers) / float64(layers+self[spanStep])
	return l, nil
}

// WriteChromeTrace writes every rank's spans as Chrome trace-event JSON
// (load in chrome://tracing or Perfetto): one process per rank, complete
// ("X") events nested by containment, args.iter the shared step id.
func WriteChromeTrace(path string, recs []*Recorder) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	fmt.Fprint(bw, `{"displayTimeUnit":"ms","traceEvents":[`)
	first := true
	for rank, r := range recs {
		for _, s := range r.spans {
			if !first {
				bw.WriteByte(',')
			}
			first = false
			fmt.Fprintf(bw, "\n{\"name\":%q,\"ph\":\"X\",\"pid\":%d,\"tid\":0,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"iter\":%d}}",
				spanNames[s.kind], rank, float64(s.start)/1e3, float64(s.end-s.start)/1e3, s.iter)
		}
	}
	fmt.Fprint(bw, "\n]}\n")
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
