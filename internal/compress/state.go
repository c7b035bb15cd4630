package compress

import (
	"math"
	"slices"
	"time"
)

// State is one vector's compression state: the error-feedback residual of
// every destination link, one reusable Plan, and wire-byte accounting. A
// State belongs to a single sender goroutine — vol already serializes
// scatters per vector — so it needs no locking.
//
// Links whose histories agree — same updates at the same ratios since a
// zero residual — hold bit-identical residuals, so they share one: under an
// all-to-all dataflow at one ratio every destination receives the same
// bytes and one plan per scatter serves them all. A link forks its own copy
// the moment it diverges (see Groups).
type State struct {
	opts  Options
	codec Codec
	dim   int

	links  map[int]*link
	plan   Plan
	fanout int // destinations of the update begun last
	perf   Perf

	// Groups scratch.
	groups []Group
	flat   []int
	taken  []bool
}

// link is one residual and the number of peers sharing it.
type link struct {
	residual []float64
	refs     int
}

// Group is a set of destinations that receive identical bytes for one
// update: they share a residual and ship at one ratio.
type Group struct {
	Peers []int
	Ratio float64
}

// Perf is the state's cumulative accounting, harvested per rank into
// trace counters.
type Perf struct {
	// BytesPre counts raw (uncompressed) bytes the compressed scatters
	// would have shipped: 8·dim per destination per update.
	BytesPre uint64
	// BytesPost counts frame bytes actually produced, per destination.
	BytesPost uint64
	// Frames counts frames produced, per destination.
	Frames uint64
	// PlanNs is wall-clock nanoseconds spent planning (inside Begin and
	// BeginGroup): residual correction, selection, quantization.
	PlanNs uint64
}

// NewState validates opts and builds a State for dim-coordinate updates.
func NewState(opts Options, dim int) (*State, error) {
	o, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	c, err := Lookup(o.Codec)
	if err != nil {
		return nil, err
	}
	return &State{
		opts:  o,
		codec: c,
		dim:   dim,
		links: make(map[int]*link),
	}, nil
}

// Options returns the validated (defaults-filled) options.
func (s *State) Options() Options { return s.opts }

// Codec returns the state's codec.
func (s *State) Codec() Codec { return s.codec }

// MaxFrameBytes bounds the frame size for an n-coordinate range.
func (s *State) MaxFrameBytes(n int) int { return MaxFrameBytes(s.codec, n) }

// Groups partitions one scatter's destinations into the fewest sets that
// can share a plan: peers[i] ships at ratios[i], and two peers fall in one
// set when their ratios are equal and they hold the same residual (or
// neither holds one yet). A peer listed twice opens a second set, so it
// receives two successive updates exactly as from two Begin calls. The
// result aliases State scratch until the next Groups call; pass each Group
// to BeginGroup in order.
func (s *State) Groups(peers []int, ratios []float64) []Group {
	if cap(s.flat) < len(peers) {
		s.flat = make([]int, 0, len(peers))
		s.taken = make([]bool, len(peers))
	}
	flat, taken := s.flat[:0], s.taken[:len(peers)]
	clear(taken)
	s.groups = s.groups[:0]
	for i, p := range peers {
		if taken[i] {
			continue
		}
		start, ls := len(flat), s.links[p]
		for j := i; j < len(peers); j++ {
			q := peers[j]
			if taken[j] || s.links[q] != ls || ratios[j] != ratios[i] || slices.Contains(flat[start:], q) {
				continue
			}
			taken[j] = true
			flat = append(flat, q)
		}
		s.groups = append(s.groups, Group{Peers: flat[start:len(flat):len(flat)], Ratio: ratios[i]})
	}
	return s.groups
}

// own returns the residual that peers — distinct, and all holding the same
// one or none — share from here on, forking a copy when other peers hold it
// too: those keep the original.
func (s *State) own(peers []int) *link {
	ls := s.links[peers[0]]
	switch {
	case ls == nil:
		ls = &link{residual: make([]float64, s.dim)}
	case ls.refs == len(peers):
		return ls
	default:
		ls.refs -= len(peers)
		ls = &link{residual: append([]float64(nil), ls.residual...)}
	}
	ls.refs = len(peers)
	for _, p := range peers {
		s.links[p] = ls
	}
	return ls
}

// Begin starts one compressed update to a single peer; see BeginGroup.
func (s *State) Begin(peer int, data []float64, ratio float64) {
	s.BeginGroup(Group{Peers: []int{peer}, Ratio: ratio}, data)
}

// BeginGroup starts one compressed update to every peer of g, a Group from
// the latest Groups call: it forms the residual-corrected update
// acc = data + residual in place (the residual buffer is acc), plans it at
// g.Ratio, and leaves the exact new residual acc − Recon behind.
// Subsequent EncodeRange calls slice the planned update until the next
// Begin.
//
// Conservation invariant (tested bitwise): afterwards
// Recon[i] + residual[i] == data[i] + oldResidual[i] for every i — the
// quantizing codecs only use power-of-two scales, so the subtraction is
// exact (Sterbenz), and dropped coordinates carry their full value.
func (s *State) BeginGroup(g Group, data []float64) {
	t0 := time.Now()
	acc := s.own(g.Peers).residual
	head := acc[:len(data)]
	for i, v := range data {
		head[i] = v + head[i]
	}
	s.codec.Plan(&s.plan, acc, g.Ratio)
	s.plan.subtractRecon(acc)
	s.fanout = len(g.Peers)
	s.perf.BytesPre += uint64(8 * s.dim * s.fanout)
	s.perf.PlanNs += uint64(time.Since(t0))
}

// EncodeRange appends the frame for coordinates [lo, hi) of the update
// begun by the last Begin call. The frame is produced once and accounted
// once per destination of that update.
func (s *State) EncodeRange(dst []byte, lo, hi int) []byte {
	n := len(dst)
	dst = AppendFrame(dst, &s.plan, lo, hi)
	s.perf.BytesPost += uint64((len(dst) - n) * s.fanout)
	s.perf.Frames += uint64(s.fanout)
	return dst
}

// Recon exposes the current plan's reconstruction (what every receiver of
// the update begun by the last Begin will decode). Read-only.
func (s *State) Recon() []float64 { return s.plan.Recon }

// DropPeer evicts peer's residual. Called when a peer is confirmed dead or
// rejoins across an epoch bump: a rejoined incarnation starts from the
// transferred snapshot, so replaying mass dropped against its previous
// life would poison it. Its next update starts a zero residual of its own.
func (s *State) DropPeer(peer int) {
	if ls := s.links[peer]; ls != nil {
		ls.refs--
		delete(s.links, peer)
	}
}

// Residual returns peer's residual vector (nil if the link has none), for
// tests and diagnostics. Peers with identical histories return the same
// slice.
func (s *State) Residual(peer int) []float64 {
	if ls := s.links[peer]; ls != nil {
		return ls.residual
	}
	return nil
}

// ResidualNorm returns the L1 norm of all per-link residuals — the total
// gradient mass currently deferred by error feedback, a shared residual
// counting once per link. Non-finite entries are skipped so one Inf
// residual does not wipe the telemetry.
func (s *State) ResidualNorm() float64 {
	var sum float64
	for _, ls := range s.links {
		for _, v := range ls.residual {
			a := math.Abs(v)
			if !math.IsInf(a, 0) && !math.IsNaN(a) {
				sum += a
			}
		}
	}
	return sum
}

// Perf returns the cumulative accounting snapshot.
func (s *State) Perf() Perf { return s.perf }
