// Package consistency implements the three synchronization disciplines MALT
// replicas can train under (paper §3.2 and Fig 10):
//
//   - BSP (bulk-synchronous): every rank waits at a barrier after each
//     communication batch; training proceeds at the speed of the slowest
//     rank but every gather sees updates from the same round.
//   - ASP (fully asynchronous): no waiting at all; updates from ranks that
//     lag more than a cutoff behind are skipped at gather time so stale
//     gradients never pollute a fresh model.
//   - SSP (bounded staleness, after Cui et al.): ranks run ahead freely up
//     to a staleness bound; a rank that would exceed the bound relative to
//     the slowest peer stalls until the straggler catches up.
package consistency

import (
	"fmt"
	"time"

	"malt/internal/vol"
)

// Model names a synchronization discipline.
type Model int

const (
	// BSP is bulk-synchronous parallel.
	BSP Model = iota
	// ASP is fully asynchronous parallel.
	ASP
	// SSP is stale synchronous parallel (bounded staleness).
	SSP
)

// String returns the conventional acronym.
func (m Model) String() string {
	switch m {
	case BSP:
		return "BSP"
	case ASP:
		return "ASP"
	case SSP:
		return "SSP"
	default:
		return fmt.Sprintf("Model(%d)", int(m))
	}
}

// ParseModel converts a flag string ("bsp", "asp", "ssp") to a Model.
func ParseModel(s string) (Model, error) {
	switch s {
	case "bsp", "BSP":
		return BSP, nil
	case "asp", "ASP":
		return ASP, nil
	case "ssp", "SSP":
		return SSP, nil
	default:
		return 0, fmt.Errorf("consistency: unknown model %q", s)
	}
}

// Policy configures a Controller.
type Policy struct {
	// Model selects the discipline.
	Model Model
	// Bound is the SSP staleness bound: a rank at iteration i stalls while
	// any live peer is below i-Bound. Ignored for BSP/ASP. Default 3.
	Bound uint64
	// ASPCutoff makes ASP gathers skip updates older than own-iteration
	// minus the cutoff ("skips merging of updates from the stragglers").
	// 0 disables filtering.
	ASPCutoff uint64
	// StallLimit caps one SSP stall; on expiry training proceeds anyway
	// (the straggler is probably dead and the fault layer will confirm).
	// Default 2 s.
	StallLimit time.Duration
	// Alive reports whether a peer rank is still live. Dead peers are
	// excluded from staleness decisions. If nil, all peers count.
	Alive func(rank int) bool
}

func (p Policy) withDefaults() Policy {
	if p.Model == SSP && p.Bound == 0 {
		p.Bound = 3
	}
	if p.StallLimit == 0 {
		p.StallLimit = 2 * time.Second
	}
	return p
}

// Controller drives one rank's synchronization. Create one per rank.
type Controller struct {
	policy Policy
}

// New returns a Controller for the given policy.
func New(policy Policy) *Controller {
	return &Controller{policy: policy.withDefaults()}
}

// Policy returns the controller's (defaulted) policy.
func (c *Controller) Policy() Policy { return c.policy }

// Gather folds peer updates into the vector under the policy's staleness
// rules: ASP applies the cutoff filter; BSP and SSP fold everything.
func (c *Controller) Gather(v *vol.Vector, udf vol.UDF, myIter uint64) (vol.GatherStats, error) {
	if c.policy.Model == ASP && c.policy.ASPCutoff > 0 {
		cut := uint64(0)
		if myIter > c.policy.ASPCutoff {
			cut = myIter - c.policy.ASPCutoff
		}
		return v.GatherIf(udf, func(from int, iter uint64) bool {
			return iter >= cut
		})
	}
	return v.Gather(udf)
}

// Advance enforces the post-batch synchronization for iteration myIter and
// returns how long the rank waited (barrier or stall time). Call it after
// scatter+gather, before the next training batch.
func (c *Controller) Advance(v *vol.Vector, myIter uint64) (time.Duration, error) {
	switch c.policy.Model {
	case BSP:
		start := time.Now()
		err := v.Barrier()
		return time.Since(start), err
	case ASP:
		return 0, nil
	case SSP:
		// Drain the send pipeline before judging staleness: SSP's bound is
		// on *visible* iterations, so our own updates must have landed
		// before we stall on peers (and before peers stall on us). Drain
		// time counts as wait time.
		start := time.Now()
		if err := v.Drain(); err != nil {
			return time.Since(start), err
		}
		return time.Since(start) + c.stall(v, myIter), nil
	default:
		return 0, fmt.Errorf("consistency: unknown model %v", c.policy.Model)
	}
}

// stall blocks while any live peer lags more than Bound behind myIter.
// Each deposit or peer removal wakes the wait to re-check; StallLimit is
// the backstop.
func (c *Controller) stall(v *vol.Vector, myIter uint64) time.Duration {
	if myIter <= c.policy.Bound {
		return 0
	}
	threshold := myIter - c.policy.Bound
	start := time.Now()
	if !c.lagging(v, threshold) {
		return time.Since(start)
	}
	limit := time.NewTimer(c.policy.StallLimit)
	defer limit.Stop()
	for c.lagging(v, threshold) {
		select {
		case <-v.Arrivals():
		case <-limit.C:
			return time.Since(start)
		}
	}
	return time.Since(start)
}

// lagging reports whether any live peer's latest iteration is below
// threshold. A peer that has never been heard from (iter 0) is exempt until
// it speaks: during warm-up there is nothing to be stale relative to.
func (c *Controller) lagging(v *vol.Vector, threshold uint64) bool {
	for rank, iter := range v.PeerIters() {
		if iter == 0 {
			continue
		}
		if c.policy.Alive != nil && !c.policy.Alive(rank) {
			continue
		}
		if iter < threshold {
			return true
		}
	}
	return false
}
