package stream

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"malt/internal/fabric"
)

// coordinator is the rank-0 barrier service. Every rank (rank 0 included)
// enters a named barrier by reporting to the coordinator; when all
// transport-alive ranks have entered, the coordinator releases everyone
// who entered and resets the barrier for its next use. Deaths observed by
// rank 0's transport re-evaluate pending barriers, so survivors are
// released when membership shrinks — the multi-process analogue of the
// in-process barrier's death pruning.
type coordinator struct {
	n *Net

	mu       sync.Mutex
	barriers map[string]*barrierEntry
}

type barrierEntry struct {
	entered map[int]bool
}

func newCoordinator(n *Net) *coordinator {
	return &coordinator{n: n, barriers: make(map[string]*barrierEntry)}
}

// enter records a rank's arrival and releases the barrier if complete.
func (c *coordinator) enter(name string, from int) {
	c.mu.Lock()
	st := c.barriers[name]
	if st == nil {
		st = &barrierEntry{entered: make(map[int]bool)}
		c.barriers[name] = st
	}
	st.entered[from] = true
	c.evalLocked(name, st)
	c.mu.Unlock()
}

// livenessChanged re-evaluates every pending barrier after a death.
func (c *coordinator) livenessChanged() {
	c.mu.Lock()
	for name, st := range c.barriers {
		c.evalLocked(name, st)
	}
	c.mu.Unlock()
}

// evalLocked releases the barrier when every alive rank has entered. The
// release fan-out runs on its own goroutine: it performs network writes
// and must not hold the coordinator lock (or, on the liveness path, the
// watcher lock).
func (c *coordinator) evalLocked(name string, st *barrierEntry) {
	alive := c.n.AliveRanks()
	if len(alive) == 0 {
		return
	}
	for _, r := range alive {
		if !st.entered[r] {
			return
		}
	}
	targets := make([]int, 0, len(st.entered))
	for r := range st.entered {
		targets = append(targets, r)
	}
	st.entered = make(map[int]bool)
	go c.n.sendReleases(name, targets)
}

// sendReleases notifies every entered rank that the barrier released.
// Failures are ignored: an unreachable target is either already dead (and
// was released by the membership change) or will be marked dead by the
// classification, re-triggering evaluation.
func (n *Net) sendReleases(name string, targets []int) {
	f := &Frame{Type: frameBarrierRelease, From: n.cfg.Rank, Gen: n.gen.Load(), Key: name}
	for _, to := range targets {
		if to == n.cfg.Rank {
			n.barrierReleased(name)
			continue
		}
		_, _ = n.peers[to].request(n, to, f, time.Now().Add(n.cfg.AckTimeout))
	}
}

// barrierReleased bumps the local release counter for a barrier name and
// wakes every waiter.
func (n *Net) barrierReleased(name string) {
	n.bmu.Lock()
	n.releases[name]++
	n.bmu.Unlock()
	n.kickBarriers()
}

// kickBarriers wakes every barrier waiter so it re-checks its exits: a
// release, a liveness change or the deadline.
func (n *Net) kickBarriers() {
	n.bmu.Lock()
	close(n.bwake)
	n.bwake = make(chan struct{})
	n.bmu.Unlock()
}

// released returns a barrier name's release count and the channel the next
// kick closes, read under one lock so no wake-up falls between a waiter's
// check and its wait.
func (n *Net) released(name string) (uint64, <-chan struct{}) {
	n.bmu.Lock()
	defer n.bmu.Unlock()
	return n.releases[name], n.bwake
}

// Barrier implements fabric.Coordinator: it blocks until every rank this
// transport believes alive has entered the barrier with the same name.
// dstorm delegates its named barriers (segment creation, BSP supersteps)
// here when the cluster spans processes. Rank 0 pushes the release, and its
// arrival wakes the waiter directly, as does a liveness change, Close or
// the deadline: nothing polls.
func (n *Net) Barrier(name string, rank int) error {
	if rank != n.cfg.Rank {
		return fmt.Errorf("stream: barrier for rank %d entered on rank %d", rank, n.cfg.Rank)
	}
	if !n.Alive(rank) {
		return fmt.Errorf("%w: barrier %q", fabric.ErrSenderDead, name)
	}
	// Drain every data window before entering: a barrier release must
	// prove that every pre-barrier write deposited on its receiver, which
	// is what the BSP superstep contract reads into Barrier. Deferred
	// write errors surface here instead of on a later Write.
	if err := n.Drain(); err != nil {
		return fmt.Errorf("stream: barrier %q: deferred write error: %w", name, err)
	}
	seq, _ := n.released(name)
	deadline := time.Now().Add(n.cfg.BarrierTimeout)
	if n.cfg.Rank == 0 {
		n.coord.enter(name, 0)
	} else if err := n.enterRemote(name, deadline); err != nil {
		return err
	}
	t := timerGet(time.Until(deadline))
	defer timerPut(t)
	expired := false
	for {
		count, wake := n.released(name)
		switch {
		case count > seq:
			return nil
		case !n.Alive(n.cfg.Rank):
			return fmt.Errorf("%w: barrier %q", fabric.ErrSenderDead, name)
		case !n.Alive(0):
			return fmt.Errorf("%w: barrier %q: coordinator (rank 0) is dead", fabric.ErrUnreachable, name)
		case expired:
			return fmt.Errorf("stream: barrier %q timed out after %v on rank %d", name, n.cfg.BarrierTimeout, n.cfg.Rank)
		}
		select {
		case <-wake:
		case <-t.C:
			expired = true
		case <-n.done:
			return fmt.Errorf("stream: barrier %q: endpoint closed on rank %d", name, n.cfg.Rank)
		}
	}
}

// enterRemote reports arrival to the rank-0 coordinator, retrying
// transient failures until the barrier deadline.
func (n *Net) enterRemote(name string, deadline time.Time) error {
	f := &Frame{Type: frameBarrierEnter, From: n.cfg.Rank, Gen: n.gen.Load(), Key: name}
	for {
		ack, err := n.peers[0].request(n, 0, f, time.Now().Add(n.cfg.AckTimeout))
		if err == nil {
			switch ackStatus(ack) {
			case statusOK:
				return nil
			case statusStaleEpoch:
				return fmt.Errorf("%w: barrier %q: coordinator fenced this rank's epoch; rejoin required", fabric.ErrStaleEpoch, name)
			case statusDead:
				return fmt.Errorf("%w: barrier %q: coordinator (rank 0) is dead", fabric.ErrUnreachable, name)
			default:
				return fmt.Errorf("stream: barrier %q: unexpected coordinator reply", name)
			}
		}
		if !errors.Is(err, fabric.ErrTransient) || time.Now().After(deadline) {
			return err
		}
		time.Sleep(2 * time.Millisecond) //maltlint:allow rawsleep -- transport-internal redial backoff, deadline-bounded above; below dstorm so RetryPolicy cannot apply
	}
}

// serveBarrierEnter handles a barrierEnter frame at rank 0.
func (n *Net) serveBarrierEnter(f *Frame) byte {
	if n.cfg.Rank != 0 || n.coord == nil {
		return statusTransient // misdirected: only rank 0 coordinates
	}
	if !n.Alive(n.cfg.Rank) {
		return statusDead
	}
	if f.Gen < n.admittedOf(f.From) {
		n.staleRejected.Add(1)
		return statusStaleEpoch
	}
	n.coord.enter(f.Key, f.From)
	return statusOK
}
