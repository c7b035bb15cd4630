package dstorm

import (
	"errors"
	"fmt"
	"sync"

	"malt/internal/fabric"
)

// ErrDead is returned by collective operations invoked from a rank that has
// been marked dead.
var ErrDead = errors.New("dstorm: rank is dead")

// Cluster coordinates collective operations (segment creation, barriers)
// between the dstorm nodes sharing one fabric. It plays the role of the
// synchronous group-operation layer that GASPI provides in the paper's
// implementation.
type Cluster struct {
	fab   fabric.Transport
	coord fabric.Coordinator // non-nil when the transport brings its own barrier

	mu       sync.Mutex
	cond     *sync.Cond
	nodes    []*Node
	barriers map[string]*barrierState
}

type barrierState struct {
	gen     uint64
	arrived map[int]bool
	// pruned records ranks whose pending arrival was removed because they
	// died or left the partition group while the barrier was forming. A
	// pruned rank must not mistake the group's subsequent release for its
	// own: it re-enters the barrier (under its new group) instead.
	pruned map[int]bool
}

// NewCluster creates the coordination layer over a transport and one Node
// per rank. With the default simulated fabric every rank lives in this
// process and barriers are the in-process generation-counted kind; a
// transport that also implements fabric.Coordinator (a multi-process
// backend like fabric/stream) supplies its own cluster-wide barrier and
// dstorm delegates to it.
func NewCluster(f fabric.Transport) *Cluster {
	c := &Cluster{
		fab:      f,
		barriers: make(map[string]*barrierState),
	}
	if co, ok := f.(fabric.Coordinator); ok {
		c.coord = co
	}
	c.cond = sync.NewCond(&c.mu)
	c.nodes = make([]*Node, f.Ranks())
	for i := range c.nodes {
		c.nodes[i] = &Node{cluster: c, rank: i}
	}
	// Liveness changes must wake barrier waiters so they can re-evaluate
	// the set of ranks they are waiting for.
	f.OnLivenessChange(func(rank int, alive bool) {
		c.mu.Lock()
		c.cond.Broadcast()
		c.mu.Unlock()
	})
	return c
}

// Fabric returns the underlying transport.
func (c *Cluster) Fabric() fabric.Transport { return c.fab }

// Node returns the dstorm endpoint for the given rank.
func (c *Cluster) Node(rank int) *Node { return c.nodes[rank] }

// barrier implements a generation-counted barrier over the live ranks
// *reachable from the caller*. Barriers are scoped to the caller's
// partition group: under a network partition each side's barrier releases
// independently (each side believes the other dead, per §3.3), and after a
// heal the groups merge back into one barrier. Ranks that die while the
// barrier is forming are excluded on the fly (the liveness watcher
// broadcasts, and waiters recount).
func (c *Cluster) barrier(name string, rank int) error {
	if c.coord != nil {
		if !c.fab.Alive(rank) {
			return ErrDead
		}
		return c.coord.Barrier(name, rank)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		if !c.fab.Alive(rank) {
			return ErrDead
		}
		group := c.fab.GroupOf(rank)
		key := fmt.Sprintf("%s@%d", name, group)
		st := c.barriers[key]
		if st == nil {
			st = &barrierState{arrived: make(map[int]bool), pruned: make(map[int]bool)}
			c.barriers[key] = st
		}
		delete(st.pruned, rank) // re-entering: any stale prune is consumed
		st.arrived[rank] = true
		gen := st.gen
		if c.barrierComplete(st, group) {
			st.gen++
			st.arrived = make(map[int]bool)
			c.cond.Broadcast()
			return nil
		}
		c.cond.Wait()
		if st.pruned[rank] {
			// We were removed from this barrier (death pruning or group
			// change) while waiting; a generation bump here was the OLD
			// group releasing without us. Re-enter under the current
			// topology.
			delete(st.pruned, rank)
			continue
		}
		if st.gen != gen {
			// Our group's barrier released while we waited (our arrival
			// was part of the completed set — otherwise we'd be pruned).
			return nil
		}
		if c.fab.GroupOf(rank) != group {
			// Topology changed under us before anyone pruned: migrate to
			// the new group's barrier on the next loop iteration.
			delete(st.arrived, rank)
			c.cond.Broadcast()
			continue
		}
		if !c.fab.Alive(rank) {
			delete(st.arrived, rank)
			c.cond.Broadcast()
			return ErrDead
		}
	}
}

// barrierComplete reports whether every live rank of the given partition
// group has arrived. Arrivals of ranks that died or left the group are
// pruned — and remembered as pruned, so those ranks re-enter instead of
// mistaking this group's release for their own.
func (c *Cluster) barrierComplete(st *barrierState, group int) bool {
	for r := range st.arrived {
		if !c.fab.Alive(r) || c.fab.GroupOf(r) != group {
			delete(st.arrived, r)
			st.pruned[r] = true
		}
	}
	waiting := 0
	for _, r := range c.fab.AliveRanks() {
		if c.fab.GroupOf(r) != group {
			continue
		}
		waiting++
		if !st.arrived[r] {
			return false
		}
	}
	return waiting > 0
}

// Barrier is a cluster-wide barrier independent of any segment (the paper's
// g.barrier() maps to a segment barrier; this one serves the runtime).
func (c *Cluster) Barrier(rank int) error {
	return c.barrier("cluster", rank)
}

// creationBarrier synchronizes segment creation: all live ranks must create
// the segment before any of them may scatter into it.
func (c *Cluster) creationBarrier(segName string, rank int) error {
	return c.barrier("create/"+segName, rank)
}

// Node is one rank's dstorm endpoint.
type Node struct {
	cluster *Cluster
	rank    int

	retryMu sync.Mutex
	retry   RetryPolicy // write-retry policy for transient fabric faults
	rstats  retryCounters

	pipeMu sync.Mutex
	pipe   *pipeline // non-nil while the coalescing pipeline is enabled

	gather gatherPoolState // parallel-gather worker pool (see gatherpool.go)

	failMu      sync.Mutex
	asyncFailed map[int]int // peer → count of failed async writes
}

// Rank returns this endpoint's rank.
func (n *Node) Rank() int { return n.rank }

// Cluster returns the owning cluster.
func (n *Node) Cluster() *Cluster { return n.cluster }

// noteAsyncFailure records a failed pipelined write to a peer for the
// fault monitor's next AsyncFailures poll.
func (n *Node) noteAsyncFailure(to int) {
	n.failMu.Lock()
	if n.asyncFailed == nil {
		n.asyncFailed = make(map[int]int)
	}
	n.asyncFailed[to]++
	n.failMu.Unlock()
}

// AsyncFailures returns and clears the peers whose asynchronous writes have
// failed since the last call. The fault monitor polls this — "a fault
// monitor on every node examines the return values of asynchronous writes
// to sender-side queues" (§3.3).
func (n *Node) AsyncFailures() []int {
	n.failMu.Lock()
	defer n.failMu.Unlock()
	if len(n.asyncFailed) == 0 {
		return nil
	}
	out := make([]int, 0, len(n.asyncFailed))
	for p := range n.asyncFailed {
		out = append(out, p)
	}
	n.asyncFailed = nil
	return out
}

// writeMulti delivers one encoded payload to several peers. With the
// coalescing pipeline enabled it copies the payload once, shares the copy
// across all destinations' batches, and returns immediately; delivery
// failures then surface via AsyncFailures. Otherwise it writes to each peer
// on the caller's goroutine, absorbing transient faults with the node's
// retry policy, and returns the peers whose writes failed.
func (n *Node) writeMulti(peers []int, key string, payload []byte) (failed []int) {
	n.pipeMu.Lock()
	p := n.pipe
	n.pipeMu.Unlock()
	if p != nil {
		sb := newSendBuf(payload, int32(len(peers)))
		if p.enqueue(peers, key, sb) {
			return nil
		}
		// Pipeline raced with DisablePipeline; fall through to direct sends.
		sb.releaseN(int32(len(peers)))
	}
	for _, to := range peers {
		//maltlint:allow bufretain -- fan-out re-posts the same read-only payload; Transport.Write has finished reading it when it returns
		if err := n.writeWithRetry(to, key, payload); err != nil {
			failed = append(failed, to)
		}
	}
	return failed
}

// Ping probes a peer through the fabric.
func (n *Node) Ping(to int) error { return n.cluster.fab.Ping(n.rank, to) }

// Alive reports whether this node's rank is alive on the fabric.
func (n *Node) Alive() bool { return n.cluster.fab.Alive(n.rank) }

// String implements fmt.Stringer for debugging.
func (n *Node) String() string { return fmt.Sprintf("dstorm.Node(rank=%d)", n.rank) }
