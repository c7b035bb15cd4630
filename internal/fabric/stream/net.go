package stream

import (
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"malt/internal/fabric"
)

var (
	_ fabric.Transport   = (*Net)(nil)
	_ fabric.Coordinator = (*Net)(nil)
	_ fabric.Membership  = (*Net)(nil)
)

// Defaults for Config timeouts.
const (
	// DefaultDialTimeout bounds one connection attempt to a peer.
	DefaultDialTimeout = 2 * time.Second
	// DefaultAckTimeout bounds one acked round trip (write + ack read).
	// Expiry maps to fabric.ErrTransient: the peer may just be slow, and
	// dstorm.RetryPolicy decides how long to keep trying.
	DefaultAckTimeout = 5 * time.Second
	// DefaultRendezvousTimeout bounds how long Rendezvous waits for the
	// whole cluster to assemble at rank 0.
	DefaultRendezvousTimeout = 30 * time.Second
	// DefaultBarrierTimeout bounds one barrier wait.
	DefaultBarrierTimeout = 60 * time.Second
	// DefaultHeartbeatInterval is the period of the background liveness
	// prober.
	DefaultHeartbeatInterval = 50 * time.Millisecond
	// DefaultHeartbeatStrikes is how many consecutive failed heartbeats
	// mark a peer dead at the transport level.
	DefaultHeartbeatStrikes = 3
	// DefaultWindowFrames and DefaultWindowBytes are the per-link credit
	// of the windowed data path: at most this many unacked data frames /
	// unacked payload bytes may be in flight before a write blocks for a
	// cumulative ack. WindowFrames: 1 selects the legacy ack-per-frame
	// round trip.
	// DefaultWindowBytes is deliberately modest: loopback TCP throughput
	// collapses (~3x, measured) once roughly 1MiB of standing data sits
	// unread in the socket, so the byte credit keeps the standing queue in
	// the few-hundred-KiB sweet spot. Raise it (Config.WindowBytes or
	// maltrun -windowBytes) for high-BDP real networks.
	DefaultWindowFrames = 64
	DefaultWindowBytes  = 512 << 10
)

// Network names for Config.Network.
const (
	// NetworkTCP runs the stream over TCP (tcpnet wrapper).
	NetworkTCP = "tcp"
	// NetworkUnix runs the stream over Unix domain sockets (udsnet
	// wrapper); peer addresses are socket paths.
	NetworkUnix = "unix"
)

// Config describes one rank of a stream-transport cluster.
type Config struct {
	// Rank is this process's rank: an index into Peers.
	Rank int
	// Peers lists every rank's listen address; Peers[Rank] is ours.
	// Addresses must be unique. For NetworkTCP they are host:port pairs,
	// for NetworkUnix they are socket paths.
	Peers []string
	// Network selects the stream flavor: NetworkTCP (the default) or
	// NetworkUnix.
	Network string
	// Listener, when non-nil, is an already-bound listener to use instead
	// of binding Peers[Rank] (tests bind :0 first to learn free ports).
	Listener net.Listener

	// WindowFrames and WindowBytes bound the per-link window of unacked
	// data frames; zero selects the defaults. WindowFrames: 1 degenerates
	// to the legacy synchronous ack-per-frame write.
	WindowFrames int
	WindowBytes  int

	// DialTimeout, AckTimeout, RendezvousTimeout, BarrierTimeout and
	// HeartbeatInterval default to the package constants when zero.
	DialTimeout       time.Duration
	AckTimeout        time.Duration
	RendezvousTimeout time.Duration
	BarrierTimeout    time.Duration
	HeartbeatInterval time.Duration
	// HeartbeatStrikes is the consecutive-failure threshold; 0 means the
	// default, negative disables the background prober entirely (liveness
	// then changes only on refused dials during writes and probes).
	HeartbeatStrikes int
}

func (c Config) withDefaults() Config {
	if c.DialTimeout == 0 {
		c.DialTimeout = DefaultDialTimeout
	}
	if c.AckTimeout == 0 {
		c.AckTimeout = DefaultAckTimeout
	}
	if c.RendezvousTimeout == 0 {
		c.RendezvousTimeout = DefaultRendezvousTimeout
	}
	if c.BarrierTimeout == 0 {
		c.BarrierTimeout = DefaultBarrierTimeout
	}
	if c.HeartbeatInterval == 0 {
		c.HeartbeatInterval = DefaultHeartbeatInterval
	}
	if c.HeartbeatStrikes == 0 {
		c.HeartbeatStrikes = DefaultHeartbeatStrikes
	}
	if c.Network == "" {
		c.Network = NetworkTCP
	}
	if c.WindowFrames == 0 {
		c.WindowFrames = DefaultWindowFrames
	}
	if c.WindowBytes == 0 {
		c.WindowBytes = DefaultWindowBytes
	}
	return c
}

// Validate checks the cluster shape: rank in range, at least one peer,
// unique addresses.
func (c Config) Validate() error {
	if len(c.Peers) == 0 {
		return errors.New("stream: no peers configured")
	}
	if c.Rank < 0 || c.Rank >= len(c.Peers) {
		return fmt.Errorf("stream: rank %d out of range [0,%d)", c.Rank, len(c.Peers))
	}
	seen := make(map[string]int, len(c.Peers))
	for r, addr := range c.Peers {
		if addr == "" {
			return fmt.Errorf("stream: empty address for rank %d", r)
		}
		if prev, dup := seen[addr]; dup {
			return fmt.Errorf("stream: duplicate peer address %q (ranks %d and %d)", addr, prev, r)
		}
		seen[addr] = r
	}
	switch c.Network {
	case "", NetworkTCP, NetworkUnix:
	default:
		return fmt.Errorf("stream: unknown network %q (want %q or %q)", c.Network, NetworkTCP, NetworkUnix)
	}
	if c.WindowFrames < 0 {
		return fmt.Errorf("stream: WindowFrames %d is negative (0 means the default %d, 1 means ack-per-frame)", c.WindowFrames, DefaultWindowFrames)
	}
	if c.WindowBytes < 0 {
		return fmt.Errorf("stream: WindowBytes %d is negative (0 means the default %d)", c.WindowBytes, DefaultWindowBytes)
	}
	return nil
}

// Net is one rank's endpoint of a TCP cluster. It implements
// fabric.Transport and fabric.Coordinator. Build one per process with New,
// then call Rendezvous before any data operation.
type Net struct {
	cfg Config
	ln  net.Listener

	// gen is the membership epoch this rank stamps on outgoing frames.
	// The rendezvous base generation seeds it; rank 0 mints a higher epoch
	// on every confirmed death and every join, and a joiner adopts the
	// epoch its admission minted.
	gen           atomic.Uint64 // set at rendezvous or join (rank 0: at New)
	base          atomic.Uint64 // rendezvous base generation (pre-join admission floor)
	staleRejected atomic.Uint64 // frames fenced by the epoch check
	stats         *fabric.Stats
	coord         *coordinator // rank 0 only

	regMu sync.RWMutex
	regs  map[string]fabric.WriteHandler

	mu       sync.Mutex
	dead     []bool
	admitted []uint64 // admitted[r]: epoch at r's last admission; frames below it are fenced
	liveness []func(rank int, alive bool)
	joinedCb []func(rank int, epoch uint64)
	peers    []*peerConn
	hbMiss   []int // consecutive heartbeat failures per peer

	connMu sync.Mutex
	conns  map[net.Conn]struct{} // inbound connections, closed on Kill/Close

	bmu      sync.Mutex
	releases map[string]uint64 // per-barrier-name release counter
	bwake    chan struct{}     // closed (and replaced) to wake barrier waiters

	// cbMu serializes liveness watcher invocation across the goroutines
	// that can observe a death (heartbeat, failed writes, receiver loops).
	cbMu sync.Mutex

	rdv rendezvous

	closeOnce sync.Once
	done      chan struct{}
	wg        sync.WaitGroup
}

type rendezvous struct {
	mu      sync.Mutex
	arrived map[int]bool
	ready   chan struct{} // closed when all ranks have arrived at rank 0
	begun   bool
}

// New binds this rank's listener and starts its receiver loop. The
// returned Net is not usable for data operations until Rendezvous has
// completed on every rank.
func New(cfg Config) (*Net, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	n := &Net{
		cfg:      cfg,
		regs:     make(map[string]fabric.WriteHandler),
		stats:    fabric.NewStats(len(cfg.Peers)),
		dead:     make([]bool, len(cfg.Peers)),
		admitted: make([]uint64, len(cfg.Peers)),
		peers:    make([]*peerConn, len(cfg.Peers)),
		hbMiss:   make([]int, len(cfg.Peers)),
		conns:    make(map[net.Conn]struct{}),
		releases: make(map[string]uint64),
		bwake:    make(chan struct{}),
		done:     make(chan struct{}),
	}
	for i := range n.peers {
		n.peers[i] = &peerConn{}
		n.peers[i].data.n = n
		n.peers[i].data.to = i
	}
	// A death or admission can end a barrier wait (self dead, coordinator
	// dead), so every liveness change wakes the waiters to re-check.
	n.OnLivenessChange(func(int, bool) { n.kickBarriers() })
	n.rdv.arrived = map[int]bool{cfg.Rank: true}
	n.rdv.ready = make(chan struct{})
	if n.cfg.Rank == 0 {
		n.adoptBase(uint64(time.Now().UnixNano()))
		n.coord = newCoordinator(n)
		n.OnLivenessChange(func(rank int, alive bool) { n.coord.livenessChanged() })
		if len(cfg.Peers) == 1 {
			close(n.rdv.ready)
		}
	}
	ln := cfg.Listener
	if ln == nil {
		var err error
		ln, err = net.Listen(cfg.Network, cfg.Peers[cfg.Rank])
		if err != nil {
			return nil, fmt.Errorf("stream: rank %d listen on %s: %w", cfg.Rank, cfg.Peers[cfg.Rank], err)
		}
	}
	n.ln = ln
	n.wg.Add(1)
	go n.acceptLoop(ln)
	return n, nil
}

// Rank returns this endpoint's rank.
func (n *Net) Rank() int { return n.cfg.Rank }

// Addr returns the listener's actual address (useful with :0 listeners).
func (n *Net) Addr() string { return n.ln.Addr().String() }

// Generation returns the cluster generation (0 before rendezvous on
// non-zero ranks). Since the elastic-membership change this is the current
// membership epoch; Epoch is the canonical accessor.
func (n *Net) Generation() uint64 { return n.gen.Load() }

// adoptBase installs the rendezvous base generation: the epoch this rank
// stamps on frames and the admission floor for every member.
func (n *Net) adoptBase(gen uint64) {
	n.gen.Store(gen)
	n.base.Store(gen)
	n.mu.Lock()
	for i := range n.admitted {
		n.admitted[i] = gen
	}
	n.mu.Unlock()
}

// admittedOf returns the admission epoch of a rank; frames from it with a
// lower epoch are fenced. Out-of-range ranks fence everything.
func (n *Net) admittedOf(r int) uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	if r < 0 || r >= len(n.admitted) {
		return ^uint64(0)
	}
	return n.admitted[r]
}

// Rendezvous performs the rank-0 handshake that forms the cluster: every
// rank announces itself to rank 0 and blocks until rank 0 has heard from
// all of them, then adopts the cluster generation rank 0 assigned. Call it
// once on every rank (concurrently) before any data operation.
func (n *Net) Rendezvous() error {
	deadline := time.Now().Add(n.cfg.RendezvousTimeout)
	if n.cfg.Rank == 0 {
		select {
		case <-n.rdv.ready:
			n.startHeartbeat()
			return nil
		case <-time.After(time.Until(deadline)):
			return fmt.Errorf("stream: rendezvous timed out after %v: arrived %v of %d ranks",
				n.cfg.RendezvousTimeout, n.arrivedRanks(), len(n.cfg.Peers))
		case <-n.done:
			return errors.New("stream: closed during rendezvous")
		}
	}
	// Other ranks: send hello to rank 0 and wait for the ack, redialing
	// patiently — rank 0's process may not be listening yet.
	hello := &Frame{Type: frameHello, From: n.cfg.Rank}
	for {
		ack, err := n.peers[0].request(n, 0, hello, deadline)
		if err == nil && ack.Type == frameHelloAck {
			n.adoptBase(ack.Gen)
			n.startHeartbeat()
			return nil
		}
		if time.Now().After(deadline) {
			if err == nil {
				err = fmt.Errorf("unexpected reply type %d", ack.Type)
			}
			return fmt.Errorf("stream: rendezvous with rank 0 (%s) timed out after %v: %w",
				n.cfg.Peers[0], n.cfg.RendezvousTimeout, err)
		}
		select {
		case <-n.done:
			return errors.New("stream: closed during rendezvous")
		case <-time.After(100 * time.Millisecond):
		}
	}
}

func (n *Net) arrivedRanks() []int {
	n.rdv.mu.Lock()
	defer n.rdv.mu.Unlock()
	out := make([]int, 0, len(n.rdv.arrived))
	for r := range n.rdv.arrived {
		out = append(out, r)
	}
	sort.Ints(out)
	return out
}

// helloArrived records a rendezvous hello at rank 0 and returns a channel
// that is closed once the whole cluster has arrived.
func (n *Net) helloArrived(from int) <-chan struct{} {
	n.rdv.mu.Lock()
	defer n.rdv.mu.Unlock()
	if from >= 0 && from < len(n.cfg.Peers) {
		n.rdv.arrived[from] = true
	}
	if len(n.rdv.arrived) == len(n.cfg.Peers) && !n.rdv.begun {
		n.rdv.begun = true
		close(n.rdv.ready)
	}
	return n.rdv.ready
}

// --- fabric.Transport ---

// Ranks returns the cluster size.
func (n *Net) Ranks() int { return len(n.cfg.Peers) }

// Stats returns measured per-link traffic counters. Unlike the simulated
// fabric's modeled costs, wire time here is wall time of the acked round
// trip.
func (n *Net) Stats() *fabric.Stats { return n.stats }

// Register installs remotely writable memory on the local rank. Remote
// ranks register in their own processes.
func (n *Net) Register(rank int, key string, h fabric.WriteHandler) error {
	if rank != n.cfg.Rank {
		return fmt.Errorf("stream: cannot register %q on remote rank %d from rank %d", key, rank, n.cfg.Rank)
	}
	if h == nil {
		return fmt.Errorf("stream: nil handler for %q on rank %d", key, rank)
	}
	if len(key) > MaxKeyLen {
		return fmt.Errorf("stream: key %q exceeds %d bytes", key, MaxKeyLen)
	}
	n.regMu.Lock()
	defer n.regMu.Unlock()
	n.regs[key] = h
	return nil
}

// Unregister removes locally registered memory.
func (n *Net) Unregister(rank int, key string) error {
	if rank != n.cfg.Rank {
		return fmt.Errorf("stream: cannot unregister %q on remote rank %d from rank %d", key, rank, n.cfg.Rank)
	}
	n.regMu.Lock()
	defer n.regMu.Unlock()
	delete(n.regs, key)
	return nil
}

// Write performs one one-sided write: a single data frame posted into the
// peer link's window. In windowed mode (WindowFrames > 1) it returns once
// the frame is on the socket with window credit held; deposit failures
// surface on a later Write to the same link, or at Drain/Barrier, via the
// cumulative-ack status. With WindowFrames: 1 it blocks for the covering
// ack and reports that frame's status synchronously, like the legacy
// ack-per-frame path.
func (n *Net) Write(from, to int, key string, payload []byte) error {
	// The single payload is passed down unwrapped: the link wraps it in a
	// reusable one-element slice under its lock, keeping the steady-state
	// send path allocation-free.
	return n.write(from, to, key, payload, nil, false)
}

// WriteBatch sends several records for one key in a single frame covered
// by a single cumulative ack — the wire form of the doorbell-batched post.
func (n *Net) WriteBatch(from, to int, key string, records [][]byte) error {
	if len(records) == 0 {
		return nil
	}
	return n.write(from, to, key, nil, records, true)
}

// write routes one post to the peer's data link. records == nil means a
// single-record write with payload as the record.
func (n *Net) write(from, to int, key string, payload []byte, records [][]byte, batch bool) error {
	if err := n.checkRank(from); err != nil {
		return err
	}
	if err := n.checkRank(to); err != nil {
		return err
	}
	if from != n.cfg.Rank {
		return fmt.Errorf("stream: write from rank %d issued by rank %d", from, n.cfg.Rank)
	}
	if !n.Alive(from) {
		return fabric.ErrSenderDead
	}
	if !n.Alive(to) {
		n.stats.AddFailed(from, to)
		return fmt.Errorf("%w: rank %d -> rank %d", fabric.ErrUnreachable, from, to)
	}
	err := n.peers[to].data.post(key, payload, records, batch)
	if err != nil && errors.Is(err, fabric.ErrUnreachable) {
		n.stats.AddFailed(from, to)
	}
	return err
}

// Drain blocks until every data link's window is empty — every posted
// frame cumulatively acked — and returns the first deferred write error it
// consumes. Links to peers already known dead are discarded instead of
// drained: their failures were accounted when the death was observed.
func (n *Net) Drain() error {
	var first error
	for r, p := range n.peers {
		if r == n.cfg.Rank {
			continue
		}
		if !n.Alive(r) {
			p.data.discard()
			continue
		}
		if err := p.data.drain(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Ping performs a synchronous health probe. With from equal to the local
// rank it is a direct ping; with a remote from it is delegated — rank from
// is asked to probe to from its own vantage point, which is how the fault
// monitor's confirmation protocol gathers independent evidence across
// processes.
func (n *Net) Ping(from, to int) error {
	if err := n.checkRank(from); err != nil {
		return err
	}
	if err := n.checkRank(to); err != nil {
		return err
	}
	if from == n.cfg.Rank {
		return n.localPing(to)
	}
	return n.delegatedPing(from, to)
}

func (n *Net) localPing(to int) error {
	if !n.Alive(n.cfg.Rank) {
		return fabric.ErrSenderDead
	}
	if to == n.cfg.Rank {
		return nil
	}
	if !n.Alive(to) {
		return fmt.Errorf("%w: ping rank %d -> rank %d", fabric.ErrUnreachable, n.cfg.Rank, to)
	}
	start := time.Now()
	ack, err := n.request(to, &Frame{Type: framePing, From: n.cfg.Rank, Gen: n.gen.Load()})
	n.stats.AddControl(n.cfg.Rank, to, time.Since(start))
	if err != nil {
		return err
	}
	if ackStatus(ack) != statusOK {
		return fmt.Errorf("%w: ping rank %d -> rank %d", fabric.ErrUnreachable, n.cfg.Rank, to)
	}
	return nil
}

func (n *Net) delegatedPing(from, to int) error {
	if !n.Alive(n.cfg.Rank) {
		return fabric.ErrSenderDead
	}
	target := make([]byte, 4)
	target[0] = byte(to)
	target[1] = byte(to >> 8)
	target[2] = byte(to >> 16)
	target[3] = byte(to >> 24)
	start := time.Now()
	probe := &Frame{Type: frameProbe, From: n.cfg.Rank, Gen: n.gen.Load(), Records: [][]byte{target}}
	ack, err := n.request(from, probe)
	n.stats.AddControl(n.cfg.Rank, from, time.Since(start))
	if err != nil {
		// Could not reach the helper at all; the classification of that
		// failure (transient vs refused) is the verdict.
		return err
	}
	switch ackStatus(ack) {
	case statusOK:
		return nil
	case statusTransient:
		return fmt.Errorf("%w: delegated ping rank %d -> rank %d", fabric.ErrTransient, from, to)
	case statusDead:
		return fabric.ErrSenderDead
	default:
		return fmt.Errorf("%w: delegated ping rank %d -> rank %d", fabric.ErrUnreachable, from, to)
	}
}

// Kill marks the local rank dead: its listener closes, its connections
// drop, and subsequent operations fail with ErrSenderDead — the closest a
// live process can come to crashing without exiting. Peers observe the
// death through refused connections, exactly as if the process had died.
// Killing a remote rank is not possible over a real network.
func (n *Net) Kill(rank int) error {
	if err := n.checkRank(rank); err != nil {
		return err
	}
	if rank != n.cfg.Rank {
		return fmt.Errorf("stream: rank %d cannot kill remote rank %d (only the local rank)", n.cfg.Rank, rank)
	}
	n.markDead(rank)
	n.ln.Close()
	n.mu.Lock()
	peers := append([]*peerConn(nil), n.peers...)
	n.mu.Unlock()
	for _, pc := range peers {
		pc.closeConn()
	}
	n.closeInbound()
	return nil
}

// trackConn records an inbound connection so shutdown can interrupt its
// serving goroutine; it reports false when the endpoint is already down.
func (n *Net) trackConn(c net.Conn) bool {
	n.connMu.Lock()
	defer n.connMu.Unlock()
	select {
	case <-n.done:
		return false
	default:
	}
	n.conns[c] = struct{}{}
	return true
}

func (n *Net) untrackConn(c net.Conn) {
	n.connMu.Lock()
	delete(n.conns, c)
	n.connMu.Unlock()
}

func (n *Net) closeInbound() {
	n.connMu.Lock()
	for c := range n.conns {
		c.Close()
	}
	n.connMu.Unlock()
}

// Alive reports whether this process believes rank is alive.
func (n *Net) Alive(rank int) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return rank >= 0 && rank < len(n.cfg.Peers) && !n.dead[rank]
}

// AliveRanks returns the sorted ranks this process believes alive.
func (n *Net) AliveRanks() []int {
	n.mu.Lock()
	defer n.mu.Unlock()
	var out []int
	for r, d := range n.dead {
		if !d {
			out = append(out, r)
		}
	}
	return out
}

// GroupOf returns 0: a real network has no partition simulation; actual
// partitions surface as unreachable peers.
func (n *Net) GroupOf(rank int) int { return 0 }

// OnLivenessChange registers a watcher for transport-level death
// observations.
func (n *Net) OnLivenessChange(fn func(rank int, alive bool)) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.liveness = append(n.liveness, fn)
}

// markDead records a death observation and fires the watchers once. Rank 0
// — the membership authority — additionally mints a new epoch on every
// confirmed peer death, so a later rejoin of the same rank is admitted at
// an epoch strictly above anything its old incarnation ever stamped.
func (n *Net) markDead(rank int) {
	n.mu.Lock()
	if rank < 0 || rank >= len(n.dead) || n.dead[rank] {
		n.mu.Unlock()
		return
	}
	n.dead[rank] = true
	if n.cfg.Rank == 0 && rank != n.cfg.Rank {
		n.gen.Add(1)
	}
	watchers := append([]func(int, bool){}, n.liveness...)
	n.mu.Unlock()
	n.cbMu.Lock()
	for _, w := range watchers {
		w(rank, false)
	}
	n.cbMu.Unlock()
}

// admitJoin installs a rank's (re-)admission at the given epoch: its
// admission floor rises to the epoch, it is marked alive with heartbeat
// strikes cleared, and liveness + join watchers fire (serialized with
// markDead's under cbMu). Idempotent per epoch, so a retried announce is
// harmless.
func (n *Net) admitJoin(rank int, epoch uint64) {
	n.mu.Lock()
	if rank < 0 || rank >= len(n.dead) || (n.admitted[rank] >= epoch && !n.dead[rank]) {
		n.mu.Unlock()
		return
	}
	if n.admitted[rank] < epoch {
		n.admitted[rank] = epoch
	}
	wasDead := n.dead[rank]
	n.dead[rank] = false
	n.hbMiss[rank] = 0
	watchers := append([]func(int, bool){}, n.liveness...)
	joiners := append([]func(int, uint64){}, n.joinedCb...)
	n.mu.Unlock()
	n.cbMu.Lock()
	if wasDead {
		for _, w := range watchers {
			w(rank, true)
		}
	}
	for _, j := range joiners {
		j(rank, epoch)
	}
	n.cbMu.Unlock()
}

// Close shuts the endpoint down: listener, connections, heartbeat.
func (n *Net) Close() error {
	n.closeOnce.Do(func() {
		close(n.done)
		n.ln.Close()
		n.mu.Lock()
		peers := append([]*peerConn(nil), n.peers...)
		n.mu.Unlock()
		for _, pc := range peers {
			pc.closeConn()
		}
		n.closeInbound()
	})
	n.wg.Wait()
	return nil
}

func (n *Net) checkRank(rank int) error {
	if rank < 0 || rank >= len(n.cfg.Peers) {
		return fmt.Errorf("stream: rank %d out of range [0,%d)", rank, len(n.cfg.Peers))
	}
	return nil
}

// request performs one acked round trip to a peer with the configured
// deadline.
func (n *Net) request(to int, f *Frame) (*Frame, error) {
	return n.peers[to].request(n, to, f, time.Now().Add(n.cfg.AckTimeout))
}

func ackStatus(ack *Frame) byte {
	if ack == nil || ack.Type != frameAck || len(ack.Records) != 1 || len(ack.Records[0]) != 1 {
		return 0xff
	}
	return ack.Records[0][0]
}

// startHeartbeat launches the background liveness prober: a failed probe
// is a strike, HeartbeatStrikes consecutive strikes mark the peer dead and
// fire the liveness watchers. A refused connection is immediate death —
// nobody is listening on the peer's port.
func (n *Net) startHeartbeat() {
	if n.cfg.HeartbeatStrikes < 0 {
		return
	}
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		ticker := time.NewTicker(n.cfg.HeartbeatInterval)
		defer ticker.Stop()
		for {
			select {
			case <-n.done:
				return
			case <-ticker.C:
			}
			if !n.Alive(n.cfg.Rank) {
				return
			}
			for r := range n.cfg.Peers {
				if r == n.cfg.Rank || !n.Alive(r) {
					continue
				}
				ack, err := n.request(r, &Frame{Type: framePing, From: n.cfg.Rank, Gen: n.gen.Load()})
				n.mu.Lock()
				if err == nil && ackStatus(ack) == statusOK {
					n.hbMiss[r] = 0
					n.mu.Unlock()
					continue
				}
				n.hbMiss[r]++
				refused := errors.Is(err, fabric.ErrUnreachable)
				strikeOut := n.hbMiss[r] >= n.cfg.HeartbeatStrikes
				n.mu.Unlock()
				if refused || strikeOut || (err == nil && ackStatus(ack) == statusDead) {
					n.markDead(r)
				}
			}
		}
	}()
}
