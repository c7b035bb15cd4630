// Package fabric simulates the one-sided RDMA interconnect that MALT runs
// on (the paper used GASPI over 56 Gbps Mellanox InfiniBand).
//
// The fabric connects N ranks. Each rank registers named, remotely writable
// memory (in MALT, dstorm segments). A Write is one-sided: the copy into the
// destination's registered memory executes on the *sender's* goroutine — no
// receiver loop, channel, or scheduler hand-off is involved, mirroring how
// an RDMA NIC deposits bytes into registered memory without interrupting
// the remote host CPU.
//
// What the simulation preserves from real hardware:
//
//   - One-sided semantics: receivers discover new data only by reading
//     their own memory (polling a version word), never by being notified.
//   - Cost: every Write is charged base latency + size/bandwidth against a
//     per-link modeled-time counter, and per-link byte/message counters
//     feed the paper's network-traffic experiments (Fig 13). Optionally the
//     sender can be made to actually stall for the modeled duration.
//   - Failure behaviour: writes to a dead or partitioned rank fail with
//     ErrUnreachable, exactly the signal MALT's fault monitors key off.
//     With chaos enabled (see chaos.go), live links can additionally drop
//     operations with ErrTransient or straggle — faults that retrying, not
//     the recovery protocol, must absorb.
//
// What it does not preserve: absolute microsecond timings of a physical
// NIC. All experiments report relative behaviour between configurations
// that share this substrate.
package fabric

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Common fabric errors.
var (
	// ErrUnreachable is returned by Write and Ping when the destination is
	// dead or separated by a network partition.
	ErrUnreachable = errors.New("fabric: destination unreachable")
	// ErrNotRegistered is returned when writing to a key the destination
	// never registered.
	ErrNotRegistered = errors.New("fabric: no such registered memory")
	// ErrSenderDead is returned when a dead rank attempts an operation;
	// fault injectors use it to make a "killed" replica inert.
	ErrSenderDead = errors.New("fabric: sender is dead")
	// ErrStaleEpoch is returned when a rank whose admission predates its
	// last confirmed death attempts an operation: a zombie that came back
	// without rejoining through the membership protocol. Receivers fence
	// such traffic so a rejoining rank can never poison in-flight gathers.
	ErrStaleEpoch = errors.New("fabric: stale membership epoch")
)

// WriteHandler receives a one-sided write into registered memory. It runs
// on the sender's goroutine. Implementations (dstorm segments) must be safe
// for concurrent invocation from many senders and must not block
// indefinitely: an RDMA write always lands.
type WriteHandler func(from int, payload []byte) error

// DelayMode selects whether modeled network time is actually imposed on the
// sender or only accounted.
type DelayMode int

const (
	// DelayNone only accounts modeled time; Writes return immediately after
	// the copy. Default: fastest, preserves relative byte/ops shapes.
	DelayNone DelayMode = iota
	// DelaySleep makes the sender sleep for the modeled duration. Suitable
	// when modeled durations are ≫ the scheduler's sleep granularity.
	DelaySleep
	// DelaySpin makes the sender busy-wait for the modeled duration,
	// burning sender CPU exactly as a polling RDMA driver would.
	DelaySpin
)

// Config describes the simulated interconnect.
type Config struct {
	// Ranks is the number of endpoints (model replicas / processes).
	Ranks int
	// Latency is the one-way base cost of a write, before size costs.
	// The paper's InfiniBand measured 1–3 µs; default 1.5 µs.
	Latency time.Duration
	// Bandwidth is the per-link throughput in bytes/second used by the
	// cost model. Default 5 GB/s (≈40 Gbps achieved on the paper's 56 Gbps
	// links after encoding overhead).
	Bandwidth float64
	// Delay selects whether modeled time is imposed or only accounted.
	Delay DelayMode
	// Chaos, when non-nil, installs the transient-fault model at creation
	// (EnableChaos can also install or replace it later).
	Chaos *ChaosConfig
}

func (c *Config) setDefaults() {
	if c.Latency == 0 {
		c.Latency = 1500 * time.Nanosecond
	}
	if c.Bandwidth == 0 {
		c.Bandwidth = 5 << 30 // 5 GiB/s
	}
}

// Fabric is the simulated interconnect. All methods are safe for concurrent
// use by all ranks.
type Fabric struct {
	cfg   Config
	stats *Stats

	// epoch is the membership epoch: monotonically increasing, minted on
	// every confirmed death and every join. Kept out of Stats so the
	// Snapshot determinism contract (8 counters per link) is unchanged.
	epoch         atomic.Uint64
	staleRejected atomic.Uint64 // zombie operations fenced by the epoch check

	mu       sync.RWMutex
	regs     []map[string]WriteHandler // per-rank registered memory
	dead     []bool
	admitted []uint64 // admitted[r]: epoch at r's last admission
	fenced   []uint64 // fenced[r]: epoch minted when r last died
	group    []int    // partition group id per rank; writes cross groups fail
	liveness []func(rank int, alive bool)
	joined   []func(rank int, epoch uint64)
	chaos    *chaosState // non-nil while transient-fault injection is on
}

// New creates a fabric connecting cfg.Ranks endpoints, all alive and in one
// partition group.
func New(cfg Config) (*Fabric, error) {
	if cfg.Ranks <= 0 {
		return nil, fmt.Errorf("fabric: need at least one rank, got %d", cfg.Ranks)
	}
	cfg.setDefaults()
	f := &Fabric{
		cfg:      cfg,
		stats:    NewStats(cfg.Ranks),
		regs:     make([]map[string]WriteHandler, cfg.Ranks),
		dead:     make([]bool, cfg.Ranks),
		admitted: make([]uint64, cfg.Ranks),
		fenced:   make([]uint64, cfg.Ranks),
		group:    make([]int, cfg.Ranks),
	}
	f.epoch.Store(1)
	for i := range f.regs {
		f.regs[i] = make(map[string]WriteHandler)
		f.admitted[i] = 1
	}
	if cfg.Chaos != nil {
		f.chaos = newChaosState(cfg.Ranks, *cfg.Chaos)
	}
	return f, nil
}

// Close implements Transport. The simulated fabric holds no sockets or
// goroutines, so there is nothing to release.
func (f *Fabric) Close() error { return nil }

// Ranks returns the number of endpoints, including dead ones.
func (f *Fabric) Ranks() int { return f.cfg.Ranks }

// Config returns the fabric configuration.
func (f *Fabric) Config() Config { return f.cfg }

// Stats returns the fabric's traffic counters.
func (f *Fabric) Stats() *Stats { return f.stats }

// Register installs remotely writable memory named key on rank. Re-registering
// an existing key replaces the handler (MALT re-registers the RDMA interface
// with old memory descriptors during failure recovery, invalidating writes
// from zombies).
func (f *Fabric) Register(rank int, key string, h WriteHandler) error {
	if err := f.checkRank(rank); err != nil {
		return err
	}
	if h == nil {
		return fmt.Errorf("fabric: nil handler for %q on rank %d", key, rank)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.regs[rank][key] = h
	return nil
}

// Unregister removes remotely writable memory named key from rank.
func (f *Fabric) Unregister(rank int, key string) error {
	if err := f.checkRank(rank); err != nil {
		return err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	delete(f.regs[rank], key)
	return nil
}

// Write performs a one-sided write of payload into the memory registered as
// key on rank to. It runs entirely on the caller's goroutine, charges the
// cost model, and fails with ErrUnreachable if to is dead or partitioned
// away from from.
func (f *Fabric) Write(from, to int, key string, payload []byte) error {
	if err := f.checkRank(from); err != nil {
		return err
	}
	if err := f.checkRank(to); err != nil {
		return err
	}
	f.mu.RLock()
	senderDead := f.dead[from]
	senderStale := f.admitted[from] < f.fenced[from]
	reachable := !f.dead[to] && f.group[from] == f.group[to]
	h := f.regs[to][key]
	f.mu.RUnlock()

	if senderDead {
		return ErrSenderDead
	}
	if senderStale {
		return f.rejectStale(from)
	}
	if !reachable {
		f.stats.AddFailed(from, to)
		return fmt.Errorf("%w: rank %d -> rank %d", ErrUnreachable, from, to)
	}
	if h == nil {
		return fmt.Errorf("%w: %q on rank %d", ErrNotRegistered, key, to)
	}
	ferr, jitter := f.chaosFault(from, to, "write")
	if ferr != nil {
		return ferr
	}

	cost := f.jitterCost(from, to, f.modelCost(len(payload)), jitter)
	f.stats.AddTransfer(from, to, len(payload), cost)
	f.impose(cost)
	return h(from, payload)
}

// WriteBatch performs one merged one-sided write carrying several records
// for the same registered key — the doorbell-batched (scatter-gather) post
// a real NIC offers, which MALT's send coalescer uses to amortize per-write
// latency. The whole batch is charged ONE base latency plus the summed size
// cost, counts as one message, and takes one chaos draw (a dropped batch
// drops all its records, as a dropped NIC op would). The handler is invoked
// once per record, in order, on the caller's goroutine; the first handler
// error is returned after all records have been attempted.
func (f *Fabric) WriteBatch(from, to int, key string, records [][]byte) error {
	if len(records) == 0 {
		return nil
	}
	if err := f.checkRank(from); err != nil {
		return err
	}
	if err := f.checkRank(to); err != nil {
		return err
	}
	f.mu.RLock()
	senderDead := f.dead[from]
	senderStale := f.admitted[from] < f.fenced[from]
	reachable := !f.dead[to] && f.group[from] == f.group[to]
	h := f.regs[to][key]
	f.mu.RUnlock()

	if senderDead {
		return ErrSenderDead
	}
	if senderStale {
		return f.rejectStale(from)
	}
	if !reachable {
		f.stats.AddFailed(from, to)
		return fmt.Errorf("%w: rank %d -> rank %d", ErrUnreachable, from, to)
	}
	if h == nil {
		return fmt.Errorf("%w: %q on rank %d", ErrNotRegistered, key, to)
	}
	ferr, jitter := f.chaosFault(from, to, "write")
	if ferr != nil {
		return ferr
	}

	bytes := 0
	for _, rec := range records {
		bytes += len(rec)
	}
	cost := f.jitterCost(from, to, f.modelCost(bytes), jitter)
	f.stats.AddTransfer(from, to, bytes, cost)
	f.stats.AddCoalesced(from, to, len(records))
	f.impose(cost)
	var firstErr error
	for _, rec := range records {
		if err := h(from, rec); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Ping performs a synchronous health probe from one rank to another,
// charging one round trip. Fault monitors use it for the cluster health
// check after observing failed writes.
func (f *Fabric) Ping(from, to int) error {
	if err := f.checkRank(from); err != nil {
		return err
	}
	if err := f.checkRank(to); err != nil {
		return err
	}
	f.mu.RLock()
	senderDead := f.dead[from]
	senderStale := f.admitted[from] < f.fenced[from]
	ok := !f.dead[to] && f.group[from] == f.group[to]
	f.mu.RUnlock()
	if senderDead {
		return ErrSenderDead
	}
	if senderStale {
		return f.rejectStale(from)
	}
	cost := 2 * f.cfg.Latency
	if ok {
		// Chaos only touches links that could have delivered: death and
		// partition keep their fail-stop signal.
		ferr, jitter := f.chaosFault(from, to, "ping")
		if ferr != nil {
			f.stats.AddControl(from, to, cost)
			f.impose(cost)
			return ferr
		}
		cost = f.jitterCost(from, to, cost, jitter)
	}
	f.stats.AddControl(from, to, cost)
	f.impose(cost)
	if !ok {
		return fmt.Errorf("%w: ping rank %d -> rank %d", ErrUnreachable, from, to)
	}
	return nil
}

// Kill marks rank dead and mints a new membership epoch fencing it.
// Subsequent writes to it fail; writes from it return ErrSenderDead, and —
// should it come back without Join — ErrStaleEpoch. Liveness watchers are
// notified.
func (f *Fabric) Kill(rank int) error {
	return f.setDead(rank, true)
}

// Revive marks rank alive again (a machine rejoining after repair) WITHOUT
// re-admitting it: its admission epoch still predates the epoch its death
// minted, so its writes and pings are fenced with ErrStaleEpoch until it
// goes through Join. Tests use Revive to exercise exactly that zombie path.
func (f *Fabric) Revive(rank int) error {
	return f.setDead(rank, false)
}

func (f *Fabric) setDead(rank int, dead bool) error {
	if err := f.checkRank(rank); err != nil {
		return err
	}
	f.mu.Lock()
	changed := f.dead[rank] != dead
	f.dead[rank] = dead
	if changed && dead {
		f.fenced[rank] = f.epoch.Add(1)
	}
	watchers := append([]func(int, bool){}, f.liveness...)
	f.mu.Unlock()
	if changed {
		for _, w := range watchers {
			w(rank, !dead)
		}
	}
	return nil
}

// Epoch returns the current membership epoch. It starts at 1 and increases
// on every confirmed death and every join.
func (f *Fabric) Epoch() uint64 { return f.epoch.Load() }

// Join (re-)admits rank into the cluster: a new epoch is minted, the rank's
// admission is stamped with it (clearing any zombie fence), it is marked
// alive, and liveness + join watchers fire. Returns the minted epoch.
func (f *Fabric) Join(rank int) (uint64, error) {
	if err := f.checkRank(rank); err != nil {
		return 0, err
	}
	f.mu.Lock()
	e := f.epoch.Add(1)
	f.admitted[rank] = e
	wasDead := f.dead[rank]
	f.dead[rank] = false
	watchers := append([]func(int, bool){}, f.liveness...)
	joiners := append([]func(int, uint64){}, f.joined...)
	f.mu.Unlock()
	if wasDead {
		for _, w := range watchers {
			w(rank, true)
		}
	}
	for _, j := range joiners {
		j(rank, e)
	}
	return e, nil
}

// OnJoin registers a callback invoked whenever a rank is admitted through
// Join. Join watchers are separate from liveness watchers: Partition/Heal
// re-announce every rank's aliveness, which must not look like admissions.
// Callbacks run on the goroutine that called Join and must not call back
// into membership mutation.
func (f *Fabric) OnJoin(fn func(rank int, epoch uint64)) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.joined = append(f.joined, fn)
}

// StaleEpochRejected returns how many operations the epoch fence rejected
// (zombie writes and pings from ranks revived without Join). Kept separate
// from Stats so the per-link Snapshot shape is unchanged.
func (f *Fabric) StaleEpochRejected() uint64 { return f.staleRejected.Load() }

// rejectStale counts and reports one fenced zombie operation.
func (f *Fabric) rejectStale(from int) error {
	f.staleRejected.Add(1)
	f.mu.RLock()
	adm, fen := f.admitted[from], f.fenced[from]
	f.mu.RUnlock()
	return fmt.Errorf("%w: rank %d admitted at epoch %d but fenced at epoch %d; rejoin required",
		ErrStaleEpoch, from, adm, fen)
}

// Alive reports whether rank is alive.
func (f *Fabric) Alive(rank int) bool {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return rank >= 0 && rank < f.cfg.Ranks && !f.dead[rank]
}

// AliveRanks returns the sorted list of live ranks.
func (f *Fabric) AliveRanks() []int {
	f.mu.RLock()
	defer f.mu.RUnlock()
	var out []int
	for i, d := range f.dead {
		if !d {
			out = append(out, i)
		}
	}
	return out
}

// OnLivenessChange registers a callback invoked whenever a rank dies or
// revives. Callbacks run on the goroutine that called Kill/Revive and must
// not call back into liveness mutation.
func (f *Fabric) OnLivenessChange(fn func(rank int, alive bool)) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.liveness = append(f.liveness, fn)
}

// Partition splits the fabric into isolated groups: groups[i] lists the
// ranks in group i. Ranks not mentioned keep group 0. Writes and pings
// across groups fail with ErrUnreachable. Liveness watchers are notified
// (with each rank's current aliveness) so group operations blocked on the
// old topology re-evaluate.
func (f *Fabric) Partition(groups [][]int) error {
	f.mu.Lock()
	for i := range f.group {
		f.group[i] = 0
	}
	for gid, ranks := range groups {
		for _, r := range ranks {
			if r < 0 || r >= f.cfg.Ranks {
				f.mu.Unlock()
				return fmt.Errorf("fabric: partition rank %d out of range", r)
			}
			f.group[r] = gid
		}
	}
	watchers := append([]func(int, bool){}, f.liveness...)
	f.mu.Unlock()
	f.notifyTopology(watchers)
	return nil
}

// Heal removes all partitions and notifies liveness watchers.
func (f *Fabric) Heal() {
	f.mu.Lock()
	for i := range f.group {
		f.group[i] = 0
	}
	watchers := append([]func(int, bool){}, f.liveness...)
	f.mu.Unlock()
	f.notifyTopology(watchers)
}

// notifyTopology re-announces every rank's aliveness so watchers (barrier
// waiters) reconsider who they are waiting for after a topology change.
func (f *Fabric) notifyTopology(watchers []func(int, bool)) {
	for _, w := range watchers {
		for r := 0; r < f.cfg.Ranks; r++ {
			w(r, f.Alive(r))
		}
	}
}

// GroupOf returns the partition group id of a rank (0 when unpartitioned).
func (f *Fabric) GroupOf(rank int) int {
	f.mu.RLock()
	defer f.mu.RUnlock()
	if rank < 0 || rank >= f.cfg.Ranks {
		return 0
	}
	return f.group[rank]
}

// Reachable reports whether two live ranks can currently communicate.
func (f *Fabric) Reachable(a, b int) bool {
	f.mu.RLock()
	defer f.mu.RUnlock()
	if a < 0 || a >= f.cfg.Ranks || b < 0 || b >= f.cfg.Ranks {
		return false
	}
	return !f.dead[a] && !f.dead[b] && f.group[a] == f.group[b]
}

func (f *Fabric) checkRank(rank int) error {
	if rank < 0 || rank >= f.cfg.Ranks {
		return fmt.Errorf("fabric: rank %d out of range [0,%d)", rank, f.cfg.Ranks)
	}
	return nil
}

// modelCost returns the modeled wire time for a payload of n bytes.
func (f *Fabric) modelCost(n int) time.Duration {
	return f.cfg.Latency + time.Duration(float64(n)/f.cfg.Bandwidth*float64(time.Second))
}

func (f *Fabric) impose(d time.Duration) {
	switch f.cfg.Delay {
	case DelaySleep:
		time.Sleep(d)
	case DelaySpin:
		deadline := time.Now().Add(d)
		for time.Now().Before(deadline) {
		}
	}
}

// Stats accumulates per-link traffic counters. All counters are atomic and
// may be read while the fabric is in use.
type Stats struct {
	n        int
	bytes    []atomic.Uint64 // [from*n+to]
	messages []atomic.Uint64
	failed   []atomic.Uint64
	modelNs  []atomic.Uint64 // modeled network time, data + control
	injDrops []atomic.Uint64 // chaos-injected transient drops
	injJitNs []atomic.Uint64 // chaos-injected extra wire time
	coalRecs []atomic.Uint64 // records carried inside WriteBatch calls
	coalOps  []atomic.Uint64 // WriteBatch calls (merged writes issued)

	// Windowed-stream diagnostics (fabric/stream backends only; the
	// simulated fabric never touches them). Deliberately excluded from
	// Snapshot: in-flight gauges and stall counts depend on wall-clock
	// scheduling, and Snapshot is a determinism contract.
	inflFrames []atomic.Int64  // unacked data frames currently in flight
	inflBytes  []atomic.Int64  // unacked payload bytes currently in flight
	stalls     []atomic.Uint64 // sends that blocked on exhausted window credit
	cumAcks    []atomic.Uint64 // cumulative acks received
}

// NewStats creates a zeroed per-link counter matrix for n ranks. Transport
// implementations outside this package (fabric/stream) use it to offer the
// same Stats surface the simulated fabric has.
func NewStats(n int) *Stats {
	return &Stats{
		n:        n,
		bytes:    make([]atomic.Uint64, n*n),
		messages: make([]atomic.Uint64, n*n),
		failed:   make([]atomic.Uint64, n*n),
		modelNs:  make([]atomic.Uint64, n*n),
		injDrops: make([]atomic.Uint64, n*n),
		injJitNs: make([]atomic.Uint64, n*n),
		coalRecs: make([]atomic.Uint64, n*n),
		coalOps:  make([]atomic.Uint64, n*n),

		inflFrames: make([]atomic.Int64, n*n),
		inflBytes:  make([]atomic.Int64, n*n),
		stalls:     make([]atomic.Uint64, n*n),
		cumAcks:    make([]atomic.Uint64, n*n),
	}
}

// AddTransfer records one successful data write of the given size and wire
// cost on the from→to link.
func (s *Stats) AddTransfer(from, to, bytes int, cost time.Duration) {
	i := from*s.n + to
	s.bytes[i].Add(uint64(bytes))
	s.messages[i].Add(1)
	s.modelNs[i].Add(uint64(cost))
}

// AddControl records control-plane wire time (pings, barriers) on a link.
func (s *Stats) AddControl(from, to int, cost time.Duration) {
	s.modelNs[from*s.n+to].Add(uint64(cost))
}

// AddFailed records one write that failed with ErrUnreachable.
func (s *Stats) AddFailed(from, to int) {
	s.failed[from*s.n+to].Add(1)
}

func (s *Stats) addInjectedDrop(from, to int) {
	s.injDrops[from*s.n+to].Add(1)
}

func (s *Stats) addInjectedJitter(from, to int, extra time.Duration) {
	s.injJitNs[from*s.n+to].Add(uint64(extra))
}

// AddCoalesced records one merged WriteBatch call carrying records records.
func (s *Stats) AddCoalesced(from, to, records int) {
	i := from*s.n + to
	s.coalRecs[i].Add(uint64(records))
	s.coalOps[i].Add(1)
}

// AddInFlight records one data frame of the given payload size entering
// the from→to link's unacked window.
func (s *Stats) AddInFlight(from, to, bytes int) {
	i := from*s.n + to
	s.inflFrames[i].Add(1)
	s.inflBytes[i].Add(int64(bytes))
}

// SubInFlight retires one data frame from the from→to link's window (the
// covering cumulative ack arrived, or the link reset).
func (s *Stats) SubInFlight(from, to, bytes int) {
	i := from*s.n + to
	s.inflFrames[i].Add(-1)
	s.inflBytes[i].Add(int64(-bytes))
}

// AddWindowStall records one send that found the from→to window's credit
// exhausted and had to wait for a cumulative ack.
func (s *Stats) AddWindowStall(from, to int) {
	s.stalls[from*s.n+to].Add(1)
}

// AddCumAck records one cumulative ack received on the from→to link.
func (s *Stats) AddCumAck(from, to int) {
	s.cumAcks[from*s.n+to].Add(1)
}

// InFlightFrames returns the unacked data frames currently in flight on
// the from→to link (zero on the simulated fabric).
func (s *Stats) InFlightFrames(from, to int) int64 {
	return s.inflFrames[from*s.n+to].Load()
}

// InFlightBytes returns the unacked payload bytes currently in flight on
// the from→to link.
func (s *Stats) InFlightBytes(from, to int) int64 {
	return s.inflBytes[from*s.n+to].Load()
}

// WindowStalls returns how many sends blocked on exhausted window credit,
// summed over all links.
func (s *Stats) WindowStalls() uint64 {
	var total uint64
	for i := range s.stalls {
		total += s.stalls[i].Load()
	}
	return total
}

// CumAcks returns how many cumulative acks this endpoint's links received,
// summed over all links.
func (s *Stats) CumAcks() uint64 {
	var total uint64
	for i := range s.cumAcks {
		total += s.cumAcks[i].Load()
	}
	return total
}

// BytesSent returns the total payload bytes rank sent to all peers.
func (s *Stats) BytesSent(rank int) uint64 {
	var total uint64
	for to := 0; to < s.n; to++ {
		total += s.bytes[rank*s.n+to].Load()
	}
	return total
}

// BytesReceived returns the total payload bytes rank received.
func (s *Stats) BytesReceived(rank int) uint64 {
	var total uint64
	for from := 0; from < s.n; from++ {
		total += s.bytes[from*s.n+rank].Load()
	}
	return total
}

// TotalBytes returns payload bytes moved across the whole fabric.
func (s *Stats) TotalBytes() uint64 {
	var total uint64
	for i := range s.bytes {
		total += s.bytes[i].Load()
	}
	return total
}

// TotalMessages returns the number of successful writes across the fabric.
func (s *Stats) TotalMessages() uint64 {
	var total uint64
	for i := range s.messages {
		total += s.messages[i].Load()
	}
	return total
}

// FailedWrites returns the number of writes that failed with ErrUnreachable.
func (s *Stats) FailedWrites() uint64 {
	var total uint64
	for i := range s.failed {
		total += s.failed[i].Load()
	}
	return total
}

// ModeledNetworkTime returns the summed modeled wire time across all links.
// On a real cluster links run in parallel, so this is an upper bound on
// elapsed network time and a faithful measure of traffic volume in seconds.
func (s *Stats) ModeledNetworkTime() time.Duration {
	var total uint64
	for i := range s.modelNs {
		total += s.modelNs[i].Load()
	}
	return time.Duration(total)
}

// LinkBytes returns payload bytes sent from one rank to another.
func (s *Stats) LinkBytes(from, to int) uint64 {
	return s.bytes[from*s.n+to].Load()
}

// LinkModelNs returns the modeled wire nanoseconds accumulated on one
// directed link (data + control).
func (s *Stats) LinkModelNs(from, to int) uint64 {
	return s.modelNs[from*s.n+to].Load()
}

// FailedWritesLink returns the ErrUnreachable failures on one directed link.
func (s *Stats) FailedWritesLink(from, to int) uint64 {
	return s.failed[from*s.n+to].Load()
}

// WindowStallsLink returns the credit-exhausted send stalls on one directed
// link (stream backends only; zero on the simulated fabric).
func (s *Stats) WindowStallsLink(from, to int) uint64 {
	return s.stalls[from*s.n+to].Load()
}

// InjectedJitterLink returns the chaos-injected extra wire nanoseconds on
// one directed link.
func (s *Stats) InjectedJitterLink(from, to int) uint64 {
	return s.injJitNs[from*s.n+to].Load()
}

// InjectedDrops returns the number of operations the chaos layer dropped
// with ErrTransient across all links.
func (s *Stats) InjectedDrops() uint64 {
	var total uint64
	for i := range s.injDrops {
		total += s.injDrops[i].Load()
	}
	return total
}

// InjectedDropsLink returns the chaos drops injected on one directed link.
func (s *Stats) InjectedDropsLink(from, to int) uint64 {
	return s.injDrops[from*s.n+to].Load()
}

// InjectedJitterTime returns the extra modeled wire time added by chaos
// straggler multipliers across all links.
func (s *Stats) InjectedJitterTime() time.Duration {
	var total uint64
	for i := range s.injJitNs {
		total += s.injJitNs[i].Load()
	}
	return time.Duration(total)
}

// CoalescedRecords returns the number of records that travelled inside
// merged WriteBatch calls across the fabric.
func (s *Stats) CoalescedRecords() uint64 {
	var total uint64
	for i := range s.coalRecs {
		total += s.coalRecs[i].Load()
	}
	return total
}

// CoalescedWrites returns the number of merged WriteBatch calls issued.
func (s *Stats) CoalescedWrites() uint64 {
	var total uint64
	for i := range s.coalOps {
		total += s.coalOps[i].Load()
	}
	return total
}

// WritesSaved returns how many fabric writes coalescing eliminated: records
// that rode in a merged batch minus the batched writes actually posted.
func (s *Stats) WritesSaved() uint64 {
	return s.CoalescedRecords() - s.CoalescedWrites()
}

// Snapshot dumps every per-link counter in a fixed order. Two fabrics that
// executed the same operation schedule under the same chaos seed produce
// identical snapshots — the determinism contract soak tests rely on.
func (s *Stats) Snapshot() []uint64 {
	out := make([]uint64, 0, 8*len(s.bytes))
	for i := range s.bytes {
		out = append(out, s.bytes[i].Load(), s.messages[i].Load(),
			s.failed[i].Load(), s.modelNs[i].Load(),
			s.injDrops[i].Load(), s.injJitNs[i].Load(),
			s.coalRecs[i].Load(), s.coalOps[i].Load())
	}
	return out
}

// Reset zeroes all counters (used between benchmark phases).
func (s *Stats) Reset() {
	for i := range s.bytes {
		s.bytes[i].Store(0)
		s.messages[i].Store(0)
		s.failed[i].Store(0)
		s.modelNs[i].Store(0)
		s.injDrops[i].Store(0)
		s.injJitNs[i].Store(0)
		s.coalRecs[i].Store(0)
		s.coalOps[i].Store(0)
		s.inflFrames[i].Store(0)
		s.inflBytes[i].Store(0)
		s.stalls[i].Store(0)
		s.cumAcks[i].Store(0)
	}
}
