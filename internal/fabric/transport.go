package fabric

// Transport is the contract dstorm (and everything above it) consumes from
// the interconnect. The simulated Fabric is the default implementation;
// fabric/stream implements the same contract over real TCP or Unix sockets
// so the one-sided scatter path, RetryPolicy and K-strikes suspicion run
// unchanged across OS processes.
//
// Error taxonomy every implementation must honor:
//
//   - ErrUnreachable: the destination is permanently gone (dead rank,
//     partition, refused/closed connection). Callers do not retry; fault
//     monitors accumulate strikes.
//   - ErrTransient: the operation may succeed if retried (chaos drop,
//     write deadline expiry). dstorm.RetryPolicy absorbs these.
//   - ErrNotRegistered / ErrSenderDead: protocol errors, not retried.
type Transport interface {
	// Ranks returns the cluster size, counting dead ranks.
	Ranks() int

	// Register installs remotely writable memory named key on rank.
	// Re-registering replaces the handler (MALT re-registers segments with
	// fresh descriptors during recovery, invalidating zombie writes).
	Register(rank int, key string, h WriteHandler) error
	// Unregister removes remotely writable memory named key from rank.
	Unregister(rank int, key string) error

	// Write performs a one-sided write of payload into the memory
	// registered as key on rank to, on the caller's goroutine. The
	// payload is not read after Write returns, whatever the outcome: an
	// implementation that sends later copies it first, so the caller may
	// overwrite it at once.
	Write(from, to int, key string, payload []byte) error
	// WriteBatch performs one merged write carrying several records for the
	// same key: one latency charge, one message, per-record handler
	// delivery in order. Like Write, it does not read the records (or the
	// slice holding them) after it returns.
	WriteBatch(from, to int, key string, records [][]byte) error

	// Ping performs a synchronous health probe. Implementations must
	// support delegated probes (from != the local rank) so the fault
	// monitor's cluster health check can ask other ranks to verify a
	// suspect.
	Ping(from, to int) error

	// Kill marks rank dead; its writes fail with ErrSenderDead and writes
	// to it with ErrUnreachable. On a networked transport only the local
	// rank can be killed.
	Kill(rank int) error
	// Alive reports whether rank is believed alive.
	Alive(rank int) bool
	// AliveRanks returns the sorted list of ranks believed alive.
	AliveRanks() []int
	// GroupOf returns the partition group id of a rank; transports without
	// partition simulation always return 0.
	GroupOf(rank int) int
	// OnLivenessChange registers a callback invoked whenever a rank's
	// liveness changes. Callbacks must not mutate liveness re-entrantly.
	OnLivenessChange(fn func(rank int, alive bool))

	// Stats returns the per-link traffic counters.
	Stats() *Stats

	// Close releases transport resources (sockets, goroutines).
	Close() error
}

// Coordinator is an optional extension a Transport may implement when the
// cluster spans OS processes and the in-process barrier in dstorm cannot
// see all ranks. dstorm delegates its named barriers to the Coordinator
// when the transport provides one. Barrier blocks until every rank the
// transport believes alive has entered the barrier with the same name, and
// returns early (nil) when membership shrinks so survivors are released.
type Coordinator interface {
	Barrier(name string, rank int) error
}

// Membership is an optional extension a Transport may implement when it
// supports elastic membership: a monotonically-increasing epoch minted on
// every confirmed death and every join, with stale-epoch traffic fenced so
// a rejoining rank can never poison in-flight gathers.
//
// Error taxonomy addition: ErrStaleEpoch marks an operation from (or
// rejected by) a rank whose admission predates the current epoch. It is
// permanent — the zombie must Join again — and is never retried.
type Membership interface {
	// Epoch returns the current membership epoch (starts at 1, or at the
	// transport's rendezvous generation).
	Epoch() uint64
	// Join (re-)admits rank: mints a new epoch, stamps the rank's
	// admission with it, marks it alive, and fires join watchers. Returns
	// the minted epoch.
	Join(rank int) (uint64, error)
	// OnJoin registers a callback invoked on every admission. Join
	// watchers are separate from liveness watchers because topology
	// changes re-announce aliveness without any admission happening.
	OnJoin(fn func(rank int, epoch uint64))
	// StaleEpochRejected counts operations fenced by the epoch check.
	StaleEpochRejected() uint64
}

var (
	_ Transport  = (*Fabric)(nil)
	_ Membership = (*Fabric)(nil)
)
