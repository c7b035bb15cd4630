// Package dstorm implements DiSTributed One-sided Remote Memory, the shared
// memory abstraction underneath MALT (paper §3.1).
//
// Every rank creates named segments over the fabric. Creating a segment is a
// collective operation: all ranks in the dataflow create it, and each rank
// allocates a receive queue *per sender* so that concurrent incoming model
// updates from different senders never conflict and never require receiver
// CPU for write-write conflict resolution. A sender's Scatter deposits its
// update into its own queue slot on every receiver named by the dataflow
// graph; a receiver's Gather is a purely local read that folds whatever has
// arrived. When a sender outruns the consumer, the default behaviour is to
// overwrite the oldest unconsumed item in the ring — model updates are
// approximate, and MALT trades freshness for never blocking the fast path.
//
// Consistency (paper §3.2): writes are performed in chunks, as a real NIC
// deposits bytes, so a reader that ignores the version protocol can observe
// a torn update (old and new bytes mixed). GatherWeak exposes exactly that;
// Gather (the default, "atomic gather" in the paper) uses a seqlock-style
// version word per slot and retries until it has a consistent snapshot.
// Every update carries the sender's iteration count in its header so
// bounded-staleness policies can stall on or skip stale peers.
package dstorm

import (
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"

	"malt/internal/dataflow"
)

// Errors returned by dstorm operations.
var (
	// ErrTooLarge is returned when a scattered payload exceeds the
	// segment's object size.
	ErrTooLarge = errors.New("dstorm: payload exceeds segment object size")
	// ErrClosed is returned by operations on a destroyed segment.
	ErrClosed = errors.New("dstorm: segment closed")
)

// DefaultQueueLen is the per-sender receive-queue depth when
// SegmentOptions.QueueLen is zero.
const DefaultQueueLen = 4

// DefaultChunkSize is the write granularity modeling a NIC's non-atomic
// deposit, used when SegmentOptions.ChunkSize is zero.
const DefaultChunkSize = 4096

// HeaderSize is seq(8) + iter(8) + len(4) prepended to every update.
// ScatterFramed callers keep this much headroom in front of their payload.
const HeaderSize = 20

// snapshotLead pads the front of every gather snapshot buffer so the
// payload behind the header starts 8-byte aligned (4+20 = 24): the vector
// library reads a dense payload in place as float64s instead of copying it.
const snapshotLead = 4

// SegmentOptions configures a segment at collective creation time.
type SegmentOptions struct {
	// ObjectSize is the maximum payload size, in bytes, of one update.
	ObjectSize int
	// QueueLen is the per-sender receive-queue depth (ring length).
	// Defaults to DefaultQueueLen.
	QueueLen int
	// Graph is the dataflow: an edge A→B means A's scatters land on B.
	Graph *dataflow.Graph
	// ChunkSize is the granularity of the simulated non-atomic RDMA
	// deposit. Defaults to DefaultChunkSize. Set negative for fully atomic
	// writes (disables torn reads entirely; used in ablations).
	ChunkSize int
	// SkipCreationBarrier registers the segment without waiting for the
	// collective creation barrier. Only the elastic-membership rejoin path
	// sets it: the surviving ranks created the segment long ago and will
	// never re-enter its creation barrier, so a rejoining rank registers
	// its receive rings and proceeds straight to the next data barrier.
	SkipCreationBarrier bool
}

func (o *SegmentOptions) setDefaults() error {
	if o.ObjectSize <= 0 {
		return fmt.Errorf("dstorm: ObjectSize must be positive, got %d", o.ObjectSize)
	}
	if o.Graph == nil {
		return errors.New("dstorm: SegmentOptions.Graph is required")
	}
	if o.QueueLen == 0 {
		o.QueueLen = DefaultQueueLen
	}
	if o.QueueLen < 1 {
		return fmt.Errorf("dstorm: QueueLen must be >= 1, got %d", o.QueueLen)
	}
	if o.ChunkSize == 0 {
		o.ChunkSize = DefaultChunkSize
	}
	return nil
}

// Update is one model update read out of a receive queue. Data aliases an
// internal buffer that remains valid until the next Gather/GatherWeak call
// on the same segment; callers that need it longer must copy.
type Update struct {
	// From is the sender's rank.
	From int
	// Seq is the sender's per-segment sequence number (1-based).
	Seq uint64
	// Iter is the sender's iteration count, carried in the update header
	// for staleness policies.
	Iter uint64
	// Data is the payload. Gather snapshots place it 8-byte aligned.
	Data []byte
	// Torn reports that the payload was observed mid-write and may mix old
	// and new bytes. Always false for Gather; possible for GatherWeak.
	Torn bool
}

// GatherMode selects which queued updates a gather consumes.
type GatherMode int

const (
	// GatherAllNew consumes every unconsumed update from every sender, in
	// sequence order (the default: the paper's gather folds "all received
	// updates").
	GatherAllNew GatherMode = iota
	// GatherLatest consumes only the freshest update per sender, skipping
	// over older queued items.
	GatherLatest
)

// Segment is one rank's view of a collectively created dstorm segment.
type Segment struct {
	node *Node
	name string
	key  string // segKey(name), precomputed for the scatter hot path
	opts SegmentOptions

	mu            sync.Mutex
	graph         *dataflow.Graph
	send          []int          // current send peer list (rebuilt on failure)
	allowed       map[int]bool   // ScatterTo membership cache over send; nil = stale
	queues        map[int]*queue // senderRank → local receive queue
	seq           uint64         // local scatter sequence
	iter          uint64         // local iteration counter attached to scatters
	consumedTotal uint64         // updates returned by gathers (for Stats)
	closed        bool

	// arrived holds at most one pending signal, sent after every deposit
	// and every RemovePeer: a staleness wait sleeps on it instead of
	// polling PeerIters.
	arrived chan struct{}

	encBuf      []byte // scatter encode buffer, allocated by the first copying scatter
	sendScratch []int  // per-scatter snapshot of send, reused across calls

	// Gather-side scratch, reused across gathers to keep the steady state
	// allocation-free. Only the owning rank's training goroutine gathers, so
	// no lock is needed beyond the snapshot of s.queues taken under mu.
	senderScratch []senderQ
	updOut        []Update
}

// senderQ pairs a sender rank with its receive queue for one gather pass.
type senderQ struct {
	from int
	q    *queue
}

// queue is the per-sender receive ring living in this rank's registered
// memory. Slots are written by the fabric on sender goroutines and read
// locally by gather.
type queue struct {
	slots []slot
	// consumed is the highest sequence number this receiver has consumed.
	// Guarded by consumedMu; only the local rank touches it.
	consumedMu sync.Mutex
	consumed   uint64
	// overwritten counts updates that were lapped in the ring before this
	// receiver consumed them (the freshness-over-completeness trade).
	overwritten uint64
	// Gather scratch owned by this queue (guarded by consumedMu): snapshot
	// buffers and decoded Update views, reused across gathers. Per-queue
	// rather than per-segment so the parallel gather engine can drain every
	// sender's ring concurrently without sharing buffers.
	bufs [][]byte
	ups  []Update
}

// Stats are a segment's local receive-side counters.
type Stats struct {
	// Consumed is the number of updates returned by gathers.
	Consumed uint64
	// Overwritten is the number of updates lost to ring overwrites before
	// they were consumed. High values mean the consumer lags its senders —
	// expected and harmless under ASP, a red flag under BSP.
	Overwritten uint64
}

// Stats returns the segment's receive-side counters, summed over senders.
func (s *Segment) Stats() Stats {
	s.mu.Lock()
	queues := make([]*queue, 0, len(s.queues))
	for _, q := range s.queues {
		queues = append(queues, q)
	}
	consumed := s.consumedTotal
	s.mu.Unlock()
	out := Stats{Consumed: consumed}
	for _, q := range queues {
		q.consumedMu.Lock()
		out.Overwritten += q.overwritten
		q.consumedMu.Unlock()
	}
	return out
}

// slot is one ring entry. version is a seqlock: odd while a chunked write
// is in flight. All fields are guarded by mu; chunked writers release mu
// between chunks so weak readers can observe torn payloads without a data
// race.
type slot struct {
	mu      sync.Mutex
	version uint64
	seq     uint64
	iter    uint64
	n       int
	data    []byte
}

// name of the fabric registration for a segment.
func segKey(name string) string { return "dstorm/" + name }

// CreateSegment collectively creates (or attaches to) the named segment.
// Every rank in the dataflow graph must call CreateSegment with identical
// options; the call blocks until all live ranks have done so, mirroring the
// synchronous segment creation in the paper. The per-sender receive queues
// are allocated and registered with the fabric before the creation barrier
// releases, so no scatter can beat a receiver's registration.
func (n *Node) CreateSegment(name string, opts SegmentOptions) (*Segment, error) {
	if err := opts.setDefaults(); err != nil {
		return nil, err
	}
	if opts.Graph.N() != n.cluster.fab.Ranks() {
		return nil, fmt.Errorf("dstorm: graph covers %d ranks but fabric has %d",
			opts.Graph.N(), n.cluster.fab.Ranks())
	}
	if !opts.Graph.Connected() && opts.Graph.N() > 1 {
		return nil, fmt.Errorf("dstorm: dataflow graph is not connected; updates would not disseminate")
	}

	s := &Segment{
		node:    n,
		name:    name,
		key:     segKey(name),
		opts:    opts,
		graph:   opts.Graph,
		queues:  make(map[int]*queue),
		arrived: make(chan struct{}, 1),
	}
	s.send = append([]int(nil), opts.Graph.SendPeers(n.rank)...)
	for _, sender := range opts.Graph.RecvPeers(n.rank) {
		s.queues[sender] = newQueue(opts.QueueLen, opts.ObjectSize)
	}
	if err := n.cluster.fab.Register(n.rank, segKey(name), s.handleWrite); err != nil {
		return nil, err
	}
	// Creation barrier: all live ranks must have registered. A rejoining
	// rank skips it — the standing members passed this barrier when the
	// segment was first created.
	if !opts.SkipCreationBarrier {
		if err := n.cluster.creationBarrier(name, n.rank); err != nil {
			return nil, err
		}
	}
	return s, nil
}

func newQueue(qlen, objSize int) *queue {
	q := &queue{slots: make([]slot, qlen)}
	for i := range q.slots {
		q.slots[i].data = make([]byte, HeaderSize+objSize)
	}
	return q
}

// Name returns the segment's name.
func (s *Segment) Name() string { return s.name }

// Node returns the endpoint that owns this segment view.
func (s *Segment) Node() *Node { return s.node }

// Options returns the segment's creation options.
func (s *Segment) Options() SegmentOptions { return s.opts }

// SendPeers returns the current send list (post any failure rebuilds).
func (s *Segment) SendPeers() []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]int(nil), s.send...)
}

// SetIteration sets the iteration count stamped on subsequent scatters.
func (s *Segment) SetIteration(iter uint64) {
	s.mu.Lock()
	s.iter = iter
	s.mu.Unlock()
}

// handleWrite is the fabric write handler: it runs on the *sender's*
// goroutine (one-sided) and deposits the update into the sender's queue.
func (s *Segment) handleWrite(from int, payload []byte) error {
	if len(payload) < HeaderSize {
		return fmt.Errorf("dstorm: short write (%d bytes) into segment %q", len(payload), s.name)
	}
	s.mu.Lock()
	q := s.queues[from]
	closed := s.closed
	chunk := s.opts.ChunkSize
	s.mu.Unlock()
	if closed {
		return ErrClosed
	}
	if q == nil {
		// A write from a rank outside our receive list: this happens when a
		// zombie (a rank we removed after a failure) comes back. MALT
		// re-registers the interface so zombie writes bounce; we reject.
		return fmt.Errorf("dstorm: segment %q: unexpected sender %d (not in receive list)", s.name, from)
	}
	seq := binary.LittleEndian.Uint64(payload[0:8])
	sl := &q.slots[seq%uint64(len(q.slots))]
	sl.write(payload, chunk)
	s.signalArrival()
	return nil
}

// signalArrival leaves one pending wake-up on the arrivals channel; a
// signal already pending covers this one too.
func (s *Segment) signalArrival() {
	select {
	case s.arrived <- struct{}{}:
	default:
	}
}

// Arrivals returns a channel that receives a signal after a deposit lands
// in any receive queue or a peer is removed. It has one waiter, the rank's
// training goroutine (an SSP stall): re-check PeerIters after each receive.
// Signals coalesce, so a receive may cover several arrivals or stand for
// one the last check already saw.
func (s *Segment) Arrivals() <-chan struct{} { return s.arrived }

// write deposits payload into the slot. If chunk > 0 the copy is performed
// chunk bytes at a time, releasing the slot lock in between, modeling the
// non-atomic deposit of a real NIC: a concurrent weak reader can observe a
// mix of old and new bytes. The version word goes odd for the duration, so
// atomic readers retry.
func (sl *slot) write(payload []byte, chunk int) {
	if chunk <= 0 || chunk >= len(payload) {
		sl.mu.Lock()
		sl.version += 2
		sl.store(payload)
		sl.mu.Unlock()
		return
	}
	sl.mu.Lock()
	sl.version++ // odd: write in flight
	sl.mu.Unlock()
	for off := 0; off < len(payload); off += chunk {
		end := off + chunk
		if end > len(payload) {
			end = len(payload)
		}
		sl.mu.Lock()
		copy(sl.data[off:end], payload[off:end])
		sl.mu.Unlock()
	}
	sl.mu.Lock()
	sl.storeHeaderFields(payload)
	sl.version++ // even: write complete
	sl.mu.Unlock()
}

func (sl *slot) store(payload []byte) {
	copy(sl.data, payload)
	sl.storeHeaderFields(payload)
}

func (sl *slot) storeHeaderFields(payload []byte) {
	sl.seq = binary.LittleEndian.Uint64(payload[0:8])
	sl.iter = binary.LittleEndian.Uint64(payload[8:16])
	sl.n = int(binary.LittleEndian.Uint32(payload[16:20]))
}

// readAtomic copies a consistent snapshot of the slot into dst, spinning
// while a chunked write is in flight. It returns the header fields.
func (sl *slot) readAtomic(dst []byte) (seq, iter uint64, n int) {
	for {
		sl.mu.Lock()
		if sl.version%2 == 1 {
			sl.mu.Unlock()
			runtime.Gosched()
			continue
		}
		seq, iter, n = sl.seq, sl.iter, sl.n
		copy(dst[:HeaderSize+n], sl.data[:HeaderSize+n])
		sl.mu.Unlock()
		return seq, iter, n
	}
}

// readWeak copies the slot without honouring the version protocol. The
// returned torn flag is true when the snapshot raced a chunked write.
func (sl *slot) readWeak(dst []byte) (seq, iter uint64, n int, torn bool) {
	sl.mu.Lock()
	v0 := sl.version
	seq, iter, n = sl.seq, sl.iter, sl.n
	if n > len(dst)-HeaderSize {
		n = len(dst) - HeaderSize
	}
	copy(dst[:HeaderSize+n], sl.data[:HeaderSize+n])
	torn = v0%2 == 1
	sl.mu.Unlock()
	return seq, iter, n, torn
}

// peek returns the slot's header without consuming or copying the payload.
func (sl *slot) peek() (seq, iter uint64) {
	sl.mu.Lock()
	defer sl.mu.Unlock()
	return sl.seq, sl.iter
}

// Scatter sends payload to every peer in the current send list, stamping it
// with the given iteration count. The payload is copied behind the update
// header in a segment buffer; ScatterFramed avoids that copy. Transient
// fabric faults (dropped writes, blackout windows) are absorbed by the
// node's bounded retry policy with exponential backoff and a per-write
// deadline; only peers whose writes failed permanently (dead, partitioned,
// re-registered) or kept failing transiently until retries were exhausted
// appear in the returned failed list, which the caller's fault monitor
// feeds into the recovery protocol as suspicion evidence. Scatter itself
// never fails on peer death — that is the point of one-sided, peer-to-peer
// training.
func (s *Segment) Scatter(payload []byte, iter uint64) (failed []int, err error) {
	return s.scatter(nil, payload, iter)
}

// ScatterFramed is Scatter for a caller that keeps HeaderSize bytes of
// headroom in front of its payload: frame[HeaderSize:] is the payload, and
// frame[:HeaderSize] is overwritten with the update header. The frame goes
// to the transport as it is, so neither this package nor the caller copies
// the payload. The caller may overwrite the frame as soon as the call
// returns: fabric.Transport.Write does not read a payload after it returns,
// and the coalescing pipeline ships its own copy.
func (s *Segment) ScatterFramed(frame []byte, iter uint64) (failed []int, err error) {
	return s.scatterFramed(nil, frame, iter)
}

// scatter copies payload behind the header in the segment's encode buffer
// and delivers it to the given peers (nil = the full send list).
func (s *Segment) scatter(peers []int, payload []byte, iter uint64) (failed []int, err error) {
	if len(payload) > s.opts.ObjectSize {
		return nil, fmt.Errorf("%w: %d > %d", ErrTooLarge, len(payload), s.opts.ObjectSize)
	}
	s.mu.Lock()
	if s.encBuf == nil {
		s.encBuf = make([]byte, HeaderSize+s.opts.ObjectSize)
	}
	frame := s.encBuf[:HeaderSize+len(payload)]
	copy(frame[HeaderSize:], payload)
	s.mu.Unlock()
	return s.scatterFramed(peers, frame, iter)
}

// scatterFramed stamps the header into frame and delivers it to the given
// peers (nil = the segment's full send list).
func (s *Segment) scatterFramed(peers []int, frame []byte, iter uint64) (failed []int, err error) {
	if len(frame) < HeaderSize {
		return nil, fmt.Errorf("dstorm: frame of %d bytes has no room for the %d-byte header", len(frame), HeaderSize)
	}
	n := len(frame) - HeaderSize
	if n > s.opts.ObjectSize {
		return nil, fmt.Errorf("%w: %d > %d", ErrTooLarge, n, s.opts.ObjectSize)
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrClosed
	}
	s.seq++
	it := s.iter
	if iter != 0 {
		it = iter
	}
	if peers == nil {
		// Snapshot the send list into reusable scratch: writeMulti and the
		// pipeline iterate it synchronously and never retain it.
		s.sendScratch = append(s.sendScratch[:0], s.send...)
		peers = s.sendScratch
	}
	binary.LittleEndian.PutUint64(frame[0:8], s.seq)
	binary.LittleEndian.PutUint64(frame[8:16], it)
	binary.LittleEndian.PutUint32(frame[16:20], uint32(n))
	s.mu.Unlock()

	// Every per-peer failure — unreachable, partitioned, or a peer that
	// closed/re-registered its segment during recovery — is reported to the
	// caller's fault monitor rather than aborting the scatter: peer-to-peer
	// training must survive peer loss. With the coalescing pipeline enabled
	// failures are asynchronous and surface via AsyncFailures instead.
	return s.node.writeMulti(peers, s.key, frame), nil
}

// ScatterTo sends payload only to the given peers, which must be a subset of
// the dataflow's send list. It gives developers the fine-grained per-call
// dataflow control described in §3.2 of the paper. The membership check runs
// against a cached send-list index (invalidated when recovery rebuilds the
// list), so a per-batch ScatterTo costs no map rebuild on the hot path.
func (s *Segment) ScatterTo(peers []int, payload []byte, iter uint64) (failed []int, err error) {
	s.mu.Lock()
	if s.allowed == nil {
		s.allowed = make(map[int]bool, len(s.send))
		for _, p := range s.send {
			s.allowed[p] = true
		}
	}
	for _, p := range peers {
		if !s.allowed[p] {
			s.mu.Unlock()
			return nil, fmt.Errorf("dstorm: ScatterTo peer %d is not in the dataflow send list", p)
		}
	}
	s.mu.Unlock()
	return s.scatter(peers, payload, iter)
}

// Gather consumes queued updates atomically (seqlock snapshot per slot) and
// returns them ordered by sender rank, then sequence. The Update.Data slices
// alias segment-internal buffers valid until the next gather call.
func (s *Segment) Gather(mode GatherMode) ([]Update, error) {
	return s.gather(mode, true)
}

// GatherWeak consumes queued updates without the version protocol; returned
// updates may have Torn set. It exists to measure what the paper's "torn
// reads" inconsistency costs (and to show Gather prevents it).
func (s *Segment) GatherWeak(mode GatherMode) ([]Update, error) {
	return s.gather(mode, false)
}

func (s *Segment) gather(mode GatherMode, atomic bool) ([]Update, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrClosed
	}
	senders := s.senderScratch[:0]
	for from, q := range s.queues {
		senders = append(senders, senderQ{from, q})
	}
	s.senderScratch = senders
	s.mu.Unlock()
	// Deterministic order: by sender rank.
	for i := 1; i < len(senders); i++ {
		for j := i; j > 0 && senders[j].from < senders[j-1].from; j-- {
			senders[j], senders[j-1] = senders[j-1], senders[j]
		}
	}

	// Stage 1 of the gather engine: drain every sender's ring. Each queue
	// owns its snapshot buffers and Update scratch, so with a gather pool
	// enabled the per-sender seqlock snapshots proceed concurrently; the
	// rank-order concatenation below restores the deterministic order
	// regardless of completion order.
	if pool := s.node.GatherPool(); pool != nil && len(senders) > 1 {
		g := pool.NewGroup()
		for i := range senders {
			p := senders[i]
			g.Go(func() { s.drainQueue(p.from, p.q, mode, atomic) })
		}
		g.Wait()
	} else {
		for _, p := range senders {
			s.drainQueue(p.from, p.q, mode, atomic)
		}
	}

	updates := s.updOut[:0]
	for _, p := range senders {
		updates = append(updates, p.q.ups...)
	}
	s.updOut = updates
	if len(updates) > 0 {
		s.mu.Lock()
		s.consumedTotal += uint64(len(updates))
		s.mu.Unlock()
	}
	return updates, nil
}

// drainQueue consumes one sender's ring into the queue-owned scratch
// (q.ups), taking atomic or weak snapshots of each slot. Safe to run
// concurrently for different queues; q.consumedMu serializes against
// Stats readers.
func (s *Segment) drainQueue(from int, q *queue, mode GatherMode, atomic bool) {
	q.consumedMu.Lock()
	defer q.consumedMu.Unlock()
	s.drainUpTo(from, q, q.newestSeq(), mode, atomic)
}

// newestSeq peeks every slot for the freshest sequence present in the ring.
func (q *queue) newestSeq() uint64 {
	var newest uint64
	for i := range q.slots {
		if sq, _ := q.slots[i].peek(); sq > newest {
			newest = sq
		}
	}
	return newest
}

// drainUpTo consumes sequences (q.consumed, newest] — newest as peeked a
// moment ago; the sender keeps writing meanwhile. Every sequence in the
// window ends up consumed or counted overwritten. Caller holds
// q.consumedMu.
func (s *Segment) drainUpTo(from int, q *queue, newest uint64, mode GatherMode, atomic bool) {
	q.ups = q.ups[:0]
	bufIdx := 0
	grab := func() []byte {
		if bufIdx < len(q.bufs) {
			b := q.bufs[bufIdx]
			bufIdx++
			return b
		}
		b := make([]byte, snapshotLead+HeaderSize+s.opts.ObjectSize)[snapshotLead:]
		q.bufs = append(q.bufs, b)
		bufIdx++
		return b
	}
	if newest <= q.consumed {
		return
	}
	lo := q.consumed + 1
	if mode == GatherLatest {
		q.overwritten += newest - lo // skipped items count as dropped
		lo = newest
	}
	// Items older than newest-qlen+1 have been overwritten in the ring.
	if qlen := uint64(len(q.slots)); newest >= qlen && lo < newest-qlen+1 {
		q.overwritten += (newest - qlen + 1) - lo
		lo = newest - qlen + 1
	}
	for sq := lo; sq <= newest; sq++ {
		sl := &q.slots[sq%uint64(len(q.slots))]
		buf := grab()
		var gotSeq, gotIter uint64
		var n int
		var torn bool
		if atomic {
			gotSeq, gotIter, n = sl.readAtomic(buf)
		} else {
			gotSeq, gotIter, n, torn = sl.readWeak(buf)
		}
		if gotSeq != sq && atomic {
			// Not the item we came for. A newer one means the slot was
			// lapped between peek and read: sq was delivered and lost, and
			// the newer item is picked up at its own sequence position by a
			// later drain. An older one means sq was never addressed to this
			// rank (a ScatterTo subset skips sequence numbers); nothing was
			// lost.
			if gotSeq > sq {
				q.overwritten++
			}
			bufIdx--
			continue
		}
		q.ups = append(q.ups, Update{
			From: from,
			Seq:  gotSeq,
			Iter: gotIter,
			Data: buf[HeaderSize : HeaderSize+n],
			Torn: torn,
		})
	}
	q.consumed = newest
}

// PeerIters returns, without consuming anything, the latest iteration count
// observed in each sender's queue (0 if nothing has arrived). Staleness
// policies (SSP) use it to decide whether to stall for stragglers.
func (s *Segment) PeerIters() map[int]uint64 {
	s.mu.Lock()
	queues := make(map[int]*queue, len(s.queues))
	for from, q := range s.queues {
		queues[from] = q
	}
	s.mu.Unlock()
	out := make(map[int]uint64, len(queues))
	for from, q := range queues {
		var best uint64
		for i := range q.slots {
			if _, it := q.slots[i].peek(); it > best {
				best = it
			}
		}
		out[from] = best
	}
	return out
}

// RemovePeer drops a failed rank from the segment's send and receive lists.
// Called by the fault-tolerance layer after the cluster health check agrees
// the rank is dead. Queued updates from the dead rank are discarded, and a
// staleness wait on Arrivals re-checks without the dead straggler.
func (s *Segment) RemovePeer(rank int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := s.send[:0]
	for _, p := range s.send {
		if p != rank {
			out = append(out, p)
		}
	}
	s.send = out
	s.allowed = nil // invalidate the ScatterTo membership cache
	delete(s.queues, rank)
	s.signalArrival()
}

// RestorePeer re-admits a rejoined rank: it returns to the send list (in
// sorted order, at its original dataflow position) and gets a fresh receive
// queue — the old incarnation's queued updates were discarded at RemovePeer
// and must not resurface. Membership follows the original dataflow graph;
// a rank the graph never connected to this one stays absent. Idempotent.
func (s *Segment) RestorePeer(rank int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, p := range s.graph.SendPeers(s.node.rank) {
		if p != rank {
			continue
		}
		present := false
		for _, q := range s.send {
			if q == rank {
				present = true
				break
			}
		}
		if !present {
			s.send = append(s.send, rank)
			sort.Ints(s.send)
			s.allowed = nil // invalidate the ScatterTo membership cache
		}
	}
	for _, p := range s.graph.RecvPeers(s.node.rank) {
		if p == rank && s.queues[rank] == nil {
			s.queues[rank] = newQueue(s.opts.QueueLen, s.opts.ObjectSize)
		}
	}
}

// Barrier blocks until every live rank in the cluster has reached the
// barrier for this segment. Ranks that die while others wait are skipped,
// per the paper's group-operation recovery. The node's send pipeline is
// drained first, so once the barrier releases every rank's pre-barrier
// scatters have landed — batching cannot weaken BSP.
func (s *Segment) Barrier() error {
	if err := s.node.Drain(); err != nil {
		return err
	}
	return s.node.cluster.barrier("seg/"+s.name, s.node.rank)
}

// Close unregisters the segment from the fabric. Further operations fail
// with ErrClosed.
func (s *Segment) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	return s.node.cluster.fab.Unregister(s.node.rank, segKey(s.name))
}
