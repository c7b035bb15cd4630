package dstorm

import (
	"sync"
	"sync/atomic"
	"time"

	"malt/internal/par"
)

// PipelineConfig tunes the per-destination send coalescer. The coalescer
// merges small Scatter payloads bound for the same peer into one fabric
// WriteBatch — the doorbell batching a real RDMA NIC offers — so the base
// write latency is paid once per batch instead of once per update. Batches
// are flushed by whichever bound trips first: byte budget, record count, or
// deadline. The zero value selects the defaults below.
type PipelineConfig struct {
	// Workers is the number of background deposit workers. Destinations map
	// to workers stickily (to % Workers), preserving per-destination FIFO
	// order. Default min(GOMAXPROCS, 8).
	Workers int
	// MaxBatchBytes flushes a destination's batch when its pending payload
	// reaches this many bytes. Default 256 KiB.
	MaxBatchBytes int
	// MaxBatchCount flushes a destination's batch at this many records.
	// Default 32.
	MaxBatchCount int
	// MaxDelay bounds how long a record may sit in a partial batch before a
	// deadline flush posts it anyway. Default 200 µs.
	MaxDelay time.Duration
	// QueueDepth is each worker's channel capacity in batches. A full
	// worker queue blocks the flusher — the sender-side back-pressure of
	// §3.1. Default 128.
	QueueDepth int
}

func (c PipelineConfig) withDefaults() PipelineConfig {
	if c.Workers <= 0 {
		c.Workers = par.DefaultWorkers()
	}
	if c.MaxBatchBytes <= 0 {
		c.MaxBatchBytes = 256 << 10
	}
	if c.MaxBatchCount <= 0 {
		c.MaxBatchCount = 32
	}
	if c.MaxDelay <= 0 {
		c.MaxDelay = 200 * time.Microsecond
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 128
	}
	return c
}

// PipelineStats is a snapshot of the coalescer's counters since
// EnablePipeline.
type PipelineStats struct {
	// Enqueued is the number of records accepted into the coalescer (one
	// per destination per Scatter).
	Enqueued uint64
	// Batches is the number of merged writes handed to deposit workers.
	Batches uint64
	// WritesSaved is Enqueued − Batches: fabric writes that coalescing
	// eliminated.
	WritesSaved uint64
	// BytesEnqueued is the total payload bytes accepted.
	BytesEnqueued uint64
	// BytesMerged is the payload bytes that travelled in batches of two or
	// more records — bytes that actually shared a write.
	BytesMerged uint64
	// FlushBytes/FlushCount/FlushDeadline/FlushExplicit count flushes by
	// trigger: byte budget, record count, deadline timer, Flush/Drain.
	FlushBytes    uint64
	FlushCount    uint64
	FlushDeadline uint64
	FlushExplicit uint64
	// Failed is the number of batches that failed after retries; their
	// destinations surface through AsyncFailures for the fault monitor.
	Failed uint64
	// QueuePeak is the maximum number of records pending in the coalescer
	// (across all destinations) at any instant.
	QueuePeak uint64
}

// flush triggers, indexing pipelineCounters.flushes.
const (
	flushBytes = iota
	flushCount
	flushDeadline
	flushExplicit
	numFlushCauses
)

type pipelineCounters struct {
	enqueued      atomic.Uint64
	batches       atomic.Uint64
	bytesEnqueued atomic.Uint64
	bytesMerged   atomic.Uint64
	flushes       [numFlushCauses]atomic.Uint64
	failed        atomic.Uint64
	queuePeak     atomic.Uint64
}

func (c *pipelineCounters) notePeak(pending uint64) {
	for {
		cur := c.queuePeak.Load()
		if pending <= cur || c.queuePeak.CompareAndSwap(cur, pending) {
			return
		}
	}
}

func (c *pipelineCounters) snapshot() PipelineStats {
	enq, bat := c.enqueued.Load(), c.batches.Load()
	return PipelineStats{
		Enqueued:      enq,
		Batches:       bat,
		WritesSaved:   enq - bat,
		BytesEnqueued: c.bytesEnqueued.Load(),
		BytesMerged:   c.bytesMerged.Load(),
		FlushBytes:    c.flushes[flushBytes].Load(),
		FlushCount:    c.flushes[flushCount].Load(),
		FlushDeadline: c.flushes[flushDeadline].Load(),
		FlushExplicit: c.flushes[flushExplicit].Load(),
		Failed:        c.failed.Load(),
		QueuePeak:     c.queuePeak.Load(),
	}
}

// pendKey identifies one coalescing bucket: a destination rank and the
// registered segment key written there.
type pendKey struct {
	to  int
	key string
}

// pendingBatch accumulates records for one bucket between flushes. gen
// distinguishes this accumulation from earlier ones in the same bucket so a
// late deadline timer never flushes a successor batch early.
//
// Batches are pooled: recs/bufs keep their capacity across uses, and run
// is a closure bound once (at first allocation) that delivers whatever
// bucket the batch currently carries — so a flush in steady state submits
// a reused closure instead of allocating one.
type pendingBatch struct {
	recs  [][]byte   // record views, aliasing the bufs' storage
	bufs  []*sendBuf // refcounted owners of the records; released post-delivery
	bytes int
	gen   uint64

	// Delivery binding, set by flushLocked before the batch leaves p.mu.
	p   *pipeline
	to  int
	key string
	run func()
}

var batchPool sync.Pool // of *pendingBatch; New inlined in getBatch to avoid an init cycle through run

func getBatch(gen uint64) *pendingBatch {
	if v := batchPool.Get(); v != nil {
		b := v.(*pendingBatch)
		b.gen = gen
		return b
	}
	b := &pendingBatch{gen: gen}
	b.run = func() { b.p.deliverBatch(b) }
	return b
}

func putBatch(b *pendingBatch) {
	for i := range b.recs {
		b.recs[i] = nil
	}
	for i := range b.bufs {
		b.bufs[i] = nil
	}
	b.recs = b.recs[:0]
	b.bufs = b.bufs[:0]
	b.bytes = 0
	b.p = nil
	b.key = ""
	batchPool.Put(b)
}

// flushTimer is a reusable deadline timer for one bucket accumulation.
// Timers are never cancelled — a stale firing is harmless because
// flushIfGen checks the bucket generation — and a timer returns itself to
// the pipeline's free list when it fires, so steady-state bucket creation
// re-arms a pooled timer instead of allocating one (time.AfterFunc
// allocates a timer and a closure per call).
type flushTimer struct {
	p   *pipeline
	t   *time.Timer
	k   pendKey // guarded by p.mu, written before arming
	gen uint64
}

func (ft *flushTimer) fire() {
	p := ft.p
	p.mu.Lock()
	defer p.mu.Unlock()
	k, gen := ft.k, ft.gen
	p.timers = append(p.timers, ft)
	if p.closed {
		return
	}
	if b := p.pending[k]; b != nil && b.gen == gen {
		//maltlint:allow lockedscatter -- flushLocked only hands the batch to a worker channel; the fabric write runs on the pool goroutine after p.mu is released
		p.flushLocked(k, b, flushDeadline)
	}
}

// armTimerLocked schedules a deadline flush for a freshly created bucket.
// Caller holds p.mu.
func (p *pipeline) armTimerLocked(k pendKey, gen uint64) {
	var ft *flushTimer
	if n := len(p.timers); n > 0 {
		ft = p.timers[n-1]
		p.timers[n-1] = nil
		p.timers = p.timers[:n-1]
		ft.k, ft.gen = k, gen
		ft.t.Reset(p.cfg.MaxDelay)
		return
	}
	ft = &flushTimer{p: p, k: k, gen: gen}
	ft.t = time.AfterFunc(p.cfg.MaxDelay, ft.fire)
}

// pipeline is the per-node send coalescer plus deposit worker pool (a
// sticky par.Pool: destination rank is the submit key, so batches for one
// peer deliver in FIFO order while different peers proceed in parallel).
// Locking: mu guards pending and closed; drainMu guards inflight.
// mu may be taken before drainMu (flush increments inflight); workers take
// only drainMu. Pool submissions can block while mu is held — that is
// the back-pressure path, and it cannot deadlock because workers never take
// mu.
type pipeline struct {
	node *Node
	cfg  PipelineConfig

	mu          sync.Mutex
	pending     map[pendKey]*pendingBatch
	pendingRecs int           // records currently buffered, for QueuePeak
	genSeq      uint64        // batch generation allocator
	timers      []*flushTimer // free list of expired deadline timers
	closed      bool

	pool *par.Pool

	drainMu  sync.Mutex
	drained  *sync.Cond
	inflight int // batches flushed to workers but not yet delivered

	stats pipelineCounters
}

func newPipeline(n *Node, cfg PipelineConfig) *pipeline {
	p := &pipeline{
		node:    n,
		cfg:     cfg.withDefaults(),
		pending: make(map[pendKey]*pendingBatch),
	}
	p.drained = sync.NewCond(&p.drainMu)
	p.pool = par.New(p.cfg.Workers, p.cfg.QueueDepth)
	return p
}

// enqueue accepts one pooled record copy for several destinations. The
// buffer is shared across destinations (deposits only read it) with one
// reference per destination, so a fan-out of k costs one copy, not k.
// Returns false — without consuming any references — when the pipeline has
// been closed and the caller must deliver synchronously itself.
func (p *pipeline) enqueue(peers []int, key string, sb *sendBuf) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return false
	}
	rec := sb.b
	for _, to := range peers {
		k := pendKey{to: to, key: key}
		b := p.pending[k]
		if b == nil {
			p.genSeq++
			//maltlint:allow lockedscatter -- getBatch only binds the deliver closure; deliverBatch runs on a pool worker after p.mu is released
			b = getBatch(p.genSeq)
			p.pending[k] = b
			p.armTimerLocked(k, b.gen)
		}
		b.recs = append(b.recs, rec)
		b.bufs = append(b.bufs, sb)
		b.bytes += len(rec)
		p.pendingRecs++
		p.stats.enqueued.Add(1)
		p.stats.bytesEnqueued.Add(uint64(len(rec)))
		p.stats.notePeak(uint64(p.pendingRecs))
		switch {
		case b.bytes >= p.cfg.MaxBatchBytes:
			//maltlint:allow lockedscatter -- flushLocked only hands the batch to a worker channel; the fabric write runs on the pool goroutine after p.mu is released
			p.flushLocked(k, b, flushBytes)
		case len(b.recs) >= p.cfg.MaxBatchCount:
			//maltlint:allow lockedscatter -- flushLocked only hands the batch to a worker channel; the fabric write runs on the pool goroutine after p.mu is released
			p.flushLocked(k, b, flushCount)
		}
	}
	return true
}

// flushLocked hands one bucket's batch to its sticky worker. Caller holds
// p.mu. The channel send may block on a full worker queue (back-pressure).
func (p *pipeline) flushLocked(k pendKey, b *pendingBatch, cause int) {
	delete(p.pending, k)
	p.pendingRecs -= len(b.recs)
	p.stats.batches.Add(1)
	p.stats.flushes[cause].Add(1)
	if len(b.recs) >= 2 {
		p.stats.bytesMerged.Add(uint64(b.bytes))
	}
	p.drainMu.Lock()
	p.inflight++
	p.drainMu.Unlock()
	b.p, b.to, b.key = p, k.to, k.key
	p.pool.Submit(b.to, b.run)
}

// flushAllLocked flushes every non-empty bucket. Caller holds p.mu.
func (p *pipeline) flushAllLocked(cause int) {
	for k, b := range p.pending {
		p.flushLocked(k, b, cause)
	}
}

// flush posts all partial batches to the workers without waiting for
// delivery (the non-blocking barrier).
func (p *pipeline) flush() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.closed {
		//maltlint:allow lockedscatter -- batches are handed to worker channels under p.mu by design; delivery happens on pool goroutines
		p.flushAllLocked(flushExplicit)
	}
}

// drain flushes all partial batches and blocks until every flushed batch
// has been delivered (or exhausted its retries). After drain returns, no
// update accepted before the call is still in flight.
func (p *pipeline) drain() {
	p.flush()
	p.drainMu.Lock()
	for p.inflight > 0 {
		p.drained.Wait()
	}
	p.drainMu.Unlock()
}

// stop drains and shuts the worker pool down. The pipeline is unusable
// afterwards; enqueue returns false.
func (p *pipeline) stop() {
	p.mu.Lock()
	p.closed = true
	//maltlint:allow lockedscatter -- closing flush hands remaining batches to worker channels; delivery happens on pool goroutines after p.mu is released
	p.flushAllLocked(flushExplicit)
	p.mu.Unlock()
	p.pool.Close()
}

// deliver posts one merged batch on a pool worker and settles the drain
// accounting.
func (p *pipeline) deliverBatch(b *pendingBatch) {
	if err := p.node.writeBatchWithRetry(b.to, b.key, b.recs); err != nil {
		p.stats.failed.Add(1)
		p.node.noteAsyncFailure(b.to)
	}
	// The fabric serialized every record before returning; drop this
	// batch's references and recycle the batch.
	for _, sb := range b.bufs {
		sb.release()
	}
	putBatch(b)
	p.drainMu.Lock()
	p.inflight--
	if p.inflight == 0 {
		p.drained.Broadcast()
	}
	p.drainMu.Unlock()
}

// EnablePipeline switches the node's scatter path to the coalescing
// pipeline: Scatter returns after enqueue, and merged batches are posted by
// background workers with the node's retry policy. Must be paired with
// DisablePipeline before the node is discarded. Enabling while already
// enabled replaces nothing — the first configuration stays.
func (n *Node) EnablePipeline(cfg PipelineConfig) {
	n.pipeMu.Lock()
	defer n.pipeMu.Unlock()
	if n.pipe != nil {
		return
	}
	n.pipe = newPipeline(n, cfg)
}

// DisablePipeline drains the coalescer, stops the worker pool, and returns
// the node to the plain write path.
func (n *Node) DisablePipeline() {
	n.pipeMu.Lock()
	p := n.pipe
	n.pipe = nil
	n.pipeMu.Unlock()
	if p != nil {
		p.stop()
	}
}

// PipelineEnabled reports whether the coalescing pipeline is active.
func (n *Node) PipelineEnabled() bool {
	n.pipeMu.Lock()
	defer n.pipeMu.Unlock()
	return n.pipe != nil
}

// Flush posts all partially filled batches to the deposit workers without
// waiting for delivery. ASP trainers may call it at iteration edges to cap
// staleness without stalling.
func (n *Node) Flush() {
	n.pipeMu.Lock()
	p := n.pipe
	n.pipeMu.Unlock()
	if p != nil {
		p.flush()
	}
}

// Drain blocks until every update accepted by the pipeline before the call
// has been delivered or has exhausted its retries (failures are reported
// via AsyncFailures). BSP and SSP call this before their barriers so
// consistency semantics are unchanged by batching. A no-op when the
// pipeline is disabled.
func (n *Node) Drain() error {
	n.pipeMu.Lock()
	p := n.pipe
	n.pipeMu.Unlock()
	if p != nil {
		p.drain()
	}
	return nil
}

// PipelineOutstanding reports whether the pipeline currently holds work —
// buffered records or batches handed to workers but not yet delivered.
// core's Advance polls this at the iteration edge to charge the drain that
// follows to the scatter phase. Always false when the pipeline is disabled
// (every write completed synchronously). Racy by nature — a deposit may
// complete between the two checks — which is fine for accounting.
func (n *Node) PipelineOutstanding() bool {
	n.pipeMu.Lock()
	p := n.pipe
	n.pipeMu.Unlock()
	if p == nil {
		return false
	}
	p.mu.Lock()
	pending := p.pendingRecs
	p.mu.Unlock()
	if pending > 0 {
		return true
	}
	p.drainMu.Lock()
	inflight := p.inflight
	p.drainMu.Unlock()
	return inflight > 0
}

// PipelineStats returns a snapshot of the coalescer's counters; zero value
// when the pipeline was never enabled.
func (n *Node) PipelineStats() PipelineStats {
	n.pipeMu.Lock()
	p := n.pipe
	n.pipeMu.Unlock()
	if p == nil {
		return PipelineStats{}
	}
	return p.stats.snapshot()
}
