package dstorm

import (
	"sync"
	"sync/atomic"
)

// The coalescing pipeline hands the caller's encode buffer back
// immediately and ships a private copy. Those copies used to be fresh
// allocations per update — at scatter rates that is the dominant
// allocation source on the send side. sendBuf makes the copy
// pooled and refcounted: writeMulti takes one copy shared by every
// destination (the fabric only reads it), and the buffer returns to the
// pool when the last destination's delivery retires it.
//
// Recycling after delivery is safe because the stream fabric serializes
// the payload into its own pooled wire buffer before Write/WriteBatch
// returns — the fabric never retains a reference to ours.
type sendBuf struct {
	b    []byte
	refs atomic.Int32
}

var sendBufPool = sync.Pool{New: func() any {
	sendBufMisses.Add(1)
	return new(sendBuf)
}}

// Pool traffic counters, read by TestSendScratchSteadyState: a warmed-up
// steady state must serve copies from the pool (hits grow, misses don't).
var (
	sendBufMisses atomic.Uint64 // fresh sendBuf allocations (pool misses)
	sendBufGets   atomic.Uint64 // total acquisitions
)

// newSendBuf copies payload into a pooled buffer with the given initial
// refcount (one per eventual release call).
func newSendBuf(payload []byte, refs int32) *sendBuf {
	sendBufGets.Add(1)
	s := sendBufPool.Get().(*sendBuf)
	s.b = append(s.b[:0], payload...)
	s.refs.Store(refs)
	return s
}

// release drops one reference; the last one returns the buffer (capacity
// retained) to the pool.
func (s *sendBuf) release() {
	if s.refs.Add(-1) == 0 {
		sendBufPool.Put(s)
	}
}

// releaseN drops n references at once — the undo path when a batch of
// destinations is abandoned before delivery (e.g. the pipeline closed
// between refcounting and enqueue).
func (s *sendBuf) releaseN(n int32) {
	if s.refs.Add(-n) == 0 {
		sendBufPool.Put(s)
	}
}
