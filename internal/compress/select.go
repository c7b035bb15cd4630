package compress

import "math"

// Exact top-k selection in O(dim), without a comparison sort.
//
// A coordinate's order key is the bit pattern of its magnitude,
// Float64bits(|v|), with every NaN mapped to +Inf's pattern: unsigned order
// on keys is magnitude order, non-finite entries share the top key, and ±0
// is the only value with key 0. Selecting "k largest magnitudes, ties to the
// lower index" is then: find T, the k-th largest key, and emit in one
// ascending sweep every index whose key exceeds T plus the first
// k − count(key > T) indices whose key equals T. The sweep emits ascending
// indices, so nothing is ever sorted.
//
// T is found by MSB-first radix refinement. One pass histograms the keys'
// top 16 bits (sign, exponent, 4 mantissa bits) and a downward scan of the
// histogram names the bucket T falls in; a second pass emits every index at
// or above that bucket. Only that bucket's members — a few percent of a
// gradient-like input — are undecided, and four 12-bit rounds over their
// low 48 bits narrow them to T exactly. Two passes over the data, the rest
// proportional to k.

const (
	absMask = 1<<63 - 1
	infBits = 0x7FF << 52

	topShift   = 48
	topBuckets = 1 << 15 // key>>topShift of any sign-cleared pattern, NaNs included
	infBucket  = infBits >> topShift
	digBits    = 12
	digBuckets = 1 << digBits
)

// selKey is the selection order key of v.
func selKey(v float64) uint64 {
	b := math.Float64bits(v) & absMask
	if b > infBits {
		b = infBits
	}
	return b
}

// selector holds SelectTopK's scratch so a Plan reuses it across updates: a
// histogram on the goroutine stack or a fresh one per call costs more
// resident memory than the residuals themselves.
type selector struct {
	hist []uint32 // topBuckets + digBuckets counters
	cand []uint64 // keys of the threshold bucket's members
}

// topK returns the indices of the k largest-magnitude nonzero entries of
// data, ascending; see SelectTopK for the contract. dst is reused when its
// capacity reaches len(data)+1.
func (s *selector) topK(data []float64, k int, dst []int32) []int32 {
	if k <= 0 || len(data) == 0 {
		return dst[:0]
	}
	if s.hist == nil {
		s.hist = make([]uint32, topBuckets+digBuckets)
	}
	top := s.hist[:topBuckets]
	clear(top)
	zeros := 0
	for _, v := range data {
		b := math.Float64bits(v) & absMask
		top[b>>topShift]++
		zeros += int((b - 1) >> 63) // b == 0
	}
	top[0] -= uint32(zeros)
	// NaN patterns sit above +Inf's bucket; they rank with it.
	for b := infBucket + 1; b < topBuckets; b++ {
		top[infBucket] += top[b]
	}

	// lowKey is the smallest key the sweep emits; emitted counts them.
	lowKey, emitted, need := uint64(1), len(data)-zeros, 0
	if emitted > k {
		above, b := 0, infBucket
		for above+int(top[b]) < k {
			above += int(top[b])
			b--
		}
		need = k - above // members of bucket b to keep, 1..top[b]
		emitted = above + int(top[b])
		lowKey = max(uint64(b)<<topShift, 1)
	}

	// The sweep stores every index and advances only past the emitted ones,
	// so the store needs one slot of slack after the last.
	if cap(dst) < len(data)+1 {
		dst = make([]int32, len(data)+1)
	}
	idx := dst[:emitted+1]
	n := 0
	for i, v := range data {
		b := math.Float64bits(v) & absMask
		idx[n] = int32(i)
		n += int((lowKey - 1 - b) >> 63) // b >= lowKey
	}
	idx = idx[:emitted]
	if emitted <= k {
		return idx
	}

	// Refine within the threshold bucket: everything emitted from a higher
	// bucket is selected, and need of this bucket's members are.
	lowTop := lowKey >> topShift
	cand := s.cand[:0]
	for _, ix := range idx {
		if key := selKey(data[ix]); key>>topShift == lowTop {
			cand = append(cand, key)
		}
	}
	s.cand = cand
	t, ties := s.kthLargest(cand, need)
	n = 0
	for _, ix := range idx {
		key := selKey(data[ix])
		keep := key > t
		if key == t && ties > 0 {
			keep = true
			ties--
		}
		if keep {
			idx[n] = ix
			n++
		}
	}
	return idx[:n]
}

// kthLargest returns the need-th largest of keys, which must agree above
// topShift, and how many entries equal to it fall inside the top need. keys
// is consumed.
func (s *selector) kthLargest(keys []uint64, need int) (t uint64, ties int) {
	dig := s.hist[topBuckets:]
	for shift := topShift - digBits; shift >= 0; shift -= digBits {
		clear(dig)
		for _, key := range keys {
			dig[(key>>shift)&(digBuckets-1)]++
		}
		d := uint64(digBuckets - 1)
		for int(dig[d]) < need {
			need -= int(dig[d])
			d--
		}
		n := 0
		for _, key := range keys {
			if (key>>shift)&(digBuckets-1) == d {
				keys[n] = key
				n++
			}
		}
		keys = keys[:n]
	}
	return keys[0], need
}

// SelectTopK returns the indices of the k largest-magnitude nonzero entries
// of data, ascending. Non-finite entries (NaN, ±Inf) rank above every
// finite magnitude — they must ship, or error feedback would carry them
// forward forever — and ties break toward the lower index, so the selection
// is deterministic for any input. k is clamped to the number of nonzero
// entries (k <= 0 selects nothing; k >= that count selects them all). dst
// is reused when its capacity reaches len(data)+1. Each call allocates its
// own scratch; planning reuses a Plan's.
func SelectTopK(data []float64, k int, dst []int32) []int32 {
	var s selector
	return s.topK(data, k, dst)
}
