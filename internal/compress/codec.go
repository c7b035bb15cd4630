package compress

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Frame wire format. Every compressed payload — a whole update or one
// gradient bucket's coordinate range — is one frame:
//
//	[0]   magic 0xC6
//	[1]   codec ID
//	[2:6] uint32 count — coordinates covered by this frame
//	[6:]  codec body (below)
//
// Codec bodies (coordinate indices are absolute; a frame for [lo, lo+count)
// is decoded knowing lo from the enclosing bucket header, or lo = 0 for a
// whole-vector frame):
//
//	none:   count float64s, little-endian.
//	topk:   uint32 k, then k × (uint32 idx, float64 val), idx strictly
//	        ascending within [lo, lo+count).
//	int8:   a run of 256-coordinate blocks aligned to absolute coordinate
//	        0 (the first and last blocks of a mid-vector range are
//	        partial). Each block: uint8 mode; mode 0 = quantized
//	        (int8 exponent e, then one int8 per coordinate, value q·2^e);
//	        mode 1 = raw (one float64 per coordinate — non-finite or
//	        astronomically large blocks pass through losslessly).
//	topk+int8 (hybrid): uint32 k, uint32 firstPos (the global selection
//	        position of the first pair — group boundaries are global, so a
//	        bucket's frame must say where in the selection it starts),
//	        then k pairs in 64-pair groups: at each group boundary a
//	        uint8 mode (+ int8 exponent when quantized), then per pair a
//	        uint32 idx and either an int8 q or a raw float64.
//
// Decoders reject truncated, oversized and structurally invalid bodies
// (bad magic, unknown codec, count mismatch, out-of-range or non-ascending
// indices) with errors — a corrupt frame must never panic or silently
// decode to garbage lengths.

const (
	frameMagic      = 0xC6
	frameHeaderSize = 6

	codecNoneID   byte = 0
	codecTopKID   byte = 1
	codecInt8ID   byte = 2
	codecHybridID byte = 3

	// BlockCoords is the int8 codec's quantization-block size: each
	// absolute-aligned block of this many coordinates shares one
	// power-of-two scale.
	BlockCoords = 256
	// GroupPairs is the hybrid codec's quantization-group size over the
	// selected pairs.
	GroupPairs = 64
)

// AppendFrame appends the complete frame (header + body) for coordinates
// [lo, hi) of a planned update to dst.
func AppendFrame(dst []byte, p *Plan, lo, hi int) []byte {
	dst = append(dst, frameMagic, p.codec.ID())
	dst = binary.LittleEndian.AppendUint32(dst, uint32(hi-lo))
	return p.codec.EncodeRange(dst, p, lo, hi)
}

// Decode decodes one frame covering exactly len(out) coordinates starting
// at absolute coordinate lo into out.
func Decode(out []float64, lo int, frame []byte) error {
	if len(frame) < frameHeaderSize {
		return fmt.Errorf("compress: frame too short (%d bytes)", len(frame))
	}
	if frame[0] != frameMagic {
		return fmt.Errorf("compress: bad frame magic 0x%02X", frame[0])
	}
	c := byID(frame[1])
	if c == nil {
		return fmt.Errorf("compress: unknown codec ID %d", frame[1])
	}
	count := int(binary.LittleEndian.Uint32(frame[2:6]))
	if count != len(out) {
		return fmt.Errorf("compress: frame covers %d coords, want %d", count, len(out))
	}
	return c.DecodeRange(out, lo, frame[frameHeaderSize:])
}

// FrameCodec reports which registered codec a frame claims to carry
// (diagnostics; does not validate the body).
func FrameCodec(frame []byte) (Codec, error) {
	if len(frame) < frameHeaderSize {
		return nil, fmt.Errorf("compress: frame too short (%d bytes)", len(frame))
	}
	if frame[0] != frameMagic {
		return nil, fmt.Errorf("compress: bad frame magic 0x%02X", frame[0])
	}
	c := byID(frame[1])
	if c == nil {
		return nil, fmt.Errorf("compress: unknown codec ID %d", frame[1])
	}
	return c, nil
}

// MaxFrameBytes bounds the frame size for an n-coordinate range under c.
func MaxFrameBytes(c Codec, n int) int {
	return frameHeaderSize + c.MaxBodyBytes(n)
}

// none — framing-only passthrough, the control arm of the codec registry.
type noneCodec struct{}

func (noneCodec) Name() string      { return "none" }
func (noneCodec) ID() byte          { return codecNoneID }
func (noneCodec) RatioDriven() bool { return false }

func (noneCodec) MaxBodyBytes(n int) int { return 8 * n }

func (noneCodec) Plan(p *Plan, acc []float64, ratio float64) {
	p.reset(noneCodec{}, len(acc))
	copy(p.Recon, acc)
}

func (noneCodec) EncodeRange(dst []byte, p *Plan, lo, hi int) []byte {
	for _, v := range p.Recon[lo:hi] {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
	}
	return dst
}

func (noneCodec) DecodeRange(out []float64, lo int, body []byte) error {
	if len(body) != 8*len(out) {
		return fmt.Errorf("compress: none body %d bytes, want %d", len(body), 8*len(out))
	}
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(body[8*i:]))
	}
	return nil
}

// topk — global top-k sparsification: ship the k largest-magnitude
// coordinates of the residual-corrected update, drop (and carry forward)
// the rest.
type topkCodec struct{}

func (topkCodec) Name() string      { return "topk" }
func (topkCodec) ID() byte          { return codecTopKID }
func (topkCodec) RatioDriven() bool { return true }

func (topkCodec) MaxBodyBytes(n int) int { return 4 + 12*n }

func (topkCodec) Plan(p *Plan, acc []float64, ratio float64) {
	p.resetSparse(topkCodec{}, len(acc))
	p.selIdx = p.sel.topK(acc, ratioK(ratio, len(acc)), p.selIdx)
	for _, ix := range p.selIdx {
		p.Recon[ix] = acc[ix]
	}
}

// selRange returns the selection positions [a, b) whose coordinates fall
// in [lo, hi). selIdx is ascending, so two binary searches suffice.
func selRange(selIdx []int32, lo, hi int) (a, b int) {
	a = lowerBound(selIdx, int32(lo))
	b = lowerBound(selIdx, int32(hi))
	return a, b
}

// lowerBound returns the first position in asc whose value is >= x.
func lowerBound(asc []int32, x int32) int {
	lo, hi := 0, len(asc)
	for lo < hi {
		mid := (lo + hi) / 2
		if asc[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

func (topkCodec) EncodeRange(dst []byte, p *Plan, lo, hi int) []byte {
	a, b := selRange(p.selIdx, lo, hi)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(b-a))
	for _, ix := range p.selIdx[a:b] {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(ix))
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(p.Recon[ix]))
	}
	return dst
}

func (topkCodec) DecodeRange(out []float64, lo int, body []byte) error {
	if len(body) < 4 {
		return fmt.Errorf("compress: topk body too short (%d bytes)", len(body))
	}
	k := int(binary.LittleEndian.Uint32(body[0:4]))
	if k > len(out) || len(body) != 4+12*k {
		return fmt.Errorf("compress: topk body %d bytes with k=%d over %d coords", len(body), k, len(out))
	}
	for i := range out {
		out[i] = 0
	}
	off := 4
	prev := -1
	for i := 0; i < k; i++ {
		ix := int(binary.LittleEndian.Uint32(body[off:])) - lo
		val := math.Float64frombits(binary.LittleEndian.Uint64(body[off+4:]))
		off += 12
		if ix <= prev || ix >= len(out) {
			return fmt.Errorf("compress: topk index %d out of order or range (prev %d, count %d)", ix+lo, prev+lo, len(out))
		}
		prev = ix
		out[ix] = val
	}
	return nil
}

// int8 — linear quantization with a per-block power-of-two scale: every
// absolute-aligned block of BlockCoords coordinates ships one exponent and
// one int8 per coordinate (~7.8x), falling back to raw passthrough for
// blocks that cannot be quantized exactly.
type int8Codec struct{}

func (int8Codec) Name() string      { return "int8" }
func (int8Codec) ID() byte          { return codecInt8ID }
func (int8Codec) RatioDriven() bool { return false }

func (int8Codec) MaxBodyBytes(n int) int {
	blocks := n/BlockCoords + 2 // a range may start and end mid-block
	return 8*n + 2*blocks
}

func (int8Codec) Plan(p *Plan, acc []float64, ratio float64) {
	dim := len(acc)
	p.reset(int8Codec{}, dim)
	nBlocks := (dim + BlockCoords - 1) / BlockCoords
	p.exps = resizeI8(p.exps, nBlocks)
	p.raw = resizeBool(p.raw, nBlocks)
	p.q = resizeI8(p.q, dim)
	for b := 0; b < nBlocks; b++ {
		blo := b * BlockCoords
		bhi := min(blo+BlockCoords, dim)
		maxAbs, finite := blockMaxAbs(acc[blo:bhi])
		e, ok := pow2Exp(maxAbs)
		if !finite || !ok {
			p.raw[b] = true
			copy(p.Recon[blo:bhi], acc[blo:bhi])
			continue
		}
		p.raw[b] = false
		p.exps[b] = int8(e)
		scale := math.Ldexp(1, e)
		for i := blo; i < bhi; i++ {
			p.q[i], p.Recon[i] = quantize(acc[i], scale)
		}
	}
}

// blockMaxAbs returns the largest magnitude in vals and whether every
// entry is finite.
func blockMaxAbs(vals []float64) (maxAbs float64, finite bool) {
	finite = true
	for _, v := range vals {
		a := math.Abs(v)
		if math.IsNaN(v) || math.IsInf(v, 0) {
			finite = false
		}
		if a > maxAbs {
			maxAbs = a
		}
	}
	return maxAbs, finite
}

func (int8Codec) EncodeRange(dst []byte, p *Plan, lo, hi int) []byte {
	for s := lo; s < hi; {
		b := s / BlockCoords
		e := min(hi, (b+1)*BlockCoords)
		if p.raw[b] {
			dst = append(dst, 1)
			for _, v := range p.Recon[s:e] {
				dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
			}
		} else {
			dst = append(dst, 0, byte(p.exps[b]))
			for _, q := range p.q[s:e] {
				dst = append(dst, byte(q))
			}
		}
		s = e
	}
	return dst
}

func (int8Codec) DecodeRange(out []float64, lo int, body []byte) error {
	off := 0
	for s := 0; s < len(out); {
		b := (lo + s) / BlockCoords
		e := min(len(out), (b+1)*BlockCoords-lo)
		cnt := e - s
		if off >= len(body) {
			return fmt.Errorf("compress: int8 body truncated at block %d", b)
		}
		mode := body[off]
		off++
		switch mode {
		case 1: // raw
			if off+8*cnt > len(body) {
				return fmt.Errorf("compress: int8 raw block %d truncated", b)
			}
			for i := 0; i < cnt; i++ {
				out[s+i] = math.Float64frombits(binary.LittleEndian.Uint64(body[off+8*i:]))
			}
			off += 8 * cnt
		case 0: // quantized
			if off+1+cnt > len(body) {
				return fmt.Errorf("compress: int8 quantized block %d truncated", b)
			}
			exp := int8(body[off])
			off++
			for i := 0; i < cnt; i++ {
				out[s+i] = dequantize(int8(body[off+i]), exp)
			}
			off += cnt
		default:
			return fmt.Errorf("compress: int8 block %d has unknown mode %d", b, mode)
		}
		s = e
	}
	if off != len(body) {
		return fmt.Errorf("compress: int8 body has %d trailing bytes", len(body)-off)
	}
	return nil
}

// hybrid — topk selection plus int8 quantization of the selected values
// (~5 bytes per shipped coordinate instead of 12): the selected pairs form
// global 64-pair groups, each sharing one power-of-two exponent.
type hybridCodec struct{}

func (hybridCodec) Name() string      { return "topk+int8" }
func (hybridCodec) ID() byte          { return codecHybridID }
func (hybridCodec) RatioDriven() bool { return true }

func (hybridCodec) MaxBodyBytes(n int) int {
	groups := n/GroupPairs + 2
	return 8 + 12*n + 2*groups // worst case: every group raw
}

func (hybridCodec) Plan(p *Plan, acc []float64, ratio float64) {
	dim := len(acc)
	p.resetSparse(hybridCodec{}, dim)
	p.selIdx = p.sel.topK(acc, ratioK(ratio, dim), p.selIdx)
	k := len(p.selIdx)
	nGroups := (k + GroupPairs - 1) / GroupPairs
	p.exps = resizeI8(p.exps, nGroups)
	p.raw = resizeBool(p.raw, nGroups)
	p.q = resizeI8(p.q, k)
	for g := 0; g < nGroups; g++ {
		glo := g * GroupPairs
		ghi := min(glo+GroupPairs, k)
		maxAbs, finite := 0.0, true
		for _, ix := range p.selIdx[glo:ghi] {
			a := math.Abs(acc[ix])
			if math.IsNaN(acc[ix]) || math.IsInf(acc[ix], 0) {
				finite = false
			}
			if a > maxAbs {
				maxAbs = a
			}
		}
		e, ok := pow2Exp(maxAbs)
		if !finite || !ok {
			p.raw[g] = true
			for _, ix := range p.selIdx[glo:ghi] {
				p.Recon[ix] = acc[ix]
			}
			continue
		}
		p.raw[g] = false
		p.exps[g] = int8(e)
		scale := math.Ldexp(1, e)
		for pos := glo; pos < ghi; pos++ {
			ix := p.selIdx[pos]
			p.q[pos], p.Recon[ix] = quantize(acc[ix], scale)
		}
	}
}

func (hybridCodec) EncodeRange(dst []byte, p *Plan, lo, hi int) []byte {
	a, b := selRange(p.selIdx, lo, hi)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(b-a))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(a))
	for pos := a; pos < b; pos++ {
		g := pos / GroupPairs
		if pos == a || pos%GroupPairs == 0 {
			if p.raw[g] {
				dst = append(dst, 1)
			} else {
				dst = append(dst, 0, byte(p.exps[g]))
			}
		}
		ix := p.selIdx[pos]
		dst = binary.LittleEndian.AppendUint32(dst, uint32(ix))
		if p.raw[g] {
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(p.Recon[ix]))
		} else {
			dst = append(dst, byte(p.q[pos]))
		}
	}
	return dst
}

func (hybridCodec) DecodeRange(out []float64, lo int, body []byte) error {
	if len(body) < 8 {
		return fmt.Errorf("compress: hybrid body too short (%d bytes)", len(body))
	}
	k := int(binary.LittleEndian.Uint32(body[0:4]))
	firstPos := int(binary.LittleEndian.Uint32(body[4:8]))
	if k > len(out) || firstPos < 0 {
		return fmt.Errorf("compress: hybrid body claims k=%d firstPos=%d over %d coords", k, firstPos, len(out))
	}
	for i := range out {
		out[i] = 0
	}
	off := 8
	prev := -1
	raw := false
	var exp int8
	for i := 0; i < k; i++ {
		pos := firstPos + i
		if i == 0 || pos%GroupPairs == 0 {
			if off >= len(body) {
				return fmt.Errorf("compress: hybrid group header truncated at pair %d", i)
			}
			switch body[off] {
			case 1:
				raw = true
				off++
			case 0:
				if off+2 > len(body) {
					return fmt.Errorf("compress: hybrid group exponent truncated at pair %d", i)
				}
				raw = false
				exp = int8(body[off+1])
				off += 2
			default:
				return fmt.Errorf("compress: hybrid group has unknown mode %d", body[off])
			}
		}
		need := 5
		if raw {
			need = 12
		}
		if off+need > len(body) {
			return fmt.Errorf("compress: hybrid pair %d truncated", i)
		}
		ix := int(binary.LittleEndian.Uint32(body[off:])) - lo
		if ix <= prev || ix >= len(out) {
			return fmt.Errorf("compress: hybrid index %d out of order or range (prev %d, count %d)", ix+lo, prev+lo, len(out))
		}
		prev = ix
		if raw {
			out[ix] = math.Float64frombits(binary.LittleEndian.Uint64(body[off+4:]))
		} else {
			out[ix] = dequantize(int8(body[off+4]), exp)
		}
		off += need
	}
	if off != len(body) {
		return fmt.Errorf("compress: hybrid body has %d trailing bytes", len(body)-off)
	}
	return nil
}

// resizeI8 and resizeBool grow-or-reslice scratch without reallocating in
// steady state.
func resizeI8(s []int8, n int) []int8 {
	if cap(s) < n {
		return make([]int8, n)
	}
	return s[:n]
}

func resizeBool(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	return s[:n]
}
