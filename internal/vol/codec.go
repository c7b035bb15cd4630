package vol

import (
	"encoding/binary"
	"fmt"
	"math"
	"unsafe"

	"malt/internal/dstorm"
	"malt/internal/ml/linalg"
)

// Wire formats.
//
// Dense:  dim float64s, little-endian, 8*dim bytes.
// Sparse: uint32 count, count int32 indices, count float64 values.
//
// Both formats are fixed-layout so a torn read (mixed old/new bytes) decodes
// to *numbers* — garbage values, not parser crashes — matching the paper's
// observation that stochastic training tolerates occasional corrupt updates.
// The one exception is a torn sparse count, which is bounds-checked.
//
// Dense wire image. On a little-endian host a dense payload is byte for
// byte the float64s in memory, so an uncompressed Dense vector is stored
// as its own wire frame: Create allocates wireHead float64s of headroom in
// front of the data, dstorm stamps its header into the last HeaderSize
// bytes of that headroom, and the frame goes to the transport without an
// encode or a header copy. The receiver reads a dense payload in place
// (denseView) out of dstorm's gather snapshot, which places payloads
// 8-byte aligned. Big-endian hosts, and any payload that is misaligned or
// of the wrong length, take the PutUint64/Float64frombits loops below.

// nativeLE reports whether the host stores float64s in the wire's byte
// order.
var nativeLE = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// wireHead is the headroom, in float64s, in front of a framed vector's
// data; the frame starts HeaderSize bytes before the data.
const wireHead = 3

// The headroom must hold dstorm's header (a negative constant does not
// convert to uint, so this fails to compile if it does not).
const _ = uint(8*wireHead - dstorm.HeaderSize)

// newWireImage allocates a dim-long vector with dstorm headroom in front
// and returns the data and the frame (header + data bytes) over the same
// memory.
func newWireImage(dim int) (data []float64, frame []byte) {
	back := make([]float64, wireHead+dim)
	raw := unsafe.Slice((*byte)(unsafe.Pointer(&back[0])), 8*len(back))
	return back[wireHead:], raw[8*wireHead-dstorm.HeaderSize:]
}

// denseView returns a dense payload as dim float64s sharing its memory, or
// nil when it cannot: on a big-endian host, when the payload is not 8-byte
// aligned, or when it is not 8*dim bytes long.
func denseView(payload []byte, dim int) []float64 {
	if !nativeLE || dim <= 0 || len(payload) != 8*dim {
		return nil
	}
	p := unsafe.Pointer(unsafe.SliceData(payload))
	if uintptr(p)%8 != 0 {
		return nil
	}
	return unsafe.Slice((*float64)(p), dim)
}

func (v *Vector) encode(data []float64) ([]byte, error) {
	switch v.typ {
	case Dense:
		return encodeDense(v.encBuf, data), nil
	case Sparse:
		return encodeSparseDense(v.encBuf, data)
	default:
		return nil, fmt.Errorf("vol: unknown type %d", v.typ)
	}
}

func encodeDense(buf []byte, data []float64) []byte {
	out := buf[:8*len(data)]
	for i, f := range data {
		binary.LittleEndian.PutUint64(out[8*i:], math.Float64bits(f))
	}
	return out
}

// decodeDenseInto decodes a dense payload into dst, which must be exactly
// dim long (each update slot owns its storage because the UDF receives all
// of a gather's updates together).
func decodeDenseInto(dst []float64, payload []byte) error {
	if len(payload) != 8*len(dst) {
		return fmt.Errorf("vol: dense payload %d bytes, want %d", len(payload), 8*len(dst))
	}
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(payload[8*i:]))
	}
	return nil
}

// encodeSparseDense encodes the nonzero entries of data (v != 0, as
// linalg.FromDense selects them: -0.0 is skipped, NaN kept) in one pass
// over data. Indices land in place; values land at the offset a full
// buffer would give them and move down behind the indices once the count
// is known.
func encodeSparseDense(buf []byte, data []float64) ([]byte, error) {
	capNNZ := (len(buf) - 4) / 12
	vals := 4 + 4*capNNZ
	nnz := 0
	for i, f := range data {
		if f == 0 {
			continue
		}
		if nnz < capNNZ {
			binary.LittleEndian.PutUint32(buf[4+4*nnz:], uint32(i))
			binary.LittleEndian.PutUint64(buf[vals+8*nnz:], math.Float64bits(f))
		}
		nnz++
	}
	need := 4 + 12*nnz
	if nnz > capNNZ {
		return nil, fmt.Errorf("vol: sparse update with %d entries exceeds MaxNNZ capacity (%d bytes > %d)",
			nnz, need, len(buf))
	}
	binary.LittleEndian.PutUint32(buf[0:4], uint32(nnz))
	copy(buf[4+4*nnz:need], buf[vals:vals+8*nnz])
	return buf[:need], nil
}

func encodeSparse(buf []byte, sv *linalg.SparseVector) ([]byte, error) {
	need := 4 + 12*sv.NNZ()
	if need > len(buf) {
		return nil, fmt.Errorf("vol: sparse update with %d entries exceeds MaxNNZ capacity (%d bytes > %d)",
			sv.NNZ(), need, len(buf))
	}
	out := buf[:need]
	binary.LittleEndian.PutUint32(out[0:4], uint32(sv.NNZ()))
	off := 4
	for _, idx := range sv.Idx {
		binary.LittleEndian.PutUint32(out[off:], uint32(idx))
		off += 4
	}
	for _, val := range sv.Val {
		binary.LittleEndian.PutUint64(out[off:], math.Float64bits(val))
		off += 8
	}
	return out, nil
}

func decodeSparse(payload []byte) (*linalg.SparseVector, error) {
	sv := &linalg.SparseVector{}
	if err := decodeSparseInto(sv, payload); err != nil {
		return nil, err
	}
	return sv, nil
}

// decodeSparseInto decodes a sparse payload into sv, reusing its Idx/Val
// storage when the capacity suffices (the gather engine's scratch slots
// reach zero-allocation steady state this way).
func decodeSparseInto(sv *linalg.SparseVector, payload []byte) error {
	if len(payload) < 4 {
		return fmt.Errorf("vol: sparse payload too short (%d bytes)", len(payload))
	}
	count := int(binary.LittleEndian.Uint32(payload[0:4]))
	if count < 0 || 4+12*count > len(payload) {
		return fmt.Errorf("vol: sparse payload count %d exceeds payload of %d bytes", count, len(payload))
	}
	if cap(sv.Idx) < count {
		sv.Idx = make([]int32, count)
	} else {
		sv.Idx = sv.Idx[:count]
	}
	if cap(sv.Val) < count {
		sv.Val = make([]float64, count)
	} else {
		sv.Val = sv.Val[:count]
	}
	off := 4
	for i := 0; i < count; i++ {
		sv.Idx[i] = int32(binary.LittleEndian.Uint32(payload[off:]))
		off += 4
	}
	for i := 0; i < count; i++ {
		sv.Val[i] = math.Float64frombits(binary.LittleEndian.Uint64(payload[off:]))
		off += 8
	}
	return nil
}
