package dstorm

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
	"unsafe"
)

// TestScatterFramedMatchesScatter: a framed scatter stamps the header into
// the caller's headroom and delivers the same update a copying Scatter
// does; gather snapshots place every payload 8-byte aligned.
func TestScatterFramedMatchesScatter(t *testing.T) {
	_, segs := newTestCluster(t, 2, SegmentOptions{ObjectSize: 64})
	payload := []byte("framed payload, 8-aligned on arrival")
	frame := append(make([]byte, HeaderSize), payload...)
	if _, err := segs[0].Scatter(payload, 3); err != nil {
		t.Fatal(err)
	}
	if _, err := segs[0].ScatterFramed(frame, 4); err != nil {
		t.Fatal(err)
	}
	if seq, iter, n := binary.LittleEndian.Uint64(frame[0:8]), binary.LittleEndian.Uint64(frame[8:16]), binary.LittleEndian.Uint32(frame[16:20]); seq != 2 || iter != 4 || int(n) != len(payload) {
		t.Fatalf("header seq=%d iter=%d len=%d, want 2 4 %d", seq, iter, n, len(payload))
	}
	ups, err := segs[1].Gather(GatherAllNew)
	if err != nil {
		t.Fatal(err)
	}
	if len(ups) != 2 {
		t.Fatalf("gathered %d updates, want 2", len(ups))
	}
	for i, u := range ups {
		if u.Seq != uint64(i+1) || u.Iter != uint64(i+3) || !bytes.Equal(u.Data, payload) {
			t.Fatalf("update %d: seq=%d iter=%d data=%q", i, u.Seq, u.Iter, u.Data)
		}
		if addr := uintptr(unsafe.Pointer(unsafe.SliceData(u.Data))); addr%8 != 0 {
			t.Fatalf("update %d payload at %#x, not 8-byte aligned", i, addr)
		}
	}
}

func TestScatterFramedErrors(t *testing.T) {
	_, segs := newTestCluster(t, 2, SegmentOptions{ObjectSize: 8})
	if _, err := segs[0].ScatterFramed(make([]byte, HeaderSize-1), 1); err == nil {
		t.Fatal("frame without header room accepted")
	}
	if _, err := segs[0].ScatterFramed(make([]byte, HeaderSize+9), 1); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversized frame: err = %v, want ErrTooLarge", err)
	}
	segs[0].Close()
	if _, err := segs[0].ScatterFramed(make([]byte, HeaderSize+8), 1); !errors.Is(err, ErrClosed) {
		t.Fatalf("closed segment: err = %v, want ErrClosed", err)
	}
}
