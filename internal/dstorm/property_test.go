package dstorm

import (
	"encoding/binary"
	"math/rand"
	"testing"
	"testing/quick"
)

// TestQueueSemanticsProperty drives a random interleaving of scatters and
// gathers between two ranks and checks the receive-queue invariants:
//
//  1. gathered sequence numbers are strictly increasing (no duplicates, no
//     reordering);
//  2. after any burst of k scatters, a gather returns min(k, queueLen)
//     updates — the ring overwrites the oldest, never the newest;
//  3. the freshest scattered payload is always among the gathered ones.
func TestQueueSemanticsProperty(t *testing.T) {
	property := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		qlen := 1 + rng.Intn(6)
		_, segs := propCluster(t, qlen)
		var (
			lastSeq   uint64
			sent      uint64
			pending   int
			lastValue byte
		)
		for step := 0; step < 60; step++ {
			if rng.Intn(2) == 0 {
				sent++
				lastValue = byte(sent)
				if _, err := segs[0].Scatter([]byte{lastValue}, sent); err != nil {
					t.Errorf("scatter: %v", err)
					return false
				}
				if pending < qlen {
					pending++
				}
			} else {
				ups, err := segs[1].Gather(GatherAllNew)
				if err != nil {
					t.Errorf("gather: %v", err)
					return false
				}
				if len(ups) != pending {
					t.Errorf("seed %d: gathered %d, want %d (qlen %d)", seed, len(ups), pending, qlen)
					return false
				}
				for _, u := range ups {
					if u.Seq <= lastSeq {
						t.Errorf("seed %d: seq %d not increasing past %d", seed, u.Seq, lastSeq)
						return false
					}
					lastSeq = u.Seq
				}
				if len(ups) > 0 {
					newest := ups[len(ups)-1]
					if newest.Seq != sent || newest.Data[0] != lastValue {
						t.Errorf("seed %d: freshest update lost (seq %d vs sent %d)", seed, newest.Seq, sent)
						return false
					}
				}
				pending = 0
			}
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func propCluster(t *testing.T, qlen int) (*Cluster, []*Segment) {
	t.Helper()
	return newTestCluster(t, 2, SegmentOptions{ObjectSize: 4, QueueLen: qlen})
}

// TestHeaderEncoding pins the wire header layout (seq, iter, length) that
// both the queue slots and torn-read detection depend on.
func TestHeaderEncoding(t *testing.T) {
	_, segs := newTestCluster(t, 2, SegmentOptions{ObjectSize: 8})
	if _, err := segs[0].Scatter([]byte{1, 2, 3}, 77); err != nil {
		t.Fatal(err)
	}
	ups, err := segs[1].Gather(GatherAllNew)
	if err != nil {
		t.Fatal(err)
	}
	if len(ups) != 1 {
		t.Fatalf("ups = %d", len(ups))
	}
	u := ups[0]
	if u.Seq != 1 || u.Iter != 77 || len(u.Data) != 3 {
		t.Fatalf("header fields wrong: %+v", u)
	}
	// Header size constant is load-bearing for the codec.
	var buf [headerSize]byte
	binary.LittleEndian.PutUint64(buf[0:8], 1)
	binary.LittleEndian.PutUint64(buf[8:16], 77)
	binary.LittleEndian.PutUint32(buf[16:20], 3)
	if headerSize != 20 {
		t.Fatalf("headerSize = %d", headerSize)
	}
}
