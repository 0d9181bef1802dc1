package obs

import (
	"sync"
	"testing"
)

type ringEntry struct {
	seq int64
	v   int
}

func stampEntry(e *ringEntry, seq int64) { e.seq = seq }

func TestRingKeepsNewestAndStamps(t *testing.T) {
	r := NewRing(3, stampEntry)
	for i := 1; i <= 7; i++ {
		if got := r.Push(ringEntry{v: i}); got.seq != int64(i) {
			t.Fatalf("push %d returned seq %d", i, got.seq)
		}
	}
	if r.Len() != 3 || r.Cap() != 3 || r.Dropped() != 4 {
		t.Fatalf("len/cap/dropped = %d/%d/%d, want 3/3/4", r.Len(), r.Cap(), r.Dropped())
	}
	got := r.Snapshot()
	for i, e := range got {
		if want := 5 + i; e.v != want || e.seq != int64(want) {
			t.Fatalf("snapshot[%d] = %+v, want v=seq=%d (newest, oldest first)", i, e, want)
		}
	}
	got[0].v = -1 // the snapshot is a copy
	if r.Snapshot()[0].v != 5 {
		t.Fatal("snapshot aliases the ring's storage")
	}
}

func TestRingUnboundedAndNil(t *testing.T) {
	r := NewRing[int](0, nil)
	for i := 0; i < 1000; i++ {
		r.Push(i)
	}
	if r.Len() != 1000 || r.Cap() != 0 || r.Dropped() != 0 {
		t.Fatalf("unbounded ring len/cap/dropped = %d/%d/%d", r.Len(), r.Cap(), r.Dropped())
	}
	if s := r.Snapshot(); s[0] != 0 || s[999] != 999 {
		t.Fatalf("unbounded ring out of order: first %d last %d", s[0], s[999])
	}

	var n *Ring[int]
	if n.Push(7) != 7 || n.Len() != 0 || n.Cap() != 0 || n.Dropped() != 0 || n.Snapshot() != nil {
		t.Fatal("nil ring must record nothing and read as empty")
	}
}

// TestRingConcurrent pushes and reads from many goroutines; the -race run
// is the assertion, plus strictly increasing sequence numbers in every
// snapshot.
func TestRingConcurrent(t *testing.T) {
	r := NewRing(64, stampEntry)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				r.Push(ringEntry{v: i})
				if i%50 == 0 {
					s := r.Snapshot()
					for j := 1; j < len(s); j++ {
						if s[j].seq <= s[j-1].seq {
							t.Errorf("snapshot seq not increasing: %d then %d", s[j-1].seq, s[j].seq)
							return
						}
					}
				}
			}
		}()
	}
	wg.Wait()
	if r.Len() != 64 || r.Dropped() != 8*500-64 {
		t.Fatalf("len/dropped = %d/%d", r.Len(), r.Dropped())
	}
}
