package obs

import "sync"

// Ring is the bounded recorder every observability surface keeps its
// history in: a race-safe buffer of the most recent entries. Once full,
// each Push overwrites the oldest entry, which counts as dropped. Every
// push gets the next sequence number (1, 2, ...), handed to the optional
// stamp function under the ring's lock, so stored order and sequence
// order always agree. A capacity <= 0 keeps every entry.
//
// A nil *Ring records nothing and reads as empty: the disabled fast path
// the recorders built on it share.
type Ring[T any] struct {
	mu    sync.Mutex
	max   int
	stamp func(v *T, seq int64)
	buf   []T
	head  int   // index of the oldest entry once buf is full
	seq   int64 // entries ever pushed
}

// ringFirstAlloc bounds the first buffer allocation, so a large ring
// that never fills costs no more than the entries it holds.
const ringFirstAlloc = 256

// NewRing returns a ring keeping the last max entries (max <= 0: all of
// them). stamp, when non-nil, writes the sequence number into each
// pushed entry.
func NewRing[T any](max int, stamp func(v *T, seq int64)) *Ring[T] {
	return &Ring[T]{max: max, stamp: stamp}
}

// Push stamps v, stores it (evicting the oldest entry when full) and
// returns the stamped copy.
func (r *Ring[T]) Push(v T) T {
	if r == nil {
		return v
	}
	r.mu.Lock()
	var slot *T
	if r.max <= 0 || len(r.buf) < r.max {
		if r.buf == nil {
			n := ringFirstAlloc
			if r.max > 0 && r.max < n {
				n = r.max
			}
			r.buf = make([]T, 0, n)
		}
		r.buf = append(r.buf, v)
		slot = &r.buf[len(r.buf)-1]
	} else {
		slot = &r.buf[r.head]
		*slot = v
		r.head++
		if r.head == r.max {
			r.head = 0
		}
	}
	r.seq++
	// Stamp in place: handing the stamp &v would move every pushed value
	// to the heap.
	if r.stamp != nil {
		r.stamp(slot, r.seq)
	}
	v = *slot
	r.mu.Unlock()
	return v
}

// Len returns the number of retained entries.
func (r *Ring[T]) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.buf)
}

// Cap returns the capacity, 0 when unbounded.
func (r *Ring[T]) Cap() int {
	if r == nil || r.max < 0 {
		return 0
	}
	return r.max
}

// Dropped returns how many entries the capacity has evicted.
func (r *Ring[T]) Dropped() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.seq - int64(len(r.buf))
}

// Snapshot returns a copy of the retained entries, oldest first; nil for
// a nil ring.
func (r *Ring[T]) Snapshot() []T {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]T, 0, len(r.buf))
	out = append(out, r.buf[r.head:]...)
	return append(out, r.buf[:r.head]...)
}
