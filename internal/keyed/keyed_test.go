package keyed

import (
	"errors"
	"testing"
)

// shape is a key the way the engines' are: not comparable with ==.
type shape struct {
	n       int
	crashed []int
}

// TestSetBuildsOncePerKeyAndEvictsLRU: a key is built on first sight and
// found (by deep equality) afterwards; at capacity the least recently
// used value goes, and a failed build retains nothing.
func TestSetBuildsOncePerKeyAndEvictsLRU(t *testing.T) {
	var s Set[shape, int]
	builds := 0
	get := func(n int) int {
		t.Helper()
		v, err := s.Get(shape{n: n, crashed: []int{n}}, func(k shape) (int, error) { builds++; return 10 * k.n, nil })
		if err != nil || v != 10*n {
			t.Fatalf("Get(%d) = %d, %v", n, v, err)
		}
		return v
	}
	for n := 1; n <= capacity; n++ {
		get(n)
		get(n) // equal key in a fresh slice: a hit
	}
	if builds != capacity || s.Len() != capacity {
		t.Fatalf("%d builds, %d retained after %d distinct keys, want %d of each", builds, s.Len(), capacity, capacity)
	}
	get(1)            // 1 becomes most recent; 2 is now the oldest
	get(capacity + 1) // evicts 2
	if s.Len() != capacity {
		t.Fatalf("set grew to %d past its capacity %d", s.Len(), capacity)
	}
	builds = 0
	get(1)
	get(3)
	if builds != 0 {
		t.Fatalf("keys 1 and 3 were rebuilt; the eviction took the wrong value")
	}
	get(2)
	if builds != 1 {
		t.Fatalf("key 2 should have been the one evicted (builds = %d)", builds)
	}

	boom := errors.New("boom")
	if _, err := s.Get(shape{n: 99}, func(shape) (int, error) { return 0, boom }); !errors.Is(err, boom) {
		t.Fatalf("failed build returned %v", err)
	}
	builds = 0
	get(1)
	if builds != 0 || s.Len() != capacity {
		t.Fatalf("a failed build disturbed the set (builds %d, len %d)", builds, s.Len())
	}
}
