package shard

import (
	"fmt"
	"math/rand"
	"testing"
)

func TestRangeSetAddMergesAndCoalesces(t *testing.T) {
	var s RangeSet
	s.Add(Range{Start: 0, End: 3})
	s.Add(Range{Start: 5, End: 8})
	if got := s.String(); got != "0:3,5:8" {
		t.Fatalf("disjoint add: %s", got)
	}
	s.Add(Range{Start: 3, End: 5}) // adjacent on both sides: one range
	if got := s.String(); got != "0:8" {
		t.Fatalf("adjacency merge: %s", got)
	}
	s.Add(Range{Start: 2, End: 6}) // fully contained: no-op
	if got, n := s.String(), s.Points(); got != "0:8" || n != 8 {
		t.Fatalf("contained add: %s (%d points)", got, n)
	}
	if err := s.check(); err != nil {
		t.Fatal(err)
	}
}

func TestRangeSetTakeFront(t *testing.T) {
	var s RangeSet
	s.Add(Range{Start: 10, End: 14})
	s.Add(Range{Start: 20, End: 21})
	if r := s.TakeFront(3); r != (Range{Start: 10, End: 13}) {
		t.Fatalf("partial take: %s", r)
	}
	if r := s.TakeFront(100); r != (Range{Start: 13, End: 14}) {
		t.Fatalf("rest-of-range take: %s", r)
	}
	if r := s.TakeFront(1); r != (Range{Start: 20, End: 21}) {
		t.Fatalf("next-range take: %s", r)
	}
	if !s.Empty() {
		t.Fatalf("set not drained: %s", s.String())
	}
	if r := s.TakeFront(1); r.Len() != 0 {
		t.Fatalf("empty take: %s", r)
	}
}

func TestRangeSetRemoveSplits(t *testing.T) {
	var s RangeSet
	s.Add(Range{Start: 0, End: 5})
	if !s.Remove(2) {
		t.Fatal("mid remove reported absent")
	}
	if got := s.String(); got != "0:2,3:5" {
		t.Fatalf("mid split: %s", got)
	}
	if !s.Remove(0) || !s.Remove(4) {
		t.Fatal("edge removes reported absent")
	}
	if got := s.String(); got != "1:2,3:4" {
		t.Fatalf("edge trims: %s", got)
	}
	if s.Remove(2) {
		t.Fatal("absent index reported removed")
	}
	if !s.Remove(1) || !s.Remove(3) || !s.Empty() {
		t.Fatalf("single-point removes: %s", s.String())
	}
	if err := s.check(); err != nil {
		t.Fatal(err)
	}
}

// TestRangeSetRandomAgainstMap drives the set with random ops against a
// plain map-of-indices model.
func TestRangeSetRandomAgainstMap(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var s RangeSet
	model := map[int]bool{}
	const span = 64
	for op := 0; op < 4000; op++ {
		switch rng.Intn(3) {
		case 0:
			a := rng.Intn(span)
			b := a + 1 + rng.Intn(8)
			s.Add(Range{Start: a, End: b})
			for i := a; i < b; i++ {
				model[i] = true
			}
		case 1:
			i := rng.Intn(span)
			got := s.Remove(i)
			if got != model[i] {
				t.Fatalf("op %d: Remove(%d) = %v, model %v", op, i, got, model[i])
			}
			delete(model, i)
		case 2:
			max := 1 + rng.Intn(5)
			r := s.TakeFront(max)
			if r.Len() > max {
				t.Fatalf("op %d: TakeFront(%d) returned %s", op, max, r)
			}
			for i := r.Start; i < r.End; i++ {
				if !model[i] {
					t.Fatalf("op %d: TakeFront returned absent index %d", op, i)
				}
				delete(model, i)
			}
		}
		if err := s.check(); err != nil {
			t.Fatalf("op %d: %v", op, err)
		}
		if s.Points() != len(model) {
			t.Fatalf("op %d: %d points, model %d", op, s.Points(), len(model))
		}
	}
}

// Empty reports whether the set holds no indices.
func (s *RangeSet) Empty() bool { return len(s.rs) == 0 }

// Ranges returns a copy of the canonical range list (sorted, disjoint,
// non-adjacent).
func (s *RangeSet) Ranges() []Range {
	out := make([]Range, len(s.rs))
	copy(out, s.rs)
	return out
}

// check reports a violation of the internal invariant (sorted, disjoint,
// non-adjacent, non-empty ranges); tests call it after mutation sequences.
func (s *RangeSet) check() error {
	for i, r := range s.rs {
		if r.Len() <= 0 {
			return fmt.Errorf("rangeset: empty range %s at %d", r, i)
		}
		if i > 0 && s.rs[i-1].End >= r.Start {
			return fmt.Errorf("rangeset: ranges %s and %s overlap or touch", s.rs[i-1], r)
		}
	}
	return nil
}
