package shard

import (
	"sort"
	"strings"
)

// RangeSet is an ordered set of grid indices stored as sorted, disjoint,
// non-adjacent half-open ranges. It is the coordinator-side bookkeeping
// of a fleet campaign: the pending (not completed, not leased) indices
// start as one range covering the whole grid, leases take contiguous
// chunks off the front, and expired leases merge their unfinished ranges
// back in. Operations keep the canonical form, so TakeFront always hands
// out a contiguous range, which a shard or a worker runs as one
// campaign.RunRecords call.
//
// The zero value is an empty set. RangeSet is not goroutine-safe; the
// lease manager guards it with its own mutex.
type RangeSet struct {
	rs []Range
}

// Add merges range r into the set. Overlapping or adjacent ranges are
// coalesced, so re-adding indices already present is harmless.
func (s *RangeSet) Add(r Range) {
	if r.Len() <= 0 {
		return
	}
	// First range whose end reaches r.Start (adjacency merges too).
	i := sort.Search(len(s.rs), func(i int) bool { return s.rs[i].End >= r.Start })
	j := i
	for j < len(s.rs) && s.rs[j].Start <= r.End {
		if s.rs[j].Start < r.Start {
			r.Start = s.rs[j].Start
		}
		if s.rs[j].End > r.End {
			r.End = s.rs[j].End
		}
		j++
	}
	s.rs = append(s.rs[:i], append([]Range{r}, s.rs[j:]...)...)
}

// TakeFront removes and returns up to max indices from the lowest range
// in the set. The returned range is contiguous; an empty set (or max <=
// 0) returns the zero Range (Len() == 0).
func (s *RangeSet) TakeFront(max int) Range {
	if len(s.rs) == 0 || max <= 0 {
		return Range{}
	}
	first := &s.rs[0]
	take := Range{Start: first.Start, End: first.End}
	if take.Len() > max {
		take.End = take.Start + max
		first.Start = take.End
		return take
	}
	s.rs = s.rs[1:]
	return take
}

// Remove deletes a single index from the set if present (splitting its
// range when it sits in the middle). It reports whether the index was
// present.
func (s *RangeSet) Remove(idx int) bool {
	i := sort.Search(len(s.rs), func(i int) bool { return s.rs[i].End > idx })
	if i == len(s.rs) || s.rs[i].Start > idx {
		return false
	}
	r := s.rs[i]
	switch {
	case r.Len() == 1:
		s.rs = append(s.rs[:i], s.rs[i+1:]...)
	case idx == r.Start:
		s.rs[i].Start++
	case idx == r.End-1:
		s.rs[i].End--
	default:
		s.rs = append(s.rs[:i], append([]Range{{Start: r.Start, End: idx}, {Start: idx + 1, End: r.End}}, s.rs[i+1:]...)...)
	}
	return true
}

// Points is the number of indices in the set.
func (s *RangeSet) Points() int {
	n := 0
	for _, r := range s.rs {
		n += r.Len()
	}
	return n
}

// String renders the set as "a:b,c:d" for logs and errors.
func (s *RangeSet) String() string {
	parts := make([]string, len(s.rs))
	for i, r := range s.rs {
		parts[i] = r.String()
	}
	if len(parts) == 0 {
		return "(empty)"
	}
	return strings.Join(parts, ",")
}
