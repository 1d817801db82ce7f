// Package shard is the dispatch core of multi-process campaigns: index
// ranges (Range) and the lease Ledger that hands them out, verifies what
// comes back, survives a dead executor and folds results in grid-index
// order.
//
// There is one mechanism and two users. `ctsan run -shards N` drives a
// Ledger in-process: its slots take leases, run each as an isolated
// `ctsan shard` subprocess — so a panic or OOM kill takes down one
// range, not the campaign — and complete the lease with whatever the
// subprocess checkpointed. ctsand serves a Ledger per ?mode=fleet study
// over HTTP to `ctsan worker` processes. The package knows neither
// processes nor HTTP nor retry policy; holders bring those. (wire.go
// only declares the JSON bodies those two exchange, once for both.)
package shard

import (
	"fmt"
	"strconv"
	"strings"
)

// Range is a half-open interval [Start, End) of grid indices.
type Range struct {
	Start, End int
}

// String renders the range in the a:b form the ctsan CLI accepts.
func (r Range) String() string { return fmt.Sprintf("%d:%d", r.Start, r.End) }

// Len is the number of indices in the range.
func (r Range) Len() int { return r.End - r.Start }

// ParseRange parses the a:b form produced by Range.String, and nothing
// else: two decimal integers around a single colon.
func ParseRange(s string) (Range, error) {
	a, b, ok := strings.Cut(s, ":")
	start, errA := strconv.Atoi(a)
	end, errB := strconv.Atoi(b)
	if !ok || errA != nil || errB != nil {
		return Range{}, fmt.Errorf("shard: range %q is not start:end", s)
	}
	if start < 0 || end <= start {
		return Range{}, fmt.Errorf("shard: empty or negative range %q", s)
	}
	return Range{Start: start, End: end}, nil
}
