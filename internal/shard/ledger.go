package shard

import (
	"fmt"
	"sync"
	"time"

	"ctsan/campaign"
	"ctsan/internal/obs"
)

// Lease is one outstanding grant of a contiguous index range.
type Lease struct {
	ID string
	Range
	Holder            string
	Granted, Deadline time.Time
	// Attempt is how often the most-granted point of the range has been
	// handed out, this grant included: 1 on a fresh grid, k+1 for a range
	// that k earlier leases left holes in. Retry budgets and backoff are
	// the holder's policy; the ledger only counts.
	Attempt int
}

// Record is one verified record line and the grid index it settled.
type Record struct {
	Index int
	Line  []byte
}

// Completion is what one batch of record lines achieved.
type Completion struct {
	// Accepted are the lines that settled a point; Rejected counts lines
	// that failed verification, Duplicate lines for points already settled.
	Accepted  []Record
	Rejected  int
	Duplicate int
	// Lease is the live lease the batch answered (nil for Preload and for
	// an unknown or expired one) and Holes how many of its points still
	// have no record — they are pending again.
	Lease *Lease
	Holes int
	// Emitted is the in-order fold cursor after the batch; Done reports
	// that it has reached the end of the grid.
	Emitted int
	Done    bool
}

// Stats is a snapshot of the ledger (the fleet block of ctsand's status
// JSON, verbatim).
type Stats struct {
	// Pending is the number of unsettled, unleased points; Leases the
	// number of outstanding (unexpired) leases.
	Pending int `json:"pending"`
	Leases  int `json:"leases"`
	// Granted/Completed/Expired count leases over the ledger's life;
	// Requeued counts points returned to the pending set by lease expiry
	// or partial completions.
	Granted   int64 `json:"granted"`
	Completed int64 `json:"completed"`
	Expired   int64 `json:"expired"`
	Requeued  int64 `json:"requeued"`
	// WorkersBusy is the number of distinct holders of a lease.
	WorkersBusy int `json:"workers_busy"`
}

// Ledger is the dispatch state machine of one frozen study grid: it
// hands out contiguous index ranges as leases, verifies the record lines
// that come back, returns what a dead or partial holder left unsettled
// to the pending set, and releases results strictly in grid-index order.
//
// Every point is in exactly one of three states — pending, covered by a
// live lease, or settled by a verified record — and moves only forward
// except through expiry or a partial completion, which return a leased
// point to pending. Records are accepted from anyone at any time (late,
// duplicate and leaseless batches included): determinism makes every
// verified record for a point identical, so only the first one counts.
//
// The fold rule: emit(i, line) is called once per grid index, in index
// order, as the contiguous settled prefix grows, with the JSONL line of
// the point's result (its JSON and a newline, which emit may keep) —
// under the ledger's lock, so what emit writes is ordered exactly like
// the grid no matter how batches interleave, and Done closes only after
// the last emit has returned. emit must not call back into the ledger.
//
// The ledger has no transport and no policy: it is used in-process by
// `ctsan run` (holders are subprocess slots) and behind HTTP by ctsand
// (holders are fleet workers).
type Ledger struct {
	hashes []string
	ttl    time.Duration
	size   func(pending, workers int) int
	emit   func(index int, line []byte)

	mu       sync.Mutex
	pending  RangeSet
	leases   map[string]*Lease
	lines    [][]byte // settled but not yet emitted (each its own bytes, never the upload's); indices below flushed are settled too
	grants   []int    // per point: leases that covered it
	flushed  int
	nextID   int
	canceled bool
	holders  map[string]int // holder -> outstanding leases

	granted, completed, expired, requeued int64

	done chan struct{}
}

// NewLedger returns the ledger of a grid whose per-index point hashes
// are given, everything pending. A lease lives ttl without renewal;
// size is asked, under the lock, for the maximum point count of each
// grant, given the points pending and the workers that would then hold
// a lease (the live holders, the asker included), and must not call
// back into the ledger; emit receives the fold.
func NewLedger(hashes []string, ttl time.Duration, size func(pending, workers int) int, emit func(index int, line []byte)) *Ledger {
	l := &Ledger{
		hashes:  hashes,
		ttl:     ttl,
		size:    size,
		emit:    emit,
		leases:  map[string]*Lease{},
		lines:   make([][]byte, len(hashes)),
		grants:  make([]int, len(hashes)),
		holders: map[string]int{},
		done:    make(chan struct{}),
	}
	l.pending.Add(Range{Start: 0, End: len(hashes)})
	if len(hashes) == 0 {
		close(l.done)
	}
	return l
}

// Done is closed once every point is settled and emitted.
func (l *Ledger) Done() <-chan struct{} { return l.done }

func (l *Ledger) settled(i int) bool { return i < l.flushed || l.lines[i] != nil }

// Grant leases the next contiguous pending range to holder. Exactly one
// of the three returns is meaningful: a lease, done (the grid is settled
// or the ledger canceled — the holder should move on), or a retry hint
// when everything unsettled is currently leased out.
func (l *Ledger) Grant(now time.Time, holder string) (lease *Lease, retryIn time.Duration, done bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.canceled || l.flushed == len(l.hashes) {
		return nil, 0, true
	}
	l.expireLocked(now)
	workers := len(l.holders)
	if l.holders[holder] == 0 {
		workers++
	}
	r := l.pending.TakeFront(l.size(l.pending.Points(), workers))
	if r.Len() == 0 {
		// Come back around the earliest deadline: an expiry means work.
		retry := l.ttl / 4
		for _, o := range l.leases {
			if d := o.Deadline.Sub(now); d > 0 && d < retry {
				retry = d
			}
		}
		if retry < 50*time.Millisecond {
			retry = 50 * time.Millisecond
		}
		return nil, retry, false
	}
	l.nextID++
	o := &Lease{
		ID:       fmt.Sprintf("l%06d", l.nextID),
		Range:    r,
		Holder:   holder,
		Granted:  now,
		Deadline: now.Add(l.ttl),
	}
	for i := r.Start; i < r.End; i++ {
		l.grants[i]++
		if l.grants[i] > o.Attempt {
			o.Attempt = l.grants[i]
		}
	}
	l.leases[o.ID] = o
	l.holders[holder]++
	l.granted++
	obs.LeasesGranted.Add(1)
	obs.FleetWorkersBusy.Set(int64(len(l.holders)))
	out := *o
	return &out, 0, false
}

// Renew extends a lease's deadline by the TTL. False means the lease is
// unknown or already expired: its holder may finish and deliver anyway,
// but the range may be re-executed elsewhere.
func (l *Ledger) Renew(now time.Time, id string) (deadline time.Time, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.expireLocked(now)
	o := l.leases[id]
	if o == nil {
		return time.Time{}, false
	}
	o.Deadline = now.Add(l.ttl)
	return o.Deadline, true
}

// Preload settles every point the lines hold a valid record for, before
// or between leases: records already on disk when a run resumes or
// merges.
func (l *Ledger) Preload(lines [][]byte) Completion {
	l.mu.Lock()
	defer l.mu.Unlock()
	c := l.ingestLocked(lines)
	l.foldLocked(&c)
	return c
}

// Complete ingests the record lines a holder produced for lease id — its
// final word: the lease ends, fulfilled if its whole range is now
// settled, otherwise its holes return to pending. Every line is verified
// on its own (layout and CRC by campaign.CheckShardRecord, then index
// bounds and point hash), so a corrupt or stale line costs that line,
// never the batch; lines for an expired or unknown lease are ingested
// like any others. A point's result line is the one copy made of a
// line.
func (l *Ledger) Complete(now time.Time, id string, lines [][]byte) Completion {
	l.mu.Lock()
	defer l.mu.Unlock()
	c := l.ingestLocked(lines)
	if o := l.leases[id]; o != nil {
		c.Holes = l.releaseLocked(o)
		if c.Holes == 0 {
			l.completed++
			obs.LeasesCompleted.Add(1)
		}
		out := *o
		c.Lease = &out
	}
	l.expireLocked(now)
	l.foldLocked(&c)
	return c
}

func (l *Ledger) ingestLocked(lines [][]byte) Completion {
	var c Completion
	for _, line := range lines {
		index, hash, result, err := campaign.CheckShardRecord(line)
		if err != nil || index >= len(l.hashes) || hash != l.hashes[index] {
			c.Rejected++
			continue
		}
		if l.settled(index) {
			c.Duplicate++
			continue
		}
		l.settleLocked(index, append(append(make([]byte, 0, len(result)+1), result...), '\n'))
		c.Accepted = append(c.Accepted, Record{Index: index, Line: line})
	}
	return c
}

// Settle settles point index with line, the JSONL line of its result,
// which the caller vouches for: no check of the line, and no copy — the
// ledger, and then emit, keep it. It is the ingest for what needs no
// verification: the result of a point the caller executed itself, or
// one spliced from a record its cache verified on the way in. A point
// already settled stays as it is.
func (l *Ledger) Settle(index int, line []byte) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.settled(index) {
		return
	}
	l.settleLocked(index, line)
	var c Completion
	l.foldLocked(&c)
}

func (l *Ledger) settleLocked(index int, line []byte) {
	l.lines[index] = line
	l.pending.Remove(index) // present unless a live lease covers it
}

// releaseLocked ends a lease and returns its unsettled points to the
// pending set, reporting how many there were.
func (l *Ledger) releaseLocked(o *Lease) (holes int) {
	delete(l.leases, o.ID)
	if l.holders[o.Holder] <= 1 {
		delete(l.holders, o.Holder)
	} else {
		l.holders[o.Holder]--
	}
	obs.FleetWorkersBusy.Set(int64(len(l.holders)))
	for i := o.Start; i < o.End; i++ {
		if !l.settled(i) {
			l.pending.Add(Range{Start: i, End: i + 1})
			holes++
		}
	}
	l.requeued += int64(holes)
	obs.LeasePointsRequeued.Add(int64(holes))
	return holes
}

func (l *Ledger) expireLocked(now time.Time) {
	for _, o := range l.leases {
		if now.Before(o.Deadline) {
			continue
		}
		l.releaseLocked(o)
		l.expired++
		obs.LeasesExpired.Add(1)
	}
}

// foldLocked advances the fold cursor over the settled prefix, closes
// Done behind the last emit, and reports the cursor in c.
func (l *Ledger) foldLocked(c *Completion) {
	n := len(l.hashes)
	for l.flushed < n && l.lines[l.flushed] != nil {
		l.emit(l.flushed, l.lines[l.flushed])
		l.lines[l.flushed] = nil
		l.flushed++
		if l.flushed == n {
			close(l.done)
		}
	}
	c.Emitted, c.Done = l.flushed, l.flushed == n
}

// Tick expires overdue leases without waiting for the next holder call.
func (l *Ledger) Tick(now time.Time) {
	l.mu.Lock()
	l.expireLocked(now)
	l.mu.Unlock()
}

// Cancel ends dispatch: outstanding leases are released and Grant
// answers done from now on. Records that still arrive are folded as
// usual.
func (l *Ledger) Cancel() {
	l.mu.Lock()
	l.canceled = true
	for _, o := range l.leases {
		l.releaseLocked(o)
	}
	l.mu.Unlock()
}

// Stats snapshots the ledger.
func (l *Ledger) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return Stats{
		Pending:     l.pending.Points(),
		Leases:      len(l.leases),
		Granted:     l.granted,
		Completed:   l.completed,
		Expired:     l.expired,
		Requeued:    l.requeued,
		WorkersBusy: len(l.holders),
	}
}
