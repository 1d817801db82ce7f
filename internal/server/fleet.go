package server

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"ctsan/campaign"
	"ctsan/internal/obs"
	"ctsan/internal/shard"
)

// Fleet dispatch: the coordinator side of multi-process campaigns.
//
// A study submitted with ?mode=fleet is not executed by the service's
// own worker pool. Instead its grid becomes a lease ledger: workers
// (`ctsan worker -server <url>`) POST to the study's lease endpoint and
// receive contiguous frozen-point ranges with deadlines, execute them
// through the exact RunShardRange/checkpoint machinery the sharded CLI
// uses, and upload the resulting CRC-framed shard records in one batched
// body. The coordinator verifies every record (CRC + PointHash against
// the frozen grid), folds them in grid-index order into the study's
// result stream — bit-identical to an in-process run by determinism
// rule 5 — and re-leases any range whose deadline passes, so a SIGKILLed
// worker costs at most one lease of re-execution, never a wrong result.
//
// Lease sizing is adaptive: the first lease per study is a single-point
// probe; afterwards the manager targets leaseTarget (default ~1s) of
// work per lease from an EWMA of observed per-point completion time, so
// HTTP round-trips amortize over fast grids while a straggler can only
// hold back one target-sized range.

// fleetLease is one outstanding range grant.
type fleetLease struct {
	id       string
	r        shard.Range
	worker   string
	granted  time.Time
	deadline time.Time
}

// leaseGrant is the wire shape of a granted lease (one of the three
// lease-endpoint responses; see leaseMgr.grant).
type leaseGrant struct {
	Lease    string `json:"lease"`
	Study    string `json:"study"`
	Start    int    `json:"start"`
	End      int    `json:"end"`
	Points   int    `json:"points"`
	TTLMS    int64  `json:"ttl_ms"`
	Deadline string `json:"deadline"`
}

// FleetStatus is the fleet block of a study's Status: the live lease
// ledger.
type FleetStatus struct {
	// Pending is the number of incomplete, unleased points; Leases the
	// number of outstanding (unexpired) leases.
	Pending int `json:"pending"`
	Leases  int `json:"leases"`
	// Granted/Completed/Expired count leases over the study's life;
	// Requeued counts points returned to the pending set by lease expiry
	// or partial uploads.
	Granted   int64 `json:"granted"`
	Completed int64 `json:"completed"`
	Expired   int64 `json:"expired"`
	Requeued  int64 `json:"requeued"`
	// WorkersBusy is the number of distinct workers holding a lease.
	WorkersBusy int `json:"workers_busy"`
}

// leaseMgr is the per-study lease ledger. All mutation happens under mu;
// methods return the work to do outside the lock (hub lines to emit,
// cache entries to feed) so HTTP handlers never hold it across I/O.
// Callers that stream the emitted lines hold study.ingest across the
// ledger call and the hub appends.
type leaseMgr struct {
	studyID string
	name    string
	hashes  []string
	labels  []string
	ttl     time.Duration
	target  time.Duration
	maxSize int

	mu        sync.Mutex
	pending   shard.RangeSet
	leases    map[string]*fleetLease
	records   []*campaign.ShardRecord // per grid index; nil until verified
	lines     [][]byte                // the encoded record per grid index
	remaining int
	flushed   int // in-order streaming cursor into records
	nextID    int
	avgPoint  time.Duration // EWMA of observed per-point completion time
	canceled  bool

	granted   int64
	completed int64
	expired   int64
	requeued  int64
	workers   map[string]int // worker -> outstanding leases

	done chan struct{} // closed when every point has a verified record
}

func newLeaseMgr(studyID string, spec *campaign.Study, points []campaign.FrozenPoint, ttl, target time.Duration) *leaseMgr {
	if ttl <= 0 {
		ttl = 15 * time.Second
	}
	if target <= 0 {
		target = time.Second
	}
	m := &leaseMgr{
		studyID:   studyID,
		name:      spec.Name,
		hashes:    make([]string, len(points)),
		labels:    make([]string, len(points)),
		ttl:       ttl,
		target:    target,
		maxSize:   1024,
		leases:    map[string]*fleetLease{},
		records:   make([]*campaign.ShardRecord, len(points)),
		lines:     make([][]byte, len(points)),
		remaining: len(points),
		workers:   map[string]int{},
		done:      make(chan struct{}),
	}
	for i, fp := range points {
		m.hashes[i] = fp.Hash
		m.labels[i] = fp.Label
	}
	m.pending.Add(shard.Range{Start: 0, End: len(points)})
	return m
}

// sizeLocked is the adaptive lease size: a single-point probe until a
// completed lease has calibrated the EWMA, then however many points fit
// the target duration, clamped to [1, maxSize].
func (m *leaseMgr) sizeLocked() int {
	if m.avgPoint <= 0 {
		return 1
	}
	n := int(m.target / m.avgPoint)
	if n < 1 {
		n = 1
	}
	if n > m.maxSize {
		n = m.maxSize
	}
	return n
}

// expireLocked reaps leases past their deadline, returning their
// unfinished points to the pending set.
func (m *leaseMgr) expireLocked(now time.Time) {
	for id, l := range m.leases {
		if now.Before(l.deadline) {
			continue
		}
		delete(m.leases, id)
		m.dropWorkerLocked(l.worker)
		requeued := 0
		for i := l.r.Start; i < l.r.End; i++ {
			if m.records[i] == nil {
				m.pending.Add(shard.Range{Start: i, End: i + 1})
				requeued++
			}
		}
		m.expired++
		m.requeued += int64(requeued)
		obs.LeasesExpired.Add(1)
		obs.LeasePointsRequeued.Add(int64(requeued))
	}
}

func (m *leaseMgr) dropWorkerLocked(worker string) {
	if m.workers[worker] <= 1 {
		delete(m.workers, worker)
	} else {
		m.workers[worker]--
	}
	obs.FleetWorkersBusy.Set(int64(len(m.workers)))
}

// grant hands the next contiguous pending range to worker. Exactly one
// of the three returns is meaningful: a lease, done=true (every point
// has a record — or the study was canceled and the worker should move
// on), or a retry hint when all remaining work is currently leased out.
func (m *leaseMgr) grant(now time.Time, worker string) (g *leaseGrant, retryIn time.Duration, done bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.canceled || m.remaining == 0 {
		return nil, 0, true
	}
	m.expireLocked(now)
	r := m.pending.TakeFront(m.sizeLocked())
	if r.Len() == 0 {
		// Everything outstanding: suggest coming back around the earliest
		// deadline (an expiry means re-leasable work).
		retry := m.ttl / 4
		for _, l := range m.leases {
			if d := l.deadline.Sub(now); d > 0 && d < retry {
				retry = d
			}
		}
		if retry < 50*time.Millisecond {
			retry = 50 * time.Millisecond
		}
		return nil, retry, false
	}
	m.nextID++
	l := &fleetLease{
		id:       formatLeaseID(m.nextID),
		r:        r,
		worker:   worker,
		granted:  now,
		deadline: now.Add(m.ttl),
	}
	m.leases[l.id] = l
	m.workers[worker]++
	m.granted++
	obs.LeasesGranted.Add(1)
	obs.FleetWorkersBusy.Set(int64(len(m.workers)))
	return &leaseGrant{
		Lease:    l.id,
		Study:    m.studyID,
		Start:    r.Start,
		End:      r.End,
		Points:   r.Len(),
		TTLMS:    m.ttl.Milliseconds(),
		Deadline: l.deadline.UTC().Format(time.RFC3339Nano),
	}, 0, false
}

// renew extends a lease's deadline. A false return means the lease is
// unknown or already expired — the worker may finish and upload anyway
// (late records are verified like any others), but the range may be
// re-executed elsewhere.
func (m *leaseMgr) renew(now time.Time, id string) (deadline time.Time, ok bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.expireLocked(now)
	l := m.leases[id]
	if l == nil {
		return time.Time{}, false
	}
	l.deadline = now.Add(m.ttl)
	return l.deadline, true
}

// ingestResult is what one verified upload produced, to be applied
// outside the manager lock: emit streams the newly contiguous prefix of
// result lines to the study's hub, feed carries (hash, encoded record)
// pairs for the content-addressed cache.
type ingestResult struct {
	accepted int
	rejected int
	dup      int
	flushed  int  // in-order results streamed so far (progress)
	done     bool // every point now has a verified record
	emit     [][]byte
	feed     []cacheFeed
}

type cacheFeed struct {
	hash string
	line []byte
}

// complete ingests a worker's batched record upload for a lease. Every
// line is verified independently (CRC, index bounds, PointHash), so a
// corrupt or stale line rejects that line, never the batch. The lease is
// fulfilled when its whole range holds records; a final-but-partial
// upload requeues the holes. Late uploads for an expired (or unknown)
// lease are still ingested — determinism makes their records exactly as
// good, and any duplicate with a re-executed range is dropped as a dup.
func (m *leaseMgr) complete(now time.Time, leaseID string, lineList [][]byte) ingestResult {
	m.mu.Lock()
	out := ingestResult{}
	for _, line := range lineList {
		rec, err := campaign.VerifyShardRecord(m.hashes, line)
		if err != nil {
			out.rejected++
			continue
		}
		if m.records[rec.Index] != nil {
			out.dup++
			continue
		}
		m.records[rec.Index] = rec
		m.lines[rec.Index] = line
		m.remaining--
		m.pending.Remove(rec.Index) // present when the point was requeued
		out.accepted++
		out.feed = append(out.feed, cacheFeed{hash: m.hashes[rec.Index], line: line})
	}
	if l := m.leases[leaseID]; l != nil {
		// The upload is the lease's final word: fulfilled if its range is
		// covered, otherwise the holes go back to pending.
		delete(m.leases, leaseID)
		m.dropWorkerLocked(l.worker)
		holes := 0
		for i := l.r.Start; i < l.r.End; i++ {
			if m.records[i] == nil {
				m.pending.Add(shard.Range{Start: i, End: i + 1})
				holes++
			}
		}
		if holes == 0 {
			m.completed++
			obs.LeasesCompleted.Add(1)
			// Calibrate the sizing EWMA on the observed grant-to-complete
			// wall time per point (includes the HTTP overhead being
			// amortized — which is exactly what the target bounds).
			per := now.Sub(l.granted) / time.Duration(l.r.Len())
			if per <= 0 {
				per = time.Millisecond
			}
			if m.avgPoint <= 0 {
				m.avgPoint = per
			} else {
				m.avgPoint = (7*m.avgPoint + 3*per) / 10
			}
		} else {
			m.requeued += int64(holes)
			obs.LeasePointsRequeued.Add(int64(holes))
		}
	}
	m.expireLocked(now)
	out.emit = m.flushLocked()
	out.flushed = m.flushed
	out.done = m.remaining == 0
	if out.done && !m.canceled {
		select {
		case <-m.done:
		default:
			close(m.done)
		}
	}
	m.mu.Unlock()
	return out
}

// preserve satisfies every cache-resident point before any lease is
// granted — the warm-fleet path: a restarted coordinator (or a repeated
// study) re-streams cached records instead of re-dispatching them. The
// cached statistics are content-addressed; identity (study name, point
// label, index) is rewritten to this study's values exactly as the
// in-process cache hit path does, so the streamed bytes stay
// byte-identical to a cold run.
func (m *leaseMgr) preserve(cache *Cache, countLookup func(hit bool)) ingestResult {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := ingestResult{}
	for i := range m.records {
		hit := false
		if cache != nil {
			if res, ok := cache.Get(m.hashes[i]); ok {
				res.Study = m.name
				res.Point = m.labels[i]
				res.Index = i
				if line, err := campaign.EncodeShardRecord(m.hashes[i], res); err == nil {
					if rec, err := campaign.VerifyShardRecord(m.hashes, line); err == nil {
						m.records[i] = rec
						m.lines[i] = line
						m.remaining--
						m.pending.Remove(i)
						out.accepted++
						hit = true
					}
				}
			}
		}
		if countLookup != nil {
			countLookup(hit)
		}
	}
	out.emit = m.flushLocked()
	out.flushed = m.flushed
	out.done = m.remaining == 0
	if out.done {
		select {
		case <-m.done:
		default:
			close(m.done)
		}
	}
	return out
}

// flushLocked advances the in-order streaming cursor: the determinism
// rule for lease folding. Records may arrive in any order from any
// worker, but results are released to the hub strictly in grid-index
// order, as the contiguous completed prefix grows — the same fold order
// as the in-process serial path and the sharded merge, so the streamed
// JSONL is byte-identical to both.
func (m *leaseMgr) flushLocked() [][]byte {
	var emit [][]byte
	for m.flushed < len(m.records) && m.records[m.flushed] != nil {
		emit = append(emit, m.records[m.flushed].Result)
		m.flushed++
	}
	return emit
}

// tick runs periodic maintenance from the dispatch loop: expiry without
// waiting for the next worker request.
func (m *leaseMgr) tick(now time.Time) {
	m.mu.Lock()
	m.expireLocked(now)
	m.mu.Unlock()
}

// cancel marks the study over (shutdown or run-context cancellation):
// grants start answering done so workers move on.
func (m *leaseMgr) cancel() {
	m.mu.Lock()
	m.canceled = true
	for id, l := range m.leases {
		delete(m.leases, id)
		m.dropWorkerLocked(l.worker)
	}
	m.mu.Unlock()
}

// stats snapshots the ledger for the status endpoint.
func (m *leaseMgr) stats() FleetStatus {
	m.mu.Lock()
	defer m.mu.Unlock()
	return FleetStatus{
		Pending:     m.pending.Points(),
		Leases:      len(m.leases),
		Granted:     m.granted,
		Completed:   m.completed,
		Expired:     m.expired,
		Requeued:    m.requeued,
		WorkersBusy: len(m.workers),
	}
}

func formatLeaseID(n int) string { return fmt.Sprintf("l%06d", n) }

// --- HTTP surface and dispatch loop ---

// leaseReply is the non-grant lease response: done means the study needs
// no more work (finished, failed, or canceled — the worker moves on),
// retry_ms means all remaining work is leased out (or the study has not
// started), come back later.
type leaseReply struct {
	Done    bool  `json:"done,omitempty"`
	RetryMS int64 `json:"retry_ms,omitempty"`
}

// completeReply reports what a record upload achieved.
type completeReply struct {
	Accepted  int  `json:"accepted"`
	Rejected  int  `json:"rejected"`
	Duplicate int  `json:"duplicate"`
	Done      bool `json:"done"`
}

func (st *study) statusNow() string {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.status
}

// fleetLookup resolves the study and requires it to be fleet-dispatched.
func (s *Server) fleetLookup(w http.ResponseWriter, r *http.Request) *study {
	st := s.lookup(w, r)
	if st == nil {
		return nil
	}
	if st.fleet == nil {
		writeError(w, http.StatusConflict, "study %s is not fleet-dispatched (submit with ?mode=fleet)", st.id)
		return nil
	}
	return st
}

// handleLease grants the next contiguous pending range to the calling
// worker (?worker=<name> labels the ledger; the remote address is the
// fallback). The response is always 200 with one of three JSON shapes:
// a lease grant, {"done":true}, or {"retry_ms":N}.
func (s *Server) handleLease(w http.ResponseWriter, r *http.Request) {
	st := s.fleetLookup(w, r)
	if st == nil {
		return
	}
	worker := r.URL.Query().Get("worker")
	if worker == "" {
		worker = r.RemoteAddr
	}
	switch st.statusNow() {
	case "queued":
		writeJSON(w, http.StatusOK, leaseReply{RetryMS: 200})
		return
	case "running":
	default: // done, failed, canceled: nothing left to lease
		writeJSON(w, http.StatusOK, leaseReply{Done: true})
		return
	}
	g, retry, done := st.fleet.grant(time.Now(), worker)
	switch {
	case done:
		writeJSON(w, http.StatusOK, leaseReply{Done: true})
	case g == nil:
		writeJSON(w, http.StatusOK, leaseReply{RetryMS: retry.Milliseconds()})
	default:
		s.cfg.Logf("study %s: lease %s %d:%d granted to %s (%d points)", st.id, g.Lease, g.Start, g.End, worker, g.Points)
		writeJSON(w, http.StatusOK, g)
	}
}

// handleLeaseRenew extends a live lease's deadline; 410 Gone means the
// lease expired (its range may be re-leased) or never existed.
func (s *Server) handleLeaseRenew(w http.ResponseWriter, r *http.Request) {
	st := s.fleetLookup(w, r)
	if st == nil {
		return
	}
	id := r.PathValue("lease")
	deadline, ok := st.fleet.renew(time.Now(), id)
	if !ok {
		writeError(w, http.StatusGone, "lease %q is unknown or expired", id)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"lease":    id,
		"deadline": deadline.UTC().Format(time.RFC3339Nano),
		"ttl_ms":   st.fleet.ttl.Milliseconds(),
	})
}

// handleLeaseComplete ingests a worker's batched record upload (JSONL of
// encoded shard records, optionally Content-Encoding: gzip). Every line
// is verified independently — CRC, index bounds, PointHash against the
// frozen grid — so a corrupt line is rejected without poisoning the
// batch, and verified records from an expired lease are still accepted.
func (s *Server) handleLeaseComplete(w http.ResponseWriter, r *http.Request) {
	st := s.fleetLookup(w, r)
	if st == nil {
		return
	}
	body, err := readUpload(w, r, s.cfg.MaxUploadBytes)
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) || errors.Is(err, errUploadTooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge, "upload exceeds %d bytes", s.cfg.MaxUploadBytes)
			return
		}
		writeError(w, http.StatusBadRequest, "read upload: %v", err)
		return
	}
	id := r.PathValue("lease")
	st.ingest.Lock()
	out := st.fleet.complete(time.Now(), id, splitRecordLines(body))
	st.stream(out)
	st.ingest.Unlock()
	obs.UploadBytes.Add(int64(len(body)))
	obs.UploadRecords.Add(int64(out.accepted))
	obs.UploadRejected.Add(int64(out.rejected))
	if s.cache != nil {
		for _, f := range out.feed {
			s.cache.PutEncoded(f.hash, f.line)
		}
	}
	s.cfg.Logf("study %s: lease %s upload: %d accepted, %d rejected, %d duplicate (%d/%d streamed)",
		st.id, id, out.accepted, out.rejected, out.dup, out.flushed, len(st.points))
	writeJSON(w, http.StatusOK, completeReply{Accepted: out.accepted, Rejected: out.rejected, Duplicate: out.dup, Done: out.done})
}

// stream releases an ingest's newly contiguous result prefix to the hub
// and advances progress. The caller holds st.ingest across the ledger
// call that produced out and this.
func (st *study) stream(out ingestResult) {
	for _, line := range out.emit {
		st.hub.append(line)
	}
	st.setProgress(out.flushed)
}

// runFleetStudy is a fleet study's slot occupancy: pre-serve every
// cache-resident point (the warm-fleet path — a repeated study streams
// without a single lease), open the lease window, and wait for the
// workers to complete the grid. The slot's local worker budget stays
// idle: fleet studies cost the coordinator verification and folding
// only.
func (s *Server) runFleetStudy(st *study) {
	m := st.fleet
	obs.StudiesActive.Add(1)
	defer obs.StudiesActive.Add(-1)
	st.ingest.Lock()
	out := m.preserve(s.cache, st.countLookup)
	st.setRunning() // leases are granted only from "running"
	st.stream(out)
	st.ingest.Unlock()
	s.cfg.Logf("study %s (%q): fleet dispatch of %d points (%d cache-served)", st.id, st.spec.Name, len(st.points), out.accepted)
	ticker := time.NewTicker(min(m.ttl/2, time.Second))
	defer ticker.Stop()
	for {
		select {
		case <-m.done:
			// done closes inside the ingest section of the upload that
			// completed the grid; finishing under the same lock orders it
			// after that upload's lines have reached the hub.
			st.ingest.Lock()
			st.setFinished(nil)
			final := st.snapshot()
			st.hub.finish("")
			st.ingest.Unlock()
			s.cfg.Logf("study %s: done (%d points, %d leases granted, %d completed, %d expired)",
				st.id, final.Points, final.Fleet.Granted, final.Fleet.Completed, final.Fleet.Expired)
			return
		case <-s.runCtx.Done():
			m.cancel()
			err := s.runCtx.Err()
			st.setFinished(err)
			st.hub.finish(err.Error())
			s.cfg.Logf("study %s: canceled (%v)", st.id, err)
			return
		case <-ticker.C:
			// Expire overdue leases even when no worker is calling in, so
			// the status surface and saturation gauge stay honest.
			m.tick(time.Now())
		}
	}
}

// errUploadTooLarge marks a decoded (post-gzip) body exceeding the
// upload bound.
var errUploadTooLarge = errors.New("decoded upload too large")

// readUpload reads a record upload, transparently decoding
// Content-Encoding: gzip, bounding both the wire bytes and the decoded
// bytes by limit.
func readUpload(w http.ResponseWriter, r *http.Request, limit int64) ([]byte, error) {
	defer r.Body.Close()
	var src io.Reader = http.MaxBytesReader(w, r.Body, limit)
	if r.Header.Get("Content-Encoding") == "gzip" {
		gz, err := gzip.NewReader(src)
		if err != nil {
			return nil, err
		}
		defer gz.Close()
		src = gz
	}
	body, err := io.ReadAll(io.LimitReader(src, limit+1))
	if err != nil {
		return nil, err
	}
	if int64(len(body)) > limit {
		return nil, errUploadTooLarge
	}
	return body, nil
}

// splitRecordLines splits an upload body into its non-empty lines.
func splitRecordLines(body []byte) [][]byte {
	var lines [][]byte
	for len(body) > 0 {
		nl := bytes.IndexByte(body, '\n')
		if nl < 0 {
			if len(bytes.TrimSpace(body)) > 0 {
				lines = append(lines, body)
			}
			break
		}
		if line := body[:nl]; len(bytes.TrimSpace(line)) > 0 {
			lines = append(lines, line)
		}
		body = body[nl+1:]
	}
	return lines
}
