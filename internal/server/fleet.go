package server

import (
	"bytes"
	"compress/gzip"
	"errors"
	"io"
	"net/http"
	"sync/atomic"
	"time"

	"ctsan/campaign"
	"ctsan/internal/obs"
	"ctsan/internal/shard"
)

// Fleet dispatch: the coordinator side of multi-process campaigns.
//
// A study submitted with ?mode=fleet is not executed by the service's
// own worker pool. Its grid becomes a shard.Ledger — the same lease
// state machine `ctsan run` drives in-process — served over HTTP:
// workers (`ctsan worker -server <url>`) POST to the study's lease
// endpoint and receive contiguous frozen-point ranges with deadlines,
// execute them through the exact RunShardRange/checkpoint machinery the
// sharded CLI uses, and upload the resulting CRC-framed shard records in
// one batched body. The ledger verifies every record, folds the results
// in grid-index order straight into the study's hub — bit-identical to
// an in-process run by determinism rule 5 — and re-leases any range
// whose deadline passes, so a SIGKILLed worker costs at most one lease
// of re-execution, never a wrong result.
//
// Locks: the ledger's emit callback appends to the hub, so the order is
// ledger, then hub, and nothing else nests. The handlers below hold no
// lock of their own across a ledger call.

// FleetStatus is the fleet block of a study's Status: the live lease
// ledger.
type FleetStatus = shard.Stats

// maxLeasePoints caps one lease however fast the grid runs.
const maxLeasePoints = 1024

// leaseSizer is the daemon's lease-size policy: the first lease per
// study is a single-point probe; afterwards it targets a fixed wall time
// of work per lease from an EWMA of the observed per-point grant-to-
// complete time, so HTTP round-trips amortize over fast grids while a
// straggler can only hold back one target-sized range.
type leaseSizer struct {
	target   time.Duration
	avgPoint atomic.Int64 // ns; 0 until a fulfilled lease has calibrated it
}

func (z *leaseSizer) size() int {
	avg := z.avgPoint.Load()
	if avg <= 0 {
		return 1
	}
	return int(min(max(int64(z.target)/avg, 1), maxLeasePoints))
}

// observe calibrates on a fulfilled lease. The wall time includes the
// HTTP overhead being amortized — which is exactly what the target
// bounds.
func (z *leaseSizer) observe(points int, held time.Duration) {
	per := int64(held) / int64(points)
	if per <= 0 {
		per = int64(time.Millisecond)
	}
	for {
		old := z.avgPoint.Load()
		avg := per
		if old > 0 {
			avg = (7*old + 3*per) / 10
		}
		if z.avgPoint.CompareAndSwap(old, avg) {
			return
		}
	}
}

// newFleet builds a fleet study's ledger, folding into its hub.
func (st *study) newFleet(ttl, target time.Duration) {
	hashes := make([]string, len(st.points))
	for i, fp := range st.points {
		hashes[i] = fp.Hash
	}
	st.sizer = &leaseSizer{target: target}
	st.fleet = shard.NewLedger(hashes, ttl, st.sizer.size,
		func(_ int, result []byte) { st.hub.append(result) })
}

// cachedRecords encodes every cache-resident point of the study as a
// record line for the ledger to preload — the warm-fleet path: a
// restarted coordinator (or a repeated study) re-streams cached records
// instead of re-dispatching them. The cached statistics are
// content-addressed; identity (study name, point label, index) is
// rewritten to this study's values exactly as the in-process cache hit
// path does, so the streamed bytes stay byte-identical to a cold run. A
// disabled cache is not looked up, so it counts no misses — as in local
// mode.
func (st *study) cachedRecords(cache *Cache) [][]byte {
	if cache == nil {
		return nil
	}
	var lines [][]byte
	for i, fp := range st.points {
		res, hit := cache.Get(fp.Hash)
		if hit {
			res.Study, res.Point, res.Index = st.spec.Name, fp.Label, i
			line, err := campaign.EncodeShardRecord(fp.Hash, res)
			if err == nil {
				lines = append(lines, line)
			}
			hit = err == nil
		}
		st.countLookup(hit)
	}
	return lines
}

// --- HTTP surface and dispatch loop ---

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
// a shard.LeaseGrant, {"done":true}, or {"retry_ms":N}.
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
		writeJSON(w, http.StatusOK, shard.LeaseReply{RetryMS: 200})
		return
	case "running":
	default: // done, failed, canceled: nothing left to lease
		writeJSON(w, http.StatusOK, shard.LeaseReply{Done: true})
		return
	}
	l, retry, done := st.fleet.Grant(time.Now(), worker)
	switch {
	case done:
		writeJSON(w, http.StatusOK, shard.LeaseReply{Done: true})
	case l == nil:
		writeJSON(w, http.StatusOK, shard.LeaseReply{RetryMS: retry.Milliseconds()})
	default:
		s.cfg.Logf("study %s: lease %s %s granted to %s (%d points)", st.id, l.ID, l.Range, worker, l.Len())
		writeJSON(w, http.StatusOK, shard.LeaseGrant{
			Lease:    l.ID,
			Study:    st.id,
			Start:    l.Start,
			End:      l.End,
			Points:   l.Len(),
			TTLMS:    s.cfg.LeaseTTL.Milliseconds(),
			Deadline: l.Deadline.UTC().Format(time.RFC3339Nano),
		})
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
	deadline, ok := st.fleet.Renew(time.Now(), id)
	if !ok {
		writeError(w, http.StatusGone, "lease %q is unknown or expired", id)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"lease":    id,
		"deadline": deadline.UTC().Format(time.RFC3339Nano),
		"ttl_ms":   s.cfg.LeaseTTL.Milliseconds(),
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
	body, err := readUpload(w, r, maxUploadBytes)
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) || errors.Is(err, errUploadTooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge, "upload exceeds %d bytes", maxUploadBytes)
			return
		}
		writeError(w, http.StatusBadRequest, "read upload: %v", err)
		return
	}
	id := r.PathValue("lease")
	now := time.Now()
	out := st.fleet.Complete(now, id, splitRecordLines(body))
	if out.Lease != nil && out.Holes == 0 {
		st.sizer.observe(out.Lease.Len(), now.Sub(out.Lease.Granted))
	}
	obs.UploadBytes.Add(int64(len(body)))
	obs.UploadRecords.Add(int64(len(out.Accepted)))
	obs.UploadRejected.Add(int64(out.Rejected))
	for _, rec := range out.Accepted {
		s.cache.PutEncoded(st.points[rec.Index].Hash, rec.Line)
	}
	s.cfg.Logf("study %s: lease %s upload: %d accepted, %d rejected, %d duplicate (%d/%d streamed)",
		st.id, id, len(out.Accepted), out.Rejected, out.Duplicate, out.Emitted, len(st.points))
	writeJSON(w, http.StatusOK, shard.CompleteReply{Accepted: len(out.Accepted), Rejected: out.Rejected, Duplicate: out.Duplicate, Done: out.Done})
}

// runFleetStudy is a fleet study's slot occupancy: preload every
// cache-resident point (a repeated study streams without a single
// lease), open the lease window, and wait for the workers to complete
// the grid. The slot's local worker budget stays idle: fleet studies
// cost the coordinator verification and folding only.
func (s *Server) runFleetStudy(st *study) {
	m := st.fleet
	obs.StudiesActive.Add(1)
	defer obs.StudiesActive.Add(-1)
	warm := m.Preload(st.cachedRecords(s.cache))
	st.setRunning() // leases are granted only from "running"
	s.cfg.Logf("study %s (%q): fleet dispatch of %d points (%d cache-served)", st.id, st.spec.Name, len(st.points), len(warm.Accepted))
	ticker := time.NewTicker(min(s.cfg.LeaseTTL/2, time.Second))
	defer ticker.Stop()
	for {
		select {
		case <-m.Done():
			// Done closes under the ledger's lock, after the last result
			// line has reached the hub.
			st.setFinished(nil)
			final := st.snapshot()
			st.hub.finish("")
			s.cfg.Logf("study %s: done (%d points, %d leases granted, %d completed, %d expired)",
				st.id, final.Points, final.Fleet.Granted, final.Fleet.Completed, final.Fleet.Expired)
			return
		case <-s.runCtx.Done():
			m.Cancel()
			err := s.runCtx.Err()
			st.setFinished(err)
			st.hub.finish(err.Error())
			s.cfg.Logf("study %s: canceled (%v)", st.id, err)
			return
		case <-ticker.C:
			// Expire overdue leases even when no worker is calling in, so
			// the status surface and saturation gauge stay honest.
			m.Tick(time.Now())
		}
	}
}

// maxUploadBytes bounds the decoded body of a fleet record upload.
const maxUploadBytes = 256 << 20

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
