package server

import (
	"bytes"
	"compress/gzip"
	"errors"
	"io"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"ctsan/campaign"
	"ctsan/internal/obs"
	"ctsan/internal/shard"
)

// Fleet dispatch: the coordinator side of multi-process campaigns.
//
// A study submitted with ?mode=fleet is not executed by the service's
// own worker pool. The points its preload did not settle are leased out
// of its shard.Ledger — the same lease state machine `ctsan run` drives
// in-process — over HTTP: workers (`ctsan worker -server <url>`) of the
// coordinator's results epoch POST to the study's lease endpoint and
// receive contiguous frozen-point ranges with deadlines, run each range
// as a sub-study of the frozen grid (campaign.RunRecords, on the one
// executor a worker keeps for all its leases), and upload its results
// as CRC-framed shard records — the format the sharded CLI checkpoints —
// in one JSONL body, plain (what `ctsan worker` sends) or
// Content-Encoding: gzip. The ledger verifies every record,
// folds the results in grid-index order straight into the study's hub —
// bit-identical to an in-process run by determinism rule 5 — and
// re-leases any range whose deadline passes, so a SIGKILLed worker costs
// at most one lease of re-execution, never a wrong result. Accepted
// records live in the ledger's fold and the result cache; the worker
// keeps none.
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
// straggler can only hold back one target-sized range. No grant takes
// more than half an even share of what is pending, ⌈pending/(2·workers)⌉
// — factoring (Hummel, Schonberg & Flynn, CACM 35(8), 1992): grants
// shrink as the study's end nears, so the workers finish together
// instead of one running a target-sized last range while the others
// have nothing left.
type leaseSizer struct {
	target   time.Duration
	avgPoint atomic.Int64 // ns; 0 until a fulfilled lease has calibrated it
}

// size is the next grant's point count, given the points pending and the
// workers that would then hold a lease.
func (z *leaseSizer) size(pending, workers int) int {
	avg := z.avgPoint.Load()
	if avg <= 0 {
		return 1
	}
	n := int(min(max(int64(z.target)/avg, 1), maxLeasePoints))
	return min(n, max((pending+2*workers-1)/(2*workers), 1))
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
	if !st.fleet {
		writeError(w, http.StatusConflict, "study %s is not fleet-dispatched (submit with ?mode=fleet)", st.id)
		return nil
	}
	return st
}

// handleLease grants the next contiguous pending range to the calling
// worker (?worker=<name> labels the ledger; the remote address is the
// fallback). The response is 200 with one of three JSON shapes: a
// shard.LeaseGrant, {"done":true}, or {"retry_ms":N} — or 409 for a
// worker that does not name the coordinator's results epoch
// (?epoch=<campaign.Epoch>): none of its records would verify here.
func (s *Server) handleLease(w http.ResponseWriter, r *http.Request) {
	st := s.fleetLookup(w, r)
	if st == nil {
		return
	}
	if epoch := r.URL.Query().Get("epoch"); epoch != strconv.Itoa(campaign.Epoch) {
		if epoch == "" {
			epoch = "none"
		}
		writeError(w, http.StatusConflict, "worker results epoch %s, coordinator results epoch %d: no lease for another epoch", epoch, campaign.Epoch)
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
	l, retry, done := st.ledger.Grant(time.Now(), worker)
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
	deadline, ok := st.ledger.Renew(time.Now(), id)
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
	out := st.ledger.Complete(now, id, splitRecordLines(body))
	if out.Lease != nil && out.Holes == 0 {
		st.sizer.observe(out.Lease.Len(), now.Sub(out.Lease.Granted))
	}
	obs.UploadBytes.Add(int64(len(body)))
	obs.UploadRecords.Add(int64(len(out.Accepted)))
	obs.UploadRejected.Add(int64(out.Rejected))
	for _, rec := range out.Accepted {
		s.cache.Put(st.points[rec.Index].Hash, rec.Line)
	}
	s.cfg.Logf("study %s: lease %s upload: %d accepted, %d rejected, %d duplicate (%d/%d streamed)",
		st.id, id, len(out.Accepted), out.Rejected, out.Duplicate, out.Emitted, len(st.points))
	writeJSON(w, http.StatusOK, shard.CompleteReply{Accepted: len(out.Accepted), Rejected: out.Rejected, Duplicate: out.Duplicate, Done: out.Done})
}

// awaitLeases holds a fleet study's slot while workers lease and
// complete what the preload left, until the ledger has folded the whole
// grid or the service cancels its studies.
func (s *Server) awaitLeases(st *study) error {
	ticker := time.NewTicker(min(s.cfg.LeaseTTL/2, time.Second))
	defer ticker.Stop()
	for {
		select {
		case <-st.ledger.Done():
			// Done closes under the ledger's lock, after the last result
			// line has reached the hub.
			return nil
		case <-s.runCtx.Done():
			st.ledger.Cancel()
			return s.runCtx.Err()
		case <-ticker.C:
			// Expire overdue leases even when no worker is calling in, so
			// the status surface and saturation gauge stay honest.
			st.ledger.Tick(time.Now())
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
