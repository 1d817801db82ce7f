package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"strings"
	"time"

	"ctsan/campaign"
	"ctsan/internal/cliflags"
	"ctsan/internal/shard"
)

// ctsan worker: the pull side of fleet dispatch. The worker loops
// lease → execute → upload against a campaign service (ctsand):
//
//	ctsan worker -server http://host:8080
//
// Each lease is a contiguous frozen-point range. The worker freezes the
// study locally from the coordinator's spec/seed/replicas — the same
// deterministic step every ctsan process performs, so its grid is
// identical to the coordinator's — runs the range through
// campaign.RunRecords, the range executor `ctsan shard` uses too, which
// encodes each result as the CRC-framed shard record of its grid index,
// and uploads the range's records in one plain JSONL batch (gzip would
// halve the bytes of a loopback or LAN upload at a cost of tens of
// microseconds per record). Every lease runs on one executor the worker
// holds for its life (campaign.SharedExecutor): the pool and the engine
// assemblies its workers built for one lease serve the next, so a grid
// leased in small ranges builds each shape once per worker process, as
// one Run would. The records live in memory until the upload: the
// worker writes no file. A
// renewal goroutine extends the lease at TTL/3 while execution runs; a
// worker that dies mid-lease simply stops renewing, and the coordinator
// re-leases the range at the deadline, so a dead worker costs at most
// one lease of re-execution. Every lease request names the worker's
// results epoch (campaign.Epoch): a coordinator of another epoch refuses
// it, because none of the worker's records would verify there. -dir is
// still accepted and ignored.

// errLeaseRefused marks a lease request the coordinator will never
// grant — the study is unknown (404), or not fleet-dispatched or of
// another results epoch (409) — so asking again cannot change the answer.
var errLeaseRefused = errors.New("lease refused")

// studyStatus is the subset of the service's status JSON the worker
// needs to freeze the identical grid.
type studyStatus struct {
	ID       string `json:"id"`
	Status   string `json:"status"`
	Seed     uint64 `json:"seed"`
	Replicas int    `json:"replicas"`
	Mode     string `json:"mode"`
}

// workerStudy caches one study's frozen grid, and the point hashes its
// records carry, across leases.
type workerStudy struct {
	frozen *campaign.Study
	hashes []string
}

func cmdWorker(ctx context.Context, args []string, _, stderr io.Writer) error {
	fs := flagSet("worker", stderr)
	server := fs.String("server", "", "campaign service base URL, e.g. http://localhost:8080 (required)")
	studyID := fs.String("study-id", "", "serve only this study and exit when it is done (default: serve every fleet study)")
	name := fs.String("name", "", "worker name in the coordinator's ledger (default worker-<pid>@<host>)")
	fs.String("dir", "", "ignored: the worker writes no files (accepted so old command lines still parse)")
	workers := cliflags.Workers(fs)
	throttle := fs.Duration("throttle", 0, "pause after each completed point (rate limiting and crash testing)")
	idleExit := fs.Duration("idle-exit", 0, "exit after this long with no fleet work anywhere; 0 = run until interrupted (ignored with -study-id)")
	if err := cliflags.Parse(fs, args); err != nil {
		return err
	}
	switch {
	case *server == "":
		return cliflags.Usagef("-server is required")
	case *throttle < 0:
		return cliflags.Usagef("-throttle %v: want 0 (none) or a positive duration", *throttle)
	case *idleExit < 0:
		return cliflags.Usagef("-idle-exit %v: want 0 (run until interrupted) or a positive duration", *idleExit)
	}
	if *name == "" {
		host, _ := os.Hostname()
		*name = fmt.Sprintf("worker-%d@%s", os.Getpid(), host)
	}
	w := &fleetWorker{
		base:     strings.TrimRight(*server, "/"),
		name:     *name,
		epoch:    campaign.Epoch,
		exec:     campaign.SharedExecutor(*workers),
		throttle: *throttle,
		client:   &http.Client{},
		studies:  map[string]*workerStudy{},
		stderr:   stderr,
	}
	fmt.Fprintf(stderr, "ctsan worker: %s serving %s\n", w.name, w.base)
	return w.loop(ctx, *studyID, *idleExit)
}

type fleetWorker struct {
	base string
	name string
	// epoch is the results epoch the worker's records are of, named in
	// every lease request.
	epoch int
	// exec is the executor every lease runs on, one at a time.
	exec     campaign.Option
	throttle time.Duration
	client   *http.Client
	studies  map[string]*workerStudy
	stderr   io.Writer
}

func (w *fleetWorker) logf(format string, args ...any) {
	fmt.Fprintf(w.stderr, "ctsan worker: "+format+"\n", args...)
}

// loop is the worker's life: find a fleet study, lease, execute, upload,
// repeat. Transient failures (coordinator restarting, upload refused)
// are logged and retried after a beat — the lease ledger guarantees
// nothing is lost either way. A refused lease is permanent: the pinned
// worker fails with it, a discovering one drops the study and looks again.
func (w *fleetWorker) loop(ctx context.Context, pinned string, idleExit time.Duration) error {
	var idleSince time.Time
	for ctx.Err() == nil {
		id := pinned
		if id == "" {
			id = w.discover(ctx)
		}
		if id == "" {
			if idleExit > 0 {
				if idleSince.IsZero() {
					idleSince = time.Now()
				} else if time.Since(idleSince) >= idleExit {
					w.logf("%s: idle for %v, exiting", w.name, idleExit)
					return nil
				}
			}
			sleepCtx(ctx, 200*time.Millisecond)
			continue
		}
		idleSince = time.Time{}
		if w.studies[id] == nil {
			// The grid is fetched before the first lease, so that lease's
			// clock, which sizes the next grants, runs on its point, not
			// on the grid's download and freeze. A study that cannot be
			// fetched is answered by the lease request: refused, or
			// granted and fetched again.
			w.study(ctx, id) //nolint:errcheck // the lease request answers a failed fetch
		}
		resp, err := w.lease(ctx, id)
		if err != nil {
			if ctx.Err() != nil {
				break
			}
			if errors.Is(err, errLeaseRefused) {
				if pinned != "" {
					return err
				}
				delete(w.studies, id)
			}
			w.logf("%s: lease request for %s failed (%v), retrying", w.name, id, err)
			sleepCtx(ctx, 500*time.Millisecond)
			continue
		}
		switch {
		case resp.Done:
			if pinned != "" {
				w.logf("%s: study %s is done", w.name, id)
				return nil
			}
			delete(w.studies, id)
			sleepCtx(ctx, 200*time.Millisecond)
		case resp.Lease == "":
			sleepCtx(ctx, time.Duration(max(resp.RetryMS, 50))*time.Millisecond)
		default:
			if err := w.serveLease(ctx, id, &resp.LeaseGrant); err != nil && ctx.Err() == nil {
				w.logf("%s: lease %s %d:%d failed (%v)", w.name, resp.Lease, resp.Start, resp.End, err)
				sleepCtx(ctx, 500*time.Millisecond)
			}
		}
	}
	return nil
}

// discover picks the oldest fleet study with work potentially pending.
func (w *fleetWorker) discover(ctx context.Context) string {
	var list []studyStatus
	if err := w.call(ctx, http.MethodGet, "/api/v1/studies", nil, &list); err != nil {
		return ""
	}
	for _, st := range list {
		if st.Mode == "fleet" && (st.Status == "queued" || st.Status == "running") {
			return st.ID
		}
	}
	return ""
}

// study returns the frozen grid for id, fetching spec and freeze inputs
// from the coordinator on first use. Determinism does the heavy
// lifting: freezing the same (spec, seed, replicas) yields the exact
// grid — per-point seeds included — the coordinator verifies uploads
// against.
func (w *fleetWorker) study(ctx context.Context, id string) (*workerStudy, error) {
	if ws := w.studies[id]; ws != nil {
		return ws, nil
	}
	var status studyStatus
	if err := w.call(ctx, http.MethodGet, "/api/v1/studies/"+id, nil, &status); err != nil {
		return nil, err
	}
	if status.Mode != "fleet" {
		return nil, fmt.Errorf("study %s is %s-mode, not fleet", id, status.Mode)
	}
	var spec json.RawMessage
	if err := w.call(ctx, http.MethodGet, "/api/v1/studies/"+id+"/spec", nil, &spec); err != nil {
		return nil, err
	}
	study, err := campaign.DecodeStudy(spec)
	if err != nil {
		return nil, err
	}
	frozen, err := campaign.Frozen(study,
		campaign.WithSeed(status.Seed), campaign.WithReplicas(status.Replicas))
	if err != nil {
		return nil, err
	}
	hashes, err := campaign.StudyPointHashes(frozen)
	if err != nil {
		return nil, err
	}
	ws := &workerStudy{frozen: frozen, hashes: hashes}
	w.studies[id] = ws
	return ws, nil
}

// lease requests the next range for study id.
func (w *fleetWorker) lease(ctx context.Context, id string) (*shard.LeaseResponse, error) {
	var out shard.LeaseResponse
	path := fmt.Sprintf("/api/v1/studies/%s/lease?worker=%s&epoch=%d", id, url.QueryEscape(w.name), w.epoch)
	err := w.call(ctx, http.MethodPost, path, nil, &out)
	var refused *statusError
	if errors.As(err, &refused) && (refused.code == http.StatusNotFound || refused.code == http.StatusConflict) {
		return nil, fmt.Errorf("%w: %v", errLeaseRefused, err)
	}
	if err != nil {
		return nil, err
	}
	return &out, nil
}

// serveLease executes one granted range and uploads its records: the
// worker's unit of work. Per-lease logs mirror the shard supervisor's
// format ("lease <id> <range>: starting (N points)" / "complete").
func (w *fleetWorker) serveLease(ctx context.Context, id string, grant *shard.LeaseGrant) error {
	ws, err := w.study(ctx, id)
	if err != nil {
		return err
	}
	r := shard.Range{Start: grant.Start, End: grant.End}
	start, done := time.Now(), 0
	w.logf("lease %s %s: starting (%d points)", grant.Lease, r, r.Len())

	// Renew at TTL/3 for as long as execution runs. Renewal failures are
	// not fatal: the upload of a late lease is verified like any other.
	execCtx, stopRenew := context.WithCancel(ctx)
	renewDone := make(chan struct{})
	go func() {
		defer close(renewDone)
		ttl := time.Duration(grant.TTLMS) * time.Millisecond
		tick := max(ttl/3, 50*time.Millisecond)
		ticker := time.NewTicker(tick)
		defer ticker.Stop()
		for {
			select {
			case <-execCtx.Done():
				return
			case <-ticker.C:
				if !w.renew(execCtx, id, grant.Lease) {
					return
				}
			}
		}
	}()

	// The range runs as a sub-study of the frozen grid: its points carry
	// their pinned seeds and replica counts, so each record is the grid
	// point's. Records are kept in grid-index order, the upload's order.
	// The range arrives over HTTP; RunRecords refuses one outside the grid.
	// A point's line is logged only as part of a -throttle pause: at
	// engine speed a line per point costs more than some points.
	indices := gridIndices(r, len(ws.frozen.Points))
	records := make([][]byte, len(indices))
	err = campaign.RunRecords(ctx, ws.frozen, ws.hashes, indices, func(index int, line []byte) error {
		records[index-r.Start] = line
		if w.throttle > 0 {
			done++
			w.logf("lease %s %s: point %d done (%d of %d)", grant.Lease, r, index, done, len(records))
			time.Sleep(w.throttle)
		}
		return nil
	}, w.exec)
	stopRenew()
	<-renewDone
	if err != nil {
		return err
	}
	up, err := w.upload(ctx, id, grant.Lease, records)
	if err != nil {
		return err
	}
	if up.Rejected > 0 {
		return fmt.Errorf("lease %s: coordinator rejected %d of %d records", grant.Lease, up.Rejected, len(records))
	}
	w.logf("lease %s %s: complete after upload (%d accepted, %d duplicate, %.1fs)",
		grant.Lease, r, up.Accepted, up.Duplicate, time.Since(start).Seconds())
	return nil
}

// renew extends the lease; false means the coordinator no longer knows
// it (expired or study over) and renewing should stop.
func (w *fleetWorker) renew(ctx context.Context, id, lease string) bool {
	err := w.call(ctx, http.MethodPost, "/api/v1/studies/"+id+"/lease/"+lease+"/renew", nil, nil)
	var refused *statusError
	switch {
	case err == nil:
		return true
	case errors.As(err, &refused):
		if refused.code == http.StatusGone {
			w.logf("lease %s: expired at the coordinator, finishing anyway", lease)
		}
		return false
	default:
		return ctx.Err() == nil // transient network error: keep trying
	}
}

// upload posts the lease's records as one JSONL batch.
func (w *fleetWorker) upload(ctx context.Context, id, lease string, records [][]byte) (*shard.CompleteReply, error) {
	size := 0
	for _, rec := range records {
		size += len(rec) + 1
	}
	body := make([]byte, 0, size)
	for _, rec := range records {
		body = append(append(body, rec...), '\n')
	}
	var out shard.CompleteReply
	if err := w.call(ctx, http.MethodPost, "/api/v1/studies/"+id+"/lease/"+lease+"/complete", bytes.NewReader(body), &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// statusError is a coordinator reply other than 200 OK. Each endpoint
// gives the code its own meaning: 404 and 409 refuse a lease for good,
// 410 ends a lease's renewal.
type statusError struct {
	code int
	msg  string
}

func (e *statusError) Error() string { return e.msg }

// call sends one request to the coordinator and decodes the JSON body
// of its 200 reply into out (nil discards it). Any other status is a
// *statusError naming the request, the status and the start of the
// reply's body. A request body is always an upload batch: JSONL.
func (w *fleetWorker) call(ctx context.Context, method, path string, body io.Reader, out any) error {
	req, err := http.NewRequestWithContext(ctx, method, w.base+path, body)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/x-ndjson")
	}
	res, err := w.client.Do(req)
	if err != nil {
		return err
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusOK {
		excerpt, _ := io.ReadAll(io.LimitReader(res.Body, 512))
		return &statusError{code: res.StatusCode,
			msg: fmt.Sprintf("%s %s: %s: %s", method, path, res.Status, bytes.TrimSpace(excerpt))}
	}
	if out == nil {
		_, err = io.Copy(io.Discard, res.Body) // drained, the connection is reused
		return err
	}
	return json.NewDecoder(res.Body).Decode(out)
}

// sleepCtx sleeps d or until ctx is done, whichever is first.
func sleepCtx(ctx context.Context, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
	case <-t.C:
	}
}
