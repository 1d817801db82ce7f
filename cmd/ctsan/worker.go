package main

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"time"

	"ctsan/campaign"
	"ctsan/internal/checkpoint"
	"ctsan/internal/cliflags"
	"ctsan/internal/shard"
)

// ctsan worker: the pull side of fleet dispatch. The worker loops
// lease → execute → upload against a campaign service (ctsand):
//
//	ctsan worker -server http://host:8080 -dir ckpt/
//
// Each lease is a contiguous frozen-point range. The worker freezes the
// study locally from the coordinator's spec/seed/replicas — the same
// deterministic step every ctsan process performs, so its grid is
// identical to the coordinator's — executes the range through the exact
// RunShardRange/checkpoint machinery `ctsan shard` uses (a worker
// restarted on the same -dir resumes instead of re-executing), and
// uploads the range's CRC-framed shard records in one gzip-compressed
// batch; once the coordinator has accepted them the lease's store is
// removed, so -dir holds only unfinished leases. A renewal goroutine
// extends the lease at TTL/3 while execution runs; a worker that dies
// mid-lease simply stops renewing, and the coordinator re-leases the
// range at the deadline.

// errLeaseRefused marks a lease request the coordinator will never
// grant — the study is unknown (404) or not fleet-dispatched (409) — so
// asking again cannot change the answer.
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

// workerStudy caches one study's frozen grid across leases.
type workerStudy struct {
	id     string
	frozen *campaign.Study
}

func cmdWorker(ctx context.Context, args []string, _, stderr io.Writer) error {
	fs := flagSet("worker", stderr)
	server := fs.String("server", "", "campaign service base URL, e.g. http://localhost:8080 (required)")
	studyID := fs.String("study-id", "", "serve only this study and exit when it is done (default: serve every fleet study)")
	name := fs.String("name", "", "worker name in the coordinator's ledger (default worker-<pid>@<host>)")
	dir := fs.String("dir", "", "checkpoint directory; leases resume across worker restarts (default a temp dir)")
	workers := cliflags.Workers(fs)
	throttle := fs.Duration("throttle", 0, "pause after each checkpointed point (rate limiting and crash testing)")
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
	base := strings.TrimRight(*server, "/")
	if *name == "" {
		host, _ := os.Hostname()
		*name = fmt.Sprintf("worker-%d@%s", os.Getpid(), host)
	}
	if *dir == "" {
		tmp, err := os.MkdirTemp("", "ctsan-worker-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(tmp)
		*dir = tmp
	}
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		return err
	}
	w := &fleetWorker{
		base:     base,
		name:     *name,
		dir:      *dir,
		workers:  *workers,
		throttle: *throttle,
		client:   &http.Client{},
		studies:  map[string]*workerStudy{},
		stderr:   stderr,
	}
	fmt.Fprintf(stderr, "ctsan worker: %s serving %s\n", w.name, base)
	return w.loop(ctx, *studyID, *idleExit)
}

type fleetWorker struct {
	base     string
	name     string
	dir      string
	workers  int
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
			id = w.discover()
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
func (w *fleetWorker) discover() string {
	var list []studyStatus
	if err := w.getJSON("/api/v1/studies", &list); err != nil {
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
func (w *fleetWorker) study(id string) (*workerStudy, error) {
	if ws := w.studies[id]; ws != nil {
		return ws, nil
	}
	var status studyStatus
	if err := w.getJSON("/api/v1/studies/"+id, &status); err != nil {
		return nil, err
	}
	if status.Mode != "fleet" {
		return nil, fmt.Errorf("study %s is %s-mode, not fleet", id, status.Mode)
	}
	res, err := w.client.Get(w.base + "/api/v1/studies/" + id + "/spec")
	if err != nil {
		return nil, err
	}
	spec, err := io.ReadAll(res.Body)
	res.Body.Close()
	if err != nil {
		return nil, err
	}
	if res.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("spec fetch: %s", res.Status)
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
	ws := &workerStudy{id: id, frozen: frozen}
	w.studies[id] = ws
	return ws, nil
}

// lease requests the next range for study id.
func (w *fleetWorker) lease(ctx context.Context, id string) (*shard.LeaseResponse, error) {
	u := w.base + "/api/v1/studies/" + id + "/lease?worker=" + url.QueryEscape(w.name)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, u, nil)
	if err != nil {
		return nil, err
	}
	res, err := w.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(res.Body, 512))
		if res.StatusCode == http.StatusNotFound || res.StatusCode == http.StatusConflict {
			return nil, fmt.Errorf("%w: %s: %s", errLeaseRefused, res.Status, bytes.TrimSpace(body))
		}
		return nil, fmt.Errorf("lease: %s: %s", res.Status, bytes.TrimSpace(body))
	}
	var out shard.LeaseResponse
	if err := json.NewDecoder(res.Body).Decode(&out); err != nil {
		return nil, err
	}
	return &out, nil
}

// serveLease executes one granted range and uploads its records: the
// worker's unit of work. Per-lease logs mirror the shard supervisor's
// format ("lease <id> <range>: starting (N points)" / "complete").
func (w *fleetWorker) serveLease(ctx context.Context, id string, grant *shard.LeaseGrant) error {
	ws, err := w.study(id)
	if err != nil {
		return err
	}
	r := shard.Range{Start: grant.Start, End: grant.End}
	start := time.Now()
	w.logf("lease %s %s: starting (%d points)", grant.Lease, r, r.Len())
	store, err := checkpoint.Open(filepath.Join(w.dir, fmt.Sprintf("%s-%06d-%06d.jsonl", id, r.Start, r.End)))
	if err != nil {
		return err
	}

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

	executed := 0
	onPoint := func(index int, line []byte) error {
		executed++
		w.logf("lease %s %s: point %d checkpointed (%d this attempt)", grant.Lease, r, index, executed)
		if w.throttle > 0 {
			time.Sleep(w.throttle)
		}
		return nil
	}
	err = campaign.RunShardRange(ctx, ws.frozen, r.Start, r.End, store, onPoint,
		campaign.WithWorkers(w.workers))
	stopRenew()
	<-renewDone
	if err != nil {
		return err
	}
	up, err := w.upload(ctx, id, grant.Lease, store.Records())
	if err != nil {
		return err
	}
	if up.Rejected > 0 {
		return fmt.Errorf("lease %s: coordinator rejected %d of %d records", grant.Lease, up.Rejected, len(store.Records()))
	}
	// The coordinator holds every record now; the store only mattered for
	// resuming this range, so drop it and keep -dir bounded. (Any error
	// above keeps it: a re-granted range resumes from the checkpoint.)
	if err := os.Remove(store.Path()); err != nil {
		w.logf("lease %s %s: %v", grant.Lease, r, err)
	}
	// Points not executed this attempt came from the lease store: a resume.
	w.logf("lease %s %s: complete after upload (%d accepted, %d duplicate, %d from store, %.1fs)",
		grant.Lease, r, up.Accepted, up.Duplicate, r.Len()-executed, time.Since(start).Seconds())
	return nil
}

// renew extends the lease; false means the coordinator no longer knows
// it (expired or study over) and renewing should stop.
func (w *fleetWorker) renew(ctx context.Context, id, lease string) bool {
	u := w.base + "/api/v1/studies/" + id + "/lease/" + lease + "/renew"
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, u, nil)
	if err != nil {
		return false
	}
	res, err := w.client.Do(req)
	if err != nil {
		return ctx.Err() == nil // transient network error: keep trying
	}
	io.Copy(io.Discard, res.Body) //nolint:errcheck
	res.Body.Close()
	if res.StatusCode == http.StatusGone {
		w.logf("lease %s: expired at the coordinator, finishing anyway", lease)
		return false
	}
	return res.StatusCode == http.StatusOK
}

// upload posts the lease's records as one gzip-compressed JSONL batch.
func (w *fleetWorker) upload(ctx context.Context, id, lease string, records [][]byte) (*shard.CompleteReply, error) {
	var buf bytes.Buffer
	gz := gzip.NewWriter(&buf)
	for _, rec := range records {
		gz.Write(rec)          //nolint:errcheck // bytes.Buffer cannot fail
		gz.Write([]byte{'\n'}) //nolint:errcheck
	}
	if err := gz.Close(); err != nil {
		return nil, err
	}
	u := w.base + "/api/v1/studies/" + id + "/lease/" + lease + "/complete"
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, u, &buf)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	req.Header.Set("Content-Encoding", "gzip")
	res, err := w.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(res.Body, 512))
		return nil, fmt.Errorf("upload: %s: %s", res.Status, bytes.TrimSpace(body))
	}
	var out shard.CompleteReply
	if err := json.NewDecoder(res.Body).Decode(&out); err != nil {
		return nil, err
	}
	return &out, nil
}

func (w *fleetWorker) getJSON(path string, v any) error {
	res, err := w.client.Get(w.base + path)
	if err != nil {
		return err
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", path, res.Status)
	}
	return json.NewDecoder(res.Body).Decode(v)
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
