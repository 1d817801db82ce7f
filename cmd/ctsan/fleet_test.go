package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ctsan/campaign"
	"ctsan/internal/server"
	"ctsan/internal/shard"
)

// fleetHarness is a live campaign service plus helpers for driving real
// `ctsan worker` subprocesses (via the CTSAN_EXEC re-exec seam) against
// it over localhost HTTP.
type fleetHarness struct {
	srv *server.Server
	ts  *httptest.Server
	// workerDirs maps each started worker's name to the -dir it was
	// given, which it must leave empty.
	workerDirs map[string]string
}

func newFleetHarness(t *testing.T, cfg server.Config) *fleetHarness {
	t.Helper()
	srv := server.New(cfg)
	ts := httptest.NewServer(srv.HTTPServer().Handler)
	t.Cleanup(ts.Close)
	return &fleetHarness{srv: srv, ts: ts, workerDirs: map[string]string{}}
}

// submitFleet posts the test study under ?mode=fleet&seed=21 and
// returns its ID.
func (h *fleetHarness) submitFleet(t *testing.T) string {
	t.Helper()
	return h.submit(t, "?mode=fleet&seed=21")
}

// submit posts the test study with the given query string.
func (h *fleetHarness) submit(t *testing.T, query string) string {
	t.Helper()
	spec, err := os.ReadFile(writeSpec(t))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(h.ts.URL+"/api/v1/studies"+query, "application/json", bytes.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d (%s)", resp.StatusCode, body)
	}
	var st server.Status
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	return st.ID
}

func (h *fleetHarness) status(t *testing.T, id string) server.Status {
	t.Helper()
	resp, err := http.Get(h.ts.URL + "/api/v1/studies/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st server.Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// stream fetches the full results JSONL; it blocks until the study is
// terminal.
func (h *fleetHarness) stream(t *testing.T, id string) []byte {
	t.Helper()
	resp, err := http.Get(h.ts.URL + "/api/v1/studies/" + id + "/results")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// syncBuffer guards a worker's captured log: exec's pipe-copier
// goroutine writes while tests poll String mid-run.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// startWorker launches this test binary as a real `ctsan worker`
// subprocess pinned to the study.
func (h *fleetHarness) startWorker(t *testing.T, id, name string, extra ...string) (*exec.Cmd, *syncBuffer) {
	t.Helper()
	self, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	h.workerDirs[name] = t.TempDir()
	args := append([]string{"worker",
		"-server", h.ts.URL,
		"-study-id", id,
		"-name", name,
		"-dir", h.workerDirs[name],
		"-workers", "1",
	}, extra...)
	cmd := exec.Command(self, args...)
	cmd.Env = append(os.Environ(), "CTSAN_EXEC=1")
	logs := &syncBuffer{}
	cmd.Stdout = logs
	cmd.Stderr = logs
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	return cmd, logs
}

// requireEmptyDirs fails unless every started worker left its -dir
// empty: a worker keeps its records in memory until the upload and
// writes no file, killed or not.
func (h *fleetHarness) requireEmptyDirs(t *testing.T) {
	t.Helper()
	for name, dir := range h.workerDirs {
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			t.Errorf("worker %s wrote %s under its -dir", name, filepath.Join(dir, e.Name()))
		}
	}
}

// pointDone reports whether a worker log shows a completed point.
func pointDone(log string) bool { return strings.Contains(log, " done (") }

// TestFleetMatchesSingleProcess is the fleet acceptance differential at
// the process level: three real worker subprocesses pull leases over
// localhost HTTP and the coordinator's folded stream is byte-identical
// to an uninterrupted in-process run — then a second (warm) submission
// completes from cache without granting a single lease.
func TestFleetMatchesSingleProcess(t *testing.T) {
	want := reference(t)
	h := newFleetHarness(t, server.Config{MaxActive: 1, QueueDepth: 8, CacheBytes: 32 << 20})

	id := h.submitFleet(t)
	var cmds []*exec.Cmd
	var logs []*syncBuffer
	for i := 0; i < 3; i++ {
		cmd, lg := h.startWorker(t, id, fmt.Sprintf("w%d", i))
		cmds = append(cmds, cmd)
		logs = append(logs, lg)
	}
	got := h.stream(t, id)
	for i, cmd := range cmds {
		if err := cmd.Wait(); err != nil {
			t.Fatalf("worker %d exited with %v:\n%s", i, err, logs[i])
		}
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("fleet stream differs from in-process run:\n got: %s\nwant: %s", got, want)
	}
	st := h.status(t, id)
	if st.Status != "done" || st.Fleet == nil || st.Fleet.Granted == 0 {
		t.Fatalf("fleet study after run: %+v", st)
	}
	// The workers' per-lease logs follow the supervisor's structured
	// format.
	all := logs[0].String() + logs[1].String() + logs[2].String()
	if !strings.Contains(all, ": starting (") || !strings.Contains(all, ": complete after upload (") {
		t.Errorf("worker logs missing per-lease lines:\n%s", all)
	}
	h.requireEmptyDirs(t)

	// Warm path: a repeat submission is served wholly from the
	// content-addressed cache — same bytes, zero leases, no workers.
	warmID := h.submitFleet(t)
	if warm := h.stream(t, warmID); !bytes.Equal(warm, want) {
		t.Fatalf("warm fleet stream differs from in-process run")
	}
	wst := h.status(t, warmID)
	if wst.Status != "done" || wst.Fleet.Granted != 0 {
		t.Fatalf("warm fleet study: %+v", wst)
	}
}

// TestFleetWorkerKilledMidLease SIGKILLs a worker while it holds (and
// renews) a live lease: the coordinator must expire the orphaned lease
// after the TTL, re-lease its range to a surviving worker, and still
// fold a byte-identical stream — a killed worker costs one lease of
// re-execution, never a wrong result.
func TestFleetWorkerKilledMidLease(t *testing.T) {
	want := reference(t)
	h := newFleetHarness(t, server.Config{MaxActive: 1, QueueDepth: 8, CacheBytes: -1,
		LeaseTTL: 500 * time.Millisecond})

	id := h.submitFleet(t)

	// The victim throttles 30s after its first completed point, so it
	// sits mid-lease — renewing — when the kill lands.
	victim, vlogs := h.startWorker(t, id, "victim", "-throttle", "30s")
	deadline := time.Now().Add(60 * time.Second)
	for {
		st := h.status(t, id)
		if st.Fleet != nil && st.Fleet.Granted >= 1 && pointDone(vlogs.String()) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("victim never started a lease: %+v\n%s", st.Fleet, vlogs)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := victim.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	victim.Wait() //nolint:errcheck // SIGKILL: non-zero exit expected

	// A surviving worker finishes the study, re-executing the orphaned
	// range once the lease expires.
	live, llogs := h.startWorker(t, id, "live")
	got := h.stream(t, id)
	if err := live.Wait(); err != nil {
		t.Fatalf("live worker exited with %v:\n%s", err, llogs)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("stream after SIGKILL differs from in-process run:\n got: %s\nwant: %s", got, want)
	}
	st := h.status(t, id)
	if st.Status != "done" {
		t.Fatalf("study after SIGKILL: %+v", st)
	}
	if st.Fleet.Expired < 1 || st.Fleet.Requeued < 1 {
		t.Errorf("coordinator never expired the victim's lease: %+v", st.Fleet)
	}
	// The victim died holding a completed point it never uploaded, and
	// left nothing behind: the coordinator's re-lease was the whole cost.
	h.requireEmptyDirs(t)
}

// TestFleetWorkerSurvivesCoordinatorRestart: a discovering worker
// freezes a fleet study's grid and holds one of its leases when the
// coordinator dies and comes back on the same address, where a study
// with another seed is submitted. The new daemon numbers its studies
// from 1 again, so were ids to repeat across restarts the worker would
// serve the new study with the old grid, every upload rejected, forever.
// It must instead finish the new study with every record accepted — the
// stream the daemon's own pool computes for it — and go idle.
func TestFleetWorkerSurvivesCoordinatorRestart(t *testing.T) {
	var logs lockedBuffer
	cfg := server.Config{MaxActive: 1, QueueDepth: 8, CacheBytes: -1,
		Logf: func(format string, args ...any) { fmt.Fprintf(&logs, format+"\n", args...) }}
	var current atomic.Pointer[server.Server]
	current.Store(server.New(cfg))
	// batches are the record indices of every upload, in the order the
	// coordinator reads them.
	var (
		mu      sync.Mutex
		batches [][]int
	)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/complete") {
			if enc := r.Header.Get("Content-Encoding"); enc != "" {
				t.Errorf("worker upload has Content-Encoding %q, want plain JSONL", enc)
			}
			body, _ := io.ReadAll(r.Body)
			r.Body = io.NopCloser(bytes.NewReader(body))
			mu.Lock()
			batches = append(batches, uploadIndices(t, body))
			mu.Unlock()
		}
		current.Load().HTTPServer().Handler.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	h := &fleetHarness{ts: ts, workerDirs: map[string]string{}}

	h.submitFleet(t)
	worker, wlogs := h.startWorker(t, "", "survivor", "-throttle", "200ms", "-idle-exit", "1s")
	defer worker.Process.Kill() //nolint:errcheck // a no-op once it has exited
	for deadline := time.Now().Add(60 * time.Second); !pointDone(wlogs.String()); {
		if time.Now().After(deadline) {
			t.Fatalf("worker never started a lease:\n%s", wlogs)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The restart: a new daemon answers on the same address.
	current.Store(server.New(cfg))
	id := h.submit(t, "?mode=fleet&seed=22")
	exited := make(chan error, 1)
	go func() { exited <- worker.Wait() }()
	deadline := time.After(60 * time.Second)
	for done := false; !done; {
		if rejected(logs.String()) {
			t.Fatalf("the new coordinator rejected uploads of the restarted worker:\n%s\nworker:\n%s", logs.String(), wlogs)
		}
		select {
		case err := <-exited:
			if err != nil {
				t.Fatalf("worker exited with %v:\n%s", err, wlogs)
			}
			done = true
		case <-deadline:
			t.Fatalf("worker never finished the new study:\n%s", wlogs)
		case <-time.After(10 * time.Millisecond):
		}
	}
	if st := h.status(t, id); st.Status != "done" {
		t.Fatalf("new study after the worker went idle: %+v", st)
	}
	if got, want := h.stream(t, id), h.stream(t, h.submit(t, "?seed=22")); !bytes.Equal(got, want) {
		t.Fatalf("fleet stream of the new study differs from the daemon's own run:\n got: %s\nwant: %s", got, want)
	}
	// Points complete in the study's start order, chains first; every
	// batch lists its records in grid-index order all the same. Leases
	// past the single-point probe are sized to a second of work, so at
	// least one batch holds several points.
	mu.Lock()
	defer mu.Unlock()
	longest := 0
	for _, b := range batches {
		longest = max(longest, len(b))
		for i := 1; i < len(b); i++ {
			if b[i] != b[i-1]+1 {
				t.Fatalf("upload batch lists records of points %v, not in grid-index order", b)
			}
		}
	}
	if longest < 2 {
		t.Fatalf("no upload batch held more than one record: %v", batches)
	}
}

// uploadIndices reads the grid indices of the records of an upload body
// (plain JSONL), in order.
func uploadIndices(t *testing.T, body []byte) []int {
	var indices []int
	for _, line := range bytes.Split(bytes.TrimSuffix(body, []byte("\n")), []byte("\n")) {
		if rec, err := campaign.DecodeShardRecord(line); err == nil {
			indices = append(indices, rec.Index)
		} else if len(line) > 0 {
			t.Error(err)
		}
	}
	return indices
}

// rejected reports whether a coordinator log holds an upload with
// rejected records.
func rejected(log string) bool {
	for _, line := range strings.Split(log, "\n") {
		var accepted, n int
		if i := strings.Index(line, " upload: "); i >= 0 {
			if _, err := fmt.Sscanf(line[i:], " upload: %d accepted, %d rejected", &accepted, &n); err == nil && n > 0 {
				return true
			}
		}
	}
	return false
}

// TestPinnedWorkerFailsOnPermanentRefusal: a worker pinned to a study
// the coordinator will never lease — a local-mode one (409) or an unknown
// id (404) — exits 1 naming the coordinator's reason instead of retrying
// every 500 ms until killed.
func TestPinnedWorkerFailsOnPermanentRefusal(t *testing.T) {
	h := newFleetHarness(t, server.Config{MaxActive: 1, QueueDepth: 8, CacheBytes: -1})
	local := h.submit(t, "?seed=21")
	h.stream(t, local)
	for _, c := range []struct{ id, reason string }{
		{local, "not fleet-dispatched"},
		{"s999999", "unknown study"},
	} {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		var out bytes.Buffer
		var errb lockedBuffer
		code := run(ctx, []string{"worker", "-server", h.ts.URL, "-study-id", c.id, "-name", "pinned", "-dir", t.TempDir()}, &out, &errb)
		cancel()
		if code != 1 || !strings.Contains(errb.String(), c.reason) || strings.Contains(errb.String(), "retrying") {
			t.Errorf("worker pinned to %s: exit %d, want 1 naming %q without retrying; stderr:\n%s", c.id, code, c.reason, errb.String())
		}
	}
}

// TestWorkerOfAnotherEpochGetsNoLease: a worker whose records are of the
// next results epoch — none would verify at this coordinator — is
// refused every lease with a 409 naming both epochs, and a worker pinned
// to the study stops on it instead of computing records for nothing.
func TestWorkerOfAnotherEpochGetsNoLease(t *testing.T) {
	h := newFleetHarness(t, server.Config{MaxActive: 1, QueueDepth: 8, CacheBytes: -1})
	id := h.submitFleet(t)
	for h.status(t, id).Status != "running" {
		time.Sleep(5 * time.Millisecond)
	}
	w := &fleetWorker{base: h.ts.URL, name: "next-epoch", epoch: campaign.Epoch + 1, exec: campaign.SharedExecutor(1),
		client: &http.Client{}, studies: map[string]*workerStudy{}, stderr: io.Discard}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := w.loop(ctx, id, 0)
	want := fmt.Sprintf("worker results epoch %d, coordinator results epoch %d", campaign.Epoch+1, campaign.Epoch)
	if !errors.Is(err, errLeaseRefused) || !strings.Contains(err.Error(), "409") || !strings.Contains(err.Error(), want) {
		t.Fatalf("pinned worker of the next epoch: %v; want a refused lease naming %q", err, want)
	}
	if st := h.status(t, id); st.Fleet == nil || st.Fleet.Granted != 0 {
		t.Fatalf("the coordinator granted a lease to a worker of another epoch: %+v", st.Fleet)
	}
}

// TestWorkerDecodesTheCoordinatorsLeaseBodies drives the worker's own
// lease and upload calls against the real handlers: each of the three
// lease shapes — a grant, {"retry_ms":N}, {"done":true} — and the upload
// accounting arrive intact in the shared internal/shard wire types.
func TestWorkerDecodesTheCoordinatorsLeaseBodies(t *testing.T) {
	h := newFleetHarness(t, server.Config{MaxActive: 1, QueueDepth: 8, CacheBytes: -1})
	id := h.submitFleet(t)
	for h.status(t, id).Status != "running" {
		time.Sleep(5 * time.Millisecond)
	}
	ctx := context.Background()
	w := &fleetWorker{base: h.ts.URL, name: "decoder", epoch: campaign.Epoch, exec: campaign.SharedExecutor(1),
		client: &http.Client{}, studies: map[string]*workerStudy{}, stderr: io.Discard}

	points := len(testStudy().Points)
	var grants []*shard.LeaseResponse
	for leased := 0; leased < points; {
		resp, err := w.lease(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Lease == "" || resp.Study != id || resp.Start != leased || resp.End <= resp.Start ||
			resp.Points != resp.End-resp.Start || resp.TTLMS <= 0 || resp.Deadline == "" || resp.Done || resp.RetryMS != 0 {
			t.Fatalf("grant decoded as %+v with %d points already leased", resp, leased)
		}
		leased = resp.End
		grants = append(grants, resp)
	}
	resp, err := w.lease(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Lease != "" || resp.Done || resp.RetryMS <= 0 {
		t.Fatalf("lease with every point leased out decoded as %+v, want a retry hint", resp)
	}
	for _, g := range grants {
		if err := w.serveLease(ctx, id, &g.LeaseGrant); err != nil {
			t.Fatal(err)
		}
	}
	if resp, err = w.lease(ctx, id); err != nil {
		t.Fatal(err)
	}
	if !resp.Done || resp.Lease != "" || resp.RetryMS != 0 {
		t.Fatalf("lease on the finished study decoded as %+v, want done", resp)
	}
	// serveLease read the upload accounting of real batches; an empty
	// batch to the finished study pins the reply's zero counts and done.
	up, err := w.upload(ctx, id, grants[0].Lease, nil)
	if err != nil {
		t.Fatal(err)
	}
	if *up != (shard.CompleteReply{Done: true}) {
		t.Fatalf("empty upload to the finished study decoded as %+v", *up)
	}
}

// TestWorkerRejectsGrantsOutsideTheGrid: a granted range arrives over
// HTTP, and campaign.RunRecords checks its indices against the frozen
// grid before running any. A range past the end, one with a negative
// start and an empty or reversed one are each an error naming the grid,
// not a panic.
func TestWorkerRejectsGrantsOutsideTheGrid(t *testing.T) {
	h := newFleetHarness(t, server.Config{MaxActive: 1, QueueDepth: 8, CacheBytes: -1})
	id := h.submitFleet(t)
	w := &fleetWorker{base: h.ts.URL, name: "bogus", epoch: campaign.Epoch, exec: campaign.SharedExecutor(1),
		client: &http.Client{}, studies: map[string]*workerStudy{}, stderr: io.Discard}
	points := len(testStudy().Points)
	for _, tc := range []struct {
		r    shard.Range
		want string
	}{
		{shard.Range{Start: 0, End: points + 1}, fmt.Sprintf("index %d outside study of %d points", points, points)},
		{shard.Range{Start: -1, End: 1}, fmt.Sprintf("index -1 outside study of %d points", points)},
		{shard.Range{Start: 2, End: 2}, fmt.Sprintf("no index to run in study of %d points", points)},
		{shard.Range{Start: 3, End: 1}, fmt.Sprintf("no index to run in study of %d points", points)},
	} {
		grant := &shard.LeaseGrant{Lease: "L-bogus", Study: id, Start: tc.r.Start, End: tc.r.End, TTLMS: 1000}
		err := w.serveLease(context.Background(), id, grant)
		if want := "campaign: " + tc.want; err == nil || err.Error() != want {
			t.Errorf("grant %s: error %v, want %q", tc.r, err, want)
		}
	}
}

// TestWorkerFlagErrors pins the worker's flag surface.
func TestWorkerFlagErrors(t *testing.T) {
	if code, _, errb := ctsan(t, "worker"); code != 2 || !strings.Contains(errb, "-server") {
		t.Fatalf("missing -server: exit %d, stderr %q", code, errb)
	}
}
