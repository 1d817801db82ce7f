package server

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"ctsan/campaign"
	"ctsan/internal/checkpoint"
	"ctsan/internal/shard"
)

// testWorker is the in-test fleet worker: the lease → execute → upload
// loop of `ctsan worker`, driven against the httptest server. It
// freezes the study from the same (spec, seed) inputs the coordinator
// used, so determinism makes its records verifiable.
type testWorker struct {
	h    *testServer
	name string
	dir  string
	// misbehave, when non-nil, transforms the upload lines (corruption
	// and omission tests).
	misbehave func([][]byte) [][]byte
}

func (w *testWorker) leaseOnce(t *testing.T, id string) shard.LeaseResponse {
	t.Helper()
	resp, data := w.h.post(t, "/api/v1/studies/"+id+"/lease?worker="+w.name, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("worker %s: lease status %d (%s)", w.name, resp.StatusCode, data)
	}
	var lr shard.LeaseResponse
	if err := json.Unmarshal(data, &lr); err != nil {
		t.Fatalf("worker %s: decode lease: %v", w.name, err)
	}
	return lr
}

// serve works the study to completion: lease, execute the range through
// the real checkpointed range runner, gzip-upload the records.
func (w *testWorker) serve(t *testing.T, id string) {
	t.Helper()
	frozen, err := campaign.Frozen(testStudy(), campaign.WithSeed(1))
	if err != nil {
		t.Errorf("worker %s: freeze: %v", w.name, err)
		return
	}
	for {
		lr := w.leaseOnce(t, id)
		switch {
		case lr.Done:
			return
		case lr.Lease == "":
			time.Sleep(time.Duration(max(lr.RetryMS, 1)) * time.Millisecond)
		default:
			store, err := checkpoint.Open(filepath.Join(w.dir, fmt.Sprintf("%s-%s-%d-%d.jsonl", w.name, id, lr.Start, lr.End)))
			if err != nil {
				t.Errorf("worker %s: open store: %v", w.name, err)
				return
			}
			err = campaign.RunShardRange(context.Background(), frozen, lr.Start, lr.End, store,
				func(int, []byte) error { return nil }, campaign.WithWorkers(1))
			if err != nil {
				t.Errorf("worker %s: range %d:%d: %v", w.name, lr.Start, lr.End, err)
				return
			}
			lines := store.Records()
			if w.misbehave != nil {
				lines = w.misbehave(lines)
			}
			w.upload(t, id, lr.Lease, lines)
		}
	}
}

func (w *testWorker) upload(t *testing.T, id, lease string, lines [][]byte) shard.CompleteReply {
	t.Helper()
	var buf bytes.Buffer
	gz := gzip.NewWriter(&buf)
	for _, line := range lines {
		gz.Write(line)
		gz.Write([]byte{'\n'})
	}
	gz.Close()
	req, err := http.NewRequest(http.MethodPost, w.h.ts.URL+"/api/v1/studies/"+id+"/lease/"+lease+"/complete", &buf)
	if err != nil {
		t.Fatalf("upload request: %v", err)
	}
	req.Header.Set("Content-Encoding", "gzip")
	res, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("upload: %v", err)
	}
	defer res.Body.Close()
	var out shard.CompleteReply
	if err := json.NewDecoder(res.Body).Decode(&out); err != nil {
		t.Fatalf("upload: decode reply (status %d): %v", res.StatusCode, err)
	}
	if res.StatusCode != http.StatusOK {
		t.Fatalf("upload: status %d", res.StatusCode)
	}
	return out
}

// TestFleetDifferentialByteIdentity is the fleet acceptance
// differential: a study dispatched to three pull-based workers streams
// byte-for-byte the JSONL of an in-process campaign.Run — cold, and
// again warm, where the second submission is served entirely from the
// content-addressed cache without granting a single lease.
func TestFleetDifferentialByteIdentity(t *testing.T) {
	spec := testSpecBytes(t)
	want := referenceJSONL(t, 1)
	points := len(testStudy().Points)
	h := newTestServer(t, Config{Workers: 1, MaxActive: 1, QueueDepth: 8, CacheBytes: 32 << 20})

	cold := h.mustSubmit(t, spec, "?mode=fleet")
	if cold.Mode != "fleet" || cold.Workers != 0 {
		t.Fatalf("fleet submission: mode=%q workers=%d, want fleet/0", cold.Mode, cold.Workers)
	}
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		w := &testWorker{h: h, name: fmt.Sprintf("w%d", i), dir: t.TempDir()}
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.serve(t, cold.ID)
		}()
	}
	got := h.streamResults(t, cold.ID)
	wg.Wait()
	if !bytes.Equal(got, want) {
		t.Errorf("cold fleet stream differs from in-process run:\n got: %s\nwant: %s", got, want)
	}
	st := h.waitTerminal(t, cold.ID)
	if st.Status != "done" || st.Done != points {
		t.Fatalf("cold fleet study: %+v", st)
	}
	if st.Fleet == nil || st.Fleet.Granted == 0 || st.Fleet.Completed == 0 {
		t.Errorf("fleet ledger after cold run: %+v", st.Fleet)
	}
	if st.Fleet.Pending != 0 || st.Fleet.Leases != 0 {
		t.Errorf("fleet ledger not drained: %+v", st.Fleet)
	}

	// Warm: every point is cache-resident, so the study completes with
	// zero leases and the identical bytes.
	warm := h.mustSubmit(t, spec, "?mode=fleet")
	if got := h.streamResults(t, warm.ID); !bytes.Equal(got, want) {
		t.Errorf("warm fleet stream differs from in-process run:\n got: %s\nwant: %s", got, want)
	}
	wst := h.waitTerminal(t, warm.ID)
	if wst.Status != "done" {
		t.Fatalf("warm fleet study: %+v", wst)
	}
	if wst.Fleet.Granted != 0 {
		t.Errorf("warm fleet study granted %d leases, want 0", wst.Fleet.Granted)
	}
	if wst.CacheHits != int64(points) || wst.CacheMisses != 0 {
		t.Errorf("warm fleet study: hits=%d misses=%d, want %d/0", wst.CacheHits, wst.CacheMisses, points)
	}
}

// TestCacheOffAccountingSameInBothModes: with the cache disabled no
// lookup happens, so a study reports 0 hits / 0 misses however it is
// dispatched (the fleet preload used to count a miss per point against
// the nil cache while local mode and /api/v1/stats said 0).
func TestCacheOffAccountingSameInBothModes(t *testing.T) {
	spec := testSpecBytes(t)
	h := newTestServer(t, Config{Workers: 1, MaxActive: 1, QueueDepth: 8, CacheBytes: -1})

	local := h.mustSubmit(t, spec, "")
	lst := h.waitTerminal(t, local.ID)

	fleet := h.mustSubmit(t, spec, "?mode=fleet")
	(&testWorker{h: h, name: "w", dir: t.TempDir()}).serve(t, fleet.ID)
	fst := h.waitTerminal(t, fleet.ID)

	for _, st := range []Status{lst, fst} {
		if st.Status != "done" || st.CacheHits != 0 || st.CacheMisses != 0 {
			t.Errorf("%s study with the cache off: status %s, hits=%d misses=%d, want done 0/0",
				st.Mode, st.Status, st.CacheHits, st.CacheMisses)
		}
	}
}

// TestFleetLeaseExpiryRequeues pins the crash-safety property: a worker
// that takes a lease and dies (never uploads, never renews) costs only
// that lease — after the TTL the range is re-leased to a live worker
// and the final stream is still byte-identical.
func TestFleetLeaseExpiryRequeues(t *testing.T) {
	spec := testSpecBytes(t)
	want := referenceJSONL(t, 1)
	h := newTestServer(t, Config{Workers: 1, MaxActive: 1, QueueDepth: 8, CacheBytes: -1,
		LeaseTTL: 150 * time.Millisecond})

	st := h.mustSubmit(t, spec, "?mode=fleet")
	h.waitRunning(t, st.ID)

	// The doomed worker grabs the first lease and vanishes.
	doomed := &testWorker{h: h, name: "doomed", dir: t.TempDir()}
	lr := doomed.leaseOnce(t, st.ID)
	if lr.Lease == "" {
		t.Fatalf("doomed worker got no lease: %+v", lr)
	}

	// A live worker completes the study; the doomed range re-leases to it
	// after the TTL.
	live := &testWorker{h: h, name: "live", dir: t.TempDir()}
	live.serve(t, st.ID)

	if got := h.streamResults(t, st.ID); !bytes.Equal(got, want) {
		t.Errorf("stream after expiry differs from in-process run:\n got: %s\nwant: %s", got, want)
	}
	final := h.waitTerminal(t, st.ID)
	if final.Status != "done" {
		t.Fatalf("study after expiry: %+v", final)
	}
	if final.Fleet.Expired < 1 || final.Fleet.Requeued < 1 {
		t.Errorf("fleet ledger did not record the expiry: %+v", final.Fleet)
	}
}

// TestFleetUploadVerification pins the trust boundary: corrupt lines,
// records for the wrong grid, and empty uploads are rejected per line
// with the lease's unfinished points requeued — a broken worker cannot
// poison the merge, only slow it down.
func TestFleetUploadVerification(t *testing.T) {
	spec := testSpecBytes(t)
	want := referenceJSONL(t, 1)
	h := newTestServer(t, Config{Workers: 1, MaxActive: 1, QueueDepth: 8, CacheBytes: -1})

	st := h.mustSubmit(t, spec, "?mode=fleet")
	h.waitRunning(t, st.ID)

	// First worker corrupts every record; nothing lands, everything is
	// requeued at upload time.
	corrupt := &testWorker{h: h, name: "corrupt", dir: t.TempDir()}
	lr := corrupt.leaseOnce(t, st.ID)
	if lr.Lease == "" {
		t.Fatalf("no lease: %+v", lr)
	}
	out := corrupt.upload(t, st.ID, lr.Lease, [][]byte{
		[]byte(`{"crc":"00000000","body":{"v":1}}`),
		[]byte("not json at all"),
	})
	if out.Accepted != 0 || out.Rejected != 2 || out.Done {
		t.Fatalf("corrupt upload accounting: %+v", out)
	}
	fs := h.status(t, st.ID)
	if fs.Fleet.Requeued < int64(lr.End-lr.Start) {
		t.Errorf("corrupt lease did not requeue its range: %+v", fs.Fleet)
	}

	// An honest worker still completes the identical study.
	honest := &testWorker{h: h, name: "honest", dir: t.TempDir()}
	honest.serve(t, st.ID)
	if got := h.streamResults(t, st.ID); !bytes.Equal(got, want) {
		t.Errorf("stream after rejected upload differs from reference")
	}
	final := h.waitTerminal(t, st.ID)
	if final.Status != "done" {
		t.Fatalf("study: %+v", final)
	}

	// Fleet endpoints on a local-mode study are a 409.
	local := h.mustSubmit(t, spec, "")
	h.waitTerminal(t, local.ID)
	resp, _ := h.post(t, "/api/v1/studies/"+local.ID+"/lease?worker=x", nil)
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("lease on local study: status %d, want 409", resp.StatusCode)
	}
	// Renewing an unknown lease is 410 Gone.
	resp, _ = h.post(t, "/api/v1/studies/"+st.ID+"/lease/l999999/renew", nil)
	if resp.StatusCode != http.StatusGone {
		t.Errorf("renew unknown lease: status %d, want 410", resp.StatusCode)
	}
}

// TestFleetPartialUploadRequeuesHoles drives a fleet study's ledger as
// the handlers do (newFleet wires it to the sizer and the hub): a lease
// answered with only part of its range requeues exactly the holes, late
// duplicates are dropped, and the hub receives the reference bytes in
// grid order regardless of arrival order.
func TestFleetPartialUploadRequeuesHoles(t *testing.T) {
	frozen, err := campaign.Frozen(testStudy(), campaign.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	points, err := testStudy().FrozenPoints(campaign.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	// Execute the full grid once to have verified records on hand.
	store, err := checkpoint.Open(filepath.Join(t.TempDir(), "all.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if err := campaign.RunShardRange(context.Background(), frozen, 0, len(points), store,
		func(int, []byte) error { return nil }, campaign.WithWorkers(1)); err != nil {
		t.Fatal(err)
	}
	recs := store.Records()
	if len(recs) != 3 {
		t.Fatalf("test study has %d records, want 3", len(recs))
	}

	now := time.Now()
	st := &study{points: points, hub: newHub()}
	st.newFleet(time.Minute, time.Second)
	m := st.fleet
	// complete is handleLeaseComplete's ledger half.
	complete := func(at time.Time, lease string, lines [][]byte) shard.Completion {
		out := m.Complete(at, lease, lines)
		if out.Lease != nil && out.Holes == 0 {
			st.sizer.observe(out.Lease.Len(), at.Sub(out.Lease.Granted))
		}
		return out
	}
	g, _, done := m.Grant(now, "w")
	if done || g == nil || g.Start != 0 || g.End != 1 {
		t.Fatalf("first grant = %+v, done=%v; want single-point probe 0:1", g, done)
	}
	// Complete the probe; the EWMA calibrates and the next lease covers
	// more than one point (the elapsed time is ~0, so size clamps up).
	out := complete(now.Add(time.Millisecond), g.ID, recs[:1])
	if len(out.Accepted) != 1 || out.Emitted != 1 || st.hub.count() != 1 {
		t.Fatalf("probe completion: %+v", out)
	}
	g2, _, _ := m.Grant(now, "w")
	if g2 == nil || g2.Start != 1 || g2.End != 3 {
		t.Fatalf("second grant = %+v, want calibrated range 1:3", g2)
	}
	// Answer it with only the LAST record: index 1 is a hole — requeued —
	// and index 2 must not stream yet (in-order fold).
	out = complete(now.Add(2*time.Millisecond), g2.ID, recs[2:3])
	if len(out.Accepted) != 1 || out.Done || out.Holes != 1 || out.Emitted != 1 || st.hub.count() != 1 {
		t.Fatalf("partial completion: %+v", out)
	}
	if fs := m.Stats(); fs.Pending != 1 || fs.Requeued != 1 {
		t.Fatalf("after partial upload: %+v", fs)
	}
	// The hole re-leases; completing it releases BOTH remaining lines in
	// grid order, and a late duplicate of record 2 is dropped.
	g3, _, _ := m.Grant(now, "w2")
	if g3 == nil || g3.Start != 1 || g3.End != 2 || g3.Attempt != 2 {
		t.Fatalf("re-lease = %+v, want 1:2 on its second attempt", g3)
	}
	out = complete(now.Add(3*time.Millisecond), g3.ID, [][]byte{recs[1], recs[2]})
	if len(out.Accepted) != 1 || out.Duplicate != 1 || !out.Done || out.Emitted != 3 {
		t.Fatalf("hole completion: %+v", out)
	}
	select {
	case <-m.Done():
	default:
		t.Fatal("ledger did not signal done")
	}
	// The hub holds the records' Result lines in grid order.
	stream, _, _, _ := st.hub.snapshot(0)
	if len(stream) != len(recs) {
		t.Fatalf("hub holds %d lines, want %d", len(stream), len(recs))
	}
	for i, rec := range recs {
		dec, err := campaign.DecodeShardRecord(rec)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(stream[i], dec.Result) {
			t.Errorf("streamed line %d differs from record result", i)
		}
	}
}

// TestFleetAdaptiveLeaseSizing pins the sizing rule: single-point probe
// until calibrated, then target/avg clamped to [1, maxLeasePoints].
func TestFleetAdaptiveLeaseSizing(t *testing.T) {
	z := &leaseSizer{target: time.Second}
	cases := []struct {
		avg  time.Duration
		want int
	}{
		{0, 1}, // uncalibrated: probe
		{100 * time.Millisecond, 10},
		{2 * time.Second, 1},               // slower than target: floor
		{time.Microsecond, maxLeasePoints}, // faster than target/max: ceiling
	}
	for _, tc := range cases {
		z.avgPoint.Store(int64(tc.avg))
		if got := z.size(); got != tc.want {
			t.Errorf("size(avg=%v) = %d, want %d", tc.avg, got, tc.want)
		}
	}
	// A fulfilled lease calibrates: first observation as is, later ones
	// folded 7:3; a lease that took no measurable time counts 1ms a point.
	z.avgPoint.Store(0)
	z.observe(10, time.Second)
	if got := time.Duration(z.avgPoint.Load()); got != 100*time.Millisecond {
		t.Errorf("first observation gave %v, want 100ms", got)
	}
	z.observe(10, 0)
	if got := time.Duration(z.avgPoint.Load()); got != (700*time.Millisecond+3*time.Millisecond)/10 {
		t.Errorf("second observation gave %v", got)
	}
	z.observe(1000, 100*time.Millisecond) // 100µs a point, taken as is
	if got := time.Duration(z.avgPoint.Load()); got != (7*70300*time.Microsecond+3*100*time.Microsecond)/10 {
		t.Errorf("third observation gave %v", got)
	}
}

// TestCacheSpillRoundTrip pins the persistent point cache: spilled
// records survive a cache restart, warm-load with validation, and a
// damaged spill line is skipped rather than trusted.
func TestCacheSpillRoundTrip(t *testing.T) {
	frozen, err := campaign.Frozen(testStudy(), campaign.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	points, err := testStudy().FrozenPoints(campaign.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	store, err := checkpoint.Open(filepath.Join(t.TempDir(), "all.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if err := campaign.RunShardRange(context.Background(), frozen, 0, len(points), store,
		func(int, []byte) error { return nil }, campaign.WithWorkers(1)); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	c := NewCache(1 << 20)
	if _, err := c.EnableSpill(dir); err != nil {
		t.Fatalf("EnableSpill: %v", err)
	}
	for i, rec := range store.Records() {
		c.PutEncoded(points[i].Hash, rec)
	}
	if err := c.SpillAll(); err != nil {
		t.Fatalf("SpillAll: %v", err)
	}

	// A fresh cache over the same dir warm-loads every record.
	c2 := NewCache(1 << 20)
	loaded, err := c2.EnableSpill(dir)
	if err != nil {
		t.Fatalf("EnableSpill(reload): %v", err)
	}
	if loaded != len(points) {
		t.Fatalf("warm-loaded %d records, want %d", loaded, len(points))
	}
	for i, p := range points {
		res, ok := c2.Get(p.Hash)
		if !ok {
			t.Fatalf("point %d missing after warm load", i)
		}
		if res.Seed != p.Seed {
			t.Errorf("point %d: warm-loaded seed %d, want %d", i, res.Seed, p.Seed)
		}
	}

	// SpillAll again writes nothing new (all already on disk): the spill
	// file keeps exactly one line per unique record.
	if err := c2.SpillAll(); err != nil {
		t.Fatal(err)
	}
	recs, _, err := checkpoint.Load(filepath.Join(dir, SpillFile))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(points) {
		t.Errorf("spill file holds %d records after double spill, want %d", len(recs), len(points))
	}

	// Corrupt spill content is skipped on load, not trusted.
	dir2 := t.TempDir()
	bad, err := checkpoint.Open(filepath.Join(dir2, SpillFile))
	if err != nil {
		t.Fatal(err)
	}
	if err := bad.AppendBatch([][]byte{[]byte(`{"crc":"deadbeef","body":{}}`), store.Records()[0]}); err != nil {
		t.Fatal(err)
	}
	c3 := NewCache(1 << 20)
	loaded, err = c3.EnableSpill(dir2)
	if err != nil {
		t.Fatal(err)
	}
	if loaded != 1 {
		t.Errorf("loaded %d records from a half-corrupt spill, want 1", loaded)
	}
}

// TestServerCacheSpillAcrossRestart runs a study on one server with
// spill enabled, shuts it down, and checks a second server over the
// same directory serves the repeat study entirely from cache.
func TestServerCacheSpillAcrossRestart(t *testing.T) {
	spec := testSpecBytes(t)
	want := referenceJSONL(t, 1)
	points := len(testStudy().Points)
	dir := t.TempDir()

	h1 := newTestServer(t, Config{Workers: 2, MaxActive: 1, QueueDepth: 4, CacheBytes: 32 << 20})
	if _, err := h1.s.EnableCacheSpill(dir); err != nil {
		t.Fatalf("EnableCacheSpill: %v", err)
	}
	st := h1.mustSubmit(t, spec, "")
	h1.streamResults(t, st.ID)
	h1.waitTerminal(t, st.ID)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := h1.s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}

	h2 := newTestServer(t, Config{Workers: 2, MaxActive: 1, QueueDepth: 4, CacheBytes: 32 << 20})
	loaded, err := h2.s.EnableCacheSpill(dir)
	if err != nil {
		t.Fatalf("EnableCacheSpill(restart): %v", err)
	}
	if loaded != points {
		t.Fatalf("restart warm-loaded %d records, want %d", loaded, points)
	}
	warm := h2.mustSubmit(t, spec, "")
	if got := h2.streamResults(t, warm.ID); !bytes.Equal(got, want) {
		t.Errorf("post-restart stream differs from reference")
	}
	final := h2.waitTerminal(t, warm.ID)
	if final.CacheHits != int64(points) || final.CacheMisses != 0 {
		t.Errorf("post-restart study: hits=%d misses=%d, want %d/0", final.CacheHits, final.CacheMisses, points)
	}
}

// wideStudy is a grid of n three-replica SAN points: trivial to execute,
// but wide enough that per-point coordinator work (cache pre-serve, hub
// appends) spans a scheduling quantum.
func wideStudy(n int) *campaign.Study {
	st := campaign.NewStudy("wide")
	for i := 0; i < n; i++ {
		st.Add(campaign.SANPoint{N: 3, Replicas: 3})
	}
	return st
}

// TestFleetSubmitWhileStatusPolled is the regression test for the ABBA
// deadlock between study.snapshot (study.mu, then the ledger lock for
// the fleet block) and the cache pre-serve pass (ledger lock, then
// study.mu per counted cache lookup) that a fleet study used to run —
// neither nests any more: a fleet study POSTed to an idle daemon starts
// its pre-serve pass at once, while the 202 reply and any status poller
// snapshot the same study. The cache is warmed first so the pass does
// real per-point work and the two paths overlap for certain. Every
// request carries a timeout, so a wedged daemon fails the test instead
// of hanging it.
func TestFleetSubmitWhileStatusPolled(t *testing.T) {
	spec, err := campaign.EncodeStudy(wideStudy(2000))
	if err != nil {
		t.Fatal(err)
	}
	h := newTestServer(t, Config{Workers: 2, MaxActive: 1, QueueDepth: 8, CacheBytes: 64 << 20})
	warm := h.mustSubmit(t, spec, "")
	if st := h.waitTerminal(t, warm.ID); st.Status != "done" {
		t.Fatalf("warming study: %+v", st)
	}

	client := &http.Client{Timeout: 10 * time.Second}
	get := func(path string, v any) error {
		resp, err := client.Get(h.ts.URL + path)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		return json.NewDecoder(resp.Body).Decode(v)
	}
	stop := make(chan struct{})
	var pollers sync.WaitGroup
	for i := 0; i < 4; i++ {
		pollers.Add(1)
		go func() {
			defer pollers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				var all []Status // every study, the one being submitted as soon as it is admitted
				if err := get("/api/v1/studies", &all); err != nil {
					t.Errorf("status poll: %v (daemon wedged?)", err)
					return
				}
			}
		}()
	}
	resp, err := client.Post(h.ts.URL+"/api/v1/studies?mode=fleet", "application/json", bytes.NewReader(spec))
	if err != nil {
		t.Fatalf("submit: %v (daemon wedged?)", err)
	}
	var sub Status
	err = json.NewDecoder(resp.Body).Decode(&sub)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || err != nil {
		t.Fatalf("submit: status %d (%v)", resp.StatusCode, err)
	}
	// Every point is cache-resident, so the pre-serve pass completes the
	// study without a lease.
	for deadline := time.Now().Add(10 * time.Second); ; {
		var st Status
		if err := get("/api/v1/studies/"+sub.ID, &st); err != nil {
			t.Fatalf("status: %v (daemon wedged?)", err)
		}
		if st.Status == "done" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("warm fleet study never finished: %+v", st)
		}
	}
	close(stop)
	pollers.Wait()
}

// TestFleetStreamEndsAfterLastUpload is the regression test for the
// truncated fleet stream: the upload that completes the grid signals the
// dispatch loop, which must not finish the hub before that upload's own
// lines have been appended. A subscriber attached before the upload must
// read exactly one line per point before EOF, every time.
func TestFleetStreamEndsAfterLastUpload(t *testing.T) {
	const points = 400
	study := wideStudy(points)
	spec, err := campaign.EncodeStudy(study)
	if err != nil {
		t.Fatal(err)
	}
	// Execute the grid once; determinism makes the records valid for every
	// resubmission of the same spec and seed.
	frozen, err := campaign.Frozen(study, campaign.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	store, err := checkpoint.Open(filepath.Join(t.TempDir(), "all.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if err := campaign.RunShardRange(context.Background(), frozen, 0, points, store,
		func(int, []byte) error { return nil }, campaign.WithWorkers(1)); err != nil {
		t.Fatal(err)
	}
	recs := store.Records()

	h := newTestServer(t, Config{Workers: 1, MaxActive: 1, QueueDepth: 8, CacheBytes: -1})
	w := &testWorker{h: h, name: "w"}
	for round := 0; round < 20; round++ {
		st := h.mustSubmit(t, spec, "?mode=fleet")
		h.waitRunning(t, st.ID)
		// The response headers arrive once the handler has taken its first
		// hub snapshot, so the subscriber is following the live tail.
		stream, err := http.Get(h.ts.URL + "/api/v1/studies/" + st.ID + "/results")
		if err != nil {
			t.Fatal(err)
		}
		// One upload carries the whole grid (no lease: late records are
		// verified and accepted like any others).
		if out := w.upload(t, st.ID, "l999999", recs); out.Accepted != points || !out.Done {
			t.Fatalf("round %d: upload: %+v", round, out)
		}
		data, err := io.ReadAll(stream.Body)
		stream.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if got := bytes.Count(data, []byte{'\n'}); got != points {
			t.Fatalf("round %d: stream ended after %d lines, want %d", round, got, points)
		}
		h.waitTerminal(t, st.ID)
	}
}
