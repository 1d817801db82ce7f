package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"ctsan/campaign"
	"ctsan/internal/checkpoint"
	"ctsan/internal/obs"
	"ctsan/internal/shard"
)

// testWorker is the in-test fleet worker: the lease → execute → upload
// loop of `ctsan worker`, driven against the httptest server. It
// freezes the study from the same (spec, seed) inputs the coordinator
// used, so determinism makes its records verifiable.
type testWorker struct {
	h    *testServer
	name string
	// study is the study it serves (testStudy() when nil), and leased
	// the ranges it was granted.
	study  *campaign.Study
	leased []shard.Range
	// misbehave, when non-nil, transforms the upload lines (corruption
	// and omission tests).
	misbehave func([][]byte) [][]byte
}

func (w *testWorker) leaseOnce(t *testing.T, id string) shard.LeaseResponse {
	t.Helper()
	resp, data := w.h.post(t, fmt.Sprintf("/api/v1/studies/%s/lease?worker=%s&epoch=%d", id, w.name, campaign.Epoch), nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("worker %s: lease status %d (%s)", w.name, resp.StatusCode, data)
	}
	var lr shard.LeaseResponse
	if err := json.Unmarshal(data, &lr); err != nil {
		t.Fatalf("worker %s: decode lease: %v", w.name, err)
	}
	return lr
}

// serve works the study to completion: lease, execute the range as
// `ctsan worker` does (rangeRecords), upload the records.
func (w *testWorker) serve(t *testing.T, id string) {
	t.Helper()
	study := w.study
	if study == nil {
		study = testStudy()
	}
	frozen, err := campaign.Frozen(study, campaign.WithSeed(1))
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
			w.leased = append(w.leased, shard.Range{Start: lr.Start, End: lr.End})
			lines, err := rangeRecords(frozen, lr.Start, lr.End)
			if err != nil {
				t.Errorf("worker %s: range %d:%d: %v", w.name, lr.Start, lr.End, err)
				return
			}
			if w.misbehave != nil {
				lines = w.misbehave(lines)
			}
			w.upload(t, id, lr.Lease, lines)
		}
	}
}

// rangeRecords runs points [start, end) of a frozen grid as a sub-study
// and encodes each result as the shard record of its grid index: the
// batch `ctsan worker` uploads for a lease of that range.
func rangeRecords(frozen *campaign.Study, start, end int) ([][]byte, error) {
	hashes, err := campaign.StudyPointHashes(frozen)
	if err != nil {
		return nil, err
	}
	sub := &campaign.Study{Name: frozen.Name, Points: frozen.Points[start:end]}
	results, err := campaign.RunCollect(context.Background(), sub, campaign.WithWorkers(1))
	if err != nil {
		return nil, err
	}
	records := make([][]byte, len(results))
	for i, res := range results {
		res.Index = start + i
		if records[i], err = campaign.EncodeShardRecord(hashes[res.Index], res); err != nil {
			return nil, err
		}
	}
	return records, nil
}

func (w *testWorker) upload(t *testing.T, id, lease string, lines [][]byte) shard.CompleteReply {
	t.Helper()
	var buf bytes.Buffer
	for _, line := range lines {
		buf.Write(line)
		buf.WriteByte('\n')
	}
	res, err := http.Post(w.h.ts.URL+"/api/v1/studies/"+id+"/lease/"+lease+"/complete", "application/x-ndjson", &buf)
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
		w := &testWorker{h: h, name: fmt.Sprintf("w%d", i)}
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
	(&testWorker{h: h, name: "w"}).serve(t, fleet.ID)
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
	doomed := &testWorker{h: h, name: "doomed"}
	lr := doomed.leaseOnce(t, st.ID)
	if lr.Lease == "" {
		t.Fatalf("doomed worker got no lease: %+v", lr)
	}

	// A live worker completes the study; the doomed range re-leases to it
	// after the TTL.
	live := &testWorker{h: h, name: "live"}
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

// TestFleetRetryIsShortWhenAllLeased: a worker that finds every point
// leased out is told to come back within leaseRetryMS at the default
// TTL, not after a fraction of the TTL, so a pinned worker learns soon
// that its study is done.
func TestFleetRetryIsShortWhenAllLeased(t *testing.T) {
	h := newTestServer(t, Config{Workers: 1, MaxActive: 1, QueueDepth: 4, CacheBytes: -1})
	st := h.mustSubmit(t, testSpecBytes(t), "?mode=fleet")
	h.waitRunning(t, st.ID)
	for i := 0; ; i++ {
		// Every grant before a lease is fulfilled is a one-point probe.
		lr := (&testWorker{h: h, name: fmt.Sprintf("w%d", i)}).leaseOnce(t, st.ID)
		if lr.Lease != "" {
			continue
		}
		if lr.Done || lr.RetryMS <= 0 || lr.RetryMS > leaseRetryMS {
			t.Fatalf("after %d grants: %+v, want retry_ms in (0, %d]", i, lr.LeaseReply, leaseRetryMS)
		}
		if got := h.status(t, st.ID).Fleet; got.Pending != 0 || got.Leases != i {
			t.Fatalf("answered retry_ms with %+v", got)
		}
		break
	}
	// The ledger takes records from anyone: one batch settles the grid
	// under the held leases, and the study ends.
	frozen, err := campaign.Frozen(testStudy(), campaign.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	lines, err := rangeRecords(frozen, 0, len(frozen.Points))
	if err != nil {
		t.Fatal(err)
	}
	(&testWorker{h: h, name: "late"}).upload(t, st.ID, "l999999", lines)
	if final := h.waitTerminal(t, st.ID); final.Status != "done" {
		t.Fatalf("study ended %+v", final)
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
	corrupt := &testWorker{h: h, name: "corrupt"}
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
	honest := &testWorker{h: h, name: "honest"}
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
// the handlers do (newLedger wires it to the sizer): a lease answered
// with only part of its range requeues exactly the holes, late
// duplicates are dropped, and the ledger's lines are the reference bytes
// in grid order regardless of arrival order. The grid has five points, so
// that the lease after the probe, capped at half of the four pending,
// spans two.
func TestFleetPartialUploadRequeuesHoles(t *testing.T) {
	grid := testStudy().Add(campaign.SANPoint{N: 3, Replicas: 10}, campaign.SANPoint{N: 5, Replicas: 10})
	frozen, err := campaign.Frozen(grid, campaign.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	points, err := grid.FrozenPoints(campaign.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	// Execute the full grid once to have verified records on hand.
	recs, err := rangeRecords(frozen, 0, len(points))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 5 {
		t.Fatalf("test grid has %d records, want 5", len(recs))
	}

	now := time.Now()
	st := &study{points: points, fleet: true}
	st.newLedger(time.Minute)
	m := st.ledger
	// complete is handleLeaseComplete's ledger half.
	complete := func(at time.Time, lease string, lines [][]byte) shard.Completion {
		out := m.Complete(at, lease, lines)
		if out.Lease != nil && out.Holes == 0 {
			st.sizer.observe(out.Lease.Len(), at.Sub(out.Lease.Granted))
		}
		return out
	}
	g, done := m.Grant(now, "w")
	if done || g == nil || g.Start != 0 || g.End != 1 {
		t.Fatalf("first grant = %+v, done=%v; want single-point probe 0:1", g, done)
	}
	// Complete the probe; the EWMA calibrates and the next lease covers
	// more than one point (the elapsed time is ~0, so the target allows
	// any size, and half of the four pending points is two).
	streamed := func() int { lines, _ := m.Lines(0); return len(lines) }
	out := complete(now.Add(time.Millisecond), g.ID, recs[:1])
	if len(out.Accepted) != 1 || out.Emitted != 1 || streamed() != 1 {
		t.Fatalf("probe completion: %+v", out)
	}
	g2, _ := m.Grant(now, "w")
	if g2 == nil || g2.Start != 1 || g2.End != 3 {
		t.Fatalf("second grant = %+v, want calibrated range 1:3", g2)
	}
	// Answer it with only the LAST record: index 1 is a hole — requeued —
	// and index 2 must not stream yet (in-order fold).
	out = complete(now.Add(2*time.Millisecond), g2.ID, recs[2:3])
	if len(out.Accepted) != 1 || out.Done || out.Holes != 1 || out.Emitted != 1 || streamed() != 1 {
		t.Fatalf("partial completion: %+v", out)
	}
	if fs := m.Stats(); fs.Pending != 3 || fs.Requeued != 1 {
		t.Fatalf("after partial upload: %+v", fs)
	}
	// The hole re-leases; completing it releases lines 1 and 2 in grid
	// order, and a late duplicate of record 2 is dropped.
	g3, _ := m.Grant(now, "w2")
	if g3 == nil || g3.Start != 1 || g3.End != 2 || g3.Attempt != 2 {
		t.Fatalf("re-lease = %+v, want 1:2 on its second attempt", g3)
	}
	out = complete(now.Add(3*time.Millisecond), g3.ID, [][]byte{recs[1], recs[2]})
	if len(out.Accepted) != 1 || out.Duplicate != 1 || out.Done || out.Emitted != 3 {
		t.Fatalf("hole completion: %+v", out)
	}
	g4, _ := m.Grant(now, "w2")
	if g4 == nil || g4.Start != 3 || g4.End != 4 {
		t.Fatalf("grant after the hole = %+v, want 3:4, half of the two pending", g4)
	}
	complete(now.Add(4*time.Millisecond), g4.ID, recs[3:4])
	g5, _ := m.Grant(now, "w2")
	if out = complete(now.Add(5*time.Millisecond), g5.ID, recs[4:5]); !out.Done || out.Emitted != 5 {
		t.Fatalf("last completion: %+v", out)
	}
	select {
	case <-m.Done():
	default:
		t.Fatal("ledger did not signal done")
	}
	// The ledger holds the records' Result lines in grid order, each
	// with its newline.
	stream, _ := m.Lines(0)
	if len(stream) != len(recs) {
		t.Fatalf("ledger holds %d lines, want %d", len(stream), len(recs))
	}
	for i, rec := range recs {
		dec, err := campaign.DecodeShardRecord(rec)
		if err != nil {
			t.Fatal(err)
		}
		if string(stream[i]) != string(dec.Result)+"\n" {
			t.Errorf("streamed line %d differs from record result", i)
		}
	}
}

// TestFleetAdaptiveLeaseSizing pins the sizing rule: single-point probe
// until calibrated, then target/avg clamped to [1, maxLeasePoints] and
// to ⌈pending/(2·workers)⌉.
func TestFleetAdaptiveLeaseSizing(t *testing.T) {
	z := &leaseSizer{}
	cases := []struct {
		avg              time.Duration
		pending, workers int
		want             int
	}{
		{0, 750, 1, 1}, // uncalibrated: probe
		{100 * time.Millisecond, 1 << 20, 1, 10},
		{2 * time.Second, 1 << 20, 1, 1},               // slower than target: floor
		{time.Microsecond, 1 << 20, 1, maxLeasePoints}, // faster than target/max: ceiling
		{time.Microsecond, 750, 1, 375},                // half of what is pending
		{time.Microsecond, 749, 2, 188},                // half an even share
		{100 * time.Millisecond, 749, 2, 10},           // the target binds first
		{time.Microsecond, 3, 2, 1},
		{time.Microsecond, 0, 2, 1}, // everything leased: the grant is empty anyway
	}
	for _, tc := range cases {
		z.avgPoint.Store(int64(tc.avg))
		if got := z.size(tc.pending, tc.workers); got != tc.want {
			t.Errorf("size(avg=%v, pending %d, workers %d) = %d, want %d", tc.avg, tc.pending, tc.workers, got, tc.want)
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

// TestCacheSpillRoundTrip pins the persistent point cache: the records
// a cache was given survive it in its file, a fresh cache over the file
// indexes them without loading any and serves each from the file, and a
// damaged line is skipped rather than trusted.
func TestCacheSpillRoundTrip(t *testing.T) {
	frozen, err := campaign.Frozen(testStudy(), campaign.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	points, err := testStudy().FrozenPoints(campaign.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	grid, err := rangeRecords(frozen, 0, len(points))
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	c := NewCache(1 << 20)
	if _, err := c.open(dir); err != nil {
		t.Fatalf("open: %v", err)
	}
	for i, rec := range grid {
		c.Put(points[i].Hash, rec)
	}
	if err := c.close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	// A fresh cache over the same dir indexes every record and serves it.
	c2 := NewCache(1 << 20)
	indexed, err := c2.open(dir)
	if err != nil {
		t.Fatalf("open (reopen): %v", err)
	}
	defer c2.close()
	if indexed != len(points) {
		t.Fatalf("indexed %d records, want %d", indexed, len(points))
	}
	if _, entries := c2.Stats(); entries != 0 {
		t.Fatalf("open loaded %d entries into memory, want none", entries)
	}
	for i, p := range points {
		line, ok := c2.Get(p.Hash)
		if !ok {
			t.Fatalf("point %d missing from the reopened file", i)
		}
		res, err := campaign.DecodeShardRecord(line)
		if err != nil {
			t.Fatalf("point %d: record read back: %v", i, err)
		}
		if res.Seed != p.Seed {
			t.Errorf("point %d: record read back has seed %d, want %d", i, res.Seed, p.Seed)
		}
	}

	// Putting them again writes nothing new: the file keeps exactly one
	// line per unique record.
	for i, rec := range grid {
		c2.Put(points[i].Hash, rec)
	}
	recs, _, err := checkpoint.Load(filepath.Join(dir, cacheFile))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(points) {
		t.Errorf("file holds %d records after a second Put of each, want %d", len(recs), len(points))
	}

	// Corrupt content is skipped by the index, not trusted.
	dir2 := t.TempDir()
	bad, err := checkpoint.Open(filepath.Join(dir2, cacheFile))
	if err != nil {
		t.Fatal(err)
	}
	if err := bad.AppendBatch([][]byte{[]byte(`{"crc":"deadbeef","body":{}}`), grid[0]}); err != nil {
		t.Fatal(err)
	}
	c3 := NewCache(1 << 20)
	indexed, err = c3.open(dir2)
	if err != nil {
		t.Fatal(err)
	}
	defer c3.close()
	if indexed != 1 {
		t.Errorf("indexed %d records of a half-corrupt file, want 1", indexed)
	}
}

// TestServerCacheFileAcrossRestart runs a study on one server with a
// cache directory, shuts it down, and checks a second server over the
// same directory serves the repeat study entirely from the file.
func TestServerCacheFileAcrossRestart(t *testing.T) {
	spec := testSpecBytes(t)
	want := referenceJSONL(t, 1)
	points := len(testStudy().Points)
	dir := t.TempDir()

	h1 := newTestServer(t, Config{Workers: 2, MaxActive: 1, QueueDepth: 4, CacheBytes: 32 << 20})
	if _, err := h1.s.OpenCacheDir(dir); err != nil {
		t.Fatalf("OpenCacheDir: %v", err)
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
	records, err := h2.s.OpenCacheDir(dir)
	if err != nil {
		t.Fatalf("OpenCacheDir(restart): %v", err)
	}
	if records != points {
		t.Fatalf("restart indexed %d records, want %d", records, points)
	}
	disk := obs.CacheDiskHits.Value()
	warm := h2.mustSubmit(t, spec, "")
	if got := h2.streamResults(t, warm.ID); !bytes.Equal(got, want) {
		t.Errorf("post-restart stream differs from reference")
	}
	final := h2.waitTerminal(t, warm.ID)
	if final.CacheHits != int64(points) || final.CacheMisses != 0 {
		t.Errorf("post-restart study: hits=%d misses=%d, want %d/0", final.CacheHits, final.CacheMisses, points)
	}
	if got := obs.CacheDiskHits.Value() - disk; got != int64(points) {
		t.Errorf("post-restart study read %d records from the file, want %d", got, points)
	}
}

// TestEvictedPointsServedWithoutRestart is the fine grid through a
// daemon whose memory holds a fraction of it: the cold study appends
// every record once and fsyncs at most once per slice, and its
// resubmission is served whole — from memory where the record stayed,
// from the file where it was evicted and only there — with nothing
// executed and the cold bytes streamed.
func TestEvictedPointsServedWithoutRestart(t *testing.T) {
	const points = 750
	spec, err := campaign.EncodeStudy(fineGrid(points))
	if err != nil {
		t.Fatal(err)
	}
	h := newTestServer(t, Config{Workers: 2, MaxActive: 1, QueueDepth: 4, CacheBytes: 128 << 10})
	if _, err := h.s.OpenCacheDir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	appends, syncs, start := obs.CheckpointAppends.Value(), obs.CheckpointSyncs.Value(), time.Now()
	cold := submitAndRead(t, h.ts.URL, spec, "")
	wall := time.Since(start)
	gotAppends, gotSyncs := obs.CheckpointAppends.Value()-appends, obs.CheckpointSyncs.Value()-syncs
	t.Logf("cold: %d appends, %d syncs in %v", gotAppends, gotSyncs, wall)
	if gotAppends != points {
		t.Errorf("cold study appended %d records, want one per point", gotAppends)
	}
	if limit := int64(wall/checkpoint.SyncSlice) + 2; gotSyncs > limit {
		t.Errorf("cold study: %d syncs in %v, want <= %d (one per %v slice)", gotSyncs, wall, limit, checkpoint.SyncSlice)
	}
	_, entries := h.s.cache.Stats()
	if entries >= points {
		t.Fatalf("memory holds %d of %d records: the budget no longer forces evictions", entries, points)
	}

	executions, disk := obs.Executions.Value(), obs.CacheDiskHits.Value()
	resp, err := http.Post(h.ts.URL+"/api/v1/studies", "application/json", bytes.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	var st Status
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if got := h.streamResults(t, st.ID); !bytes.Equal(got, cold) {
		t.Error("resubmission streamed other bytes than the cold study")
	}
	final := h.waitTerminal(t, st.ID)
	t.Logf("resubmission: %d hits, %d misses, %d read from the file", final.CacheHits, final.CacheMisses, obs.CacheDiskHits.Value()-disk)
	if final.CacheHits != points || final.CacheMisses != 0 {
		t.Errorf("resubmission: %d hits, %d misses; want %d, 0", final.CacheHits, final.CacheMisses, points)
	}
	if ran := obs.Executions.Value() - executions; ran != 0 {
		t.Errorf("resubmission ran %d executions, want none", ran)
	}
	// A record read from the file is served, not promoted, so the preload
	// never evicts a memory entry before it reaches it.
	if read := obs.CacheDiskHits.Value() - disk; read != int64(points-entries) {
		t.Errorf("resubmission read %d records from the file, want the %d not in memory", read, points-entries)
	}
}

// wideStudy is a grid of n three-replica SAN points: trivial to execute,
// but wide enough that per-point coordinator work (cache pre-serve,
// folds) spans a scheduling quantum.
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
// dispatch loop, which must not end the study before that upload's own
// lines have folded. A subscriber attached before the upload must read
// exactly one line per point before EOF, every time.
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
	recs, err := rangeRecords(frozen, 0, points)
	if err != nil {
		t.Fatal(err)
	}

	h := newTestServer(t, Config{Workers: 1, MaxActive: 1, QueueDepth: 8, CacheBytes: -1})
	w := &testWorker{h: h, name: "w"}
	for round := 0; round < 20; round++ {
		st := h.mustSubmit(t, spec, "?mode=fleet")
		h.waitRunning(t, st.ID)
		// The response headers arrive once the handler has taken the
		// ledger's lines a first time, so the subscriber is following the
		// live tail.
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

// reordered is a record line with its result's keys in sorted order
// rather than a Result's: CRC, point hash and statistics all intact, as a
// worker built with another JSON encoder would upload it.
func reordered(t *testing.T, line []byte) []byte {
	t.Helper()
	rec, err := campaign.DecodeShardRecord(line)
	if err != nil {
		t.Fatal(err)
	}
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(rec.Result, &fields); err != nil {
		t.Fatal(err)
	}
	if rec.Result, err = json.Marshal(fields); err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Appendf(nil, `{"crc":"%08x","body":%s}`, crc32.Checksum(body, crc32.MakeTable(crc32.Castagnoli)), body)
}

// TestFleetRejectsRecordsTheSpliceCannotCut: an uploaded record whose
// result is not laid out as a Result's — here its keys in another order —
// is rejected like a corrupt one and its point leased again, so neither
// the stream nor the cache ever holds it: the study streams the cold
// bytes, and every cached record is one the preload can splice. (Such
// records used to be accepted: the study ended done with a stream that
// differed from the cold bytes, and the cache kept them.)
func TestFleetRejectsRecordsTheSpliceCannotCut(t *testing.T) {
	h := newTestServer(t, Config{Workers: 1, MaxActive: 1, QueueDepth: 4, CacheBytes: 32 << 20})
	id := h.mustSubmit(t, testSpecBytes(t), "?mode=fleet").ID
	h.waitRunning(t, id)
	frozen, err := campaign.Frozen(testStudy(), campaign.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	liar := &testWorker{h: h, name: "reorderer"}
	lr := liar.leaseOnce(t, id)
	if lr.Lease == "" {
		t.Fatalf("first lease: %+v", lr)
	}
	lines, err := rangeRecords(frozen, lr.Start, lr.End)
	if err != nil {
		t.Fatal(err)
	}
	for i := range lines {
		lines[i] = reordered(t, lines[i])
	}
	if up := liar.upload(t, id, lr.Lease, lines); up.Accepted != 0 || up.Rejected != len(lines) {
		t.Fatalf("upload of %d reordered records: %+v, want every one rejected", len(lines), up)
	}
	(&testWorker{h: h, name: "honest"}).serve(t, id)
	if got, want := h.streamResults(t, id), referenceJSONL(t, 1); !bytes.Equal(got, want) {
		t.Errorf("fleet stream after rejected records:\n%s\nwant\n%s", got, want)
	}
	if st := h.waitTerminal(t, id); st.Status != "done" {
		t.Fatalf("study ended %+v", st)
	}
	points, err := testStudy().FrozenPoints(campaign.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, fp := range points {
		record, ok := h.s.cache.Get(fp.Hash)
		if !ok {
			t.Fatalf("point %d is not cached", fp.Index)
		}
		if _, ok := campaign.ResultLine(record, "s", "p", 0); !ok {
			t.Errorf("the cache kept a record of point %d the splice cannot cut: %s", fp.Index, record)
		}
	}
}

// TestSpilledRecordTheSpliceCannotCutIsAMiss: a cache file holding a
// valid record of a point whose result keys are in another order does
// not index it, so a study counts the point as a miss, runs it once
// and caches its own record; the next study hits. (Such a record used to
// be loaded, counted as a hit by every study, executed anyway and never
// replaced.)
func TestSpilledRecordTheSpliceCannotCutIsAMiss(t *testing.T) {
	study := campaign.NewStudy("reordered", campaign.LatencyPoint{N: 3, Executions: 40})
	spec, err := campaign.EncodeStudy(study)
	if err != nil {
		t.Fatal(err)
	}
	frozen, err := campaign.Frozen(study, campaign.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	want := jsonl(t, frozen)
	lines, err := rangeRecords(frozen, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	store, err := checkpoint.Open(filepath.Join(dir, cacheFile))
	if err != nil {
		t.Fatal(err)
	}
	if err := store.AppendBatch([][]byte{reordered(t, lines[0])}); err != nil {
		t.Fatal(err)
	}

	h := newTestServer(t, Config{Workers: 1, MaxActive: 1, QueueDepth: 4, CacheBytes: 32 << 20})
	if records, err := h.s.OpenCacheDir(dir); err != nil || records != 0 {
		t.Errorf("indexed %d records (%v), want none", records, err)
	}
	for k, wantHits := range []int64{0, 1} {
		before := obs.Executions.Value()
		st := h.mustSubmit(t, spec, "")
		if got := h.streamResults(t, st.ID); !bytes.Equal(got, want) {
			t.Errorf("submission %d streamed\n%s\nwant\n%s", k, got, want)
		}
		final := h.waitTerminal(t, st.ID)
		if final.CacheHits != wantHits || final.CacheMisses != 1-wantHits {
			t.Errorf("submission %d: %d hits, %d misses; want %d, %d", k, final.CacheHits, final.CacheMisses, wantHits, 1-wantHits)
		}
		if ran, want := obs.Executions.Value()-before, 40*(1-wantHits); ran != want {
			t.Errorf("submission %d ran %d executions, want %d", k, ran, want)
		}
	}
}

// TestPartialWarmSameInBothModes is the one flow of both modes: with half
// of a fine grid cached by another study, a local and a fleet submission
// of the grid each stream the cold bytes and report the same hits and
// misses, and only the misses run on the slot's workers (local) or are
// leased (fleet).
func TestPartialWarmSameInBothModes(t *testing.T) {
	const points = 12
	grid := fineGrid(points)
	spec, err := campaign.EncodeStudy(grid)
	if err != nil {
		t.Fatal(err)
	}
	// The first half under another name: its points hash as the grid's.
	half, err := campaign.EncodeStudy(campaign.NewStudy("fine-grid-half", grid.Points[:points/2]...))
	if err != nil {
		t.Fatal(err)
	}
	frozen, err := campaign.Frozen(grid, campaign.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	cold := jsonl(t, frozen)
	fps, err := frozen.FrozenPoints()
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []string{"local", "fleet"} {
		h := newTestServer(t, Config{Workers: 2, MaxActive: 1, QueueDepth: 4, CacheBytes: 32 << 20})
		var mu sync.Mutex
		ran := map[string]int{}
		h.s.testRecord = func(hash string) {
			mu.Lock()
			ran[hash]++
			mu.Unlock()
		}
		h.waitTerminal(t, h.mustSubmit(t, half, "").ID)
		clear(ran)

		st := h.mustSubmit(t, spec, "?mode="+mode)
		w := &testWorker{h: h, name: "w", study: grid}
		if mode == "fleet" {
			w.serve(t, st.ID)
		}
		if got := h.streamResults(t, st.ID); !bytes.Equal(got, cold) {
			t.Errorf("%s: partially warm stream\n%s\nwant\n%s", mode, got, cold)
		}
		final := h.waitTerminal(t, st.ID)
		if final.Status != "done" || final.CacheHits != points/2 || final.CacheMisses != points/2 {
			t.Errorf("%s: %+v, want done with %d hits and %d misses", mode, final, points/2, points/2)
		}
		executed := map[int]int{}
		for i, fp := range fps {
			executed[i] = ran[fp.Hash]
		}
		for _, r := range w.leased {
			for i := r.Start; i < r.End; i++ {
				executed[i]++
			}
		}
		for i := range fps {
			want := 0
			if i >= points/2 {
				want = 1
			}
			if executed[i] != want {
				t.Errorf("%s: point %d ran or was leased %d times, want %d", mode, i, executed[i], want)
			}
		}
	}
}

// TestFleetRefusesWorkersOfAnotherEpoch: a lease request naming the next
// results epoch, or none, is refused with a 409 naming both epochs, and
// no lease is granted; the coordinator's own epoch is served.
func TestFleetRefusesWorkersOfAnotherEpoch(t *testing.T) {
	h := newTestServer(t, Config{Workers: 1, MaxActive: 1, QueueDepth: 4, CacheBytes: -1})
	id := h.mustSubmit(t, testSpecBytes(t), "?mode=fleet").ID
	h.waitRunning(t, id)
	for _, c := range []struct{ query, worker string }{
		{fmt.Sprintf("&epoch=%d", campaign.Epoch+1), fmt.Sprint(campaign.Epoch + 1)},
		{"", "none"},
	} {
		resp, data := h.post(t, "/api/v1/studies/"+id+"/lease?worker=w"+c.query, nil)
		want := fmt.Sprintf("worker results epoch %s, coordinator results epoch %d", c.worker, campaign.Epoch)
		if resp.StatusCode != http.StatusConflict || !bytes.Contains(data, []byte(want)) {
			t.Errorf("lease request with %q: %d %s; want 409 naming %q", c.query, resp.StatusCode, data, want)
		}
	}
	if st := h.status(t, id); st.Fleet.Granted != 0 {
		t.Fatalf("leases granted to workers of another epoch: %+v", st.Fleet)
	}
	(&testWorker{h: h, name: "same-epoch"}).serve(t, id)
	if st := h.waitTerminal(t, id); st.Status != "done" {
		t.Fatalf("study ended %+v", st)
	}
}

// TestReadUploadTakesPlainBodiesWithinTheLimit: an upload is read as
// sent, up to the limit; one byte more is 413, and an encoded body is
// 415, whatever it holds.
func TestReadUploadTakesPlainBodiesWithinTheLimit(t *testing.T) {
	const limit = 16
	for _, c := range []struct {
		body, encoding string
		status         int
	}{
		{strings.Repeat("x", limit), "", http.StatusOK},
		{strings.Repeat("x", limit), "identity", http.StatusOK},
		{strings.Repeat("x", limit+1), "", http.StatusRequestEntityTooLarge},
		{"x", "gzip", http.StatusUnsupportedMediaType},
		{"x", "br", http.StatusUnsupportedMediaType},
	} {
		req := httptest.NewRequest(http.MethodPost, "/complete", strings.NewReader(c.body))
		if c.encoding != "" {
			req.Header.Set("Content-Encoding", c.encoding)
		}
		rec := httptest.NewRecorder()
		body, ok := readUpload(rec, req, limit)
		if ok != (c.status == http.StatusOK) || rec.Code != c.status || (ok && string(body) != c.body) {
			t.Errorf("%d-byte body, Content-Encoding %q: ok %v, status %d, body %q; want status %d",
				len(c.body), c.encoding, ok, rec.Code, body, c.status)
		}
	}
}
