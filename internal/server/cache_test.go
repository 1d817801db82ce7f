package server

import (
	"context"
	"encoding/json"
	"fmt"
	"path/filepath"
	"sync"
	"testing"

	"ctsan/campaign"
	"ctsan/internal/checkpoint"
	"ctsan/internal/obs"
)

// makeResult produces one real campaign Result (cache entries are
// encoded shard records, so they need genuinely encodable results).
func makeResult(t *testing.T, seed uint64) *campaign.Result {
	t.Helper()
	study := campaign.NewStudy("cache-unit", campaign.SANPoint{N: 3, Replicas: 5, Seed: seed})
	results, err := campaign.RunCollect(context.Background(), study, campaign.WithWorkers(1))
	if err != nil {
		t.Fatalf("RunCollect: %v", err)
	}
	return results[0]
}

func recordLen(t *testing.T, hash string, res *campaign.Result) int {
	t.Helper()
	line, err := campaign.EncodeShardRecord(hash, res)
	if err != nil {
		t.Fatalf("EncodeShardRecord: %v", err)
	}
	return len(line)
}

func TestCacheRoundTripFreshCopies(t *testing.T) {
	c := NewCache(1 << 20)
	res := makeResult(t, 1)
	want, _ := json.Marshal(res)
	c.Put("sha256:roundtrip", res)

	got1, ok := c.Get("sha256:roundtrip")
	if !ok {
		t.Fatal("Get after Put missed")
	}
	if enc, _ := json.Marshal(got1); string(enc) != string(want) {
		t.Errorf("decoded result differs:\n got: %s\nwant: %s", enc, want)
	}
	// Mutating the returned copy (as campaign.Run does when it rewrites
	// identity fields) must not poison later hits.
	got1.Study, got1.Point, got1.Index = "mangled", "mangled", 99
	got1.Latency.Mean = -1
	got2, ok := c.Get("sha256:roundtrip")
	if !ok {
		t.Fatal("second Get missed")
	}
	if enc, _ := json.Marshal(got2); string(enc) != string(want) {
		t.Errorf("cache returned an aliased copy: %s", enc)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	r1, r2, r3 := makeResult(t, 1), makeResult(t, 2), makeResult(t, 3)
	size := recordLen(t, "sha256:h1", r1)
	// Budget for two records (seeds differ, sizes match within a couple
	// of bytes; the half-record slack absorbs that).
	c := NewCache(int64(2*size + size/2))

	c.Put("sha256:h1", r1)
	c.Put("sha256:h2", r2)
	if _, entries := c.Stats(); entries != 2 {
		t.Fatalf("entries = %d, want 2", entries)
	}
	// Touch h1 so h2 becomes least recently used...
	if _, ok := c.Get("sha256:h1"); !ok {
		t.Fatal("h1 missed")
	}
	// ...then inserting h3 must evict h2.
	c.Put("sha256:h3", r3)
	if _, entries := c.Stats(); entries != 2 {
		t.Fatalf("entries after eviction = %d, want 2", entries)
	}
	if _, ok := c.Get("sha256:h2"); ok {
		t.Error("h2 survived eviction; LRU order not respected")
	}
	if _, ok := c.Get("sha256:h1"); !ok {
		t.Error("h1 (recently used) was evicted")
	}
	if _, ok := c.Get("sha256:h3"); !ok {
		t.Error("h3 (just inserted) missed")
	}
	bytes, _ := c.Stats()
	if bytes <= 0 || bytes > int64(2*size+size/2) {
		t.Errorf("size accounting off: %d bytes for budget %d", bytes, 2*size+size/2)
	}
}

func TestCacheDuplicatePutKeepsOneEntry(t *testing.T) {
	c := NewCache(1 << 20)
	res := makeResult(t, 1)
	c.Put("sha256:dup", res)
	c.Put("sha256:dup", res)
	bytes1, entries := c.Stats()
	if entries != 1 {
		t.Fatalf("entries = %d, want 1", entries)
	}
	c.Put("sha256:dup", res)
	bytes2, _ := c.Stats()
	if bytes1 != bytes2 {
		t.Errorf("duplicate Put changed size: %d -> %d", bytes1, bytes2)
	}
}

func TestCacheOversizeRecordSkipped(t *testing.T) {
	res := makeResult(t, 1)
	c := NewCache(int64(recordLen(t, "sha256:big", res) - 1))
	c.Put("sha256:big", res)
	if _, entries := c.Stats(); entries != 0 {
		t.Errorf("oversize record was cached")
	}
	if _, ok := c.Get("sha256:big"); ok {
		t.Errorf("oversize record served")
	}
}

// TestCacheSpillSyncsOncePerBatch: the spill store is written through
// AppendBatch, which stays durable on return — one fsync per batch,
// however many records it carries, the first batch (which creates the
// file) included. Nothing to spill means nothing to sync.
func TestCacheSpillSyncsOncePerBatch(t *testing.T) {
	c := NewCache(1 << 20)
	if _, err := c.EnableSpill(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	seed := uint64(1)
	for batch, size := range []int{3, 1, 4} {
		for i := 0; i < size; i++ {
			c.Put(fmt.Sprintf("sha256:batch%d-%d", batch, i), makeResult(t, seed))
			seed++
		}
		appends, syncs := obs.CheckpointAppends.Value(), obs.CheckpointSyncs.Value()
		if err := c.SpillAll(); err != nil {
			t.Fatal(err)
		}
		if got := obs.CheckpointAppends.Value() - appends; got != int64(size) {
			t.Errorf("batch %d: %d records appended, want %d", batch, got, size)
		}
		if got := obs.CheckpointSyncs.Value() - syncs; got != 1 {
			t.Errorf("batch %d of %d records: %d syncs, want 1", batch, size, got)
		}
	}
	syncs := obs.CheckpointSyncs.Value()
	if err := c.SpillAll(); err != nil {
		t.Fatal(err)
	}
	if got := obs.CheckpointSyncs.Value() - syncs; got != 0 {
		t.Errorf("a spill with nothing new synced %d times", got)
	}
}

// TestCachePutEncodedKeepsItsOwnCopy: the fleet ingest path hands
// PutEncoded lines cut from one decoded upload body. The entry must not
// share that buffer, or one cached record pins the whole body and the
// byte budget bounds nothing; so overwriting the caller's buffer after
// the call leaves the cached record intact.
func TestCachePutEncodedKeepsItsOwnCopy(t *testing.T) {
	res := makeResult(t, 1)
	want, _ := json.Marshal(res)
	line, err := campaign.EncodeShardRecord("sha256:upload", res)
	if err != nil {
		t.Fatal(err)
	}
	body := append(line, make([]byte, 1<<20)...)
	c := NewCache(1 << 20)
	c.PutEncoded("sha256:upload", body[:len(line)])
	for i := range body {
		body[i] = 'x'
	}
	got, ok := c.Get("sha256:upload")
	if !ok {
		t.Fatal("record lost once the caller's buffer was reused")
	}
	if enc, _ := json.Marshal(got); string(enc) != string(want) {
		t.Errorf("cached record changed with the caller's buffer:\n got: %s\nwant: %s", enc, want)
	}
}

// TestCacheSpillKeepsNoRecordInMemory: a spill store that started empty
// holds nothing in memory however much the cache evicts through it —
// every spilled record lives in the file only, where Load finds it. A
// long-lived daemon's cache is bounded by its budget, not by its
// eviction history.
func TestCacheSpillKeepsNoRecordInMemory(t *testing.T) {
	res := makeResult(t, 1)
	size := recordLen(t, "sha256:spill-000", res)
	c := NewCache(int64(2 * size))
	dir := t.TempDir()
	if _, err := c.EnableSpill(dir); err != nil {
		t.Fatal(err)
	}
	const puts = 200
	for i := 0; i < puts; i++ {
		c.Put(fmt.Sprintf("sha256:spill-%03d", i), res)
	}
	if n := len(c.spill.Records()); n != 0 {
		t.Fatalf("spill store holds %d records in memory after %d Puts, want 0", n, puts)
	}
	if bytes, entries := c.Stats(); entries != 2 || bytes > int64(2*size) {
		t.Fatalf("cache holds %d entries in %d bytes, want 2 within %d", entries, bytes, 2*size)
	}
	spilled, dropped, err := checkpoint.Load(filepath.Join(dir, SpillFile))
	if err != nil || dropped != 0 || len(spilled) != puts-2 {
		t.Fatalf("spill file: %d records, dropped=%d err=%v; want the %d evicted", len(spilled), dropped, err, puts-2)
	}
}

func TestCacheDisabledNil(t *testing.T) {
	c := NewCache(0)
	if c != nil {
		t.Fatalf("NewCache(0) = %v, want nil", c)
	}
	// The nil cache is a valid, always-missing PointCache.
	c.Put("sha256:x", makeResult(t, 1))
	if _, ok := c.Get("sha256:x"); ok {
		t.Error("nil cache returned a hit")
	}
	if bytes, entries := c.Stats(); bytes != 0 || entries != 0 {
		t.Errorf("nil cache stats = %d, %d", bytes, entries)
	}
}

func TestCacheConcurrentAccess(t *testing.T) {
	c := NewCache(1 << 20)
	results := []*campaign.Result{makeResult(t, 1), makeResult(t, 2), makeResult(t, 3), makeResult(t, 4)}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				k := fmt.Sprintf("sha256:k%d", (g+i)%len(results))
				c.Put(k, results[(g+i)%len(results)])
				c.Get(k)
			}
		}(g)
	}
	wg.Wait()
	if _, entries := c.Stats(); entries != len(results) {
		t.Errorf("entries = %d, want %d", entries, len(results))
	}
}

func TestHubReplayFollowAndFinish(t *testing.T) {
	h := newHub()
	h.append([]byte(`{"i":0}`))
	h.append([]byte(`{"i":1}`))

	lines, done, _, _ := h.snapshot(0)
	if len(lines) != 2 || done {
		t.Fatalf("snapshot(0): %d lines, done=%v", len(lines), done)
	}
	// A caught-up subscriber gets a wait handle that opens on the next
	// append.
	lines, done, _, wait := h.snapshot(2)
	if len(lines) != 0 || done {
		t.Fatalf("snapshot(2): %d lines, done=%v", len(lines), done)
	}
	select {
	case <-wait:
		t.Fatal("wait channel closed before any append")
	default:
	}
	h.append([]byte(`{"i":2}`))
	select {
	case <-wait:
	default:
		t.Fatal("append did not wake the subscriber")
	}

	h.finish("boom")
	h.finish("ignored") // idempotent: first error wins
	_, done, errMsg, _ := h.snapshot(0)
	if !done || errMsg != "boom" {
		t.Fatalf("after finish: done=%v err=%q", done, errMsg)
	}
	if h.count() != 3 {
		t.Fatalf("count = %d, want 3", h.count())
	}
}
