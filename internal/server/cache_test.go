package server

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"sync"
	"testing"

	"ctsan/campaign"
	"ctsan/internal/checkpoint"
	"ctsan/internal/obs"
)

// makeRecord produces the shard record of one real campaign Result
// under hash (cache entries are encoded shard records, so they need
// genuinely encodable results).
func makeRecord(t *testing.T, hash string, seed uint64) []byte {
	t.Helper()
	study := campaign.NewStudy("cache-unit", campaign.SANPoint{N: 3, Replicas: 5, Seed: seed})
	results, err := campaign.RunCollect(context.Background(), study, campaign.WithWorkers(1))
	if err != nil {
		t.Fatalf("RunCollect: %v", err)
	}
	line, err := campaign.EncodeShardRecord(hash, results[0])
	if err != nil {
		t.Fatalf("EncodeShardRecord: %v", err)
	}
	return line
}

// TestCacheGetServesTheStoredRecord: a hit is the record Put stored —
// its bytes, not a decoded copy — on every Get.
func TestCacheGetServesTheStoredRecord(t *testing.T) {
	c := NewCache(1 << 20)
	want := makeRecord(t, "sha256:roundtrip", 1)
	c.Put("sha256:roundtrip", bytes.Clone(want))
	for i := 0; i < 2; i++ {
		got, ok := c.Get("sha256:roundtrip")
		if !ok {
			t.Fatalf("Get %d after Put missed", i)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("Get %d returned other bytes:\n got: %s\nwant: %s", i, got, want)
		}
	}
}

// TestCachePutKeepsItsOwnCopy: an entry owns its bytes. An upload's
// lines are cut from one body: an entry that shared a line would pin
// the whole body, and change when the caller reused it.
func TestCachePutKeepsItsOwnCopy(t *testing.T) {
	line := makeRecord(t, "sha256:upload", 1)
	want := bytes.Clone(line)
	body := append(line, make([]byte, 1<<20)...)
	c := NewCache(1 << 20)
	c.Put("sha256:upload", body[:len(line)])
	for i := range body {
		body[i] = 'x'
	}
	got, ok := c.Get("sha256:upload")
	if !ok {
		t.Fatal("record lost once the caller's buffer was reused")
	}
	if !bytes.Equal(got, want) {
		t.Errorf("cached record changed with the caller's buffer:\n got: %s\nwant: %s", got, want)
	}
	if cap(got) > 2*len(want) {
		t.Errorf("cached record of %d bytes holds a buffer of %d", len(want), cap(got))
	}
}

func TestCacheLRUEviction(t *testing.T) {
	r1, r2, r3 := makeRecord(t, "sha256:h1", 1), makeRecord(t, "sha256:h2", 2), makeRecord(t, "sha256:h3", 3)
	size := len(r1)
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
	res := makeRecord(t, "sha256:dup", 1)
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
	res := makeRecord(t, "sha256:big", 1)
	c := NewCache(int64(len(res) - 1))
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
			hash := fmt.Sprintf("sha256:batch%d-%d", batch, i)
			c.Put(hash, makeRecord(t, hash, seed))
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

// TestCacheSpillKeepsNoRecordInMemory: a spill store that started empty
// holds nothing in memory however much the cache evicts through it —
// every spilled record lives in the file only, where Load finds it. A
// long-lived daemon's cache is bounded by its budget, not by its
// eviction history.
func TestCacheSpillKeepsNoRecordInMemory(t *testing.T) {
	res := makeRecord(t, "sha256:spill-000", 1)
	size := len(res)
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
	// The nil cache is a valid, always-missing cache.
	c.Put("sha256:x", makeRecord(t, "sha256:x", 1))
	if _, ok := c.Get("sha256:x"); ok {
		t.Error("nil cache returned a hit")
	}
	if bytes, entries := c.Stats(); bytes != 0 || entries != 0 {
		t.Errorf("nil cache stats = %d, %d", bytes, entries)
	}
}

func TestCacheConcurrentAccess(t *testing.T) {
	c := NewCache(1 << 20)
	var results [][]byte
	for seed := uint64(1); seed <= 4; seed++ {
		results = append(results, makeRecord(t, fmt.Sprintf("sha256:k%d", seed-1), seed))
	}
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
