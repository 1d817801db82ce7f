package server

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

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

// openCache returns a cache of maxBytes over a fresh record file, closed
// when the test ends, and the file's path.
func openCache(t *testing.T, maxBytes int64) (*Cache, string) {
	t.Helper()
	c := NewCache(maxBytes)
	dir := t.TempDir()
	if _, err := c.open(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.close() })
	return c, filepath.Join(dir, cacheFile)
}

// recordsUnder encodes result as the shard record of each of n made-up
// point hashes: records of one length, each valid for its own hash.
func recordsUnder(t testing.TB, result *campaign.Result, n int) (hashes []string, records [][]byte) {
	for i := 0; i < n; i++ {
		hash := fmt.Sprintf("sha256:%064x", i)
		line, err := campaign.EncodeShardRecord(hash, result)
		if err != nil {
			t.Fatal(err)
		}
		hashes, records = append(hashes, hash), append(records, line)
	}
	return hashes, records
}

// oneResult is one real campaign Result to encode records of.
func oneResult(t testing.TB) *campaign.Result {
	results, err := campaign.RunCollect(context.Background(), campaign.NewStudy("cache-unit", campaign.SANPoint{N: 3, Replicas: 5, Seed: 1}), campaign.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	return results[0]
}

// TestCacheServesEvictedRecordsFromFile: with room for two records in
// memory, all ten Put are served, the evicted ones read from the file,
// and each record is appended once. A read from the file neither
// appends nor promotes: the two records Put last stay in memory and hit
// there in both rounds, so the other eight are read twice.
func TestCacheServesEvictedRecordsFromFile(t *testing.T) {
	hashes, records := recordsUnder(t, oneResult(t), 10)
	c, path := openCache(t, int64(2*len(records[0])))
	for i, hash := range hashes {
		c.Put(hash, records[i])
	}
	disk := obs.CacheDiskHits.Value()
	for round := 0; round < 2; round++ {
		for i, hash := range hashes {
			got, ok := c.Get(hash)
			if !ok || !bytes.Equal(got, records[i]) {
				t.Fatalf("round %d: Get(%d) = %v, other bytes %v", round, i, ok, !bytes.Equal(got, records[i]))
			}
		}
	}
	if got := obs.CacheDiskHits.Value() - disk; got != 16 {
		t.Errorf("%d disk hits, want 16 (eight evicted records, two rounds)", got)
	}
	if _, entries := c.Stats(); entries != 2 {
		t.Errorf("%d entries in memory, want 2", entries)
	}
	onDisk, dropped, err := checkpoint.Load(path)
	if err != nil || dropped != 0 || len(onDisk) != len(records) {
		t.Fatalf("file: %d records, dropped=%d err=%v; want the %d Put, once each", len(onDisk), dropped, err, len(records))
	}
}

// TestCacheFileSyncsOncePerSlice drives the file's fsync policy on an
// injected clock: a record Put after a whole slice syncs itself and
// every record before it, one Put within the slice syncs nothing, and
// close syncs what the last slice wrote — once.
func TestCacheFileSyncsOncePerSlice(t *testing.T) {
	hashes, records := recordsUnder(t, oneResult(t), 8)
	at := time.Unix(1_000_000, 0)
	c := NewCache(1 << 20)
	c.now = func() time.Time { return at }
	if _, err := c.open(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	for i, step := range []time.Duration{0, 5, 5, 14, 1, 30, 0, 24} {
		at = at.Add(step * time.Millisecond)
		syncs := obs.CheckpointSyncs.Value()
		c.Put(hashes[i], records[i])
		// Slices begin at open (t=0) and at the syncs of records 4 and 5.
		want := int64(0)
		if i == 4 || i == 5 {
			want = 1
		}
		if got := obs.CheckpointSyncs.Value() - syncs; got != want {
			t.Errorf("Put %d at %v: %d syncs, want %d", i, at.Sub(time.Unix(1_000_000, 0)), got, want)
		}
	}
	syncs := obs.CheckpointSyncs.Value()
	c.Put(hashes[0], records[0]) // in the file already: no write, no sync
	if err := c.close(); err != nil {
		t.Fatal(err)
	}
	if err := c.close(); err != nil {
		t.Fatal(err)
	}
	if got := obs.CheckpointSyncs.Value() - syncs; got != 1 {
		t.Errorf("close synced %d times, want once", got)
	}
}

// TestCacheFileKeepsNoRecordInMemory opens a cache over a file of 20,000
// records and measures what it keeps: the index, not the records, and
// nothing in the LRU until a record is asked for. It also measures what
// the open allocates on the way: the file read once, and a check per
// record that copies nothing but its point hash, under 1.5 times the
// file's bytes (a second read of the file, or a copy of every record,
// would add one more).
func TestCacheFileKeepsNoRecordInMemory(t *testing.T) {
	const n = 20_000
	hashes, records := recordsUnder(t, oneResult(t), n)
	dir := t.TempDir()
	path := filepath.Join(dir, cacheFile)
	store, err := checkpoint.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.AppendBatch(records); err != nil {
		t.Fatal(err)
	}
	size := len(records[0])
	records = nil
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	fileBytes := float64(info.Size())
	memStats := func() (m runtime.MemStats) {
		runtime.GC()
		runtime.ReadMemStats(&m)
		return m
	}
	before := memStats()
	c := NewCache(1 << 20)
	indexed, err := c.open(dir)
	if err != nil || indexed != n {
		t.Fatalf("open indexed %d records (%v), want %d", indexed, err, n)
	}
	after := memStats()
	perRecord := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / n
	allocated := float64(after.TotalAlloc-before.TotalAlloc) / fileBytes
	t.Logf("%d records of %d bytes: %.0f bytes of live heap per record; open allocated %.2f× the file's %.0f bytes", n, size, perRecord, allocated, fileBytes)
	if perRecord > 256 {
		t.Errorf("open keeps %.0f bytes per record, want <= 256 (the record is %d)", perRecord, size)
	}
	if allocated >= 1.5 {
		t.Errorf("open allocated %.2f× the file's bytes, want < 1.5×: the file is read more than once, or its records copied", allocated)
	}
	if bytes, entries := c.Stats(); bytes != 0 || entries != 0 {
		t.Errorf("open loaded %d entries (%d bytes) into memory, want none", entries, bytes)
	}
	if _, ok := c.Get(hashes[n/2]); !ok {
		t.Error("an indexed record missed")
	}
	c.close()
}

// TestCacheFileMissesWhatItCannotTrust: a damaged line, a record the
// splice cannot cut and a record under another point's key are each a
// miss, whether the file held them when it was opened or they appeared
// underneath an open cache. A record found untrustworthy on read leaves
// the index, and the record its point puts next is appended and served.
func TestCacheFileMissesWhatItCannotTrust(t *testing.T) {
	hashes, records := recordsUnder(t, oneResult(t), 4)
	flipped := func(line []byte) []byte {
		out := bytes.Clone(line)
		out[len(out)/2] ^= 0x01
		return out
	}
	dir := t.TempDir()
	path := filepath.Join(dir, cacheFile)
	store, err := checkpoint.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.AppendBatch([][]byte{records[0], flipped(records[1]), reordered(t, records[2])}); err != nil {
		t.Fatal(err)
	}
	// A budget below one record keeps nothing in memory: every Get reads
	// the file.
	c := NewCache(int64(len(records[0]) - 1))
	if indexed, err := c.open(dir); err != nil || indexed != 1 {
		t.Fatalf("open indexed %d records (%v), want only the intact one", indexed, err)
	}
	defer c.close()
	if _, ok := c.Get(hashes[1]); ok {
		t.Error("a damaged line in the file was a hit")
	}
	if _, ok := c.Get(hashes[2]); ok {
		t.Error("a record the splice cannot cut was a hit")
	}
	if _, ok := c.Get(hashes[0]); !ok {
		t.Fatal("the intact record missed")
	}

	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for _, under := range []struct {
		what string
		line []byte
	}{
		{"a record under another point's key", records[3]},
		{"a line damaged underneath", flipped(records[0])},
	} {
		// Written over point 0's record, where the index places it.
		c.mu.Lock()
		at := c.index[hashes[0]].off
		c.mu.Unlock()
		if _, err := f.WriteAt(under.line, at); err != nil {
			t.Fatal(err)
		}
		if _, ok := c.Get(hashes[0]); ok {
			t.Errorf("%s: a hit", under.what)
		}
		c.mu.Lock()
		_, indexed := c.index[hashes[0]]
		c.mu.Unlock()
		if indexed {
			t.Errorf("%s: still in the index", under.what)
		}
		c.Put(hashes[0], records[0]) // the point ran again
		if got, ok := c.Get(hashes[0]); !ok || !bytes.Equal(got, records[0]) {
			t.Errorf("%s: the record put again is not served from the file", under.what)
		}
	}
}

// TestCacheFileOfAnotherEpochIsAllMisses: a file written at results
// epoch 0 opens at epoch 1 as all misses — its records stay indexed
// under their epoch-0 point hashes, which no point has at epoch 1 (from
// epoch 1 on PointHash covers the epoch; campaign.PointHash).
func TestCacheFileOfAnotherEpochIsAllMisses(t *testing.T) {
	frozen, err := campaign.Frozen(testStudy(), campaign.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	points, err := frozen.FrozenPoints()
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
		t.Fatal(err)
	}
	for i, fp := range points {
		c.Put(fp.Hash, grid[i])
	}
	c.close()
	reopened := NewCache(1 << 20)
	if indexed, err := reopened.open(dir); err != nil || indexed != len(points) {
		t.Fatalf("open indexed %d records (%v), want %d", indexed, err, len(points))
	}
	defer reopened.close()
	for _, fp := range points {
		if epochHash(t, fp, 0) != fp.Hash {
			t.Fatalf("point %d: epochHash disagrees with campaign.PointHash at epoch 0", fp.Index)
		}
		if _, ok := reopened.Get(epochHash(t, fp, 1)); ok {
			t.Errorf("point %d at epoch 1: an epoch-0 record was a hit", fp.Index)
		}
		if _, ok := reopened.Get(fp.Hash); !ok {
			t.Errorf("point %d at epoch 0: its record missed", fp.Index)
		}
	}
}

// epochHash is campaign.PointHash of fp's point at results epoch e.
func epochHash(t *testing.T, fp campaign.FrozenPoint, e int) string {
	t.Helper()
	spec, err := json.Marshal(fp.Point)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	h.Write([]byte(fp.Engine.String()))
	h.Write([]byte{0})
	h.Write(spec)
	if e != 0 {
		h.Write(fmt.Appendf(nil, "\x00epoch %d", e))
	}
	return fmt.Sprintf("sha256:%x", h.Sum(nil))
}

// TestCacheDiskGetsRacePuts runs reads from the file against Puts that
// append and evict, for the race detector: four writers put disjoint
// records into a two-record LRU while four readers read all of them
// back, every read a hit once its record is in.
func TestCacheDiskGetsRacePuts(t *testing.T) {
	hashes, records := recordsUnder(t, oneResult(t), 64)
	c, path := openCache(t, int64(2*len(records[0])))
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(2)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(hashes); i += 4 {
				c.Put(hashes[i], records[i])
			}
		}(w)
		go func(w int) {
			defer wg.Done()
			for k := 0; k < 3*len(hashes); k++ {
				i := (k*7 + w) % len(hashes)
				if got, ok := c.Get(hashes[i]); ok && !bytes.Equal(got, records[i]) {
					t.Errorf("Get(%d) served other bytes", i)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for i, hash := range hashes {
		if got, ok := c.Get(hash); !ok || !bytes.Equal(got, records[i]) {
			t.Fatalf("after the race: Get(%d) = %v", i, ok)
		}
	}
	if onDisk, _, err := checkpoint.Load(path); err != nil || len(onDisk) != len(records) {
		t.Fatalf("file holds %d records (%v), want each of the %d once", len(onDisk), err, len(records))
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
	lines, done, errMsg, _ := h.snapshot(0)
	if !done || errMsg != "boom" {
		t.Fatalf("after finish: done=%v err=%q", done, errMsg)
	}
	if len(lines) != 3 {
		t.Fatalf("%d lines, want 3", len(lines))
	}
}
