package server

import (
	"bytes"
	"container/list"
	"path/filepath"
	"sync"

	"ctsan/campaign"
	"ctsan/internal/checkpoint"
	"ctsan/internal/obs"
)

// Cache is the service's content-addressed result cache: a bounded LRU
// from campaign.PointHash (engine + fully materialized point spec,
// derived seed included) to the encoded shard record of the completed
// point. A study looks every point up once, before anything runs (its
// preload), and puts the record of every point it computes or accepts
// from a fleet worker.
//
// Entries are stored as encoded bytes, not live Results, deliberately:
// a hit is the stored record's result JSON behind the hitting study's
// identity (campaign.ResultLine), made without decoding it; the byte
// size gives an honest memory bound; and the stored record is the same
// wire format the sharded executor checkpoints and fleet workers upload
// — verified worker records go in without a decode/re-encode round
// trip, and the spill store persists them verbatim. Every entry is a
// record verified on its way in (encoded by the run, verified upload,
// or decoded at warm-load — all laid out so ResultLine splices them),
// and none is ever modified. The byte budget
// bounds what the cache retains, with one exception: the spill file's
// content as EnableSpill found it, which the spill store holds for the
// cache's life. Otherwise entries own their bytes, and the spill store
// keeps no copy of what it writes.
//
// Determinism makes the cache safe by construction: for a given hash
// every Put stores identical statistics, so concurrent Puts, lost
// updates, or evictions can change only whether a point is recomputed,
// never any result bit.
type Cache struct {
	mu    sync.Mutex
	max   int64 // byte budget for stored record bytes
	size  int64
	ll    *list.List // front = most recently used
	items map[string]*list.Element

	// Spill state (EnableSpill): evicted and shut-down entries are
	// persisted as encoded records through a checkpoint store, so a
	// restarted service warm-loads its cache instead of re-executing.
	// spillMu guards the store and the onDisk set; it is never taken
	// while holding mu (a batch append fsyncs — too slow for the lookup path).
	spillMu sync.Mutex
	spill   *checkpoint.Store
	onDisk  map[string]bool
}

type cacheEntry struct {
	hash string
	line []byte
}

// NewCache returns a cache bounded to maxBytes of encoded records.
// maxBytes <= 0 returns nil — the "cache disabled" value; a nil *Cache
// is a valid, always-missing cache.
func NewCache(maxBytes int64) *Cache {
	if maxBytes <= 0 {
		return nil
	}
	return &Cache{max: maxBytes, ll: list.New(), items: map[string]*list.Element{}}
}

// SpillFile is the point-cache spill file name inside the -cache-dir
// directory.
const SpillFile = "pointcache.jsonl"

// EnableSpill attaches a persistent spill store under dir and
// warm-loads it: every intact record in dir/pointcache.jsonl — one that
// campaign.DecodeShardRecord reads, layout and CRC, and so one that
// campaign.ResultLine splices — is inserted, up to the byte budget. The store keeps
// the file's content as Open read it, overflow lines included, for the
// life of the cache; the entries loaded share those bytes. From then
// on, entries evicted by the LRU bound are appended to the file before
// they are dropped from memory, and SpillAll persists the whole
// resident set — together they make the cache's contents survive
// restarts, and neither keeps a copy of what it writes. Returns how
// many records were warm-loaded.
func (c *Cache) EnableSpill(dir string) (loaded int, err error) {
	if c == nil {
		return 0, nil
	}
	store, err := checkpoint.Open(filepath.Join(dir, SpillFile))
	if err != nil {
		return 0, err
	}
	c.spillMu.Lock()
	defer c.spillMu.Unlock()
	c.spill = store
	c.onDisk = make(map[string]bool, len(store.Records()))
	for _, line := range store.Records() {
		rec, err := campaign.DecodeShardRecord(line)
		if err != nil {
			continue // damaged or foreign line: ignore, never trust
		}
		c.onDisk[rec.PointHash] = true
		c.mu.Lock()
		_, exists := c.items[rec.PointHash]
		fits := c.size+int64(len(line)) <= c.max
		if !exists && fits {
			// Share the bytes: the store never rewrites a record it holds,
			// and the cache never modifies a line.
			c.items[rec.PointHash] = c.ll.PushBack(&cacheEntry{hash: rec.PointHash, line: line})
			c.size += int64(len(line))
			loaded++
		}
		c.mu.Unlock()
	}
	c.publishGauges()
	obs.CacheWarmLoads.Add(int64(loaded))
	return loaded, nil
}

// SpillAll persists every resident entry not already on disk — the
// shutdown path, making a clean restart fully warm. Safe to call with
// spill disabled (no-op).
func (c *Cache) SpillAll() error {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	entries := make([]*cacheEntry, 0, c.ll.Len())
	for el := c.ll.Back(); el != nil; el = el.Prev() {
		entries = append(entries, el.Value.(*cacheEntry))
	}
	c.mu.Unlock()
	return c.spillEntries(entries)
}

// spillEntries appends the not-yet-persisted entries to the spill store
// as one batch (one write, one fsync). A crash mid-batch keeps a prefix
// of it, which is fine: the records are independent and CRC-checked,
// and onDisk is rebuilt at startup from what decodes. Entry lines are
// immutable once cached, so reading them outside mu is safe.
func (c *Cache) spillEntries(entries []*cacheEntry) error {
	if len(entries) == 0 {
		return nil
	}
	c.spillMu.Lock()
	defer c.spillMu.Unlock()
	if c.spill == nil {
		return nil
	}
	batch := make([][]byte, 0, len(entries))
	for _, e := range entries {
		if !c.onDisk[e.hash] {
			batch = append(batch, e.line)
		}
	}
	if len(batch) == 0 {
		return nil
	}
	if err := c.spill.AppendBatch(batch); err != nil {
		return err
	}
	for _, e := range entries {
		c.onDisk[e.hash] = true
	}
	obs.CacheSpills.Add(int64(len(batch)))
	return nil
}

// Get returns the stored record, which the caller must not modify.
// Hits and misses are counted by the caller, which knows whether it
// could serve the record.
func (c *Cache) Get(hash string) ([]byte, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	el, ok := c.items[hash]
	var line []byte
	if ok {
		c.ll.MoveToFront(el)
		line = el.Value.(*cacheEntry).line
	}
	c.mu.Unlock()
	return line, ok
}

// Put inserts a verified shard record, evicting least-recently-used entries past the byte budget. The
// entry keeps its own copy of record: an upload's lines are cut from one
// decoded body, which an entry sharing them would pin whole. A record
// larger than the whole budget is not cached.
func (c *Cache) Put(hash string, record []byte) {
	if c == nil || int64(len(record)) > c.max {
		return
	}
	c.mu.Lock()
	if el, ok := c.items[hash]; ok {
		// Deterministic duplicate (or a re-Put after eviction raced a
		// Get): refresh recency, keep the existing bytes.
		c.ll.MoveToFront(el)
		c.mu.Unlock()
		return
	}
	c.items[hash] = c.ll.PushFront(&cacheEntry{hash: hash, line: bytes.Clone(record)})
	c.size += int64(len(record))
	var evicted []*cacheEntry
	for c.size > c.max {
		back := c.ll.Back()
		if back == nil {
			break
		}
		e := back.Value.(*cacheEntry)
		c.ll.Remove(back)
		delete(c.items, e.hash)
		c.size -= int64(len(e.line))
		evicted = append(evicted, e)
	}
	size, entries := c.size, int64(len(c.items))
	c.mu.Unlock()
	if len(evicted) > 0 {
		obs.CacheEvictions.Add(int64(len(evicted)))
		// Best effort: a failed spill only costs future recomputation.
		c.spillEntries(evicted) //nolint:errcheck
	}
	obs.CacheBytes.Set(size)
	obs.CacheEntries.Set(entries)
}

// publishGauges refreshes the size gauges outside any lock ordering
// concerns (reads under mu).
func (c *Cache) publishGauges() {
	c.mu.Lock()
	size, entries := c.size, int64(len(c.items))
	c.mu.Unlock()
	obs.CacheBytes.Set(size)
	obs.CacheEntries.Set(entries)
}

// Stats reports the cache's current size for the service stats
// endpoint.
func (c *Cache) Stats() (bytes int64, entries int) {
	if c == nil {
		return 0, 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.size, len(c.items)
}
