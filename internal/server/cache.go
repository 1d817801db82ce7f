package server

import (
	"bytes"
	"container/list"
	"os"
	"path/filepath"
	"sync"
	"time"

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
// trip, and the record file holds them verbatim. Every entry is a
// record verified on its way in (encoded by the run, verified upload,
// or decoded when read from the file), owns its bytes, and is never
// modified.
//
// With a record file (open; ctsand's -cache-dir) the LRU is the hot tier
// over it: every record Put is appended once, fsynced at most once per
// checkpoint.SyncSlice, and a memory miss is one read through an index
// of where each record lies, served but not promoted: the LRU holds what
// the daemon most recently computed or accepted, so a preload walking a
// study larger than memory does not evict the entries it is about to
// hit. Eviction drops memory only.
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
	// index locates every record of file (which the cache only reads)
	// by point hash; both are nil without a file.
	index map[string]span
	file  *os.File

	// diskMu serializes appends to store. It is taken before mu, never
	// while holding it: an append may fsync.
	diskMu sync.Mutex
	store  *checkpoint.Store
	now    func() time.Time // the sync slices' clock; tests replace it
}

type cacheEntry struct {
	hash string
	line []byte
}

// span is where a record lies in the file, its newline excluded.
type span struct {
	off int64
	n   int
}

// NewCache returns a cache bounded to maxBytes of encoded records.
// maxBytes <= 0 returns nil — the "cache disabled" value; a nil *Cache
// is a valid, always-missing cache.
func NewCache(maxBytes int64) *Cache {
	if maxBytes <= 0 {
		return nil
	}
	return &Cache{max: maxBytes, ll: list.New(), items: map[string]*list.Element{}, now: time.Now}
}

// cacheFile is the record file's name inside ctsand's -cache-dir.
const cacheFile = "pointcache.jsonl"

// open puts the cache over the record file in dir, creating it if
// absent, and returns how many records it indexed: every one
// campaign.CheckShardRecord accepts, by where it lies, not its bytes.
// The file is read once (checkpoint.OpenEach), no record is copied or
// loaded into the LRU, and a damaged tail is cut off.
func (c *Cache) open(dir string) (int, error) {
	path := filepath.Join(dir, cacheFile)
	// Create the file first, so that the store appends to the file the
	// read descriptor, opened after the store's repair, reads.
	f, err := os.OpenFile(path, os.O_RDONLY|os.O_CREATE, 0o644)
	if err != nil {
		return 0, err
	}
	f.Close()
	index := map[string]span{}
	store, err := checkpoint.OpenEach(path, func(off int64, line []byte) {
		if _, hash, _, err := campaign.CheckShardRecord(line); err == nil {
			index[hash] = span{off, len(line)}
		}
	})
	if err != nil {
		return 0, err
	}
	if f, err = os.Open(path); err != nil {
		return 0, err
	}
	store.SyncPerSlice(c.now()) //nolint:errcheck // nothing written yet: it begins the first slice
	c.diskMu.Lock()
	c.store = store
	c.mu.Lock()
	c.index, c.file = index, f
	c.mu.Unlock()
	c.diskMu.Unlock()
	return len(index), nil
}

// close fsyncs the file and closes it; the cache is memory only from
// then on. Safe to call again, and on a cache without a file.
func (c *Cache) close() error {
	if c == nil {
		return nil
	}
	c.diskMu.Lock()
	defer c.diskMu.Unlock()
	if c.store == nil {
		return nil
	}
	err := c.store.Sync()
	c.mu.Lock()
	c.file.Close()
	c.store, c.index, c.file = nil, nil, nil
	c.mu.Unlock()
	return err
}

// Get returns the stored record, which the caller must not modify: from
// memory, or else read from the file and served without entering the
// LRU. Hits and misses are counted by the caller, which knows whether
// it could serve the record.
func (c *Cache) Get(hash string) ([]byte, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	if el, ok := c.items[hash]; ok {
		c.ll.MoveToFront(el)
		line := el.Value.(*cacheEntry).line
		c.mu.Unlock()
		return line, true
	}
	at, ok := c.index[hash]
	f := c.file
	c.mu.Unlock()
	if !ok {
		return nil, false
	}
	line := make([]byte, at.n)
	if _, err := f.ReadAt(line, at.off); err == nil {
		if _, got, _, err := campaign.CheckShardRecord(line); err == nil && got == hash {
			obs.CacheDiskHits.Add(1)
			return line, true
		}
	}
	// Not the record the index was built from (an offset bug, or a file
	// changed underneath): never trust it; the point runs again.
	c.mu.Lock()
	if c.index[hash] == at {
		delete(c.index, hash)
	}
	c.mu.Unlock()
	return nil, false
}

// Put inserts a verified shard record as the most recently used entry,
// evicting least-recently-used entries past the byte budget, and appends
// it to the file unless the index has it. A record larger than the
// budget is not kept in memory. The append is best effort: a record that
// could not be written only costs a future recomputation. The entry
// keeps its own copy of record: an upload's lines are cut from one
// decoded body, which an entry sharing them would pin whole.
func (c *Cache) Put(hash string, record []byte) {
	if c == nil {
		return
	}
	c.diskMu.Lock()
	if c.store != nil {
		c.mu.Lock()
		_, held := c.index[hash]
		c.mu.Unlock()
		if off := c.store.Size(); !held && c.store.Write(record) == nil {
			c.mu.Lock()
			c.index[hash] = span{off, len(record)}
			c.mu.Unlock()
			c.store.SyncPerSlice(c.now()) //nolint:errcheck // a failed sync refuses every later write
		}
	}
	c.diskMu.Unlock()
	if int64(len(record)) > c.max {
		return
	}
	line := bytes.Clone(record)
	c.mu.Lock()
	if el, ok := c.items[hash]; ok {
		// Deterministic duplicate: refresh recency, keep the existing
		// bytes.
		c.ll.MoveToFront(el)
		c.mu.Unlock()
		return
	}
	c.items[hash] = c.ll.PushFront(&cacheEntry{hash: hash, line: line})
	c.size += int64(len(line))
	evicted := 0
	for ; c.size > c.max; evicted++ {
		e := c.ll.Remove(c.ll.Back()).(*cacheEntry)
		delete(c.items, e.hash)
		c.size -= int64(len(e.line))
	}
	size, entries := c.size, int64(len(c.items))
	c.mu.Unlock()
	obs.CacheEvictions.Add(int64(evicted))
	obs.CacheBytes.Set(size)
	obs.CacheEntries.Set(entries)
}

// Stats reports the cache's current size in memory for the service
// stats endpoint.
func (c *Cache) Stats() (bytes int64, entries int) {
	if c == nil {
		return 0, 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.size, len(c.items)
}
