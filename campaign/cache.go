package campaign

// PointCache is a content-addressed store of completed point results,
// consulted by Run around every point execution when installed with
// WithPointCache. The key is the PointHash of the *frozen* point — the
// engine name plus the fully materialized spec, derived seed included —
// so a hit can only occur for a point that would execute identically:
// same engine, same parameters, same seed, same replica count. Repeated
// points across studies (thousands of users poking the same built-in
// scenarios) are then served from memory instead of resimulated. The
// value is the point's shard record, the line EncodeShardRecord writes.
//
// Contract:
//
//   - Get returns the record stored under hash. Run only reads it, so
//     every Get may return the same bytes, which must not change
//     afterwards. A hit costs Run no decode: it emits the record's
//     result JSON behind the hitting study's identity (study, point,
//     index) and decodes the rest only for a consumer that reads the
//     Result struct rather than its JSON — any sink but a JSONLWriter,
//     and a progress callback. A record Run cannot read as one
//     appendShardRecord wrote is a miss.
//   - Put is called after a point executes, with the record of its fully
//     identified result. Run encoded it for Put and never touches it
//     again: the cache may keep it as it is.
//   - Both methods may be called concurrently from worker goroutines.
//   - The cache only ever observes deterministic values: for a given
//     hash every Put stores the same statistics, so lossy admission or
//     eviction policies cannot change any result bit — only whether a
//     point is recomputed.
type PointCache interface {
	Get(hash string) (record []byte, ok bool)
	Put(hash string, record []byte)
}

// WithPointCache installs a content-addressed result cache consulted
// around every point execution: a hit skips the engine entirely (the
// obs executions counter does not advance) and the cached result is
// re-identified and emitted to the sinks exactly as a computed one
// would be — sink output is byte-identical either way. A computed
// result is JSON-encoded once, for its record and its JSONL line alike.
// Points whose results cannot be encoded (no digest) are silently not
// cached.
func WithPointCache(c PointCache) Option { return func(o *options) { o.cache = c } }
