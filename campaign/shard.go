package campaign

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"sync"
	"time"

	"ctsan/internal/checkpoint"
	"ctsan/internal/metrics"
)

// Shard-record wire format. A sharded campaign (cmd/ctsan) checkpoints
// every completed point as one JSONL line in a checkpoint.Store:
//
//	{"crc":"<crc32c hex>","body":{"v":1,"study":...,"index":...,
//	  "point_hash":"sha256:...","seed":...,"result":{...},"digest":"<base64>"}}
//
// The CRC is computed over the exact body bytes, so any bit flip in a
// stored record is detected at decode time and the record is discarded —
// the point is simply re-executed on resume, never folded in corrupted.
// The body carries the result twice, deliberately: "result" is the
// public Result JSON (the very bytes a 1-process `campaign.JSONLWriter`
// would emit for this point, re-emitted verbatim by merge so sharded and
// unsharded output are byte-identical), and "digest" is the full
// metrics.Digest binary encoding, so merged statistics — not just the
// flattened Summary — survive the process boundary bit-exactly.
//
// ShardRecordVersion bumps are deliberate breaks: decoding rejects
// unknown versions, which turns a format change into "re-run the shard"
// instead of a wrong merge.

// ShardRecordVersion is the current shard-record body version.
const ShardRecordVersion = 1

// crcTable is the Castagnoli polynomial, the standard choice for storage
// checksums (hardware-accelerated on current CPUs).
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ShardRecord is the decoded body of one checkpointed point result.
type ShardRecord struct {
	V     int    `json:"v"`
	Study string `json:"study"`
	// Index is the point's position in the full (unsharded) study grid;
	// merge folds records in Index order (determinism rule).
	Index int `json:"index"`
	// PointHash is PointHash() of the frozen point this result belongs
	// to; resume and merge reject records whose hash does not match the
	// point at Index.
	PointHash string `json:"point_hash"`
	// Seed is the point's effective seed, duplicated out of the result
	// for cheap validation.
	Seed uint64 `json:"seed"`
	// Result is the public Result JSON, byte-for-byte what the in-process
	// JSONL sink emits.
	Result json.RawMessage `json:"result"`
	// Digest is the binary metrics.Digest encoding ([]byte marshals as
	// base64 in JSON).
	Digest []byte `json:"digest"`
}

// shardEnvelope frames a record line: CRC over the exact body bytes.
type shardEnvelope struct {
	CRC  string          `json:"crc"`
	Body json.RawMessage `json:"body"`
}

// EncodeShardRecord serializes one completed point as a checkpoint line
// (without trailing newline). pointHash must be the PointHash of the
// frozen point that produced res.
func EncodeShardRecord(pointHash string, res *Result) ([]byte, error) {
	if res == nil {
		return nil, fmt.Errorf("campaign: encode nil result")
	}
	return encodeShardRecord(pointHash, res.Index, res)
}

// encodeShardRecord is EncodeShardRecord of res as the point at grid
// index `index`, without touching res — a sub-study's result is still
// owned by the run that will emit it under its sub-study index.
func encodeShardRecord(pointHash string, index int, res *Result) ([]byte, error) {
	if res.digest == nil {
		return nil, fmt.Errorf("campaign: result of point %d carries no digest", index)
	}
	at := *res
	at.Index = index
	resultJSON, err := json.Marshal(&at)
	if err != nil {
		return nil, fmt.Errorf("campaign: encode result: %w", err)
	}
	digestBin, err := res.digest.MarshalBinary()
	if err != nil {
		return nil, fmt.Errorf("campaign: encode digest: %w", err)
	}
	body, err := json.Marshal(ShardRecord{
		V:         ShardRecordVersion,
		Study:     res.Study,
		Index:     index,
		PointHash: pointHash,
		Seed:      res.Seed,
		Result:    resultJSON,
		Digest:    digestBin,
	})
	if err != nil {
		return nil, fmt.Errorf("campaign: encode shard record: %w", err)
	}
	return []byte(fmt.Sprintf(`{"crc":"%08x","body":%s}`, crc32.Checksum(body, crcTable), body)), nil
}

// DecodeShardRecord parses and verifies one checkpoint line: envelope
// shape, CRC over the body bytes, record version, and presence of the
// embedded result. It does not know which point the record *should*
// belong to — that is the caller's check, against PointHash.
func DecodeShardRecord(line []byte) (*ShardRecord, error) {
	var env shardEnvelope
	if err := json.Unmarshal(line, &env); err != nil {
		return nil, fmt.Errorf("campaign: shard record envelope: %w", err)
	}
	if len(env.Body) == 0 {
		return nil, fmt.Errorf("campaign: shard record with no body")
	}
	if got := fmt.Sprintf("%08x", crc32.Checksum(env.Body, crcTable)); got != env.CRC {
		return nil, fmt.Errorf("campaign: shard record CRC mismatch (stored %s, computed %s)", env.CRC, got)
	}
	var rec ShardRecord
	if err := json.Unmarshal(env.Body, &rec); err != nil {
		return nil, fmt.Errorf("campaign: shard record body: %w", err)
	}
	if rec.V != ShardRecordVersion {
		return nil, fmt.Errorf("campaign: unsupported shard record version %d", rec.V)
	}
	if len(rec.Result) == 0 {
		return nil, fmt.Errorf("campaign: shard record with no result")
	}
	return &rec, nil
}

// DecodeResult reconstructs the full Result from the record, including
// its live latency digest (restored bit-exactly from the binary
// encoding), so merged results support Quantile/Samples and digest
// folding just like results from an in-process run. The engine-native
// Raw() detail does not cross the process boundary and is nil.
func (r *ShardRecord) DecodeResult() (*Result, error) {
	var res Result
	if err := json.Unmarshal(r.Result, &res); err != nil {
		return nil, fmt.Errorf("campaign: shard record result: %w", err)
	}
	var d metrics.Digest
	if err := d.UnmarshalBinary(r.Digest); err != nil {
		return nil, err
	}
	res.digest = &d
	if res.Index != r.Index || res.Seed != r.Seed {
		return nil, fmt.Errorf("campaign: shard record result disagrees with its envelope (index %d/%d, seed %d/%d)",
			res.Index, r.Index, res.Seed, r.Seed)
	}
	return &res, nil
}

// StudyPointHashes computes the PointHash of every point of a (frozen)
// study, indexed by grid position.
func StudyPointHashes(s *Study) ([]string, error) {
	if s == nil {
		return nil, fmt.Errorf("campaign: nil study")
	}
	hashes := make([]string, len(s.Points))
	for i, p := range s.Points {
		h, err := PointHash(p)
		if err != nil {
			return nil, fmt.Errorf("campaign: point %d: %w", i, err)
		}
		hashes[i] = h
	}
	return hashes, nil
}

// VerifyShardRecord decodes one checkpoint line and verifies it belongs
// to the study whose per-index point hashes are given: envelope shape and
// CRC (DecodeShardRecord), grid index in range, and PointHash match at
// that index. It is the per-record acceptance check of everything that
// ingests records produced elsewhere — resume, merge, and the fleet
// coordinator verifying worker uploads.
func VerifyShardRecord(hashes []string, line []byte) (*ShardRecord, error) {
	rec, err := DecodeShardRecord(line)
	if err != nil {
		return nil, err
	}
	if rec.Index < 0 || rec.Index >= len(hashes) {
		return nil, fmt.Errorf("campaign: shard record index %d outside study of %d points", rec.Index, len(hashes))
	}
	if hashes[rec.Index] != rec.PointHash {
		return nil, fmt.Errorf("campaign: shard record at index %d carries hash %s, study expects %s", rec.Index, rec.PointHash, hashes[rec.Index])
	}
	return rec, nil
}

// siftRecords decodes checkpoint lines and keeps the first valid record
// per in-range point whose hash matches the study's point at that index.
// Invalid lines (CRC failures, foreign versions), out-of-range indices,
// stale hashes, and duplicates are counted as skipped, never fatal: a
// bad checkpoint record means re-executing a point, not failing a run.
func siftRecords(hashes []string, lines [][]byte) (byIndex map[int]*ShardRecord, skipped int) {
	byIndex = make(map[int]*ShardRecord)
	for _, line := range lines {
		rec, err := VerifyShardRecord(hashes, line)
		if err != nil {
			skipped++
			continue
		}
		if _, dup := byIndex[rec.Index]; dup {
			// Determinism makes duplicates identical; keep the first.
			skipped++
			continue
		}
		byIndex[rec.Index] = rec
	}
	return byIndex, skipped
}

// missingPoints reports which grid indices of [start, end) have no valid
// checkpoint record among lines, given the study's per-index point
// hashes. A shard whose range comes back empty is complete and can be
// skipped on resume.
func missingPoints(hashes []string, start, end int, lines [][]byte) (missing []int) {
	byIndex, _ := siftRecords(hashes, lines)
	for i := start; i < end; i++ {
		if _, ok := byIndex[i]; !ok {
			missing = append(missing, i)
		}
	}
	return missing
}

// syncSlice is how much wall time one checkpoint fsync covers. A shard
// writes every record the moment its point completes and fsyncs once the
// slice that began at the previous fsync is this old: a grid of tiny
// points pays one fsync per slice instead of one per point, while a
// point that runs longer than the slice still gets an fsync to itself.
// It is a constant on purpose — large enough to amortise the fsync over
// tens of sub-millisecond points, small enough that what a power cut can
// cost is noise next to restarting the shard process.
const syncSlice = 25 * time.Millisecond

// now is the clock syncSlice is measured on; tests replace it.
var now = time.Now

// RunShardRange executes points [start, end) of a frozen study,
// checkpointing each completed point into store and skipping points the
// store held valid records for when it was opened (store.Records()), so
// a restarted shard, which opens its store afresh, re-executes only what
// is missing. The frozen study must be the *full* grid (records carry
// full-grid indices); opts typically just caps workers, since seeds and
// replica counts are already pinned by Frozen.
//
// Durability is per time slice, not per point. Each record is written to
// the store the moment its point completes, on the worker that ran it —
// not when the point's turn to be emitted comes: points start in the
// study's start order (see Run), so a point may complete while a lower
// index still runs, and the store holds records in completion order
// (merge and resume fold by index). From then on the record is visible
// to checkpoint.Load, and it outlives this process however it dies
// (panic, SIGKILL, a supervisor's timeout); the store is fsynced when
// syncSlice has passed since the previous fsync, and once more before
// RunShardRange returns, on every exit path. So a dead executor costs
// bounded re-execution, never a wrong result: process death loses only
// the points in flight; power loss loses at most the records of one
// slice, all written within syncSlice of each other, which a resume
// finds missing (or torn, and drops) and re-executes.
//
// onPoint, when non-nil, observes each record line just after it is
// written — "checkpointed" in the sense above: readable by a resume or a
// merge, not necessarily fsynced yet. Calls are serialized, in the order
// the records are written. It is the fault-injection hook the
// crash-safety tests use, and a progress hook for supervisors.
func RunShardRange(ctx context.Context, frozen *Study, start, end int, store *checkpoint.Store, onPoint func(index int, line []byte) error, opts ...Option) error {
	if err := checkRange(frozen, start, end); err != nil {
		return err
	}
	hashes, err := StudyPointHashes(frozen)
	if err != nil {
		return err
	}
	missing := missingPoints(hashes, start, end, store.Records())
	if len(missing) == 0 {
		return nil
	}
	sub := &Study{Name: frozen.Name, Points: make([]Point, len(missing))}
	for li, gi := range missing {
		sub.Points[li] = frozen.Points[gi]
	}
	w := &shardWriter{store: store, hashes: hashes, global: missing, onPoint: onPoint, sliceStart: now()}
	err = Run(ctx, sub, append(opts, func(o *options) { o.completed = w.write })...)
	// Whatever the last slice wrote is fsynced on every exit path,
	// cancellation and failed points included.
	if serr := store.Sync(); serr != nil && err == nil {
		err = serr
	}
	return err
}

// checkRange validates a shard range against a study.
func checkRange(s *Study, start, end int) error {
	if s == nil {
		return fmt.Errorf("campaign: nil study")
	}
	if start < 0 || end > len(s.Points) || start >= end {
		return fmt.Errorf("campaign: shard range %d:%d outside study of %d points", start, end, len(s.Points))
	}
	return nil
}

// shardWriter checkpoints each result the moment its point completes,
// encoded under its full-grid index (global maps the sub-study of missing
// points back to the grid). write runs on the worker that completed the
// point, under mu; it writes the record at once and fsyncs only when the
// current slice is syncSlice old — RunShardRange fsyncs what the last
// slice left. Nothing is buffered in memory and there is no timer: the
// clock is read in write.
type shardWriter struct {
	store   *checkpoint.Store
	hashes  []string
	global  []int
	onPoint func(index int, line []byte) error

	mu sync.Mutex
	// sliceStart is when the current slice began: the previous fsync, or
	// the start of the range.
	sliceStart time.Time
}

func (s *shardWriter) write(i int, res *Result) error {
	gi := s.global[i]
	line, err := encodeShardRecord(s.hashes[gi], gi, res)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.store.Write(line); err != nil {
		return err
	}
	if s.onPoint != nil {
		if err := s.onPoint(gi, line); err != nil {
			return err
		}
	}
	if t := now(); t.Sub(s.sliceStart) >= syncSlice {
		s.sliceStart = t
		return s.store.Sync()
	}
	return nil
}

// MergeShardRecords folds checkpoint lines (typically the union of every
// shard's store) into the complete, index-ordered record set of a frozen
// study — the determinism rule for sharded campaigns: shards fold in
// grid-index order, exactly like the in-process serial fold, so the
// merged output is bit-identical to a 1-process run. It fails if any
// point has no valid record, listing the missing indices; skipped counts
// lines ignored as corrupt, stale, or duplicate.
func MergeShardRecords(frozen *Study, lines [][]byte) (records []*ShardRecord, skipped int, err error) {
	hashes, err := StudyPointHashes(frozen)
	if err != nil {
		return nil, 0, err
	}
	byIndex, skipped := siftRecords(hashes, lines)
	var missing []int
	for i := range frozen.Points {
		if _, ok := byIndex[i]; !ok {
			missing = append(missing, i)
		}
	}
	if len(missing) > 0 {
		return nil, skipped, fmt.Errorf("campaign: merge incomplete: %d of %d points missing (first missing index %d)",
			len(missing), len(frozen.Points), missing[0])
	}
	records = make([]*ShardRecord, len(frozen.Points))
	for i := range records {
		records[i] = byIndex[i]
	}
	return records, skipped, nil
}
