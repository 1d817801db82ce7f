// Package checkpoint is a crash-safe JSONL record store for sharded
// campaign results. A store is a single append-only file of
// newline-terminated records (one campaign shard record per line, see
// campaign's shard wire format) with two guarantees the sharded
// execution layer is built on:
//
//   - Write now, sync per slice. Write hands only the new records' bytes
//     to one write(2) on an O_APPEND descriptor and returns: the records
//     are in the file and visible to Load, but not yet fsynced. Sync is
//     the one durability point: a single fsync covering everything
//     written since the previous one (plus the directory entry, the
//     first time after the file was created). Append and
//     AppendBatch are Write followed by Sync, durable on return. The
//     descriptor is closed after each call, so a store holds no OS
//     resource between calls, and earlier bytes are never rewritten.
//     What the two kinds of failure can lose follows from that:
//     the death of the process (panic, SIGKILL, a supervisor's timeout)
//     loses nothing that was written — the page cache outlives it — and
//     at worst leaves the record in flight as a torn tail; a power cut or
//     kernel crash loses at most what was written since the last Sync,
//     of which the kernel may have flushed any prefix, again possibly
//     torn. Neither can damage a record before the last synced one. How
//     much sits between two Syncs is the writer's choice; both writers
//     in this module, a shard's checkpoint and ctsand's point-cache
//     file, sync once per SyncSlice through SyncPerSlice.
//
//   - Corruption-tolerant loads. Load never fails on damaged content: it
//     returns the longest prefix of intact records and stops at the
//     first bad line (the torn tail of a crashed or still-running
//     write, truncation, bit rot — anything that is not a complete
//     newline-terminated line). Deeper validation (CRC, spec hash)
//     belongs to the record format layered on top; the store only
//     guarantees line integrity, so a resumed run re-executes damaged
//     work instead of aborting.
//
// Open combines the two: it reads the file once, keeps the intact
// prefix and, if anything was discarded, immediately replaces the file
// with that clean prefix (atomically through WriteFile, the one rewrite
// this package does) so the next write lands on a record boundary and
// two crashes in a row cannot compound. OpenEach hands the opener each
// intact record and its offset during that read (a shard's resume,
// ctsand's cache index), and Size is where the next record lands: the
// framing is this package's alone.
//
// Two consequences of appending in place, both harmless to the callers:
// a Load racing a write may see the new record's line half-written
// (it drops it, exactly like a crash tail, and sees it whole on the next
// Load), and a crash inside a multi-record Write keeps a prefix of it,
// in order, rather than all or none of it.
//
// A failed fsync is final. The kernel marks the dirty pages clean when
// writeback fails, so a later fsync can succeed without the data being
// on disk; a store whose Sync failed therefore refuses every further
// Write and Sync with that error, and whoever retries must Open the file
// again and trust only what it finds there.
package checkpoint

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"ctsan/internal/obs"
)

// SyncSlice is how much wall time one fsync covers: a writer writes each
// record as it has it and fsyncs once the slice begun at the previous
// fsync is this old, so tiny records share an fsync and a slow one gets
// its own. Large enough to amortise the fsync over tens of
// sub-millisecond points, small enough that a power cut costs noise.
const SyncSlice = 25 * time.Millisecond

// Store is an append-only JSONL record file. It holds no record in
// memory: what Open found (OpenEach hands it over during the read) and
// what Write adds live in the file only, where Load reads them. It is
// not safe for concurrent use by multiple goroutines or processes; the
// sharded campaign layer gives every shard its own store file.
type Store struct {
	path string
	// size is the byte length of the file, which is exactly the intact
	// records with their newlines; synced is how much of it the last Sync
	// covered (or Open found). created is false until the file exists.
	size    int64
	synced  int64
	created bool
	// sliceStart is when the current sync slice began (SyncPerSlice);
	// zero until the first call.
	sliceStart time.Time
	// broken is set when the file can no longer be trusted to match size
	// — a failed write that could not be rolled back, or a failed sync —
	// so further writes and syncs are refused.
	broken error
}

// Open opens (or creates) the store at path, keeping the longest intact
// record prefix and truncating any damaged tail on disk. A missing file
// is an empty store, ready to write; the file appears with the first
// Write.
func Open(path string) (*Store, error) {
	return OpenEach(path, func(int64, []byte) {})
}

// OpenEach is Open that also hands each intact record to each, in file
// order, with the offset of its first byte, during the one read Open
// does: a caller that needs what the file holds (a resume, an index of
// where records lie) reads it once. record aliases the bytes read: each
// must not modify it, and whatever keeps it keeps the whole read alive.
// On error, what each was given is void.
func OpenEach(path string, each func(off int64, record []byte)) (*Store, error) {
	data, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	intact := scan(data, each)
	s := &Store{path: path, size: int64(intact), synced: int64(intact), created: err == nil}
	if intact < len(data) {
		// Repair now: replace the file with the clean prefix atomically so
		// a second crash cannot stack new corruption on old.
		if err := WriteFile(path, data[:intact], 0o644); err != nil {
			return nil, err
		}
		obs.CheckpointBytes.Add(s.size)
	}
	return s, nil
}

// Load reads the store at path without opening it for writing: the
// intact records and the number of damaged tail bytes that were ignored.
// A missing file loads as zero records.
func Load(path string) (records [][]byte, droppedBytes int, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, 0, nil
		}
		return nil, 0, fmt.Errorf("checkpoint: %w", err)
	}
	records, intact := Scan(data)
	return records, len(data) - intact, nil
}

// Scan splits raw store content into intact records. A record is intact
// iff it is a non-empty line terminated by '\n'; scanning stops at the
// first violation (an unterminated tail, or an empty line — this store
// never writes one, so it marks foreign damage). It returns the records
// and the byte length of the intact prefix.
func Scan(data []byte) (records [][]byte, intact int) {
	intact = scan(data, func(_ int64, record []byte) { records = append(records, record) })
	return records, intact
}

// scan is Scan's walk: it calls each with every intact record and the
// offset of its first byte, and returns the length of the intact prefix.
func scan(data []byte, each func(off int64, record []byte)) int {
	intact := 0
	for intact < len(data) {
		nl := bytes.IndexByte(data[intact:], '\n')
		if nl < 0 {
			break // torn tail: record was being written when the process died
		}
		if nl == 0 {
			break // empty line: not a record this store could have produced
		}
		each(int64(intact), data[intact:intact+nl])
		intact += nl + 1
	}
	return intact
}

// Write adds records to the end of the file with one write(2) and no
// fsync. When it returns they are readable by Load, and they survive the
// death of this process; they survive a power cut only after the next
// Sync. An error means none of them was written: the file was rolled
// back. Every record must be non-empty and must not contain a newline
// (it is the line framing); a call with an invalid record writes
// nothing.
func (s *Store) Write(records ...[]byte) error {
	if len(records) == 0 {
		return nil
	}
	if s.broken != nil {
		return s.broken
	}
	n := 0
	for _, record := range records {
		if len(record) == 0 {
			return fmt.Errorf("checkpoint: empty record")
		}
		if bytes.IndexByte(record, '\n') >= 0 {
			return fmt.Errorf("checkpoint: record contains a newline")
		}
		n += len(record) + 1
	}
	buf := make([]byte, 0, n)
	for _, record := range records {
		buf = append(buf, record...)
		buf = append(buf, '\n')
	}
	if err := s.write(buf); err != nil {
		return err
	}
	s.size += int64(n)
	obs.CheckpointAppends.Add(int64(len(records)))
	obs.CheckpointBytes.Add(int64(n))
	return nil
}

// Size is the byte length of the file as this store wrote it: the
// offset at which the next written record begins.
func (s *Store) Size() int64 {
	return s.size
}

// Sync makes everything written so far durable with one fsync of the
// file (and one of its directory if the file is new); with nothing
// written since the last Sync it does nothing. A failure is final: the
// store is broken from then on (see the package comment).
func (s *Store) Sync() error {
	if s.broken != nil {
		return s.broken
	}
	if s.synced == s.size {
		return nil
	}
	f, err := os.OpenFile(s.path, os.O_WRONLY, 0)
	if err == nil {
		err = syncFile(f)
		// Close cannot lose data already fsynced; its error adds nothing.
		f.Close()
	}
	if err == nil && s.synced == 0 {
		// The first sync of this file: it may be one this store created,
		// whose directory entry is not durable yet either.
		err = syncDir(filepath.Dir(s.path))
	}
	if err != nil {
		s.broken = fmt.Errorf("checkpoint: %s unusable after failed sync: %w", s.path, err)
		return s.broken
	}
	s.synced = s.size
	obs.CheckpointSyncs.Add(1)
	return nil
}

// SyncPerSlice is the sync-per-slice policy, given the writer's clock:
// it fsyncs (Sync) when SyncSlice has passed since the current slice
// began, and a new slice begins at that fsync. The first call only
// begins the first slice, so a writer calls it once before its first
// Write, and then after each.
func (s *Store) SyncPerSlice(now time.Time) error {
	if s.sliceStart.IsZero() {
		s.sliceStart = now
	}
	if now.Sub(s.sliceStart) < SyncSlice {
		return nil
	}
	s.sliceStart = now
	return s.Sync()
}

// Append durably adds one record: Write, then Sync, so not even a power
// cut loses it once Append has returned.
func (s *Store) Append(record []byte) error {
	return s.AppendBatch([][]byte{record})
}

// AppendBatch durably adds records with one write and one fsync, for a
// writer that wants a durability point per batch. A crash
// mid-batch keeps a prefix of the batch, in order. A write error means
// none of it was written; a sync error leaves it in the file, written
// but of unknown durability, in a store that is broken from then on.
func (s *Store) AppendBatch(records [][]byte) error {
	if err := s.Write(records...); err != nil {
		return err
	}
	return s.Sync()
}

// writeFile and syncFile are the store's write(2) and fsync(2); tests
// replace them to fail partway through.
var (
	writeFile = (*os.File).Write
	syncFile  = (*os.File).Sync
)

// write puts buf at the end of the file, creating it on first use. On
// failure the file is rolled back to its last good length, so the file
// ends on a record boundary; if even that fails the store refuses
// further writes rather than write after torn bytes.
func (s *Store) write(buf []byte) error {
	flags := os.O_WRONLY | os.O_APPEND
	if !s.created {
		// O_EXCL: Open saw no file, so one that has appeared since is
		// somebody else's.
		flags |= os.O_CREATE | os.O_EXCL
	}
	f, err := os.OpenFile(s.path, flags, 0o644)
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	// Close adds nothing: a write-back error surfaces at the next Sync's
	// fsync, which is the call that promises durability.
	defer f.Close()
	s.created = true
	if _, err := writeFile(f, buf); err != nil {
		if terr := f.Truncate(s.size); terr != nil {
			s.broken = fmt.Errorf("checkpoint: %s unusable after failed write (%v) and failed rollback: %w", s.path, err, terr)
		}
		return fmt.Errorf("checkpoint: %w", err)
	}
	return nil
}

// WriteFile atomically replaces the file at path with data: it writes a
// temporary file in the same directory (rename is atomic only within one
// filesystem), fsyncs it, renames it over path and fsyncs the directory,
// so after a crash at any instant path holds the complete old content or
// the complete new content, never a prefix. On error the temporary file
// is removed and path is untouched. Open repairs a damaged tail with it,
// and cmd/ctsan's merged output and the golden -update writers go
// through it, so an interrupted run never leaves a half-written artifact
// behind.
func WriteFile(path string, data []byte, perm os.FileMode) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	tmpName := tmp.Name()
	// Any failure from here on must not leave the temp file behind.
	fail := func(err error) error {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("checkpoint: %w", err)
	}
	if err := tmp.Chmod(perm); err != nil {
		return fail(err)
	}
	if _, err := tmp.Write(data); err != nil {
		return fail(err)
	}
	if err := tmp.Sync(); err != nil {
		return fail(err)
	}
	if err := tmp.Close(); err != nil {
		return fail(err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("checkpoint: %w", err)
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory so a rename or a file creation is durable.
// Some filesystems refuse to fsync directories; that error is ignored:
// the entry is there, just not guaranteed durable, which is the best
// such a system offers.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	defer d.Close()
	_ = d.Sync()
	return nil
}
