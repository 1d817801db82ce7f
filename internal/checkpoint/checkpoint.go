// Package checkpoint is a crash-safe JSONL record store for sharded
// campaign results. A store is a single append-only file of
// newline-terminated records (one campaign shard record per line, see
// campaign's shard wire format) with two guarantees the sharded
// execution layer is built on:
//
//   - Durable O(1) appends. Append hands only the new record's bytes to
//     one write(2) on an O_APPEND descriptor and fsyncs the file before
//     it returns; the descriptor is closed again, so a store holds no OS
//     resource between calls. Earlier bytes are never rewritten, so a
//     SIGKILL or power cut mid-append can only leave the record(s) in
//     flight as a torn tail after the last fsynced record — it loses at
//     most those, never an earlier one. The very first append creates
//     the file through internal/atomicio (temp file, fsync, rename,
//     directory fsync), the only time the directory entry changes.
//
//   - Corruption-tolerant loads. Load never fails on damaged content: it
//     returns the longest prefix of intact records and stops at the
//     first bad line (the torn tail of a crashed or still-running
//     append, truncation, bit rot — anything that is not a complete
//     newline-terminated line). Deeper validation (CRC, spec hash)
//     belongs to the record format layered on top; the store only
//     guarantees line integrity, so a resumed run re-executes damaged
//     work instead of aborting.
//
// Open combines the two: it loads the intact prefix and, if anything was
// discarded, immediately replaces the file with that clean prefix
// (atomically, the one rewrite this package does) so the next append
// lands on a record boundary and two crashes in a row cannot compound.
//
// Two consequences of appending in place, both harmless to the callers:
// a Load racing an append may see the new record's line half-written
// (it drops it, exactly like a crash tail, and sees it whole on the next
// Load), and a crash inside AppendBatch keeps a prefix of the batch, in
// order, rather than all or none of it.
package checkpoint

import (
	"bytes"
	"fmt"
	"os"

	"ctsan/internal/atomicio"
	"ctsan/internal/obs"
)

// Store is an append-only JSONL record file. It is not safe for
// concurrent use by multiple goroutines or processes; the sharded
// campaign layer gives every shard its own store file.
type Store struct {
	path string
	// records holds every intact record, oldest first (without the
	// newline): the ones Open read, then each appended batch's own copy.
	records [][]byte
	// size is the byte length of the file, which is exactly the intact
	// records with their newlines; created is false until the file exists.
	size    int64
	created bool
	// dropped reports how many bytes of damaged tail Open discarded.
	dropped int
	// broken is set when a failed append could not be rolled back: the
	// file may end in torn bytes, so further appends are refused.
	broken error
}

// Open opens (or creates) the store at path, keeping the longest intact
// record prefix and truncating any damaged tail on disk. A missing file
// is an empty store, ready to append.
func Open(path string) (*Store, error) {
	data, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	records, intact := Scan(data)
	s := &Store{path: path, records: records, size: int64(intact), created: err == nil, dropped: len(data) - intact}
	if s.dropped > 0 {
		// Repair now: replace the file with the clean prefix atomically so
		// a second crash cannot stack new corruption on old.
		if err := atomicio.WriteFile(path, data[:intact], 0o644); err != nil {
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
	for intact < len(data) {
		nl := bytes.IndexByte(data[intact:], '\n')
		if nl < 0 {
			break // torn tail: record was being written when the process died
		}
		if nl == 0 {
			break // empty line: not a record this store could have produced
		}
		records = append(records, data[intact:intact+nl])
		intact += nl + 1
	}
	return records, intact
}

// Records returns the intact records, oldest first. The slices alias the
// store's buffers; callers must not modify them.
func (s *Store) Records() [][]byte { return s.records }

// Dropped reports how many damaged tail bytes Open discarded (0 for a
// clean file).
func (s *Store) Dropped() int { return s.dropped }

// Path returns the store's file path.
func (s *Store) Path() string { return s.path }

// Append durably adds one record: its bytes are appended to the file
// and fsynced before Append returns, so a SIGKILL loses at most this
// record. The record must be non-empty and must not contain a newline
// (it is the line framing).
func (s *Store) Append(record []byte) error {
	return s.AppendBatch([][]byte{record})
}

// AppendBatch durably adds records with one write and one fsync. It
// exists for bulk writers — the result-cache spill persists whole LRU
// generations — where per-record Append would pay one fsync each. A
// crash mid-batch keeps a prefix of the batch, in order; an error
// returned here means none of it is in Records() and the file was
// rolled back to match. Every record must satisfy the Append rules
// (non-empty, no newline); a batch with an invalid record writes
// nothing.
func (s *Store) AppendBatch(records [][]byte) error {
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
	// buf is both the bytes written and the store's copy of the records.
	buf := make([]byte, 0, n)
	for _, record := range records {
		buf = append(buf, record...)
		buf = append(buf, '\n')
	}
	if err := s.write(buf); err != nil {
		return err
	}
	s.size += int64(n)
	off := 0
	for _, record := range records {
		s.records = append(s.records, buf[off:off+len(record)])
		off += len(record) + 1
	}
	obs.CheckpointAppends.Add(int64(len(records)))
	obs.CheckpointBytes.Add(int64(n))
	return nil
}

// writeFile is the append path's write(2); tests replace it to fail
// partway through.
var writeFile = (*os.File).Write

// write makes buf durable at the end of the file. On failure the file
// is rolled back to its last good length, so the records in memory and
// the bytes on disk never disagree; if even that fails the store
// refuses further appends rather than write after torn bytes.
func (s *Store) write(buf []byte) error {
	if !s.created {
		if err := atomicio.WriteFile(s.path, buf, 0o644); err != nil {
			return err
		}
		s.created = true
		return nil
	}
	f, err := os.OpenFile(s.path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	// Close cannot lose data already fsynced; its error adds nothing.
	defer f.Close()
	_, err = writeFile(f, buf)
	if err == nil {
		err = f.Sync()
	}
	if err != nil {
		if terr := f.Truncate(s.size); terr != nil {
			s.broken = fmt.Errorf("checkpoint: %s unusable after failed append (%v) and failed rollback: %w", s.path, err, terr)
		}
		return fmt.Errorf("checkpoint: %w", err)
	}
	return nil
}
