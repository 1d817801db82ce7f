package checkpoint

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

func TestAppendAndReload(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.jsonl")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]byte{[]byte(`{"i":0}`), []byte(`{"i":1}`), []byte(`{"i":2}`)}
	for _, r := range want {
		if err := s.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	mustEqualRecords(t, "Records after appends", s.Records(), want)
	re, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	mustEqualRecords(t, "Records after reopen", re.Records(), want)
	if _, dropped, err := Load(path); err != nil || dropped != 0 {
		t.Fatalf("clean file reported %d dropped bytes (%v)", dropped, err)
	}
}

func TestOpenMissingFileIsEmpty(t *testing.T) {
	s, err := Open(filepath.Join(t.TempDir(), "absent.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Records()) != 0 {
		t.Fatal("missing file must open as an empty store")
	}
	if err := s.Append([]byte("x")); err != nil {
		t.Fatal(err)
	}
}

func TestFirstWriteCreatesTheFile(t *testing.T) {
	// Open of a missing path touches nothing; the first Write creates the
	// file, and refuses one that somebody else created in the meantime —
	// appending to it, or rolling back to this store's idea of its length,
	// would damage records this store never saw.
	dir := t.TempDir()
	path := filepath.Join(dir, "ckpt.jsonl")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("Open created the file (stat: %v)", err)
	}
	foreign := []byte("{\"theirs\":true}\n")
	if err := os.WriteFile(path, foreign, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := s.Write([]byte(`{"i":0}`)); !errors.Is(err, os.ErrExist) {
		t.Fatalf("Write over a file that appeared after Open = %v, want os.ErrExist", err)
	}
	if got, _ := os.ReadFile(path); !bytes.Equal(got, foreign) {
		t.Fatalf("foreign file changed: %q", got)
	}
	if len(s.Records()) != 0 {
		t.Fatalf("refused write left %d records", len(s.Records()))
	}
}

func TestOpenTruncatesTornTail(t *testing.T) {
	// Simulate a SIGKILL mid-write from a non-atomic writer: two complete
	// records and a torn third line with no newline.
	path := filepath.Join(t.TempDir(), "ckpt.jsonl")
	if err := os.WriteFile(path, []byte("{\"i\":0}\n{\"i\":1}\n{\"i\":2,\"part"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Records()) != 2 {
		t.Fatalf("got %d records, want the 2 intact ones", len(s.Records()))
	}
	// Open must have repaired the file on disk.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "{\"i\":0}\n{\"i\":1}\n" {
		t.Fatalf("file not repaired to the intact prefix: %q", data)
	}
	// Appending after repair extends the clean prefix.
	if err := s.Append([]byte(`{"i":2}`)); err != nil {
		t.Fatal(err)
	}
	re, _, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(re) != 3 {
		t.Fatalf("after repair+append got %d records", len(re))
	}
}

func TestOpenStopsAtEmptyLine(t *testing.T) {
	// An empty line is damage (the store never writes one): everything
	// from it on is discarded, even if later lines look whole.
	path := filepath.Join(t.TempDir(), "ckpt.jsonl")
	if err := os.WriteFile(path, []byte("a\n\nb\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Records()) != 1 || string(s.Records()[0]) != "a" {
		t.Fatalf("records = %q, want just [a]", s.Records())
	}
}

func TestAppendRejectsUnframeableRecords(t *testing.T) {
	s, err := Open(filepath.Join(t.TempDir(), "c"))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Append(nil); err == nil {
		t.Fatal("empty record accepted")
	}
	if err := s.Append([]byte("a\nb")); err == nil {
		t.Fatal("record with newline accepted")
	}
}

func TestAppendIsAtomicAgainstReaders(t *testing.T) {
	// Once an append has returned, a fresh Load sees every record whole:
	// the bytes were written and fsynced in place before Append came back.
	// (A Load racing an append may see its line torn and drops it.)
	path := filepath.Join(t.TempDir(), "ckpt.jsonl")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if err := s.Append([]byte(fmt.Sprintf(`{"i":%d}`, i))); err != nil {
			t.Fatal(err)
		}
		records, dropped, err := Load(path)
		if err != nil {
			t.Fatal(err)
		}
		if dropped != 0 || len(records) != i+1 {
			t.Fatalf("after append %d: %d records, %d dropped", i, len(records), dropped)
		}
	}
}

// mustEqualRecords fails unless got is exactly want, record by record.
func mustEqualRecords(t *testing.T, what string, got, want [][]byte) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d records %q, want %d %q", what, len(got), got, len(want), want)
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("%s: record %d = %q, want %q", what, i, got[i], want[i])
		}
	}
}

func TestCrashAtEveryByteOfBatch(t *testing.T) {
	// A crash can cut an in-flight append anywhere. For a store of k
	// records plus a batch in flight, truncate the file at every byte of
	// the batch: Open keeps exactly the records wholly before the cut,
	// reports the rest as dropped, and the next Append lands on a clean
	// boundary — no merged or garbage line.
	dir := t.TempDir()
	resident := [][]byte{[]byte(`{"i":0}`), []byte(`{"i":1,"pad":"xx"}`), []byte(`{"i":2}`)}
	batch := [][]byte{[]byte(`{"b":0,"pad":"yyyy"}`), []byte(`{"b":1}`), []byte(`{"b":2,"pad":"z"}`)}
	full := filepath.Join(dir, "full")
	s, err := Open(full)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AppendBatch(resident); err != nil {
		t.Fatal(err)
	}
	base := int(s.size)
	if err := s.AppendBatch(batch); err != nil {
		t.Fatal(err)
	}
	content, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	after := []byte(`{"after":true}`)
	for cut := base; cut <= len(content); cut++ {
		path := filepath.Join(dir, fmt.Sprintf("cut-%d", cut))
		if err := os.WriteFile(path, content[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		want := append([][]byte(nil), resident...)
		whole := base
		for _, r := range batch {
			if whole+len(r)+1 > cut {
				break
			}
			want = append(want, r)
			whole += len(r) + 1
		}
		s, err := Open(path)
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		mustEqualRecords(t, fmt.Sprintf("cut %d: Open", cut), s.Records(), want)
		if fi, err := os.Stat(path); err != nil {
			t.Fatal(err)
		} else if fi.Size() != int64(whole) {
			t.Fatalf("cut %d: Open left %d bytes on disk, want the %d intact ones", cut, fi.Size(), whole)
		}
		if err := s.Append(after); err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		want = append(want, after)
		mustEqualRecords(t, fmt.Sprintf("cut %d: Records after append", cut), s.Records(), want)
		got, dropped, err := Load(path)
		if err != nil || dropped != 0 {
			t.Fatalf("cut %d: Load after append: dropped=%d err=%v", cut, dropped, err)
		}
		mustEqualRecords(t, fmt.Sprintf("cut %d: Load after append", cut), got, want)
	}
}

func TestFailedAppendRollsBack(t *testing.T) {
	// A write that fails after putting some bytes in the file must not
	// leave them there: the store's records and the file keep agreeing,
	// and the next successful append is readable — nothing torn is buried
	// in the middle of the log.
	path := filepath.Join(t.TempDir(), "ckpt.jsonl")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]byte{[]byte(`{"i":0}`), []byte(`{"i":1}`)}
	if err := s.AppendBatch(want); err != nil {
		t.Fatal(err)
	}
	diskFull := errors.New("no space left on device")
	writeFile = func(f *os.File, b []byte) (int, error) {
		n, _ := f.Write(b[:len(b)/2])
		return n, diskFull
	}
	defer func() { writeFile = (*os.File).Write }()
	if err := s.Append([]byte(`{"i":2,"pad":"partially written"}`)); !errors.Is(err, diskFull) {
		t.Fatalf("Append = %v, want the injected write failure", err)
	}
	if err := s.AppendBatch([][]byte{[]byte(`{"i":3}`), []byte(`{"i":4}`)}); !errors.Is(err, diskFull) {
		t.Fatalf("AppendBatch = %v, want the injected write failure", err)
	}
	mustEqualRecords(t, "Records after failed appends", s.Records(), want)
	got, dropped, err := Load(path)
	if err != nil || dropped != 0 {
		t.Fatalf("file dirty after failed appends: dropped=%d err=%v", dropped, err)
	}
	mustEqualRecords(t, "Load after failed appends", got, want)

	writeFile = (*os.File).Write
	next := []byte(`{"i":2}`)
	if err := s.Append(next); err != nil {
		t.Fatal(err)
	}
	want = append(want, next)
	mustEqualRecords(t, "Records after recovery", s.Records(), want)
	got, dropped, err = Load(path)
	if err != nil || dropped != 0 {
		t.Fatalf("file dirty after recovery: dropped=%d err=%v", dropped, err)
	}
	mustEqualRecords(t, "Load after recovery", got, want)
}

func TestWriteIsVisibleBeforeSync(t *testing.T) {
	// Write is the whole of what process death can see: the records are in
	// Records() and a fresh Load reads them whole, with no fsync issued.
	// Sync then covers everything written since the previous one with a
	// single fsync, and is free when there is nothing to cover.
	syncs := 0
	syncFile = func(f *os.File) error { syncs++; return f.Sync() }
	defer func() { syncFile = (*os.File).Sync }()

	path := filepath.Join(t.TempDir(), "ckpt.jsonl")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	var want [][]byte
	for i := 0; i < 5; i++ {
		r := []byte(fmt.Sprintf(`{"i":%d}`, i))
		if err := s.Write(r); err != nil {
			t.Fatal(err)
		}
		want = append(want, r)
		mustEqualRecords(t, "Records after Write", s.Records(), want)
		got, dropped, err := Load(path)
		if err != nil || dropped != 0 {
			t.Fatalf("Load after Write %d: dropped=%d err=%v", i, dropped, err)
		}
		mustEqualRecords(t, "Load after Write", got, want)
	}
	if syncs != 0 {
		t.Fatalf("5 Writes issued %d fsyncs, want none", syncs)
	}
	for i := 0; i < 3; i++ {
		if err := s.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	if syncs != 1 {
		t.Fatalf("3 Syncs over 5 written records issued %d fsyncs, want 1", syncs)
	}
	// Append and AppendBatch are Write + Sync: one fsync each, whatever
	// the batch size.
	if err := s.Append([]byte(`{"i":5}`)); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendBatch([][]byte{[]byte(`{"i":6}`), []byte(`{"i":7}`), []byte(`{"i":8}`)}); err != nil {
		t.Fatal(err)
	}
	if syncs != 3 {
		t.Fatalf("Append + AppendBatch brought the fsync count to %d, want 3", syncs)
	}
}

func TestFailedSyncPoisonsStore(t *testing.T) {
	// After a failed fsync the kernel marks the dirty pages clean, so a
	// later fsync can succeed without the data on disk. The store must not
	// offer that second chance: the k-th sync failing makes every further
	// Write, Append and Sync fail with the same error, while what was
	// written stays readable for whoever opens the file afresh — and that
	// fresh store works.
	path := filepath.Join(t.TempDir(), "ckpt.jsonl")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	ioErr := errors.New("input/output error")
	const k = 3
	calls := 0
	syncFile = func(f *os.File) error {
		if calls++; calls == k {
			return ioErr
		}
		return f.Sync()
	}
	defer func() { syncFile = (*os.File).Sync }()

	var want [][]byte
	for i := 0; i < k; i++ {
		r := []byte(fmt.Sprintf(`{"i":%d}`, i))
		want = append(want, r)
		err := s.Append(r)
		if i < k-1 && err != nil {
			t.Fatal(err)
		}
		if i == k-1 && !errors.Is(err, ioErr) {
			t.Fatalf("Append = %v on the failing sync, want the injected fsync failure", err)
		}
	}
	// The kernel would let the next fsync succeed; the store does not ask.
	if err := s.Sync(); !errors.Is(err, ioErr) {
		t.Fatalf("Sync after a failed sync = %v, want the first failure", err)
	}
	if err := s.Write([]byte(`{"i":3}`)); !errors.Is(err, ioErr) {
		t.Fatalf("Write after a failed sync = %v, want the first failure", err)
	}
	if err := s.AppendBatch([][]byte{[]byte(`{"i":4}`)}); !errors.Is(err, ioErr) {
		t.Fatalf("AppendBatch after a failed sync = %v, want the first failure", err)
	}
	if calls != k {
		t.Fatalf("a broken store issued %d more fsyncs", calls-k)
	}
	mustEqualRecords(t, "Records of the broken store", s.Records(), want)

	re, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	mustEqualRecords(t, "fresh Open after a failed sync", re.Records(), want)
	next := []byte(`{"i":3}`)
	if err := re.Append(next); err != nil {
		t.Fatal(err)
	}
	got, dropped, err := Load(path)
	if err != nil || dropped != 0 {
		t.Fatalf("file dirty after recovery: dropped=%d err=%v", dropped, err)
	}
	mustEqualRecords(t, "Load after recovery", got, append(want, next))
}

func TestAppendCostIsIndependentOfStoreSize(t *testing.T) {
	// The O(1) pin: with 1,000 records resident, one Append grows the
	// file by exactly len(record)+1 bytes and allocates O(record) heap —
	// never a copy of the file — so the quadratic rewrite cannot return
	// unnoticed.
	path := filepath.Join(t.TempDir(), "ckpt.jsonl")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	record := bytes.Repeat([]byte("r"), 1024)
	resident := make([][]byte, 1000)
	for i := range resident {
		resident[i] = record
	}
	if err := s.AppendBatch(resident); err != nil {
		t.Fatal(err)
	}
	fileSize := func() int64 {
		info, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		return info.Size()
	}
	const appends = 50
	sizeBefore := fileSize()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < appends; i++ {
		if err := s.Append(record); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if grew := fileSize() - sizeBefore; grew != appends*int64(len(record)+1) {
		t.Fatalf("file grew %d bytes over %d appends, want %d", grew, appends, appends*(len(record)+1))
	}
	// Budget: the record copy, its slot in the index (amortized doubling
	// included) and the per-call file plumbing — a few kB, where one copy
	// of the ~1 MB file per append would be over 100x that.
	perAppend := (after.TotalAlloc - before.TotalAlloc) / appends
	if limit := uint64(8 * len(record)); perAppend > limit {
		t.Fatalf("Append allocated %d bytes with 1000 records resident, want <= %d (O(record), not O(file))", perAppend, limit)
	}
}

func BenchmarkStoreAppend(b *testing.B) {
	record := bytes.Repeat([]byte("r"), 1024)
	for _, resident := range []int{10, 1000} {
		b.Run(fmt.Sprintf("resident=%d", resident), func(b *testing.B) {
			dir := b.TempDir()
			batch := make([][]byte, resident)
			for i := range batch {
				batch[i] = record
			}
			b.SetBytes(int64(len(record) + 1))
			b.ReportAllocs()
			// A fresh store every 100 appends keeps the resident count
			// near what the name says.
			const perStore = 100
			var s *Store
			for i := 0; i < b.N; i++ {
				if i%perStore == 0 {
					b.StopTimer()
					var err error
					if s, err = Open(filepath.Join(dir, fmt.Sprintf("store-%d", i/perStore))); err != nil {
						b.Fatal(err)
					}
					if err := s.AppendBatch(batch); err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
				}
				if err := s.Append(record); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
