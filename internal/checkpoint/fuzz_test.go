package checkpoint

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzScan drives the corruption-tolerant loader with arbitrary file
// content — truncations, bit flips, binary garbage. Invariants:
//
//   - Scan never panics and never fails; damage only shortens the result.
//   - The intact prefix really is intact: re-joining the returned records
//     with newlines reproduces exactly the first `intact` bytes.
//   - Records never contain newlines and are never empty.
//   - Scanning the intact prefix again is a fixed point (same records).
func FuzzScan(f *testing.F) {
	f.Add([]byte(""))
	f.Add([]byte("{\"i\":0}\n"))
	f.Add([]byte("{\"i\":0}\n{\"i\":1}\n{\"i\":2,\"torn"))
	f.Add([]byte("a\n\nb\n"))
	f.Add([]byte("\n"))
	f.Add(bytes.Repeat([]byte{0}, 64))
	f.Fuzz(func(t *testing.T, data []byte) {
		records, intact := Scan(data)
		if intact < 0 || intact > len(data) {
			t.Fatalf("intact = %d outside input of %d bytes", intact, len(data))
		}
		var rejoined []byte
		for _, r := range records {
			if len(r) == 0 {
				t.Fatal("empty record returned")
			}
			if bytes.IndexByte(r, '\n') >= 0 {
				t.Fatal("record contains a newline")
			}
			rejoined = append(rejoined, r...)
			rejoined = append(rejoined, '\n')
		}
		if !bytes.Equal(rejoined, data[:intact]) {
			t.Fatalf("records do not reproduce the intact prefix")
		}
		again, intact2 := Scan(data[:intact])
		if intact2 != intact || len(again) != len(records) {
			t.Fatalf("Scan is not a fixed point on its own intact prefix")
		}
	})
}

// FuzzOpenRepairs checks the full Open path on arbitrary on-disk
// content: it must always succeed, and the file afterwards must be the
// clean intact prefix — so two crashed runs in a row cannot compound —
// and an append after the repair must land on that clean boundary.
func FuzzOpenRepairs(f *testing.F) {
	f.Add([]byte("rec1\nrec2\ntorn"))
	f.Add([]byte{0xff, 0xfe, 0x00, '\n', '\n'})
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "store")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(path)
		if err != nil {
			t.Fatal(err)
		}
		onDisk, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		_, intact := Scan(data)
		if !bytes.Equal(onDisk, data[:intact]) {
			t.Fatalf("Open left %q on disk, want the intact prefix %q", onDisk, data[:intact])
		}
		// Appending after the repair extends the intact prefix in place:
		// a re-Load sees exactly the old records and then the new one.
		want, _ := Scan(append(append([]byte(nil), data[:intact]...), "after\n"...))
		if err := s.Append([]byte("after")); err != nil {
			t.Fatal(err)
		}
		records, dropped, err := Load(path)
		if err != nil || dropped != 0 {
			t.Fatalf("store dirty after repair+append: dropped=%d err=%v", dropped, err)
		}
		mustEqualRecords(t, "reload after repair+append", records, want)
	})
}
