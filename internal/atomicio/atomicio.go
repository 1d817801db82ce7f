// Package atomicio provides crash-safe file replacement: the
// write-to-temp, fsync, rename, fsync-directory sequence that guarantees
// a reader never observes a torn file — after a crash at any instant the
// path holds either the complete old content or the complete new
// content, never a prefix.
//
// It is the single implementation of that sequence in the repository:
// the checkpoint store (internal/checkpoint) repairs a damaged tail with
// it (creation and appends go in place), cmd/benchjson
// writes BENCH_emulation.json with it, cmd/ctsan its merged output, and
// golden-file -update writers use it, so an interrupted run can never
// leave a half-written artifact that a later run (or a resume) trips
// over.
package atomicio

import (
	"fmt"
	"os"
	"path/filepath"
)

// WriteFile atomically replaces the file at path with data. The data is
// first written to a temporary file in the same directory (rename is
// only atomic within a filesystem), fsynced, then renamed over path, and
// the directory is fsynced so the rename itself survives a crash. On
// error the temporary file is removed; path is untouched.
func WriteFile(path string, data []byte, perm os.FileMode) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("atomicio: %w", err)
	}
	tmpName := tmp.Name()
	// Any failure from here on must not leave the temp file behind.
	fail := func(err error) error {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("atomicio: %w", err)
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
		return fmt.Errorf("atomicio: %w", err)
	}
	return SyncDir(dir)
}

// SyncDir fsyncs a directory so a just-performed rename (or, for the
// checkpoint store, file creation) is durable. Some filesystems refuse
// to fsync directories; those errors are ignored — the entry is still
// there, just not yet guaranteed durable, which is the best available on
// such systems.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("atomicio: %w", err)
	}
	defer d.Close()
	_ = d.Sync()
	return nil
}
