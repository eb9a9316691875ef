// Package disk is how a document reaches a file, and the only non-test
// package outside bench/ that calls os.CreateTemp or os.Rename. The
// simulator's contract with its user is files — report CSVs, manifests,
// cache entries, part files, the checked-in figure data — and each is
// written by one of two policies:
//
//   - Create, for an output the user named (-o, -metrics, -outdir,
//     -cycleprof): an absent or regular target is replaced the way Replace
//     replaces one, keeping the old file's permissions (os.Create's for a
//     new one), so a failed write or close fails the run and leaves the
//     previous document, or none, where it was. An existing target of any
//     other kind — a device such as /dev/stdout, a FIFO, a symlink — is
//     truncated and written in place.
//   - Replace, for a store other processes read concurrently (the result
//     cache, the run registry, dse part files):
//     written to a temp file beside the target and renamed over it, so a
//     reader sees the old document or the new one, never a partial one,
//     and a failure leaves the target untouched and no temp file behind.
//
// Both hand write a buffered writer and flush it before the close, so a
// write error fails the call even when write ignored it (the fmt.Fprintf
// loops of the figure harnesses do). Neither syncs: a cache entry or a
// part file lost to a power cut is re-simulated or re-run. Temp files are
// named .tmp-*, which no directory scanner in the tree matches (they
// select *.json, or exact names), so a writer killed mid-Replace leaves an
// orphan no store reads.
package disk

import (
	"bufio"
	"errors"
	"io"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strconv"
)

// Create writes path with what write produces, flushed and closed; any of
// those failing fails the call. An absent or regular path is replaced
// through a temp file as Replace does, so a failure leaves it as it was;
// any other existing path is truncated and written in place.
func Create(path string, write func(io.Writer) error) error {
	old, err := os.Lstat(path)
	if err == nil && !old.Mode().IsRegular() {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		return writeClose(f, write)
	}
	tmp, err := createTemp(filepath.Dir(path), old)
	if err != nil {
		var pe *os.PathError
		if errors.As(err, &pe) {
			pe.Path = path // the file the user named, not its temp
		}
		return err
	}
	return rename(tmp, path, write)
}

// createTemp creates a temp file in dir with the permissions of old, the
// file it is to replace, or with os.Create's (0666 before the umask) when
// old is nil.
func createTemp(dir string, old os.FileInfo) (*os.File, error) {
	perm := os.FileMode(0o666)
	if old != nil {
		perm = old.Mode().Perm()
	}
	for {
		f, err := os.OpenFile(filepath.Join(dir, ".tmp-"+strconv.FormatUint(rand.Uint64(), 36)),
			os.O_RDWR|os.O_CREATE|os.O_EXCL, perm)
		if os.IsExist(err) {
			continue
		}
		if err == nil && old != nil {
			// The umask applied at creation; the old file's bits are kept.
			if err := f.Chmod(perm); err != nil {
				f.Close()
				_ = os.Remove(f.Name())
				return nil, err
			}
		}
		return f, err
	}
}

// Replace atomically replaces path with what write produces: a temp file
// in path's directory, written, closed and renamed over path. On any
// failure the temp file is removed and path is left as it was.
func Replace(path string, write func(io.Writer) error) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return err
	}
	return rename(tmp, path, write)
}

// rename writes tmp, closes it and renames it over path. On any failure
// tmp is removed and path is left as it was.
func rename(tmp *os.File, path string, write func(io.Writer) error) error {
	err := writeClose(tmp, write)
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		_ = os.Remove(tmp.Name())
	}
	return err
}

// Bytes is the write callback for a document already rendered in memory.
func Bytes(data []byte) func(io.Writer) error {
	return func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	}
}

// writeClose runs write against f, flushes and closes it.
func writeClose(f *os.File, write func(io.Writer) error) error {
	w := bufio.NewWriter(f)
	err := write(w)
	if err == nil {
		err = w.Flush()
	}
	return errors.Join(err, f.Close())
}
