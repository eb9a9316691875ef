// Package disk is how a document reaches a file, and the only non-test
// package outside bench/ that calls os.CreateTemp or os.Rename. The
// simulator's contract with its user is files — report CSVs, manifests,
// cache entries, part files, the checked-in figure data — and each is
// written by one of two policies:
//
//   - Create, for an output the user named (-o, -metrics, -outdir,
//     -cycleprof): created in place; a failed write or close fails the
//     run, so a short file never exits zero.
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
	"os"
	"path/filepath"
)

// Create creates (or truncates) path, runs write against it, flushes and
// closes it; any of those failing fails the call.
func Create(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	return writeClose(f, write)
}

// Replace atomically replaces path with what write produces: a temp file
// in path's directory, written, closed and renamed over path. On any
// failure the temp file is removed and path is left as it was.
func Replace(path string, write func(io.Writer) error) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return err
	}
	if err = writeClose(tmp, write); err == nil {
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
