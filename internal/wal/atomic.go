package wal

import (
	"bufio"
	"io"
	"os"
	"path/filepath"

	"grfusion/internal/faultfs"
)

// WriteFileAtomic durably replaces path with the bytes produced by write:
// temp file in the same directory, fsync, atomic rename, directory fsync.
// A crash at any point leaves either the old complete file or the new
// complete file — never a torn mix. On error the previous file is intact
// and the temp file is removed; a crash may leave the temp file behind,
// and the next write truncates and replaces it.
func WriteFileAtomic(path string, write func(io.Writer) error) error {
	return WriteFileAtomicFS(faultfs.OS, path, write)
}

// WriteFileAtomicFS is the full protocol over an injectable storage layer
// (fsys nil means the real filesystem): the checkpoint writer passes the
// engine's faultfs so disk faults and power cuts reach every stage —
// temp-file creation, the buffered content writes, the fsync, and the
// rename.
func WriteFileAtomicFS(fsys faultfs.FS, path string, write func(io.Writer) error) error {
	if fsys == nil {
		fsys = faultfs.OS
	}
	tmp := path + ".tmp"
	f, err := fsys.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	fail := func(err error) error {
		f.Close()
		fsys.Remove(tmp)
		return err
	}
	bw := bufio.NewWriter(f)
	if err := write(bw); err != nil {
		return fail(err)
	}
	if err := bw.Flush(); err != nil {
		return fail(err)
	}
	if err := f.Sync(); err != nil {
		return fail(err)
	}
	if err := f.Close(); err != nil {
		return fail(err)
	}
	if err := fsys.Rename(tmp, path); err != nil {
		fsys.Remove(tmp)
		return err
	}
	fsys.SyncDir(filepath.Dir(path))
	return nil
}

// Exists reports whether path names an existing file.
func Exists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}
