package main

import (
	"os"
	"sort"
	"sync"
	"time"

	"grfusion/internal/faultfs"
)

// recFS is the device seam of ingest.durable: a faultfs.FS that passes every
// operation to the real filesystem and records what the device was asked to
// do — writes, bytes, syncs and their latency, renames — and, per file, the
// length that has been synced. CrashDiscard then makes a process kill look
// like a power loss: the operating system's cache survives a kill and would
// otherwise hide writes that were never made durable.
type recFS struct {
	inner faultfs.FS

	mu      sync.Mutex
	files   map[string]*fileState
	writes  int64
	bytes   int64
	syncs   int64
	syncNS  []int64
	busyNS  int64                // time spent inside Write, WriteAt and Sync
	opened  map[string]time.Time // when each path was last created or truncated by open
	renames []renameEvent
}

// fileState is shared by a path and the handles opened on it, so a handle
// that outlives a rename of its path (log rotation keeps writing to the file
// it renamed into place) still updates the right entry.
type fileState struct {
	synced int64 // bytes known durable
}

// renameEvent is one rename seen by the wrapper; the checkpoint protocol
// ends with one, so these mark when checkpoints completed.
type renameEvent struct {
	at       time.Time
	from, to string
	// took is the time from the creation of the renamed file to the rename:
	// for a checkpoint, the encode, write and fsync of the snapshot.
	took time.Duration
}

func newRecFS() *recFS {
	return &recFS{inner: faultfs.OS, files: map[string]*fileState{}, opened: map[string]time.Time{}}
}

func (fs *recFS) OpenFile(name string, flag int, perm os.FileMode) (faultfs.File, error) {
	f, err := fs.inner.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	st, tracked := fs.files[name]
	if !tracked {
		// Content found on first open predates the run and counts as
		// durable; a file created here has nothing durable yet.
		st = &fileState{}
		if fi, err := f.Stat(); err == nil {
			st.synced = fi.Size()
		}
		fs.files[name] = st
	}
	if flag&os.O_TRUNC != 0 {
		st.synced = 0
		fs.opened[name] = time.Now()
	}
	return &recFile{File: f, fs: fs, st: st}, nil
}

func (fs *recFS) Rename(oldpath, newpath string) error {
	if err := fs.inner.Rename(oldpath, newpath); err != nil {
		return err
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if st, ok := fs.files[oldpath]; ok {
		fs.files[newpath] = st
		delete(fs.files, oldpath)
	}
	ev := renameEvent{at: time.Now(), from: oldpath, to: newpath}
	if t, ok := fs.opened[oldpath]; ok {
		ev.took = ev.at.Sub(t)
		delete(fs.opened, oldpath)
	}
	fs.renames = append(fs.renames, ev)
	return nil
}

func (fs *recFS) Remove(name string) error {
	fs.mu.Lock()
	delete(fs.files, name)
	fs.mu.Unlock()
	return fs.inner.Remove(name)
}

func (fs *recFS) SyncDir(dir string) error      { return fs.inner.SyncDir(dir) }
func (fs *recFS) Free(dir string) (int64, bool) { return fs.inner.Free(dir) }

// CrashDiscard truncates every file the run touched to its last synced
// length, dropping exactly what a power loss could drop. Call it after the
// engine is killed and before it is reopened. A rename is treated as
// durable once made: the engine only renames inside a statement, and the
// benchmark crashes between statements.
func (fs *recFS) CrashDiscard() error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	for name, st := range fs.files {
		fi, err := os.Stat(name)
		if err != nil {
			continue // removed behind the wrapper's back; nothing to discard
		}
		if fi.Size() > st.synced {
			if err := os.Truncate(name, st.synced); err != nil {
				return err
			}
		}
	}
	return nil
}

// busy returns the time spent so far inside Write, WriteAt and Sync.
func (fs *recFS) busy() time.Duration {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return time.Duration(fs.busyNS)
}

// deviceCounts is a copy of the wrapper's counters.
type deviceCounts struct {
	writes, bytes, syncs int64
	syncNS               []int64 // sorted
	renames              []renameEvent
}

func (fs *recFS) counts() deviceCounts {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	c := deviceCounts{writes: fs.writes, bytes: fs.bytes, syncs: fs.syncs,
		syncNS: append([]int64(nil), fs.syncNS...), renames: append([]renameEvent(nil), fs.renames...)}
	sort.Slice(c.syncNS, func(i, j int) bool { return c.syncNS[i] < c.syncNS[j] })
	return c
}

// recFile records one open file's writes and syncs.
type recFile struct {
	faultfs.File
	fs *recFS
	st *fileState
}

func (f *recFile) wrote(n int, t0 time.Time) {
	d := time.Since(t0)
	f.fs.mu.Lock()
	f.fs.writes++
	f.fs.bytes += int64(n)
	f.fs.busyNS += int64(d)
	f.fs.mu.Unlock()
}

func (f *recFile) Write(p []byte) (int, error) {
	t0 := time.Now()
	n, err := f.File.Write(p)
	f.wrote(n, t0)
	return n, err
}

func (f *recFile) WriteAt(p []byte, off int64) (int, error) {
	t0 := time.Now()
	n, err := f.File.WriteAt(p, off)
	f.wrote(n, t0)
	return n, err
}

func (f *recFile) Sync() error {
	t0 := time.Now()
	err := f.File.Sync()
	d := time.Since(t0)
	if err != nil {
		return err
	}
	var size int64
	if fi, serr := f.File.Stat(); serr == nil {
		size = fi.Size()
	}
	f.fs.mu.Lock()
	f.fs.syncs++
	f.fs.syncNS = append(f.fs.syncNS, int64(d))
	f.fs.busyNS += int64(d)
	f.st.synced = size
	f.fs.mu.Unlock()
	return nil
}

func (f *recFile) Truncate(size int64) error {
	if err := f.File.Truncate(size); err != nil {
		return err
	}
	f.fs.mu.Lock()
	if f.st.synced > size {
		f.st.synced = size
	}
	f.fs.mu.Unlock()
	return nil
}
