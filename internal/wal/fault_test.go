package wal

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"syscall"
	"testing"

	"grfusion/internal/faultfs"
)

// TestAppendShortWrite proves a short write — including the pathological
// silent one where the filesystem reports success for fewer bytes than
// requested — never lets the log's size accounting or OnAppend drift from
// what is actually on disk: the statement fails, the torn prefix is
// truncated away, and the next append reuses the same LSN.
func TestAppendShortWrite(t *testing.T) {
	cases := []struct {
		name  string
		short int   // bytes the fault lets through
		err   error // error returned alongside; nil = silent short write
		want  error // what Append must classify it as
	}{
		{name: "silent-prefix", short: 5, err: nil, want: io.ErrShortWrite},
		{name: "silent-zero", short: 0, err: nil, want: io.ErrShortWrite},
		{name: "torn-with-eio", short: 5, err: syscall.EIO, want: syscall.EIO},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ffs := faultfs.NewFaulty(nil, 1)
			path := filepath.Join(t.TempDir(), "wal.log")
			var appended int
			l, _ := mustOpen(t, path, Options{
				Fsync:    FsyncOff,
				FS:       ffs,
				OnAppend: func(int) { appended++ },
			})
			if _, err := l.Append(&Record{SQL: "INSERT INTO t VALUES (1)"}); err != nil {
				t.Fatalf("clean append: %v", err)
			}
			sizeBefore, lsnBefore := l.Size(), l.NextLSN()

			ffs.ArmShortWrite(tc.short, tc.err)
			_, err := l.Append(&Record{SQL: "INSERT INTO t VALUES (2)"})
			if err == nil {
				t.Fatal("short write reported as successful append")
			}
			if !errors.Is(err, tc.want) {
				t.Fatalf("append error = %v, want %v", err, tc.want)
			}
			if got := l.Size(); got != sizeBefore {
				t.Fatalf("size drifted after short write: %d, want %d", got, sizeBefore)
			}
			if appended != 1 {
				t.Fatalf("OnAppend fired %d times, want 1 (failed append must not count)", appended)
			}

			// The same LSN is reissued and the log is fully usable.
			lsn, err := l.Append(&Record{SQL: "INSERT INTO t VALUES (3)"})
			if err != nil {
				t.Fatalf("append after short write: %v", err)
			}
			if lsn != lsnBefore {
				t.Fatalf("LSN after short write = %d, want %d", lsn, lsnBefore)
			}
			if err := l.Close(); err != nil {
				t.Fatalf("close: %v", err)
			}
			_, res := mustOpen(t, path, Options{Fsync: FsyncOff})
			if res.Torn {
				t.Fatalf("log torn after rolled-back short write: %s", res.TornReason)
			}
			if len(res.Records) != 2 {
				t.Fatalf("got %d records, want 2", len(res.Records))
			}
			if res.Records[1].SQL != "INSERT INTO t VALUES (3)" {
				t.Fatalf("record 2 = %q, want the post-fault append", res.Records[1].SQL)
			}
		})
	}
}

// TestRotateENOSPCEveryPoint injects ENOSPC at every fault-eligible point
// of the rotate protocol (tmp open, header write, fsync, rename) and
// proves each failure leaves the old log fully usable, then that a clean
// rotate still succeeds afterwards.
func TestRotateENOSPCEveryPoint(t *testing.T) {
	ffs := faultfs.NewFaulty(nil, 1)
	path := filepath.Join(t.TempDir(), "wal.log")
	l, _ := mustOpen(t, path, Options{Fsync: FsyncOff, FS: ffs})
	if _, err := l.Append(&Record{SQL: "INSERT INTO t VALUES (1)"}); err != nil {
		t.Fatalf("append: %v", err)
	}

	// Measure how many eligible ops one clean rotate performs.
	before := ffs.Ops()
	if err := l.Rotate(); err != nil {
		t.Fatalf("clean rotate: %v", err)
	}
	perRotate := ffs.Ops() - before
	if perRotate < 3 {
		t.Fatalf("rotate performed only %d eligible ops; fault points missing", perRotate)
	}

	for k := int64(1); k <= perRotate; k++ {
		t.Run(fmt.Sprintf("fault-point-%d", k), func(t *testing.T) {
			if _, err := l.Append(&Record{SQL: "INSERT INTO t VALUES (2)"}); err != nil {
				t.Fatalf("append before rotate: %v", err)
			}
			sizeBefore := l.Size()
			ffs.Arm(k, syscall.ENOSPC)
			err := l.Rotate()
			if err == nil {
				t.Fatalf("rotate with ENOSPC at op %d succeeded", k)
			}
			if !errors.Is(err, syscall.ENOSPC) {
				t.Fatalf("rotate error = %v, want ENOSPC", err)
			}
			if got := l.Size(); got != sizeBefore {
				t.Fatalf("failed rotate changed size: %d, want %d", got, sizeBefore)
			}
			// No tmp file left behind.
			if _, err := os.Stat(path + ".tmp"); !errors.Is(err, os.ErrNotExist) {
				t.Fatalf("failed rotate left tmp file (stat err %v)", err)
			}
			// The old log still appends normally.
			if _, err := l.Append(&Record{SQL: "INSERT INTO t VALUES (3)"}); err != nil {
				t.Fatalf("append after failed rotate: %v", err)
			}
		})
	}

	ffs.Calm()
	if err := l.Rotate(); err != nil {
		t.Fatalf("rotate after faults cleared: %v", err)
	}
	if got := l.Size(); got != HeaderSize {
		t.Fatalf("rotated log size = %d, want %d", got, HeaderSize)
	}
	if _, err := l.Append(&Record{SQL: "INSERT INTO t VALUES (4)"}); err != nil {
		t.Fatalf("append to rotated log: %v", err)
	}
}

// TestWriteFileAtomicENOSPCEveryPoint injects two fault kinds at every
// eligible point of the atomic-write protocol — ENOSPC, and a power cut
// that fails that op and everything after it, cleanup included. After
// either the target keeps its old content byte for byte; ENOSPC removes
// the temp file, a cut may leave it behind. A clean write then replaces
// both.
func TestWriteFileAtomicENOSPCEveryPoint(t *testing.T) {
	ffs := faultfs.NewFaulty(nil, 1)
	dir := t.TempDir()
	path := filepath.Join(dir, "checkpoint.snap")
	old := []byte("the old complete checkpoint")
	put := func(content []byte) error {
		return WriteFileAtomicFS(ffs, path, func(w io.Writer) error {
			_, err := w.Write(content)
			return err
		})
	}
	before := ffs.Ops()
	if err := put(old); err != nil {
		t.Fatalf("initial atomic write: %v", err)
	}
	perWrite := ffs.Ops() - before
	if perWrite < 3 {
		t.Fatalf("atomic write performed only %d eligible ops; fault points missing", perWrite)
	}

	check := func(k int64, err error, tmpMayRemain bool) {
		t.Helper()
		if err == nil {
			t.Fatalf("atomic write with fault at op %d succeeded", k)
		}
		got, rerr := os.ReadFile(path)
		if rerr != nil {
			t.Fatalf("target unreadable after failed write: %v", rerr)
		}
		if string(got) != string(old) {
			t.Fatalf("target corrupted after failed write at op %d: %q", k, got)
		}
		if _, serr := os.Stat(path + ".tmp"); !tmpMayRemain && !errors.Is(serr, os.ErrNotExist) {
			t.Fatalf("failed write left tmp file (stat err %v)", serr)
		}
	}

	// A silent short write through bufio surfaces as io.ErrShortWrite and
	// is just as harmless.
	t.Run("silent-short-write", func(t *testing.T) {
		ffs.ArmShortWrite(3, nil)
		err := put([]byte("replacement that must not land"))
		if !errors.Is(err, io.ErrShortWrite) {
			t.Fatalf("error = %v, want io.ErrShortWrite", err)
		}
		check(-1, err, false)
	})

	for k := int64(1); k <= perWrite; k++ {
		t.Run(fmt.Sprintf("enospc-at-op-%d", k), func(t *testing.T) {
			ffs.Arm(k, syscall.ENOSPC)
			err := put([]byte("replacement that must not land"))
			if !errors.Is(err, syscall.ENOSPC) {
				t.Fatalf("error = %v, want ENOSPC", err)
			}
			check(k, err, false)
		})
		t.Run(fmt.Sprintf("cut-at-op-%d", k), func(t *testing.T) {
			ffs.ArmCrash(k)
			defer ffs.Calm()
			err := put([]byte("replacement that must not land"))
			if !errors.Is(err, syscall.EIO) {
				t.Fatalf("error = %v, want EIO", err)
			}
			check(k, err, true)
		})
	}

	// The last cut, at the rename, left the temp file behind.
	if _, err := os.Stat(path + ".tmp"); err != nil {
		t.Fatalf("a cut at the rename left no temp file: %v", err)
	}
	fresh := []byte("the new complete checkpoint")
	if err := put(fresh); err != nil {
		t.Fatalf("atomic write after faults cleared: %v", err)
	}
	got, err := os.ReadFile(path)
	if err != nil || string(got) != string(fresh) {
		t.Fatalf("final content = %q, %v; want %q", got, err, fresh)
	}
	if _, err := os.Stat(path + ".tmp"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("clean write kept the stale temp file (stat err %v)", err)
	}
}
