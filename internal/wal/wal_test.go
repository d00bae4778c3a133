package wal

import (
	"bytes"
	"encoding/hex"
	"errors"
	"io"
	"os"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"grfusion/internal/faultfs"
	"grfusion/internal/types"
)

func mustOpen(t *testing.T, path string, opts Options) (*Log, *ScanResult) {
	t.Helper()
	l, res, err := Open(path, opts)
	if err != nil {
		t.Fatalf("Open(%s): %v", path, err)
	}
	t.Cleanup(func() { l.Close() })
	return l, res
}

func TestAppendScanRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l, res := mustOpen(t, path, Options{Fsync: FsyncOff})
	if len(res.Records) != 0 || res.Torn {
		t.Fatalf("fresh log: unexpected scan %+v", res)
	}
	want := []*Record{
		{SQL: "CREATE TABLE t (id BIGINT, PRIMARY KEY (id))"},
		{SQL: "INSERT INTO t VALUES (1)", Table: "t", NextSlot: 1},
		{SQL: "INSERT INTO t VALUES (?)", Table: "t", NextSlot: 2,
			Params: []types.Value{types.NewInt(2)}},
		{SQL: "DELETE FROM t WHERE id = 1", Table: "t", NextSlot: 3, FreeDepth: 0},
		{SQL: "INSERT INTO t VALUES (?, ?, ?, ?)", Table: "t", NextSlot: 3, FreeDepth: 1,
			Params: []types.Value{types.Null(), types.NewBool(true),
				types.NewFloat(2.5), types.NewString("héllo")}},
	}
	for i, rec := range want {
		lsn, err := l.Append(rec)
		if err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		if lsn != uint64(i+1) {
			t.Fatalf("append %d: lsn %d, want %d", i, lsn, i+1)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	_, res2 := mustOpen(t, path, Options{Fsync: FsyncOff})
	if res2.Torn {
		t.Fatalf("clean close scanned as torn: %s", res2.TornReason)
	}
	if len(res2.Records) != len(want) {
		t.Fatalf("got %d records, want %d", len(res2.Records), len(want))
	}
	for i, got := range res2.Records {
		w := want[i]
		if got.LSN != uint64(i+1) || got.SQL != w.SQL || got.Table != w.Table ||
			got.NextSlot != w.NextSlot || got.FreeDepth != w.FreeDepth ||
			len(got.Params) != len(w.Params) {
			t.Fatalf("record %d mismatch:\n got %+v\nwant %+v", i, got, w)
		}
		for j := range w.Params {
			if types.Compare(got.Params[j], w.Params[j]) != 0 && !(got.Params[j].IsNull() && w.Params[j].IsNull()) {
				t.Fatalf("record %d param %d: got %v want %v", i, j, got.Params[j], w.Params[j])
			}
		}
	}
}

// TestFrameFormatGolden pins the on-disk byte layout. If this test fails
// you have changed the WAL format: bump formatVersion and write migration
// logic — do NOT just update the hex.
func TestFrameFormatGolden(t *testing.T) {
	var b []byte
	b = appendHeader(b)
	b = AppendFrame(b, &Record{LSN: 1, SQL: "CREATE TABLE t (id BIGINT)"})
	b = AppendFrame(b, &Record{LSN: 2, SQL: "INSERT INTO t VALUES (?)",
		Table: "t", NextSlot: 7, FreeDepth: 3,
		Params: []types.Value{types.NewInt(42)}})
	got := hex.EncodeToString(b)
	if got != goldenFrames {
		t.Fatalf("frame format changed:\n got %s\nwant %s", got, goldenFrames)
	}
}

func TestScanTornTails(t *testing.T) {
	var full []byte
	full = appendHeader(full)
	full = AppendFrame(full, &Record{LSN: 1, SQL: "INSERT INTO t VALUES (1)", Table: "t", NextSlot: 1})
	frame2Start := len(full)
	full = AppendFrame(full, &Record{LSN: 2, SQL: "INSERT INTO t VALUES (2)", Table: "t", NextSlot: 2})

	cases := []struct {
		name      string
		data      []byte
		wantRecs  int
		wantTorn  bool
		wantValid int64
	}{
		{"clean", full, 2, false, int64(len(full))},
		{"exact frame boundary", full[:frame2Start], 1, false, int64(frame2Start)},
		{"mid frame header", full[:frame2Start+3], 1, true, int64(frame2Start)},
		{"mid payload", full[:len(full)-5], 1, true, int64(frame2Start)},
		{"empty file", nil, 0, false, 0},
		{"torn header", full[:5], 0, true, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := Scan(bytes.NewReader(tc.data))
			if err != nil {
				t.Fatalf("scan: %v", err)
			}
			if len(res.Records) != tc.wantRecs || res.Torn != tc.wantTorn || res.ValidBytes != tc.wantValid {
				t.Fatalf("got recs=%d torn=%v valid=%d, want recs=%d torn=%v valid=%d (%s)",
					len(res.Records), res.Torn, res.ValidBytes, tc.wantRecs, tc.wantTorn, tc.wantValid, res.TornReason)
			}
		})
	}

	// A flipped bit in the last frame's payload: checksum catches it, the
	// scan keeps the prefix.
	flipped := append([]byte(nil), full...)
	flipped[len(flipped)-3] ^= 0x40
	res, err := Scan(bytes.NewReader(flipped))
	if err != nil {
		t.Fatalf("scan flipped: %v", err)
	}
	if len(res.Records) != 1 || !res.Torn || res.ValidBytes != int64(frame2Start) {
		t.Fatalf("flipped tail: recs=%d torn=%v valid=%d", len(res.Records), res.Torn, res.ValidBytes)
	}

	// Garbage that is not a WAL at all is the typed corruption error.
	if _, err := Scan(bytes.NewReader([]byte("definitely not a wal file"))); !errors.Is(err, ErrCorruptWAL) {
		t.Fatalf("garbage header: err=%v, want ErrCorruptWAL", err)
	}
}

func TestOpenTruncatesTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	var full []byte
	full = appendHeader(full)
	full = AppendFrame(full, &Record{LSN: 1, SQL: "A"})
	valid := len(full)
	full = AppendFrame(full, &Record{LSN: 2, SQL: "B"})
	torn := full[:len(full)-2]
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}
	l, res := mustOpen(t, path, Options{Fsync: FsyncAlways})
	if len(res.Records) != 1 || !res.Torn {
		t.Fatalf("scan: recs=%d torn=%v", len(res.Records), res.Torn)
	}
	if fi, _ := os.Stat(path); fi.Size() != int64(valid) {
		t.Fatalf("file size %d after open, want %d (torn tail truncated)", fi.Size(), valid)
	}
	// The next append must continue the LSN sequence past the lost record.
	lsn, err := l.Append(&Record{SQL: "C"})
	if err != nil || lsn != 2 {
		t.Fatalf("append after truncate: lsn=%d err=%v, want 2", lsn, err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	_, res2 := mustOpen(t, path, Options{})
	if len(res2.Records) != 2 || res2.Records[1].SQL != "C" {
		t.Fatalf("reopen: %+v", res2.Records)
	}
}

func TestAppendRollbackOnFault(t *testing.T) {
	ffs := faultfs.NewFaulty(nil, 1)
	path := filepath.Join(t.TempDir(), "wal.log")
	l, _ := mustOpen(t, path, Options{Fsync: FsyncAlways, FS: ffs})
	if _, err := l.Append(&Record{SQL: "A"}); err != nil {
		t.Fatal(err)
	}

	// An FsyncAlways append is a write (eligible op 1) then a sync (op 2).
	ffs.Arm(1, syscall.EIO)
	if _, err := l.Append(&Record{SQL: "B"}); !errors.Is(err, syscall.EIO) {
		t.Fatalf("append with write fault: %v, want EIO", err)
	}
	ffs.Arm(2, syscall.EIO)
	if _, err := l.Append(&Record{SQL: "C"}); !errors.Is(err, syscall.EIO) {
		t.Fatalf("append with sync fault: %v, want EIO", err)
	}
	// After both failures the log must hold exactly record A and hand out
	// LSN 2 next: failed appends leave no trace.
	if lsn, err := l.Append(&Record{SQL: "D"}); err != nil || lsn != 2 {
		t.Fatalf("append after faults: lsn=%d err=%v", lsn, err)
	}
	l.Close()
	_, res := mustOpen(t, path, Options{})
	if len(res.Records) != 2 || res.Records[0].SQL != "A" || res.Records[1].SQL != "D" || res.Torn {
		t.Fatalf("recovered %+v torn=%v", res.Records, res.Torn)
	}
}

func TestFsyncPolicies(t *testing.T) {
	var syncs int
	opts := Options{Fsync: FsyncAlways, OnSync: func() { syncs++ }}
	path := filepath.Join(t.TempDir(), "wal.log")
	l, _ := mustOpen(t, path, opts)
	l.Append(&Record{SQL: "A"})
	l.Append(&Record{SQL: "B"})
	if syncs != 2 {
		t.Fatalf("always: %d syncs after 2 appends", syncs)
	}
	if err := l.SetPolicy(FsyncOff); err != nil {
		t.Fatal(err)
	}
	l.Append(&Record{SQL: "C"})
	if syncs != 2 {
		t.Fatalf("off: sync ran on append")
	}
	// Tightening back to always flushes the pending frame immediately.
	if err := l.SetPolicy(FsyncAlways); err != nil {
		t.Fatal(err)
	}
	if syncs != 3 {
		t.Fatalf("tighten to always: pending frame not flushed (syncs=%d)", syncs)
	}
}

func TestFsyncIntervalBackground(t *testing.T) {
	var mu = make(chan int, 64)
	opts := Options{Fsync: FsyncInterval, Interval: 5 * time.Millisecond,
		OnSync: func() { mu <- 1 }}
	path := filepath.Join(t.TempDir(), "wal.log")
	l, _ := mustOpen(t, path, opts)
	if _, err := l.Append(&Record{SQL: "A"}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-mu:
	case <-time.After(5 * time.Second):
		t.Fatal("interval sync never fired")
	}
	l.Close()
}

func TestRotate(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l, _ := mustOpen(t, path, Options{Fsync: FsyncOff})
	l.Append(&Record{SQL: "A"})
	l.Append(&Record{SQL: "B"})
	if err := l.Rotate(); err != nil {
		t.Fatalf("rotate: %v", err)
	}
	if l.Size() != HeaderSize {
		t.Fatalf("size %d after rotate, want header only", l.Size())
	}
	// LSNs keep counting across the rotation.
	if lsn, err := l.Append(&Record{SQL: "C"}); err != nil || lsn != 3 {
		t.Fatalf("append after rotate: lsn=%d err=%v", lsn, err)
	}
	l.Close()
	_, res := mustOpen(t, path, Options{})
	if len(res.Records) != 1 || res.Records[0].LSN != 3 {
		t.Fatalf("after rotate+reopen: %+v", res.Records)
	}
}

func TestAppendAfterClose(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l, _ := mustOpen(t, path, Options{})
	l.Close()
	if _, err := l.Append(&Record{SQL: "A"}); !errors.Is(err, ErrClosed) {
		t.Fatalf("append after close: %v, want ErrClosed", err)
	}
}

func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "snap.gob")
	if err := WriteFileAtomic(path, func(w io.Writer) error {
		_, err := w.Write([]byte("good"))
		return err
	}); err != nil {
		t.Fatalf("write: %v", err)
	}
	got, _ := os.ReadFile(path)
	if string(got) != "good" {
		t.Fatalf("content %q", got)
	}

	// A failing producer leaves the old file intact and no temp litter.
	os.WriteFile(path, []byte("keep"), 0o644)
	if err := WriteFileAtomic(path, func(w io.Writer) error {
		return errors.New("producer failed")
	}); err == nil {
		t.Fatal("producer error swallowed")
	}
	if got, _ := os.ReadFile(path); string(got) != "keep" {
		t.Fatalf("failed write clobbered target: %q", got)
	}
	if Exists(path + ".tmp") {
		t.Fatal("temp file left behind after failed write")
	}
}

func TestParseFsyncPolicy(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want FsyncPolicy
		ok   bool
	}{
		{"always", FsyncAlways, true}, {"ALWAYS", FsyncAlways, true},
		{"Interval", FsyncInterval, true}, {"off", FsyncOff, true},
		{"sometimes", 0, false}, {"", 0, false},
	} {
		got, err := ParseFsyncPolicy(tc.in)
		if (err == nil) != tc.ok || (tc.ok && got != tc.want) {
			t.Fatalf("ParseFsyncPolicy(%q) = %v, %v", tc.in, got, err)
		}
		if tc.ok && got.String() != "" {
			if _, err := ParseFsyncPolicy(got.String()); err != nil {
				t.Fatalf("round trip %v: %v", got, err)
			}
		}
	}
}
