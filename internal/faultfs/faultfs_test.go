package faultfs

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"syscall"
	"testing"
)

func openRW(t *testing.T, fs FS, path string) File {
	t.Helper()
	f, err := fs.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

// TestSeededScheduleIsDeterministic pins the contract every chaos test
// leans on: two injectors with the same seed and configuration fail the
// exact same operations in the exact same order.
func TestSeededScheduleIsDeterministic(t *testing.T) {
	run := func(seed int64) []bool {
		fs := NewFaulty(OS, seed)
		fs.SetRate(OpWrite, 0.3)
		f := openRW(t, fs, filepath.Join(t.TempDir(), "f"))
		outcomes := make([]bool, 100)
		for i := range outcomes {
			_, err := f.Write([]byte("x"))
			outcomes[i] = err != nil
		}
		return outcomes
	}
	a, b := run(7), run(7)
	failed := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("op %d diverged between identically-seeded runs", i)
		}
		if a[i] {
			failed++
		}
	}
	if failed == 0 || failed == len(a) {
		t.Fatalf("rate 0.3 failed %d/%d ops — schedule not mixing", failed, len(a))
	}
}

// TestArmFiresAtExactOpCount checks the one-shot schedule counts every
// eligible op kind and fires exactly once.
func TestArmFiresAtExactOpCount(t *testing.T) {
	fs := NewFaulty(OS, 1)
	f := openRW(t, fs, filepath.Join(t.TempDir(), "f")) // op 1: open
	fs.Arm(2, syscall.EIO)                              // op 2 = sync ok, op 3 = truncate fails

	if err := f.Sync(); err != nil {
		t.Fatalf("op before the armed one failed: %v", err)
	}
	err := f.Truncate(0)
	if !errors.Is(err, syscall.EIO) {
		t.Fatalf("armed op: err = %v, want EIO", err)
	}
	var inj *InjectedError
	if !errors.As(err, &inj) || inj.Op != OpTruncate {
		t.Fatalf("injected error not attributed to truncate: %v", err)
	}
	if err := f.Sync(); err != nil {
		t.Fatalf("one-shot fault fired twice: %v", err)
	}
	if got := fs.Ops(); got != 4 {
		t.Fatalf("Ops() = %d, want 4 (open, sync, truncate, sync)", got)
	}
	if got := fs.Count(OpSync); got != 2 {
		t.Fatalf("Count(sync) = %d, want 2", got)
	}
}

// TestArmCrashCutsPowerAtOpCount checks the power cut: the ops before the
// armed one succeed, the armed op and every later one fail with EIO — the
// uncounted Remove and SyncDir included — until Calm restores power, and
// the op counter never stops.
func TestArmCrashCutsPowerAtOpCount(t *testing.T) {
	fs := NewFaulty(OS, 1)
	dir := t.TempDir()
	path := filepath.Join(dir, "f")
	f := openRW(t, fs, path) // op 1: open
	fs.ArmCrash(2)           // op 2 = write ok, op 3 = sync is the cut

	if _, err := f.Write([]byte("kept")); err != nil {
		t.Fatalf("op before the cut failed: %v", err)
	}
	if err := f.Sync(); !errors.Is(err, syscall.EIO) {
		t.Fatalf("cut op: err = %v, want EIO", err)
	}
	after := map[string]error{}
	_, after["write"] = f.Write([]byte("lost"))
	after["sync"] = f.Sync()
	after["truncate"] = f.Truncate(0)
	_, after["open"] = fs.OpenFile(filepath.Join(dir, "g"), os.O_CREATE|os.O_RDWR, 0o644)
	after["rename"] = fs.Rename(path, filepath.Join(dir, "h"))
	after["remove"] = fs.Remove(path)
	after["syncdir"] = fs.SyncDir(dir)
	for op, err := range after {
		if !errors.Is(err, syscall.EIO) {
			t.Errorf("%s after the cut: err = %v, want EIO", op, err)
		}
	}
	if got := fs.Ops(); got != 8 {
		t.Fatalf("Ops() = %d, want 8 (open, write, sync, write, sync, truncate, open, rename)", got)
	}
	if data, err := os.ReadFile(path); err != nil || string(data) != "kept" {
		t.Fatalf("on-disk bytes %q, %v; want only the write before the cut", data, err)
	}

	fs.Calm()
	if _, err := f.Write([]byte("!")); err != nil {
		t.Fatalf("write after Calm: %v", err)
	}
	if err := fs.SyncDir(dir); err != nil {
		t.Fatalf("SyncDir after Calm: %v", err)
	}
	if err := fs.Remove(path); err != nil {
		t.Fatalf("Remove after Calm: %v", err)
	}
	if got := fs.Ops(); got != 9 {
		t.Fatalf("Ops() = %d after Calm, want 9", got)
	}
}

// TestFreeBudgetCutsWritesShort models the full disk: writes consume the
// budget, the one that does not fit persists only the remaining bytes
// and fails with ENOSPC, and Calm does not refill capacity.
func TestFreeBudgetCutsWritesShort(t *testing.T) {
	fs := NewFaulty(OS, 1)
	path := filepath.Join(t.TempDir(), "f")
	f := openRW(t, fs, path)
	fs.SetFree(10)

	if n, err := f.Write([]byte("12345678")); n != 8 || err != nil {
		t.Fatalf("write within budget: n=%d err=%v", n, err)
	}
	if free, ok := fs.Free("."); !ok || free != 2 {
		t.Fatalf("Free() = %d,%v, want 2,true", free, ok)
	}
	n, err := f.Write([]byte("abcdef"))
	if n != 2 || !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("overflowing write: n=%d err=%v, want 2, ENOSPC", n, err)
	}
	fs.Calm() // faults clear; capacity does not come back
	if _, err := f.Write([]byte("z")); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("write after Calm on a full disk: %v, want ENOSPC", err)
	}
	fs.SetFree(-1) // disk replaced
	if _, err := f.Write([]byte("z")); err != nil {
		t.Fatalf("write with tracking disabled: %v", err)
	}
	data, rerr := os.ReadFile(path)
	if rerr != nil || string(data) != "12345678abz" {
		t.Fatalf("on-disk bytes %q, want the two accepted prefixes", data)
	}
}

// TestSilentShortWrite pins the pathological kernel behavior the WAL
// must defend against: fewer bytes than requested, nil error.
func TestSilentShortWrite(t *testing.T) {
	fs := NewFaulty(OS, 1)
	f := openRW(t, fs, filepath.Join(t.TempDir(), "f"))
	fs.ArmShortWrite(3, nil)
	if n, err := f.Write([]byte("abcdef")); n != 3 || err != nil {
		t.Fatalf("silent short write: n=%d err=%v, want 3, nil", n, err)
	}
	fs.ArmShortWrite(2, syscall.EIO)
	if n, err := f.Write([]byte("abcdef")); n != 2 || !errors.Is(err, syscall.EIO) {
		t.Fatalf("errored short write: n=%d err=%v, want 2, EIO", n, err)
	}
	if n, err := f.Write([]byte("!")); n != 1 || err != nil {
		t.Fatalf("short-write arming not one-shot: n=%d err=%v", n, err)
	}
}

// TestPassthroughWhenCalm checks an unconfigured Faulty behaves exactly
// like the real filesystem, including rename and read-back.
func TestPassthroughWhenCalm(t *testing.T) {
	fs := NewFaulty(OS, 1)
	dir := t.TempDir()
	a, b := filepath.Join(dir, "a"), filepath.Join(dir, "b")
	f := openRW(t, fs, a)
	if _, err := f.Write([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := fs.Rename(a, b); err != nil {
		t.Fatal(err)
	}
	if err := fs.SyncDir(dir); err != nil {
		t.Fatal(err)
	}
	g := openRW(t, fs, b)
	data, err := io.ReadAll(g)
	if err != nil || string(data) != "hello" {
		t.Fatalf("read back %q, %v", data, err)
	}
	if free, ok := fs.Free(dir); ok && free <= 0 {
		t.Fatalf("real filesystem reported %d free bytes", free)
	}
	if err := fs.Remove(b); err != nil {
		t.Fatal(err)
	}
}
