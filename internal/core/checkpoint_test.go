package core

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"grfusion/internal/types"
	"grfusion/internal/wal"
)

// bulkLoad appends rows to table in one bulk load.
func bulkLoad(t testing.TB, e *Engine, table string, rows []types.Row) {
	t.Helper()
	bl, err := e.BeginBulk(table, nil, len(rows))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bl.Append(rows); err != nil {
		t.Fatal(err)
	}
	if _, err := bl.Close(); err != nil {
		t.Fatal(err)
	}
}

// checkpointFrames returns the [start, end) byte range of every frame of a
// checkpoint file, the header frame first.
func checkpointFrames(t *testing.T, data []byte) [][2]int {
	t.Helper()
	var frames [][2]int
	for at := wal.HeaderSize; at < len(data); {
		end := at + 8 + int(binary.LittleEndian.Uint32(data[at:]))
		if end > len(data) {
			t.Fatalf("frame at %d runs past the file", at)
		}
		frames = append(frames, [2]int{at, end})
		at = end
	}
	return frames
}

// shutdownCheckpoint writes a durable database several row frames long,
// shuts it down (which checkpoints it) and returns the checkpoint's bytes.
func shutdownCheckpoint(t *testing.T) []byte {
	t.Helper()
	dir := t.TempDir()
	e, _ := openDur(t, dir, Options{Durability: Durability{Fsync: wal.FsyncOff}})
	mustExecAll(t, e, durSetup)
	bulkLoad(t, e, "people", bulkVertexRows(80000))
	bulkLoad(t, e, "knows", bulkEdgeRows(0, 500, 300))
	mustExecAll(t, e, "DELETE FROM people WHERE id = 17; DELETE FROM knows WHERE id = 3")
	if err := e.Shutdown(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, checkpointFile))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// openCheckpoint recovers a fresh directory holding data as its checkpoint.
func openCheckpoint(t *testing.T, data []byte) error {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, checkpointFile), data, 0o644); err != nil {
		t.Fatal(err)
	}
	e, _, err := Open(Options{Durability: Durability{Dir: dir, Fsync: wal.FsyncOff}})
	if err == nil {
		e.Close()
	}
	return err
}

// TestCheckpointFlippedByteNamesFrame flips one byte in each part (length,
// checksum, kind, payload) of every frame of a real checkpoint: Open must
// fail with ErrCorruptWAL naming that frame. A flipped file header is not
// a checkpoint at all.
func TestCheckpointFlippedByteNamesFrame(t *testing.T) {
	data := shutdownCheckpoint(t)
	frames := checkpointFrames(t, data)
	if len(frames) < 7 {
		t.Fatalf("%d frames, want the header, people's two row frames and free list, knows' and the end", len(frames))
	}
	if err := openCheckpoint(t, data); err != nil {
		t.Fatalf("intact checkpoint: %v", err)
	}
	for i, fr := range frames {
		start, end := fr[0], fr[1]
		for _, at := range []int{start, start + 3, start + 4, start + 8, (start + 8 + end) / 2, end - 1} {
			bad := bytes.Clone(data)
			bad[at] ^= 0x20
			err := openCheckpoint(t, bad)
			want := fmt.Sprintf("checkpoint frame %d:", i)
			if !errors.Is(err, wal.ErrCorruptWAL) || !strings.Contains(err.Error(), want) {
				t.Fatalf("byte %d of frame %d flipped: %v, want ErrCorruptWAL naming %q", at-start, i, err, want)
			}
		}
	}
	bad := bytes.Clone(data)
	bad[0] ^= 0x20
	if err := openCheckpoint(t, bad); !errors.Is(err, wal.ErrCorruptWAL) || !strings.Contains(err.Error(), "not a GRFusion checkpoint") {
		t.Fatalf("file header flipped: %v", err)
	}
}

// TestCheckpointWithoutEndFrame cuts a checkpoint before its end frame, and
// appends a byte after it: both fail Open with ErrCorruptWAL naming the
// end frame's place.
func TestCheckpointWithoutEndFrame(t *testing.T) {
	data := shutdownCheckpoint(t)
	frames := checkpointFrames(t, data)
	last := len(frames) - 1
	err := openCheckpoint(t, data[:frames[last][0]])
	want := fmt.Sprintf("checkpoint frame %d: missing", last)
	if !errors.Is(err, wal.ErrCorruptWAL) || !strings.Contains(err.Error(), want) {
		t.Fatalf("without the end frame: %v, want ErrCorruptWAL naming %q", err, want)
	}
	err = openCheckpoint(t, append(bytes.Clone(data), 0))
	if !errors.Is(err, wal.ErrCorruptWAL) || !strings.Contains(err.Error(), "bytes after the end frame") {
		t.Fatalf("a byte after the end frame: %v", err)
	}
}

// TestSnapshotRestoreRejectsGob feeds Restore an archive in the gob format
// earlier builds wrote: it is refused as not a checkpoint.
func TestSnapshotRestoreRejectsGob(t *testing.T) {
	type table struct {
		Name string
		Rows [][]int64
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&struct {
		Version int
		Tables  []table
	}{2, []table{{"t", [][]int64{{1}}}}}); err != nil {
		t.Fatal(err)
	}
	err := New(Options{}).Restore(&buf)
	if !errors.Is(err, wal.ErrCorruptWAL) || !strings.Contains(err.Error(), "not a GRFusion checkpoint") {
		t.Fatalf("Restore of gob bytes: %v, want a not-a-GRFusion-checkpoint error", err)
	}
}

// TestCheckpointEncodeStreams shows the checkpoint encoder streams: the
// bytes it allocates for a 100k-row table stay within 2x of a 20k-row one
// (one reused chunk buffer, no whole-database copy).
func TestCheckpointEncodeStreams(t *testing.T) {
	allocated := func(n int) uint64 {
		e := New(Options{})
		mustExec(t, e, `CREATE TABLE kv (k BIGINT PRIMARY KEY, v VARCHAR)`)
		rows := make([]types.Row, n)
		for i := range rows {
			rows[i] = types.Row{types.NewInt(int64(i)), types.NewString(fmt.Sprintf("value-%d", i))}
		}
		bulkLoad(t, e, "kv", rows)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := e.Snapshot(io.Discard); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	small, large := allocated(20000), allocated(100000)
	t.Logf("checkpoint encode allocates %d B at 20k rows, %d B at 100k", small, large)
	if large > 2*small {
		t.Fatalf("encode allocates %d B at 100k rows, more than 2x the %d B at 20k", large, small)
	}
}

// TestReplayPublishesOnce replays a WAL of well over 100 records: Open
// publishes the recovered database as exactly one version past New's
// empty one, not one per record.
func TestReplayPublishesOnce(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Durability: Durability{Fsync: wal.FsyncOff, CheckpointEvery: -1}}
	e, _ := openDur(t, dir, opts)
	mustExecAll(t, e, durSetup)
	seedRows(t, e, 60)
	want := stateSig(t, e)
	e.Kill()

	r, info := openDur(t, dir, opts)
	defer r.Close()
	if info.CheckpointLoaded || info.Replayed < 100 {
		t.Fatalf("recovery: %s, want over 100 replayed records and no checkpoint", info)
	}
	if got := r.VersionSeq(); got != 2 {
		t.Fatalf("version after replaying %d records = %d, want 2", info.Replayed, got)
	}
	if got := metricValue(r, "mvcc.published"); got != 2 {
		t.Fatalf("mvcc.published after replaying %d records = %d, want 2", info.Replayed, got)
	}
	if got := stateSig(t, r); got != want {
		t.Fatalf("recovered state differs:\n got %s\nwant %s", got, want)
	}
}
