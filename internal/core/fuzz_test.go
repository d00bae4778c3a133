package core

import (
	"bytes"
	"encoding/gob"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"grfusion/internal/types"
	"grfusion/internal/wal"
)

// FuzzWALReplay fuzzes the full recovery path over arbitrary WAL bytes:
// the input is written to a throwaway durability directory as wal.log and
// opened with core.Open. Whatever the bytes are — a real log, a torn one,
// a bit-flipped one, or garbage — recovery must never panic, and must
// either succeed replaying exactly the valid record prefix or fail with
// the typed wal.ErrCorruptWAL. On success the on-disk log must have been
// truncated to that prefix and a second recovery must reproduce the first.
//
// The checked-in corpus lives in testdata/fuzz/FuzzWALReplay; CI runs the
// target under -race with a fuzzing budget (make fuzz / the recovery job).
func FuzzWALReplay(f *testing.F) {
	real := realWALBytes(f)
	header := append([]byte(nil), real[:wal.HeaderSize]...)

	// A hand-built log: DDL, an alloc-pinned insert, and a parameterized
	// statement, so the fuzzer starts with every payload shape.
	built := append([]byte(nil), header...)
	built = wal.AppendFrame(built, &wal.Record{LSN: 1, SQL: "CREATE TABLE t (id BIGINT PRIMARY KEY, s VARCHAR)"})
	built = wal.AppendFrame(built, &wal.Record{LSN: 2, SQL: "INSERT INTO t VALUES (1, 'one')", Table: "t", NextSlot: 1})
	built = wal.AppendFrame(built, &wal.Record{LSN: 3, SQL: "INSERT INTO t VALUES (?, ?)", Table: "t", NextSlot: 2,
		Params: []types.Value{{Kind: types.KindInt, I: 2}, {Kind: types.KindString, S: "two"}}})

	f.Add([]byte(nil))                    // no file contents at all
	f.Add(append([]byte(nil), header...)) // empty log
	f.Add(real)                           // a log a real engine wrote
	f.Add(built)                          // hand-built frames incl. params
	f.Add(built[:len(built)-3])           // torn mid-frame
	f.Add(real[:wal.HeaderSize/2])        // torn mid-header
	f.Add([]byte("not a wal at all"))     // wrong magic
	f.Add([]byte("GRWAL\x00\x63\x00"))    // future format version

	// Bit flip in the final frame's payload (checksum mismatch).
	flipped := append([]byte(nil), built...)
	flipped[len(flipped)-2] ^= 0x40
	f.Add(flipped)

	// A frame header claiming an absurd payload length.
	huge := append([]byte(nil), header...)
	huge = append(huge, 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0)
	f.Add(huge)

	// A valid frame followed by a frame torn mid-length-prefix: the crash
	// window where only 2 of the 4 length bytes reached the disk. Recovery
	// must keep the first record and truncate the 2-byte stub.
	one := append([]byte(nil), header...)
	one = wal.AppendFrame(one, &wal.Record{LSN: 1, SQL: "CREATE TABLE t (id BIGINT PRIMARY KEY, s VARCHAR)"})
	cut := len(one)
	one = wal.AppendFrame(one, &wal.Record{LSN: 2, SQL: "INSERT INTO t VALUES (1, 'one')", Table: "t", NextSlot: 1})
	f.Add(append([]byte(nil), one[:cut+2]...))

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, walFile)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		var opts Options
		opts.Durability = Durability{Dir: dir, Fsync: wal.FsyncOff}
		eng, info, err := Open(opts)
		if err != nil {
			if !errors.Is(err, wal.ErrCorruptWAL) {
				t.Fatalf("recovery failed with an untyped error: %v", err)
			}
			return
		}
		defer eng.Close()

		// Valid-prefix property: recovery replayed exactly the records an
		// independent scan of the same bytes accepts.
		scan, scanErr := wal.Scan(bytes.NewReader(data))
		if scanErr != nil {
			t.Fatalf("recovery succeeded but Scan rejects the same bytes: %v", scanErr)
		}
		if info.Replayed != len(scan.Records) {
			t.Fatalf("replayed %d records, scan found %d", info.Replayed, len(scan.Records))
		}
		if info.TornTail != scan.Torn {
			t.Fatalf("recovery torn=%v, scan torn=%v", info.TornTail, scan.Torn)
		}

		// Truncation property: the surviving file is exactly the valid
		// prefix (or a fresh header when nothing at all was valid).
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if scan.ValidBytes > 0 {
			if !bytes.Equal(got, data[:scan.ValidBytes]) {
				t.Fatalf("on-disk log is not the valid prefix: %d bytes, want %d", len(got), scan.ValidBytes)
			}
		} else if len(got) != wal.HeaderSize {
			t.Fatalf("empty recovery left a %d-byte log, want a fresh %d-byte header", len(got), wal.HeaderSize)
		}
		eng.Close()

		// Idempotence property: recovering the truncated log again succeeds
		// and sees the same history, now without a torn tail.
		eng2, info2, err := Open(opts)
		if err != nil {
			t.Fatalf("second recovery failed: %v", err)
		}
		defer eng2.Close()
		if info2.Replayed != info.Replayed || info2.TornTail {
			t.Fatalf("second recovery diverged: %v vs %v", info2, info)
		}
	})
}

// realWALBytes runs a real durable engine through DDL, inserts, a graph
// view, prepared DML and a delete, crashes it, and returns the log it
// left behind — the highest-value fuzz seed.
func realWALBytes(f *testing.F) []byte {
	dir := f.TempDir()
	var opts Options
	opts.Durability = Durability{Dir: dir, Fsync: wal.FsyncOff}
	eng, _, err := Open(opts)
	if err != nil {
		f.Fatal(err)
	}
	for _, q := range []string{
		`CREATE TABLE people (id BIGINT PRIMARY KEY, name VARCHAR)`,
		`CREATE TABLE knows (id BIGINT PRIMARY KEY, src BIGINT, dst BIGINT, w DOUBLE)`,
		`INSERT INTO people VALUES (1, 'ada'), (2, 'bob')`,
		`INSERT INTO knows VALUES (10, 1, 2, 1.5)`,
		`CREATE DIRECTED GRAPH VIEW net VERTEXES (ID = id, name = name) FROM people EDGES (ID = id, FROM = src, TO = dst, w = w) FROM knows`,
		`DELETE FROM knows WHERE id = 10`,
	} {
		if _, err := eng.Execute(q); err != nil {
			f.Fatalf("%s: %v", q, err)
		}
	}
	ins, err := eng.PrepareDML(`INSERT INTO people VALUES (?, ?)`)
	if err != nil {
		f.Fatal(err)
	}
	if _, err := ins.Exec(types.NewInt(3), types.NewString("eve")); err != nil {
		f.Fatal(err)
	}
	eng.Kill()
	data, err := os.ReadFile(filepath.Join(dir, walFile))
	if err != nil {
		f.Fatal(err)
	}
	return data
}

// FuzzCheckpointDecode fuzzes checkpoint decoding: the input is restored
// into an empty engine. Seeds are a real checkpoint, a truncated one, one
// with a flipped byte, an archive in the gob format of earlier builds and
// no bytes at all. Decoding must never panic and must refuse every input
// it cannot load with wal.ErrCorruptWAL; an input it loads must snapshot
// and restore again.
func FuzzCheckpointDecode(f *testing.F) {
	e := New(Options{})
	for _, q := range []string{
		`CREATE TABLE people (id BIGINT PRIMARY KEY, name VARCHAR, ok BOOLEAN)`,
		`CREATE TABLE knows (id BIGINT PRIMARY KEY, src BIGINT, dst BIGINT, w DOUBLE)`,
		`CREATE INDEX knows_src ON knows (src)`,
		`INSERT INTO people VALUES (1, 'ada', TRUE), (2, NULL, FALSE), (3, 'eve', TRUE)`,
		`INSERT INTO knows VALUES (10, 1, 2, 1.5), (11, 2, 3, 0.5), (12, 3, 1, 2.0)`,
		`DELETE FROM knows WHERE id = 11`,
		`CREATE MATERIALIZED VIEW named AS SELECT id, name FROM people WHERE ok = TRUE`,
		`CREATE DIRECTED GRAPH VIEW net VERTEXES (ID = id, name = name) FROM people EDGES (ID = id, FROM = src, TO = dst, w = w) FROM knows`,
	} {
		if _, err := e.Execute(q); err != nil {
			f.Fatalf("%s: %v", q, err)
		}
	}
	var real bytes.Buffer
	if err := e.Snapshot(&real); err != nil {
		f.Fatal(err)
	}
	var archive bytes.Buffer
	if err := gob.NewEncoder(&archive).Encode(&struct {
		Version  int
		MatViews []string
	}{2, []string{"SELECT 1"}}); err != nil {
		f.Fatal(err)
	}
	flipped := bytes.Clone(real.Bytes())
	flipped[len(flipped)/2] ^= 0x40

	f.Add(real.Bytes())
	f.Add(real.Bytes()[:real.Len()/2])
	f.Add(flipped)
	f.Add(archive.Bytes())
	f.Add([]byte(nil))

	f.Fuzz(func(t *testing.T, data []byte) {
		e := New(Options{})
		if err := e.Restore(bytes.NewReader(data)); err != nil {
			if !errors.Is(err, wal.ErrCorruptWAL) {
				t.Fatalf("decode failed with an untyped error: %v", err)
			}
			return
		}
		var again bytes.Buffer
		if err := e.Snapshot(&again); err != nil {
			t.Fatal(err)
		}
		if err := New(Options{}).Restore(&again); err != nil {
			t.Fatalf("a loaded checkpoint does not restore again: %v", err)
		}
	})
}
