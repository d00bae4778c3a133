package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"grfusion/internal/types"
)

// writeLog records the size of every Write it receives.
type writeLog struct {
	bytes.Buffer
	writes []int
}

func (w *writeLog) Write(p []byte) (int, error) {
	w.writes = append(w.writes, len(p))
	return w.Buffer.Write(p)
}

// ckTable is one table of a test checkpoint: its slot image and free list.
type ckTable struct {
	image []types.Row
	free  []uint64
}

func writeCheckpoint(t *testing.T, w *writeLog, lsn uint64, tables []ckTable) {
	t.Helper()
	cw := NewCheckpointWriter(w, lsn, func(h *Fields) {
		h.Uint(uint64(len(tables)))
		h.Str("catalog")
		h.Bool(true)
	})
	for _, tb := range tables {
		for i, row := range tb.image {
			if row != nil {
				if err := cw.Row(uint64(i+1), row); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := cw.EndTable(tb.free); err != nil {
			t.Fatal(err)
		}
	}
	if err := cw.Close(); err != nil {
		t.Fatal(err)
	}
}

func readCheckpoint(data []byte, ncols int) (uint64, []ckTable, error) {
	cr, err := OpenCheckpoint(bytes.NewReader(data))
	if err != nil {
		return 0, nil, err
	}
	h := cr.Header()
	tables := make([]ckTable, h.Count())
	if h.Str() != "catalog" || !h.Bool() {
		return 0, nil, errors.New("catalog fields do not read back")
	}
	for i := range tables {
		if tables[i].image, tables[i].free, err = cr.Table(ncols); err != nil {
			return 0, nil, err
		}
	}
	return cr.LSN(), tables, cr.Close()
}

// TestCheckpointRoundTrip writes two tables (every value kind, holes in
// the middle and at the end, a free list in LIFO order, an empty table)
// and reads back the same slot images, free lists and LSN.
func TestCheckpointRoundTrip(t *testing.T) {
	tables := []ckTable{
		{image: []types.Row{
			{types.NewInt(1), types.NewString("a"), types.NewFloat(1.5), types.NewBool(true)},
			nil,
			{types.NewInt(-3), types.NewString(""), types.NewFloat(-0.25), types.Null()},
			nil,
			nil,
		}, free: []uint64{4, 2, 5}},
		{free: []uint64{}},
	}
	var w writeLog
	writeCheckpoint(t, &w, 42, tables)
	lsn, got, err := readCheckpoint(w.Bytes(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if lsn != 42 || !reflect.DeepEqual(got, tables) {
		t.Fatalf("read back lsn %d %v, want 42 %v", lsn, got, tables)
	}
}

// TestCheckpointChunks checks the writer's device traffic: a large table
// goes out as row frames of at least chunkBytes, each buffer handed to
// the writer in one Write, and reads back intact.
func TestCheckpointChunks(t *testing.T) {
	image := make([]types.Row, 200000)
	for i := range image {
		image[i] = types.Row{types.NewInt(int64(i)), types.NewString(fmt.Sprintf("value-%d", i))}
	}
	var w writeLog
	writeCheckpoint(t, &w, 1, []ckTable{{image: image}})
	size := w.Len()
	if min := size / chunkBytes; min < 2 || len(w.writes) > min+1 || len(w.writes) < min {
		t.Fatalf("%d bytes in %d writes %v, want %d or %d", size, len(w.writes), w.writes, min, min+1)
	}
	for _, n := range w.writes[:len(w.writes)-1] {
		if n < chunkBytes {
			t.Fatalf("a %d-byte write before the last, want at least %d: %v", n, chunkBytes, w.writes)
		}
	}
	_, got, err := readCheckpoint(w.Bytes(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got[0].image, image) {
		t.Fatal("rows do not read back")
	}

	// Tables each smaller than a chunk still go out a chunk or two at a
	// time, not as one buffered database.
	tables := make([]ckTable, 6)
	for i := range tables {
		tables[i].image = image[:30000]
	}
	w = writeLog{}
	writeCheckpoint(t, &w, 1, tables)
	if len(w.writes) < 4 || slices.Max(w.writes) > 2*chunkBytes {
		t.Fatalf("6 sub-chunk tables, %d bytes, went out as writes %v", w.Len(), w.writes)
	}
}

// TestCheckpointReaderStrict: a checkpoint the reader must refuse, each
// with ErrCorruptWAL naming the frame.
func TestCheckpointReaderStrict(t *testing.T) {
	two := []ckTable{
		{image: []types.Row{{types.NewInt(1)}}},
		{image: []types.Row{nil, {types.NewInt(2)}}, free: []uint64{1}},
	}
	var w writeLog
	writeCheckpoint(t, &w, 7, two)
	good := w.Bytes()
	if _, _, err := readCheckpoint(good, 1); err != nil {
		t.Fatal(err)
	}
	// Frames: 0 header, 1 rows t0, 2 free t0, 3 rows t1, 4 free t1, 5 end.
	frames := map[int][2]int{}
	for at, i := HeaderSize, 0; at < len(good); i++ {
		n := int(binary.LittleEndian.Uint32(good[at:]))
		frames[i] = [2]int{at, at + frameOverhead + n}
		at += frameOverhead + n
	}
	drop := func(i int) []byte {
		return append(bytes.Clone(good[:frames[i][0]]), good[frames[i][1]:]...)
	}
	swap := func(i, j int) []byte { // frame j in place of frame i, and i of j
		b := bytes.Clone(good[:frames[i][0]])
		b = append(b, good[frames[j][0]:frames[j][1]]...)
		b = append(b, good[frames[i][1]:frames[j][0]]...)
		b = append(b, good[frames[i][0]:frames[i][1]]...)
		return append(b, good[frames[j][1]:]...)
	}
	for _, tc := range []struct {
		name string
		data []byte
		want string
	}{
		{"empty", nil, "not a GRFusion checkpoint"},
		{"wal header", appendHeader(nil), "not a GRFusion checkpoint"},
		{"future version", append([]byte(ckptMagic), 9, 0), "unsupported checkpoint version 9"},
		{"header only", good[:frames[0][1]], "checkpoint frame 1: missing"},
		{"torn row frame", good[:frames[3][1]-1], "checkpoint frame 3: short frame payload"},
		{"no end frame", good[:frames[5][0]], "checkpoint frame 5: missing"},
		{"a table's rows dropped", drop(1), "checkpoint frame 4: end frame counts 2 tables and 2 rows, read 2 and 1"},
		{"a table's free list dropped", drop(2), "checkpoint frame 2: belongs to table 1, want table 0"},
		{"tables out of order", swap(1, 3), "checkpoint frame 1: belongs to table 1, want table 0"},
		{"end before a table", swap(4, 5), "checkpoint frame 4: frame kind is not [2 3]"},
		{"bytes after the end", append(bytes.Clone(good), 0), "checkpoint frame 5: bytes after the end frame"},
	} {
		_, _, err := readCheckpoint(tc.data, 1)
		if !errors.Is(err, ErrCorruptWAL) || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: %v, want ErrCorruptWAL with %q", tc.name, err, tc.want)
		}
	}
}
