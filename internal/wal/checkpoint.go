package wal

import (
	"encoding/binary"
	"fmt"
	"io"
	"slices"

	"grfusion/internal/types"
)

// Checkpoint header and frame kinds (the layout is in the package doc).
const (
	ckptMagic   = "GRCKP\x00"
	ckptVersion = 1

	ckMeta = 1
	ckRows = 2
	ckFree = 3
	ckEnd  = 4

	// chunkBytes is the size at which the writer closes a row frame and
	// hands its buffer to the file in one Write: a checkpoint is a few
	// large writes from one reused buffer, whatever its row count.
	chunkBytes = 1 << 20
)

// Fields is the header frame's catalog encoding: unsigned varints and
// length-prefixed strings, appended in the order a FieldReader reads them
// back.
type Fields []byte

// Uint appends v.
func (f *Fields) Uint(v uint64) { *f = binary.AppendUvarint(*f, v) }

// Str appends s.
func (f *Fields) Str(s string) {
	f.Uint(uint64(len(s)))
	*f = append(*f, s...)
}

// Bool appends b.
func (f *Fields) Bool(b bool) {
	if b {
		f.Uint(1)
	} else {
		f.Uint(0)
	}
}

// FieldReader reads back what Fields wrote. A read past the frame's end
// or a malformed field yields zero values from then on, and the
// checkpoint's Close reports the header frame as corrupt.
type FieldReader struct{ payloadReader }

// Uint reads an unsigned varint.
func (r *FieldReader) Uint() uint64 { return r.uvarint() }

// Count reads the length of a list whose every item takes at least one
// byte, so a count above the bytes left is corruption, not an allocation.
func (r *FieldReader) Count() int { return r.count() }

// Str reads a length-prefixed string.
func (r *FieldReader) Str() string { return r.str(r.Count()) }

// Bool reads a boolean.
func (r *FieldReader) Bool() bool {
	v := r.uvarint()
	if v > 1 {
		r.bad = true
	}
	return v == 1
}

// CheckpointWriter streams a checkpoint to w. NewCheckpointWriter takes
// the header frame; then, table by table in header order, Row for each
// live tuple in ascending slot order and EndTable with the free list; then
// Close. Frames accumulate in one buffer that goes to w in one Write
// whenever a row frame, or a table's section, brings it to chunkBytes, and
// at Close. The first error is sticky.
type CheckpointWriter struct {
	w      io.Writer
	buf    []byte
	open   int    // offset of the open row frame in buf, or -1
	count  uint32 // rows in the open row frame
	prev   uint64 // slot of the current table's previous row
	tables uint32 // table sections ended
	rows   uint64 // rows written
	err    error
}

// NewCheckpointWriter starts a checkpoint that covers the log up to lsn.
// catalog appends the header frame's catalog fields.
func NewCheckpointWriter(w io.Writer, lsn uint64, catalog func(*Fields)) *CheckpointWriter {
	// A full row frame plus the small frames usually buffered before it.
	cw := &CheckpointWriter{w: w, open: -1, buf: make([]byte, 0, chunkBytes+chunkBytes/4)}
	cw.buf = append(cw.buf, ckptMagic...)
	cw.buf = binary.LittleEndian.AppendUint16(cw.buf, ckptVersion)
	start := cw.begin(ckMeta)
	cw.buf = binary.LittleEndian.AppendUint64(cw.buf, lsn)
	catalog((*Fields)(&cw.buf))
	cw.seal(start)
	return cw
}

// begin opens a frame of kind at the end of the buffer and returns its
// offset.
func (cw *CheckpointWriter) begin(kind byte) int {
	start := len(cw.buf)
	cw.buf = append(cw.buf, 0, 0, 0, 0, 0, 0, 0, 0, kind)
	return start
}

// seal closes the frame at start.
func (cw *CheckpointWriter) seal(start int) {
	if n := len(cw.buf) - start - frameOverhead; n > maxPayload && cw.err == nil {
		cw.err = fmt.Errorf("checkpoint frame of %d bytes exceeds the %d-byte limit", n, maxPayload)
	}
	sealFrame(cw.buf, start)
}

// closeRows seals the open row frame, if any, with its row count.
func (cw *CheckpointWriter) closeRows() {
	if cw.open < 0 {
		return
	}
	// The count follows the frame's kind byte and table ordinal.
	binary.LittleEndian.PutUint32(cw.buf[cw.open+frameOverhead+1+4:], cw.count)
	cw.seal(cw.open)
	cw.open = -1
}

// flush hands the buffered frames to w in one Write.
func (cw *CheckpointWriter) flush() {
	if cw.err == nil {
		_, cw.err = cw.w.Write(cw.buf)
	}
	cw.buf = cw.buf[:0]
}

// Row adds the tuple in slot to the current table.
func (cw *CheckpointWriter) Row(slot uint64, row types.Row) error {
	if cw.err != nil {
		return cw.err
	}
	if slot <= cw.prev {
		cw.err = fmt.Errorf("checkpoint: slot %d after slot %d", slot, cw.prev)
		return cw.err
	}
	if cw.open < 0 {
		cw.open = cw.begin(ckRows)
		cw.buf = binary.LittleEndian.AppendUint32(cw.buf, cw.tables)
		cw.buf = append(cw.buf, 0, 0, 0, 0) // the row count, set by closeRows
		cw.count = 0
	}
	cw.buf = binary.AppendUvarint(cw.buf, slot-cw.prev)
	for _, v := range row {
		cw.buf = appendValue(cw.buf, v)
	}
	cw.prev = slot
	cw.count++
	cw.rows++
	if len(cw.buf)-cw.open >= chunkBytes {
		cw.closeRows()
		cw.flush()
	}
	return cw.err
}

// EndTable closes the current table's section with its LIFO free list.
func (cw *CheckpointWriter) EndTable(free []uint64) error {
	if cw.err != nil {
		return cw.err
	}
	cw.closeRows()
	start := cw.begin(ckFree)
	cw.buf = binary.LittleEndian.AppendUint32(cw.buf, cw.tables)
	cw.buf = binary.AppendUvarint(cw.buf, uint64(len(free)))
	for _, id := range free {
		cw.buf = binary.AppendUvarint(cw.buf, id)
	}
	cw.seal(start)
	cw.tables++
	cw.prev = 0
	if len(cw.buf) >= chunkBytes {
		cw.flush()
	}
	return cw.err
}

// Close appends the end frame and writes what is buffered.
func (cw *CheckpointWriter) Close() error {
	if cw.err != nil {
		return cw.err
	}
	start := cw.begin(ckEnd)
	cw.buf = binary.LittleEndian.AppendUint32(cw.buf, cw.tables)
	cw.buf = binary.LittleEndian.AppendUint64(cw.buf, cw.rows)
	cw.seal(start)
	cw.flush()
	return cw.err
}

// CheckpointReader reads a checkpoint back strictly: OpenCheckpoint reads
// the header frame, Table reads each table's section in header order, and
// Close checks the end frame. Every error is ErrCorruptWAL naming the
// frame.
type CheckpointReader struct {
	r      io.Reader
	frame  int    // ordinal of the frame read last
	buf    []byte // row-frame payloads, reused
	hdr    FieldReader
	lsn    uint64
	tables uint32
	rows   uint64
}

// OpenCheckpoint checks the file header and reads the header frame.
func OpenCheckpoint(r io.Reader) (*CheckpointReader, error) {
	var h [HeaderSize]byte
	if _, err := io.ReadFull(r, h[:]); err != nil || string(h[:len(ckptMagic)]) != ckptMagic {
		return nil, fmt.Errorf("%w: not a GRFusion checkpoint: bad file header "+
			"(archives written with encoding/gob by earlier builds no longer load)", ErrCorruptWAL)
	}
	if v := binary.LittleEndian.Uint16(h[len(ckptMagic):]); v != ckptVersion {
		return nil, fmt.Errorf("%w: unsupported checkpoint version %d", ErrCorruptWAL, v)
	}
	cr := &CheckpointReader{r: r, frame: -1}
	p, err := cr.read(nil, ckMeta)
	if err != nil {
		return nil, err
	}
	cr.hdr.b, cr.hdr.i = p, 1
	cr.lsn = cr.hdr.u64()
	return cr, nil
}

// LSN is the log position the checkpoint covers.
func (cr *CheckpointReader) LSN() uint64 { return cr.lsn }

// Header reads the header frame's catalog fields.
func (cr *CheckpointReader) Header() *FieldReader { return &cr.hdr }

// read reads the next frame into buf and checks that its kind is one of
// kinds.
func (cr *CheckpointReader) read(buf []byte, kinds ...byte) ([]byte, error) {
	cr.frame++
	p, err := readFrame(cr.r, buf)
	switch {
	case err == io.EOF:
		return nil, cr.corrupt("missing: the checkpoint ends before its end frame")
	case err != nil:
		return nil, cr.corrupt(err.Error())
	case len(p) == 0 || !slices.Contains(kinds, p[0]):
		return nil, cr.corrupt(fmt.Sprintf("frame kind is not %v", kinds))
	}
	return p, nil
}

// corrupt reports the frame read last as corrupt.
func (cr *CheckpointReader) corrupt(what string) error {
	return fmt.Errorf("%w: checkpoint frame %d: %s", ErrCorruptWAL, cr.frame, what)
}

// Table reads the next table's section: its slot image (image[i] is the
// tuple in slot i+1 with ncols values, nil for a hole) and its free list.
func (cr *CheckpointReader) Table(ncols int) (image []types.Row, free []uint64, err error) {
	var slot, live uint64
	for {
		p, err := cr.read(cr.buf, ckRows, ckFree)
		if err != nil {
			return nil, nil, err
		}
		cr.buf = p
		r := payloadReader{b: p, i: 1}
		if t := r.u32(); t != cr.tables {
			return nil, nil, cr.corrupt(fmt.Sprintf("belongs to table %d, want table %d", t, cr.tables))
		}
		if p[0] == ckFree {
			free = make([]uint64, r.count())
			for i := range free {
				free[i] = r.uvarint()
			}
			size := live + uint64(len(free))
			if r.bad || r.i != len(p) || size < slot {
				return nil, nil, cr.corrupt("malformed free list")
			}
			for uint64(len(image)) < size {
				image = append(image, nil)
			}
			cr.tables++
			cr.rows += live
			return image, free, nil
		}
		for n := r.u32(); n > 0 && !r.bad; n-- {
			// A slot is the delta from the previous one. Every hole it
			// skips is on the free list, which one frame bounds.
			d := r.uvarint()
			if d == 0 || d-1 > maxPayload-(slot-live) || ncols > len(p)-r.i {
				r.bad = true
				break
			}
			slot += d
			for uint64(len(image)) < slot-1 {
				image = append(image, nil)
			}
			row := make(types.Row, ncols)
			for i := range row {
				row[i] = decodeValue(&r)
			}
			image = append(image, row)
			live++
		}
		if r.bad || r.i != len(p) {
			return nil, nil, cr.corrupt("malformed row frame")
		}
	}
}

// Close checks the header frame was read exactly, reads the end frame,
// checks its counts against what was read, and requires the stream to end
// there.
func (cr *CheckpointReader) Close() error {
	if cr.hdr.bad || cr.hdr.i != len(cr.hdr.b) {
		return fmt.Errorf("%w: checkpoint frame 0: malformed catalog", ErrCorruptWAL)
	}
	p, err := cr.read(cr.buf, ckEnd)
	if err != nil {
		return err
	}
	r := payloadReader{b: p, i: 1}
	tables, rows := r.u32(), r.u64()
	if r.bad || r.i != len(p) || tables != cr.tables || rows != cr.rows {
		return cr.corrupt(fmt.Sprintf("end frame counts %d tables and %d rows, read %d and %d",
			tables, rows, cr.tables, cr.rows))
	}
	var b [1]byte
	if n, _ := io.ReadFull(cr.r, b[:]); n != 0 {
		return cr.corrupt("bytes after the end frame")
	}
	return nil
}
