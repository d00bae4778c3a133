// Package wal implements the engine's write-ahead log: an append-only,
// length-prefixed, CRC32-checksummed record log of logical statements
// (DML/DDL as SQL text plus bound parameters), the fsync policies that
// govern its durability/latency trade-off, and the checkpoint file written
// in the same framing through the atomic-rename file protocol.
//
// The log is *logical*: it records statements, not tuples. Replay is
// deterministic because the engine's slot allocator is deterministic (a
// LIFO free list), and every record pins the target table's pre-apply
// allocation state so recovery can detect divergence instead of silently
// rebuilding a different database. Graph views are never logged — they are
// derived state, rebuilt from the recovered relations (§3.3).
//
// Log layout:
//
//	file   = header frame*
//	header = "GRWAL" 0x00 version(u16 LE)             (8 bytes)
//	frame  = length(u32 LE) crc32(u32 LE) payload     (crc is IEEE, over payload)
//
// A reader accepts the longest prefix of structurally valid frames and
// treats everything after the first bad length/checksum/short read as a
// torn tail from a crash mid-append; recovery truncates the file there. A
// file whose header is unreadable is not a WAL at all and surfaces as
// ErrCorruptWAL.
//
// Checkpoint layout (the same frames; the first payload byte is the kind):
//
//	file   = header meta (rows* free)* end
//	header = "GRCKP" 0x00 version(u16 LE)                  (8 bytes)
//	meta   = 1 lsn(u64 LE) catalog
//	rows   = 2 table(u32 LE) count(u32 LE) (slotdelta(uvarint) value*)*
//	free   = 3 table(u32 LE) count(uvarint) slot(uvarint)*
//	end    = 4 tables(u32 LE) rows(u64 LE)
//	value  = kind(u8) bytes                                 (appendValue)
//
// catalog is the engine's schema as Fields (uvarints and length-prefixed
// strings, written by core.Snapshot): each table's name, columns, primary
// key and indexes, then the materialized-view definitions, then the graph
// views. Each table's section lists its live tuples in slot order, a slot
// as the delta from the previous one, in row frames the writer closes
// once they hold chunkBytes; its free frame carries the LIFO free list and
// closes the section. A checkpoint is read strictly: a bad header, a short
// or bad-checksum frame, a frame out of order, counts that disagree with
// the end frame, a missing end frame or bytes after it are all
// ErrCorruptWAL naming the frame (the header frame is frame 0). A
// checkpoint is replaced atomically, so it has no torn tail to forgive.
package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"grfusion/internal/types"
)

// ErrCorruptWAL reports a log or checkpoint file that cannot be used at
// all: a bad or truncated header, or a record whose CRC-valid payload is
// internally inconsistent. A log's torn tail is NOT this error — it is the
// expected crash artifact and is handled by truncating to the last valid
// frame; a checkpoint is replaced atomically, so any bad frame in it is.
var ErrCorruptWAL = errors.New("wal: corrupt log")

// Header and frame constants (pinned by TestFrameFormatGolden).
const (
	// Magic is the 8-byte file header: "GRWAL", a zero byte, and the
	// format version as a little-endian uint16.
	magic         = "GRWAL\x00"
	formatVersion = 1
	HeaderSize    = 8
	frameOverhead = 8 // u32 length + u32 crc
	// maxPayload bounds a single frame; anything larger in a length prefix
	// is treated as corruption, not an allocation request.
	maxPayload = 1 << 28 // 256 MiB
)

// Record kinds.
const (
	recStatement = 1
)

// Record flag bits.
const (
	flagAllocPin = 1 << 0
	flagParams   = 1 << 1
)

// Record is one logical statement: the SQL text, optional bound
// parameters (for prepared DML), and an optional allocation pin — the
// target table's next fresh slot and free-list depth observed before the
// statement applied. Replay re-checks the pin; a mismatch means the log
// and checkpoint do not describe the same history.
type Record struct {
	LSN uint64
	// SQL is the statement text exactly as the client issued it.
	SQL string
	// Params are the bound values of a prepared DML execution (nil for
	// ad-hoc statements).
	Params []types.Value
	// Table, NextSlot and FreeDepth pin the deterministic row-id
	// allocation state of the DML target before the statement applied.
	// Table is empty when the statement has no resolvable target (DDL, or
	// a statement that failed name resolution).
	Table     string
	NextSlot  uint64
	FreeDepth uint32
}

// appendHeader appends the 8-byte file header.
func appendHeader(b []byte) []byte {
	b = append(b, magic...)
	return binary.LittleEndian.AppendUint16(b, formatVersion)
}

// checkHeader validates the 8-byte file header.
func checkHeader(h []byte) error {
	if len(h) < HeaderSize || string(h[:len(magic)]) != magic {
		return fmt.Errorf("%w: bad file header", ErrCorruptWAL)
	}
	if v := binary.LittleEndian.Uint16(h[len(magic):HeaderSize]); v != formatVersion {
		return fmt.Errorf("%w: unsupported format version %d", ErrCorruptWAL, v)
	}
	return nil
}

// encodeRecord appends rec as payload bytes (no frame wrapper).
func encodeRecord(b []byte, rec *Record) []byte {
	b = append(b, recStatement)
	b = binary.LittleEndian.AppendUint64(b, rec.LSN)
	var flags byte
	if rec.Table != "" {
		flags |= flagAllocPin
	}
	if rec.Params != nil {
		flags |= flagParams
	}
	b = append(b, flags)
	if flags&flagAllocPin != 0 {
		b = binary.LittleEndian.AppendUint16(b, uint16(len(rec.Table)))
		b = append(b, rec.Table...)
		b = binary.LittleEndian.AppendUint64(b, rec.NextSlot)
		b = binary.LittleEndian.AppendUint32(b, rec.FreeDepth)
	}
	b = binary.LittleEndian.AppendUint32(b, uint32(len(rec.SQL)))
	b = append(b, rec.SQL...)
	if flags&flagParams != 0 {
		b = binary.LittleEndian.AppendUint16(b, uint16(len(rec.Params)))
		for _, v := range rec.Params {
			b = appendValue(b, v)
		}
	}
	return b
}

// appendValue appends one bound parameter value, kind-tagged.
func appendValue(b []byte, v types.Value) []byte {
	b = append(b, uint8(v.Kind))
	switch v.Kind {
	case types.KindBool:
		if v.B {
			return append(b, 1)
		}
		return append(b, 0)
	case types.KindInt:
		return binary.LittleEndian.AppendUint64(b, uint64(v.I))
	case types.KindFloat:
		return binary.LittleEndian.AppendUint64(b, math.Float64bits(v.F))
	case types.KindString:
		b = binary.LittleEndian.AppendUint32(b, uint32(len(v.S)))
		return append(b, v.S...)
	default: // NULL (graph-element kinds never appear as DML parameters)
		return b
	}
}

// payloadReader decodes record payloads with bounds checking; any overrun
// flags the payload as corrupt.
type payloadReader struct {
	b   []byte
	i   int
	bad bool
}

func (r *payloadReader) u8() byte {
	if r.i+1 > len(r.b) {
		r.bad = true
		return 0
	}
	v := r.b[r.i]
	r.i++
	return v
}

func (r *payloadReader) u16() uint16 {
	if r.i+2 > len(r.b) {
		r.bad = true
		return 0
	}
	v := binary.LittleEndian.Uint16(r.b[r.i:])
	r.i += 2
	return v
}

func (r *payloadReader) u32() uint32 {
	if r.i+4 > len(r.b) {
		r.bad = true
		return 0
	}
	v := binary.LittleEndian.Uint32(r.b[r.i:])
	r.i += 4
	return v
}

func (r *payloadReader) u64() uint64 {
	if r.i+8 > len(r.b) {
		r.bad = true
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b[r.i:])
	r.i += 8
	return v
}

func (r *payloadReader) uvarint() uint64 {
	v, n := binary.Uvarint(r.b[r.i:])
	if n <= 0 {
		r.bad = true
		return 0
	}
	r.i += n
	return v
}

// count reads a uvarint list length whose every item takes at least one
// byte: a length above the bytes left is corruption, not an allocation.
func (r *payloadReader) count() int {
	n := r.uvarint()
	if n > uint64(len(r.b)-r.i) {
		r.bad = true
		return 0
	}
	return int(n)
}

func (r *payloadReader) str(n int) string {
	if n < 0 || r.i+n > len(r.b) {
		r.bad = true
		return ""
	}
	s := string(r.b[r.i : r.i+n])
	r.i += n
	return s
}

// decodeRecord parses one CRC-valid payload. A payload that fails to
// decode is corruption the checksum did not protect against (or a frame
// written by a future format) and yields ErrCorruptWAL.
func decodeRecord(payload []byte) (*Record, error) {
	r := &payloadReader{b: payload}
	if kind := r.u8(); kind != recStatement {
		return nil, fmt.Errorf("%w: unknown record kind %d", ErrCorruptWAL, kind)
	}
	rec := &Record{LSN: r.u64()}
	flags := r.u8()
	if flags&flagAllocPin != 0 {
		rec.Table = r.str(int(r.u16()))
		rec.NextSlot = r.u64()
		rec.FreeDepth = r.u32()
	}
	rec.SQL = r.str(int(r.u32()))
	if flags&flagParams != 0 {
		n := int(r.u16())
		rec.Params = make([]types.Value, 0, min(n, 64))
		for j := 0; j < n && !r.bad; j++ {
			rec.Params = append(rec.Params, decodeValue(r))
		}
	}
	if r.bad || r.i != len(payload) {
		return nil, fmt.Errorf("%w: malformed record payload", ErrCorruptWAL)
	}
	return rec, nil
}

func decodeValue(r *payloadReader) types.Value {
	switch types.Kind(r.u8()) {
	case types.KindBool:
		return types.Value{Kind: types.KindBool, B: r.u8() != 0}
	case types.KindInt:
		return types.Value{Kind: types.KindInt, I: int64(r.u64())}
	case types.KindFloat:
		return types.Value{Kind: types.KindFloat, F: math.Float64frombits(r.u64())}
	case types.KindString:
		return types.Value{Kind: types.KindString, S: r.str(int(r.u32()))}
	case types.KindNull:
		return types.Value{}
	default:
		r.bad = true
		return types.Value{}
	}
}

// AppendFrame appends rec to b as a complete frame (length, CRC,
// payload) and returns the extended slice.
func AppendFrame(b []byte, rec *Record) []byte {
	start := len(b)
	b = append(b, 0, 0, 0, 0, 0, 0, 0, 0) // frame header placeholder
	b = encodeRecord(b, rec)
	sealFrame(b, start)
	return b
}

// sealFrame fills in the length and checksum of the frame that starts at
// b[start] and runs to the end of b.
func sealFrame(b []byte, start int) {
	payload := b[start+frameOverhead:]
	binary.LittleEndian.PutUint32(b[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(b[start+4:], crc32.ChecksumIEEE(payload))
}

// readFrame reads the next frame of r into buf (reused when it has room)
// and returns its payload. At a clean end of the stream it returns io.EOF;
// a frame cut short, claiming more than maxPayload bytes or failing its
// checksum is an error saying which. The payload buffer grows with the
// bytes that actually arrive, so a corrupt length prefix cannot allocate
// more than the stream holds.
func readFrame(r io.Reader, buf []byte) ([]byte, error) {
	var fh [frameOverhead]byte
	if _, err := io.ReadFull(r, fh[:]); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, errors.New("short frame header")
	}
	length := binary.LittleEndian.Uint32(fh[:4])
	if length > maxPayload {
		return nil, fmt.Errorf("frame length %d exceeds limit", length)
	}
	b := bytes.NewBuffer(buf[:0])
	if n, _ := io.CopyN(b, r, int64(length)); n != int64(length) {
		return nil, errors.New("short frame payload")
	}
	payload := b.Bytes()
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(fh[4:]) {
		return nil, errors.New("frame checksum mismatch")
	}
	return payload, nil
}

// ScanResult is the outcome of reading a log file.
type ScanResult struct {
	// Records is the longest valid record prefix, in append order.
	Records []*Record
	// ValidBytes is the file offset just past the last valid frame
	// (including the header). Everything after it is a torn tail.
	ValidBytes int64
	// Torn reports that bytes after ValidBytes were unreadable and should
	// be truncated away.
	Torn bool
	// TornReason says what ended the scan when Torn is set.
	TornReason string
}

// Scan reads a WAL byte stream and returns its valid record prefix.
// It returns ErrCorruptWAL only when the file cannot be a WAL at all (bad
// header) or a CRC-valid frame carries a malformed payload; a torn or
// bit-flipped tail is reported through the ScanResult instead.
func Scan(r io.Reader) (*ScanResult, error) {
	var hdr [HeaderSize]byte
	if n, err := io.ReadFull(r, hdr[:]); err != nil {
		full := appendHeader(nil)
		if n == 0 || string(hdr[:n]) == string(full[:n]) {
			// Zero-length file, or a header torn mid-write at creation:
			// treat as an empty log.
			return &ScanResult{ValidBytes: 0, Torn: n > 0, TornReason: "short file header"}, nil
		}
		return nil, fmt.Errorf("%w: short file header", ErrCorruptWAL)
	}
	if err := checkHeader(hdr[:]); err != nil {
		return nil, err
	}
	res := &ScanResult{ValidBytes: HeaderSize}
	var buf []byte
	var lastLSN uint64
	for {
		payload, err := readFrame(r, buf)
		if err == io.EOF {
			return res, nil
		}
		if err != nil {
			res.Torn, res.TornReason = true, err.Error()
			return res, nil
		}
		buf = payload
		rec, err := decodeRecord(payload)
		if err != nil {
			// The checksum matched but the payload is nonsense: this was
			// written corrupt (or by a future version), not torn.
			return nil, err
		}
		if rec.LSN <= lastLSN {
			return nil, fmt.Errorf("%w: LSN %d not monotonic after %d", ErrCorruptWAL, rec.LSN, lastLSN)
		}
		lastLSN = rec.LSN
		res.Records = append(res.Records, rec)
		res.ValidBytes += int64(frameOverhead) + int64(len(payload))
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
