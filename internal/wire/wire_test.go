package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"runtime"
	"strings"
	"testing"

	"grfusion/internal/types"
)

func frameRoundTrip(t *testing.T, kind byte, payload []byte) (byte, []byte) {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteFrame(&buf, kind, payload); err != nil {
		t.Fatal(err)
	}
	k, p, err := ReadFrame(bufio.NewReader(&buf))
	if err != nil {
		t.Fatal(err)
	}
	return k, p
}

func TestFrameRoundTrip(t *testing.T) {
	// A body (kind, payload, CRC) longer than frameStep is read in
	// frameStep chunks: the patterned payloads put the body's end just
	// inside, on and just past a chunk boundary, and span several chunks.
	patterned := func(n int) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(i*7 + i/251)
		}
		return b
	}
	for _, payload := range [][]byte{nil, {}, []byte("x"), bytes.Repeat([]byte{0xAB}, 70000),
		patterned(frameStep - 5), patterned(frameStep - 4), patterned(2*frameStep - 5), patterned(3*frameStep + 17)} {
		k, p := frameRoundTrip(t, MsgQuery, payload)
		if k != MsgQuery || !bytes.Equal(p, payload) {
			t.Fatalf("round trip lost data: kind=%d len=%d want len=%d", k, len(p), len(payload))
		}
	}
}

func TestFrameStartsWithZeroByte(t *testing.T) {
	// Every frame under the cap starts 0x00, never the 'G' of a hello: a
	// client that skips the hello and sends a frame is rejected at its
	// first byte.
	b := AppendFrame(nil, MsgResult, bytes.Repeat([]byte{1}, 1000))
	if b[0] != 0 {
		t.Fatalf("frame starts 0x%02x, want 0x00", b[0])
	}
	if _, err := ReadHello(bufio.NewReader(bytes.NewReader(b))); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("frame read as a hello: %v", err)
	}
}

func TestFrameCorruption(t *testing.T) {
	base := AppendFrame(nil, MsgQuery, []byte("SELECT 1"))
	// Flip every single byte position after the header: each must surface
	// as ErrBadCRC (payload/kind/crc corruption), never as silent success.
	for i := 4; i < len(base); i++ {
		mut := append([]byte(nil), base...)
		mut[i] ^= 0x40
		_, _, err := ReadFrame(bufio.NewReader(bytes.NewReader(mut)))
		if !errors.Is(err, ErrBadCRC) {
			t.Fatalf("flip at %d: got %v, want ErrBadCRC", i, err)
		}
	}
}

func TestFrameTruncation(t *testing.T) {
	full := AppendFrame(nil, MsgQuery, []byte("SELECT * FROM t"))
	for cut := 1; cut < len(full); cut++ {
		_, _, err := ReadFrame(bufio.NewReader(bytes.NewReader(full[:cut])))
		if err == nil {
			t.Fatalf("truncation at %d read a frame", cut)
		}
		if cut >= 4 && !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("truncation at %d: got %v, want ErrUnexpectedEOF", cut, err)
		}
	}
}

// TestFrameHeaderAllocatesAsBodyArrives: a header that declares a frame
// near the size cap, followed by ten body bytes and the end of the
// stream, allocates one bounded step rather than the declared length, and
// fails as a truncation.
func TestFrameHeaderAllocatesAsBodyArrives(t *testing.T) {
	in := binary.BigEndian.AppendUint32(nil, MaxFrameBytes-1)
	in = append(in, MsgQuery, 1, 2, 3, 4, 5, 6, 7, 8, 9)
	if len(in) != 14 {
		t.Fatalf("input holds %d bytes, want 14", len(in))
	}
	r := bufio.NewReader(bytes.NewReader(in))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err := ReadFrame(r)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("got %v, want io.ErrUnexpectedEOF", err)
	}
	if n := after.TotalAlloc - before.TotalAlloc; n > 128<<10 {
		t.Fatalf("reading a stalled %d-byte frame allocated %d bytes, want <= %d", MaxFrameBytes-1, n, 128<<10)
	}
}

func TestFrameTooLargeKeepsStreamSynchronized(t *testing.T) {
	var buf bytes.Buffer
	// An oversized frame (header only, then its declared body), followed
	// by a healthy frame.
	huge := MaxFrameBytes + 100
	hdr := binary.BigEndian.AppendUint32(nil, uint32(huge))
	buf.Write(hdr)
	buf.Write(make([]byte, huge+4)) // body + CRC, content irrelevant
	if err := WriteFrame(&buf, MsgCommand, []byte("after")); err != nil {
		t.Fatal(err)
	}
	r := bufio.NewReader(&buf)
	_, _, err := ReadFrame(r)
	var tooBig *FrameTooLargeError
	if !errors.As(err, &tooBig) || !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("got %v, want FrameTooLargeError", err)
	}
	if err := DiscardFrame(r, tooBig.Len); err != nil {
		t.Fatal(err)
	}
	k, p, err := ReadFrame(r)
	if err != nil || k != MsgCommand || string(p) != "after" {
		t.Fatalf("stream desynchronized after discard: %d %q %v", k, p, err)
	}
}

func TestHello(t *testing.T) {
	h := Hello()
	if len(h) != HelloLen || h[HelloLen-1] != '\n' {
		t.Fatalf("hello %q must be %d bytes ending in newline", h, HelloLen)
	}
	v, err := ReadHello(bufio.NewReader(bytes.NewReader(h)))
	if err != nil || v != ProtoVersion {
		t.Fatalf("ReadHello = %d, %v", v, err)
	}
	// Garbage after a 'G' first byte must be ErrBadMagic.
	if _, err := ReadHello(bufio.NewReader(strings.NewReader("GRABGE\n"))); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("garbage hello: %v", err)
	}
	// A JSON request line is rejected at its first byte: the reader must
	// not wait for the rest of a hello that will never come.
	if _, err := ReadHello(bufio.NewReader(strings.NewReader("{"))); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("JSON-lines peer: %v", err)
	}
	// Mid-handshake disconnect must be ErrUnexpectedEOF.
	if _, err := ReadHello(bufio.NewReader(strings.NewReader("GRW"))); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("short hello: %v", err)
	}
}

func TestValueRoundTrip(t *testing.T) {
	vals := []types.Value{
		types.Null(),
		types.NewBool(true),
		types.NewBool(false),
		types.NewInt(0),
		types.NewInt(1),
		types.NewInt(-1),
		types.NewInt(math.MaxInt64),
		types.NewInt(math.MinInt64),
		types.NewFloat(0),
		types.NewFloat(-3.25),
		types.NewFloat(math.Inf(1)),
		types.NewString(""),
		types.NewString("hello"),
		types.NewString(strings.Repeat("é", 300)),
	}
	var b []byte
	for _, v := range vals {
		b = AppendValue(b, v)
	}
	for _, want := range vals {
		var got types.Value
		var err error
		got, b, err = DecodeValue(b)
		if err != nil {
			t.Fatal(err)
		}
		if got.Kind != want.Kind || got.I != want.I || got.B != want.B || got.S != want.S ||
			(got.F != want.F && !(math.IsNaN(got.F) && math.IsNaN(want.F))) {
			t.Fatalf("value round trip: got %#v want %#v", got, want)
		}
	}
	if len(b) != 0 {
		t.Fatalf("%d trailing bytes", len(b))
	}
}

func TestValueDecodeErrors(t *testing.T) {
	cases := [][]byte{
		{},               // empty
		{9},              // unknown tag
		{tagInt},         // missing varint
		{tagFloat, 1},    // short float
		{tagStr, 5, 'a'}, // short string
	}
	for _, c := range cases {
		if _, _, err := DecodeValue(c); !errors.Is(err, ErrBadMessage) {
			t.Fatalf("DecodeValue(%v) err = %v, want ErrBadMessage", c, err)
		}
	}
}

func TestMessageRoundTrips(t *testing.T) {
	q, tm, err := DecodeQuery(AppendQuery(nil, "SELECT 1", 250))
	if err != nil || q != "SELECT 1" || tm != 250 {
		t.Fatalf("query: %q %d %v", q, tm, err)
	}

	id, tm, params, err := DecodeExecPrepared(AppendExecPrepared(nil, 7, 9,
		[]types.Value{types.NewInt(42), types.NewString("x")}))
	if err != nil || id != 7 || tm != 9 || len(params) != 2 || params[0].I != 42 || params[1].S != "x" {
		t.Fatalf("exec prepared: %d %d %v %v", id, tm, params, err)
	}

	table, cols, exp, err := DecodeCopyBegin(AppendCopyBegin(nil, "edges", []string{"a", "b"}, 1000))
	if err != nil || table != "edges" || len(cols) != 2 || cols[1] != "b" || exp != 1000 {
		t.Fatalf("copy begin: %q %v %d %v", table, cols, exp, err)
	}

	rows := []types.Row{
		{types.NewInt(1), types.NewString("a")},
		{types.NewInt(2), types.Null()},
	}
	got, err := DecodeCopyData(AppendCopyData(nil, rows), 2)
	if err != nil || len(got) != 2 || got[0][1].S != "a" || got[1][1].Kind != types.KindNull {
		t.Fatalf("copy data: %v %v", got, err)
	}

	res := &Result{Columns: []string{"c1", "c2"}, Affected: 3, Rows: rows}
	back, err := DecodeResult(AppendResult(nil, res))
	if err != nil || back.Affected != 3 || len(back.Rows) != 2 ||
		back.Columns[1] != "c2" || back.Rows[1][0].I != 2 {
		t.Fatalf("result: %+v %v", back, err)
	}
	empty, err := DecodeResult(AppendResult(nil, &Result{}))
	if err != nil || len(empty.Rows) != 0 || len(empty.Columns) != 0 {
		t.Fatalf("empty result: %+v %v", empty, err)
	}

	msg, retry, degr, err := DecodeError(AppendError(nil, "boom", true, false))
	if err != nil || msg != "boom" || !retry || degr {
		t.Fatalf("error: %q %v %v %v", msg, retry, degr, err)
	}

	pid, kind, np, pcols, err := DecodePrepared(AppendPrepared(nil, 3, PreparedSelect, 2, []string{"x"}))
	if err != nil || pid != 3 || kind != PreparedSelect || np != 2 || len(pcols) != 1 {
		t.Fatalf("prepared: %d %d %d %v %v", pid, kind, np, pcols, err)
	}
}

// reencode decodes payload as a frame of the given kind (a MsgCopyData
// of rows width values wide) and encodes the result again. A kind with no
// payload comes back unchanged.
func reencode(kind byte, width int, b []byte) ([]byte, error) {
	var err error
	var out []byte
	switch kind {
	case MsgQuery:
		var q string
		var tm int64
		q, tm, err = DecodeQuery(b)
		out = AppendQuery(nil, q, tm)
	case MsgCommand, MsgPrepare:
		var str string
		var rest []byte
		if str, rest, err = DecodeString(b); err == nil && len(rest) != 0 {
			err = ErrBadMessage
		}
		out = AppendString(nil, str)
	case MsgClosePrepared:
		var id uint64
		var rest []byte
		if id, rest, err = DecodeUvarint(b); err == nil && len(rest) != 0 {
			err = ErrBadMessage
		}
		out = AppendUvarint(nil, id)
	case MsgExecPrepared:
		var id uint64
		var tm int64
		var params []types.Value
		id, tm, params, err = DecodeExecPrepared(b)
		out = AppendExecPrepared(nil, id, tm, params)
	case MsgCopyBegin:
		var table string
		var cols []string
		var exp int
		table, cols, exp, err = DecodeCopyBegin(b)
		out = AppendCopyBegin(nil, table, cols, exp)
	case MsgCopyData:
		var rows []types.Row
		rows, err = DecodeCopyData(b, width)
		out = AppendCopyData(nil, rows)
	case MsgResult:
		var r *Result
		if r, err = DecodeResult(b); err == nil {
			out = AppendResult(nil, r)
		}
	case MsgError:
		var msg string
		var retry, degr bool
		msg, retry, degr, err = DecodeError(b)
		out = AppendError(nil, msg, retry, degr)
	case MsgPrepared:
		var id uint64
		var pkind byte
		var np int
		var cols []string
		id, pkind, np, cols, err = DecodePrepared(b)
		out = AppendPrepared(nil, id, pkind, np, cols)
	default:
		out = b
	}
	if err != nil {
		return nil, err
	}
	return out, nil
}

type message struct {
	kind    byte
	payload []byte
}

// validMessages holds one well-formed payload of every kind that has one;
// a MsgCopyData is two values wide.
func validMessages() map[string]message {
	rows := []types.Row{{types.NewInt(1), types.NewString("abc")}, {types.NewInt(-2), types.Null()}}
	return map[string]message{
		"query":   {MsgQuery, AppendQuery(nil, "SELECT 1", 5)},
		"command": {MsgCommand, AppendString(nil, "metrics")},
		"close":   {MsgClosePrepared, AppendUvarint(nil, 300)},
		"exec":    {MsgExecPrepared, AppendExecPrepared(nil, 1, 0, []types.Value{types.NewFloat(1.5), types.NewBool(true)})},
		"begin":   {MsgCopyBegin, AppendCopyBegin(nil, "t", []string{"a"}, 10)},
		"data":    {MsgCopyData, AppendCopyData(nil, rows)},
		"result":  {MsgResult, AppendResult(nil, &Result{Columns: []string{"a", "b"}, Affected: 3, Rows: rows})},
		"error":   {MsgError, AppendError(nil, "msg", false, true)},
		"prep":    {MsgPrepared, AppendPrepared(nil, 1, PreparedDML, 0, nil)},
	}
}

// hostileMessages holds payloads whose counts promise more values than
// the payload carries: a row count times a width wraps past 2^64 to a
// small number, and rows are claimed for a result with no columns. Each
// MsgCopyData is four values wide.
func hostileMessages() map[string]message {
	huge := uint64(1)<<62 + 1 // times 4 wraps to 4
	four := []byte{tagNull, tagNull, tagNull, tagNull}
	cols := []byte{4}
	for _, c := range []string{"a", "b", "c", "d"} {
		cols = AppendString(cols, c)
	}
	return map[string]message{
		"data rows*width wraps":     {MsgCopyData, append(AppendUvarint(nil, huge), four...)},
		"result rows*cols wraps":    {MsgResult, append(AppendUvarint(AppendUvarint(cols, 0), huge), four...)},
		"result rows without cols":  {MsgResult, AppendUvarint([]byte{0, 0}, 1000)},
		"result 2^62 rows, no cols": {MsgResult, AppendUvarint([]byte{0, 0}, 1<<62)},
		"overlong varint":           {MsgClosePrepared, []byte{0x81, 0x00}},
		"unknown error flag":        {MsgError, AppendString([]byte{4}, "x")},
	}
}

// TestMessageDecodersRejectTruncations feeds truncations of every valid
// payload, and payloads with hostile counts, into their decoders: none
// may panic and each must error (a hostile peer cannot crash the server).
func TestMessageDecodersRejectTruncations(t *testing.T) {
	for name, m := range validMessages() {
		if _, err := reencode(m.kind, 2, m.payload); err != nil {
			t.Fatalf("%s: valid payload rejected: %v", name, err)
		}
		for cut := 0; cut < len(m.payload); cut++ {
			if _, err := reencode(m.kind, 2, m.payload[:cut]); err == nil {
				t.Fatalf("%s: truncation at %d decoded successfully", name, cut)
			}
		}
	}
	for name, m := range hostileMessages() {
		if _, err := reencode(m.kind, 4, m.payload); !errors.Is(err, ErrBadMessage) {
			t.Fatalf("%s: err = %v, want ErrBadMessage", name, err)
		}
	}
}
