package wire

import (
	"fmt"

	"grfusion/internal/types"
)

// Message payload encoders/decoders shared by the server and the client.
// Every Append* builds the payload for the correspondingly named Msg*
// kind; every Decode* parses it and rejects trailing or missing bytes
// with ErrBadMessage.

// AppendQuery encodes a MsgQuery payload.
func AppendQuery(dst []byte, query string, timeoutMS int64) []byte {
	dst = AppendUvarint(dst, uint64(timeoutMS))
	return AppendString(dst, query)
}

// DecodeQuery parses a MsgQuery payload.
func DecodeQuery(b []byte) (query string, timeoutMS int64, err error) {
	t, b, err := DecodeUvarint(b)
	if err != nil {
		return "", 0, err
	}
	q, b, err := DecodeString(b)
	if err != nil {
		return "", 0, err
	}
	if len(b) != 0 {
		return "", 0, fmt.Errorf("%w: trailing bytes after query", ErrBadMessage)
	}
	return q, int64(t), nil
}

// AppendExecPrepared encodes a MsgExecPrepared payload.
func AppendExecPrepared(dst []byte, id uint64, timeoutMS int64, params []types.Value) []byte {
	dst = AppendUvarint(dst, id)
	dst = AppendUvarint(dst, uint64(timeoutMS))
	dst = AppendUvarint(dst, uint64(len(params)))
	for _, p := range params {
		dst = AppendValue(dst, p)
	}
	return dst
}

// DecodeExecPrepared parses a MsgExecPrepared payload.
func DecodeExecPrepared(b []byte) (id uint64, timeoutMS int64, params []types.Value, err error) {
	id, b, err = DecodeUvarint(b)
	if err != nil {
		return 0, 0, nil, err
	}
	t, b, err := DecodeUvarint(b)
	if err != nil {
		return 0, 0, nil, err
	}
	n, b, err := DecodeUvarint(b)
	if err != nil {
		return 0, 0, nil, err
	}
	if n > uint64(len(b)) { // each value is at least one byte
		return 0, 0, nil, fmt.Errorf("%w: parameter count %d exceeds payload", ErrBadMessage, n)
	}
	params = make([]types.Value, n)
	for i := range params {
		if params[i], b, err = DecodeValue(b); err != nil {
			return 0, 0, nil, err
		}
	}
	if len(b) != 0 {
		return 0, 0, nil, fmt.Errorf("%w: trailing bytes after parameters", ErrBadMessage)
	}
	return id, int64(t), params, nil
}

// AppendCopyBegin encodes a MsgCopyBegin payload.
func AppendCopyBegin(dst []byte, table string, cols []string, expectRows int) []byte {
	dst = AppendString(dst, table)
	dst = AppendUvarint(dst, uint64(len(cols)))
	for _, c := range cols {
		dst = AppendString(dst, c)
	}
	return AppendUvarint(dst, uint64(expectRows))
}

// DecodeCopyBegin parses a MsgCopyBegin payload.
func DecodeCopyBegin(b []byte) (table string, cols []string, expectRows int, err error) {
	table, b, err = DecodeString(b)
	if err != nil {
		return "", nil, 0, err
	}
	n, b, err := DecodeUvarint(b)
	if err != nil {
		return "", nil, 0, err
	}
	if n > uint64(len(b)) {
		return "", nil, 0, fmt.Errorf("%w: column count %d exceeds payload", ErrBadMessage, n)
	}
	cols = make([]string, n)
	for i := range cols {
		if cols[i], b, err = DecodeString(b); err != nil {
			return "", nil, 0, err
		}
	}
	exp, b, err := DecodeUvarint(b)
	if err != nil {
		return "", nil, 0, err
	}
	if len(b) != 0 {
		return "", nil, 0, fmt.Errorf("%w: trailing bytes after copy begin", ErrBadMessage)
	}
	return table, cols, int(exp), nil
}

// AppendCopyData encodes a MsgCopyData payload: the batch's rows, each
// exactly width values (established by MsgCopyBegin).
func AppendCopyData(dst []byte, rows []types.Row) []byte {
	dst = AppendUvarint(dst, uint64(len(rows)))
	for _, r := range rows {
		for _, v := range r {
			dst = AppendValue(dst, v)
		}
	}
	return dst
}

// DecodeCopyData parses a MsgCopyData payload into width-sized rows. The
// decoded rows alias one backing slab allocation, minimizing per-row GC
// cost on the ingest path; they are handed to the engine as-is.
func DecodeCopyData(b []byte, width int) ([]types.Row, error) {
	n, b, err := DecodeUvarint(b)
	if err != nil {
		return nil, err
	}
	// Each value is at least one byte. Dividing, not multiplying, keeps
	// a hostile count from wrapping past the check.
	if n > 0 && (width < 1 || n > uint64(len(b)/width)) {
		return nil, fmt.Errorf("%w: row count %d exceeds payload", ErrBadMessage, n)
	}
	slab := make([]types.Value, n*uint64(width))
	rows := make([]types.Row, n)
	for i := range slab {
		if slab[i], b, err = DecodeValue(b); err != nil {
			return nil, err
		}
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("%w: trailing bytes after copy data", ErrBadMessage)
	}
	for i := range rows {
		rows[i] = types.Row(slab[i*width : (i+1)*width])
	}
	return rows, nil
}

// Result is the payload of a MsgResult: a statement's columns, rows and
// affected-row count.
type Result = types.Result

// AppendResult encodes a MsgResult payload.
func AppendResult(dst []byte, r *Result) []byte {
	dst = AppendUvarint(dst, uint64(len(r.Columns)))
	for _, c := range r.Columns {
		dst = AppendString(dst, c)
	}
	dst = AppendUvarint(dst, uint64(r.Affected))
	dst = AppendUvarint(dst, uint64(len(r.Rows)))
	for _, row := range r.Rows {
		for _, v := range row {
			dst = AppendValue(dst, v)
		}
	}
	return dst
}

// DecodeResult parses a MsgResult payload.
func DecodeResult(b []byte) (*Result, error) {
	nc, b, err := DecodeUvarint(b)
	if err != nil {
		return nil, err
	}
	if nc > uint64(len(b))+1 {
		return nil, fmt.Errorf("%w: column count %d exceeds payload", ErrBadMessage, nc)
	}
	r := &Result{}
	if nc > 0 {
		r.Columns = make([]string, nc)
		for i := range r.Columns {
			if r.Columns[i], b, err = DecodeString(b); err != nil {
				return nil, err
			}
		}
	}
	aff, b, err := DecodeUvarint(b)
	if err != nil {
		return nil, err
	}
	r.Affected = int(aff)
	nr, b, err := DecodeUvarint(b)
	if err != nil {
		return nil, err
	}
	// A result with rows has columns, and each value is at least one byte.
	if nr > 0 && (nc == 0 || nr > uint64(len(b))/nc) {
		return nil, fmt.Errorf("%w: row count %d exceeds payload", ErrBadMessage, nr)
	}
	if nr > 0 {
		slab := make([]types.Value, nr*nc)
		r.Rows = make([]types.Row, nr)
		for i := range slab {
			if slab[i], b, err = DecodeValue(b); err != nil {
				return nil, err
			}
		}
		for i := range r.Rows {
			r.Rows[i] = types.Row(slab[uint64(i)*nc : (uint64(i)+1)*nc])
		}
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("%w: trailing bytes after result", ErrBadMessage)
	}
	return r, nil
}

// Error flag bits carried by MsgError.
const (
	ErrFlagRetryable = 1 << 0
	ErrFlagDegraded  = 1 << 1
)

// AppendError encodes a MsgError payload.
func AppendError(dst []byte, msg string, retryable, degraded bool) []byte {
	var flags byte
	if retryable {
		flags |= ErrFlagRetryable
	}
	if degraded {
		flags |= ErrFlagDegraded
	}
	dst = append(dst, flags)
	return AppendString(dst, msg)
}

// DecodeError parses a MsgError payload.
func DecodeError(b []byte) (msg string, retryable, degraded bool, err error) {
	if len(b) == 0 {
		return "", false, false, fmt.Errorf("%w: empty error payload", ErrBadMessage)
	}
	flags := b[0]
	if flags&^(ErrFlagRetryable|ErrFlagDegraded) != 0 {
		return "", false, false, fmt.Errorf("%w: unknown error flags 0x%02x", ErrBadMessage, flags)
	}
	msg, rest, err := DecodeString(b[1:])
	if err != nil {
		return "", false, false, err
	}
	if len(rest) != 0 {
		return "", false, false, fmt.Errorf("%w: trailing bytes after error", ErrBadMessage)
	}
	return msg, flags&ErrFlagRetryable != 0, flags&ErrFlagDegraded != 0, nil
}

// Prepared statement kinds carried by MsgPrepared.
const (
	PreparedSelect = 0
	PreparedDML    = 1
)

// AppendPrepared encodes a MsgPrepared payload.
func AppendPrepared(dst []byte, id uint64, kind byte, nparams int, cols []string) []byte {
	dst = AppendUvarint(dst, id)
	dst = append(dst, kind)
	dst = AppendUvarint(dst, uint64(nparams))
	dst = AppendUvarint(dst, uint64(len(cols)))
	for _, c := range cols {
		dst = AppendString(dst, c)
	}
	return dst
}

// DecodePrepared parses a MsgPrepared payload.
func DecodePrepared(b []byte) (id uint64, kind byte, nparams int, cols []string, err error) {
	id, b, err = DecodeUvarint(b)
	if err != nil {
		return 0, 0, 0, nil, err
	}
	if len(b) == 0 {
		return 0, 0, 0, nil, fmt.Errorf("%w: truncated prepared reply", ErrBadMessage)
	}
	kind, b = b[0], b[1:]
	np, b, err := DecodeUvarint(b)
	if err != nil {
		return 0, 0, 0, nil, err
	}
	nc, b, err := DecodeUvarint(b)
	if err != nil {
		return 0, 0, 0, nil, err
	}
	if nc > uint64(len(b))+1 {
		return 0, 0, 0, nil, fmt.Errorf("%w: column count %d exceeds payload", ErrBadMessage, nc)
	}
	cols = make([]string, nc)
	for i := range cols {
		if cols[i], b, err = DecodeString(b); err != nil {
			return 0, 0, 0, nil, err
		}
	}
	if len(b) != 0 {
		return 0, 0, 0, nil, fmt.Errorf("%w: trailing bytes after prepared reply", ErrBadMessage)
	}
	return id, kind, int(np), cols, nil
}
