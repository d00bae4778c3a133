package wire

import (
	"encoding/binary"
	"fmt"
	"math"

	"grfusion/internal/types"
)

// Typed value encoding. One tag byte selects the representation:
// BIGINTs travel as zigzag varints (point-query results are mostly small
// ids), DOUBLEs as 8 fixed bytes, strings length-prefixed. Graph values
// (vertices, edges, paths) are rendered to their display string at the
// server — the relational surface is the protocol, graph elements cross
// the wire as text.
const (
	tagNull  = 0
	tagFalse = 1
	tagTrue  = 2
	tagInt   = 3
	tagFloat = 4
	tagStr   = 5
)

// zigzag maps signed to unsigned so small negative ints stay short.
func zigzag(i int64) uint64   { return uint64(i<<1) ^ uint64(i>>63) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// AppendValue appends one encoded value.
func AppendValue(dst []byte, v types.Value) []byte {
	switch v.Kind {
	case types.KindNull:
		return append(dst, tagNull)
	case types.KindBool:
		if v.B {
			return append(dst, tagTrue)
		}
		return append(dst, tagFalse)
	case types.KindInt:
		dst = append(dst, tagInt)
		return binary.AppendUvarint(dst, zigzag(v.I))
	case types.KindFloat:
		dst = append(dst, tagFloat)
		return binary.BigEndian.AppendUint64(dst, math.Float64bits(v.F))
	case types.KindString:
		return AppendString(append(dst, tagStr), v.S)
	default:
		// Graph values: rendered text.
		return AppendString(append(dst, tagStr), v.String())
	}
}

// DecodeValue decodes one value, returning the remaining bytes.
func DecodeValue(b []byte) (types.Value, []byte, error) {
	if len(b) == 0 {
		return types.Value{}, nil, fmt.Errorf("%w: truncated value", ErrBadMessage)
	}
	tag, b := b[0], b[1:]
	switch tag {
	case tagNull:
		return types.Null(), b, nil
	case tagFalse:
		return types.NewBool(false), b, nil
	case tagTrue:
		return types.NewBool(true), b, nil
	case tagInt:
		u, rest, err := DecodeUvarint(b)
		if err != nil {
			return types.Value{}, nil, err
		}
		return types.NewInt(unzigzag(u)), rest, nil
	case tagFloat:
		if len(b) < 8 {
			return types.Value{}, nil, fmt.Errorf("%w: truncated float", ErrBadMessage)
		}
		return types.NewFloat(math.Float64frombits(binary.BigEndian.Uint64(b))), b[8:], nil
	case tagStr:
		s, rest, err := DecodeString(b)
		if err != nil {
			return types.Value{}, nil, err
		}
		return types.NewString(s), rest, nil
	default:
		return types.Value{}, nil, fmt.Errorf("%w: unknown value tag %d", ErrBadMessage, tag)
	}
}

// AppendString appends a uvarint-length-prefixed string.
func AppendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// DecodeString decodes a length-prefixed string, returning the rest.
func DecodeString(b []byte) (string, []byte, error) {
	n, rest, err := DecodeUvarint(b)
	if err != nil {
		return "", nil, err
	}
	if uint64(len(rest)) < n {
		return "", nil, fmt.Errorf("%w: truncated string", ErrBadMessage)
	}
	return string(rest[:n]), rest[n:], nil
}

// AppendUvarint re-exports varint appending for message encoders.
func AppendUvarint(dst []byte, u uint64) []byte { return binary.AppendUvarint(dst, u) }

// DecodeUvarint decodes one uvarint, returning the rest. It accepts only
// the shortest encoding (no trailing zero group), so every payload that
// decodes has exactly one encoding.
func DecodeUvarint(b []byte) (uint64, []byte, error) {
	u, n := binary.Uvarint(b)
	if n <= 0 || (n > 1 && b[n-1] == 0) {
		return 0, nil, fmt.Errorf("%w: bad varint", ErrBadMessage)
	}
	return u, b[n:], nil
}
