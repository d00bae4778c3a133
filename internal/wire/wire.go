// Package wire implements GRFusion's binary framed wire protocol: the
// typed, length-prefixed encoding every connection between the server and
// a client speaks after the hello exchange.
//
// Framing reuses the discipline of the write-ahead log (internal/wal):
// every message is one self-checking frame
//
//	frame = length(u32 BE) kind(u8) payload crc32(u32 BE)
//
// where length counts the kind byte plus the payload, and the IEEE CRC
// covers the kind byte plus the payload.
//
// The handshake: a client opens with the 6-byte hello "GRWB"
// ProtoVersion '\n' and the server answers with a MsgHello frame carrying
// its own version. A server reads the hello byte by byte and rejects a
// peer at the first byte that breaks the magic, so a client that speaks
// anything else is diagnosed without waiting for more input.
package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// ProtoVersion is the wire protocol version carried in the hello
// exchange. A server answers with its own version; the client fails the
// dial if the server's version is newer than it understands.
const ProtoVersion = 1

// Magic is the first four bytes of a binary client's hello.
const Magic = "GRWB"

// HelloLen is the length of the client hello: Magic, version, newline.
const HelloLen = 6

// Hello returns the client hello bytes.
func Hello() []byte { return []byte{'G', 'R', 'W', 'B', ProtoVersion, '\n'} }

// MaxFrameBytes caps one frame's length field (kind byte + payload).
const MaxFrameBytes = 16 << 20

// Message kinds. Client→server kinds are low, server→client kinds start
// at 0x10; the split is documentation, not protocol (each side only ever
// decodes the kinds it expects).
const (
	// MsgHello is the server's handshake ack; payload: version(u8).
	MsgHello = 0x01
	// MsgQuery executes one SQL statement; payload: timeout_ms(uvarint)
	// query(string).
	MsgQuery = 0x02
	// MsgCommand runs a protocol command (metrics, health); payload:
	// cmd(string).
	MsgCommand = 0x03
	// MsgPrepare compiles a statement server-side; payload: sql(string).
	// Answered by MsgPrepared.
	MsgPrepare = 0x04
	// MsgExecPrepared executes a prepared statement by id; payload:
	// id(uvarint) timeout_ms(uvarint) nparams(uvarint) params(values).
	MsgExecPrepared = 0x05
	// MsgClosePrepared frees a prepared statement; payload: id(uvarint).
	// Answered by an empty MsgResult.
	MsgClosePrepared = 0x06
	// MsgCopyBegin opens a COPY-style bulk load; payload: table(string)
	// ncols(uvarint) cols(strings) expect_rows(uvarint). Answered by an
	// empty MsgResult; the client then streams MsgCopyData.
	MsgCopyBegin = 0x07
	// MsgCopyData carries one row batch; payload: nrows(uvarint) then
	// nrows*width values (width fixed by MsgCopyBegin). Not answered —
	// the stream is pipelined; a failed batch is reported by MsgCopyEnd's
	// response, which also carries how many rows had been applied.
	MsgCopyData = 0x08
	// MsgCopyEnd closes the load; payload empty. Answered by MsgResult
	// (affected = rows applied) or MsgError.
	MsgCopyEnd = 0x09

	// MsgResult is a successful statement outcome; payload: a result (see
	// AppendResult).
	MsgResult = 0x10
	// MsgError is a failed statement; payload: flags(u8: 1 retryable, 2
	// degraded) msg(string).
	MsgError = 0x11
	// MsgPrepared answers MsgPrepare; payload: id(uvarint) kind(u8: 0
	// select, 1 DML) nparams(uvarint) ncols(uvarint) cols(strings).
	MsgPrepared = 0x12
)

// Typed framing errors. ErrFrameTooLarge is returned by ReadFrame with
// the oversized frame's length available via FrameTooLargeError; the
// connection remains synchronized (the reader can discard the payload
// and answer with a diagnostic) because the length prefix itself was
// valid.
var (
	ErrBadMagic      = errors.New("wire: not a GRFusion binary protocol peer")
	ErrBadCRC        = errors.New("wire: frame checksum mismatch")
	ErrFrameTooLarge = errors.New("wire: frame exceeds size cap")
	ErrBadMessage    = errors.New("wire: malformed message payload")
)

// FrameTooLargeError reports an oversized frame without desynchronizing
// the stream.
type FrameTooLargeError struct {
	Len int // declared kind+payload length
}

func (e *FrameTooLargeError) Error() string {
	return fmt.Sprintf("wire: frame of %d bytes exceeds the %d byte cap", e.Len, MaxFrameBytes)
}

func (e *FrameTooLargeError) Unwrap() error { return ErrFrameTooLarge }

// AppendFrame appends one complete frame carrying kind and payload.
func AppendFrame(dst []byte, kind byte, payload []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(1+len(payload)))
	start := len(dst)
	dst = append(dst, kind)
	dst = append(dst, payload...)
	return binary.BigEndian.AppendUint32(dst, crc32.ChecksumIEEE(dst[start:]))
}

// WriteFrame writes one frame to w.
func WriteFrame(w io.Writer, kind byte, payload []byte) error {
	buf := AppendFrame(make([]byte, 0, 4+1+len(payload)+4), kind, payload)
	_, err := w.Write(buf)
	return err
}

// ReadFrame reads one frame, verifying length and checksum. On
// *FrameTooLargeError the stream is still synchronized: the caller may
// call DiscardFrame to skip the oversized payload and keep serving.
func ReadFrame(r *bufio.Reader) (kind byte, payload []byte, err error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := int(binary.BigEndian.Uint32(hdr[:]))
	if n < 1 {
		return 0, nil, fmt.Errorf("%w: zero-length frame", ErrBadMessage)
	}
	if n > MaxFrameBytes {
		return 0, nil, &FrameTooLargeError{Len: n}
	}
	body := make([]byte, n+4)
	if _, err := io.ReadFull(r, body); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return 0, nil, err
	}
	sum := binary.BigEndian.Uint32(body[n:])
	if crc32.ChecksumIEEE(body[:n]) != sum {
		return 0, nil, ErrBadCRC
	}
	return body[0], body[1:n], nil
}

// DiscardFrame skips the remainder of a frame whose header declared n
// kind+payload bytes (as reported by FrameTooLargeError), leaving the
// reader at the next frame boundary.
func DiscardFrame(r *bufio.Reader, n int) error {
	if _, err := r.Discard(n + 4); err != nil { // payload + trailing CRC
		return err
	}
	return nil
}

// ReadHello consumes a client hello, returning the client's protocol
// version. It fails with ErrBadMagic at the first byte that breaks the
// magic, so a peer speaking another protocol is rejected without a
// further read.
func ReadHello(r *bufio.Reader) (version byte, err error) {
	for i := 0; i < HelloLen; i++ {
		b, err := r.ReadByte()
		if err != nil {
			if err == io.EOF && i > 0 {
				err = io.ErrUnexpectedEOF
			}
			return 0, err
		}
		switch {
		case i < len(Magic):
			if b != Magic[i] {
				return 0, ErrBadMagic
			}
		case i == len(Magic):
			version = b
		case b != '\n':
			return 0, ErrBadMagic
		}
	}
	return version, nil
}
