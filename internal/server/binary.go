package server

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"strings"
	"time"

	"grfusion/internal/core"
	"grfusion/internal/types"
	"grfusion/internal/wire"
)

// The binary protocol handler: after the hello exchange the connection
// becomes a pipelined frame stream. The connection's goroutine reads a
// frame, executes it and buffers the response, in order, so responses
// always come back in request order; a client may send many requests
// without waiting, and they queue in the socket until read. The shared
// output writer is flushed only when no complete request is buffered —
// the pipeline ran dry and the next read may block — batching many small
// responses into few syscalls. Reading where the request executes keeps a
// request/response round trip free of goroutine hand-offs inside the
// server: with a reader goroutine feeding an executor, an idle client paid
// a cross-CPU wakeup per request, about half its round trip. A COPY stream
// is read the same way: its frames queue in the socket while a batch is
// applied.

// preparedFn executes one server-side prepared statement: the QueryContext
// of a core.Prepared or the ExecContext of a core.PreparedDML.
type preparedFn func(context.Context, ...types.Value) (*core.Result, error)

// copyState is an open COPY bulk load.
type copyState struct {
	bl      *core.BulkLoad
	width   int
	release func() // admission token, held for the load's duration
	// failErr records the first failed batch; once set, subsequent
	// MsgCopyData frames are discarded and MsgCopyEnd reports the error.
	failErr error
	applied int // rows applied before the failure
}

// frameBuffered reports whether br holds a complete frame, so reading it
// cannot block.
func frameBuffered(br *bufio.Reader) bool {
	if br.Buffered() < 4 {
		return false
	}
	hdr, _ := br.Peek(4) // already buffered: does not read
	return br.Buffered() >= 4+int(binary.BigEndian.Uint32(hdr))+4
}

func (s *Server) serveBinary(conn net.Conn, br *bufio.Reader, v byte) {
	bw := bufio.NewWriterSize(conn, 64<<10)
	flush := func() bool {
		if bw.Buffered() == 0 {
			return true
		}
		if s.cfg.WriteTimeout > 0 {
			conn.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout))
		}
		return bw.Flush() == nil
	}
	// Handshake ack: our protocol version (already capped by the caller).
	if err := wire.WriteFrame(bw, wire.MsgHello, []byte{v}); err != nil || !flush() {
		return
	}

	st := &binConn{s: s, prepared: make(map[uint64]preparedFn)}
	// Whatever ends this connection — clean close, write failure, drain —
	// an open bulk load must be closed so the engine write lock and the
	// admission token it holds are released.
	defer st.abandonCopy()

	for {
		// Pipeline ran dry: flush buffered responses before blocking.
		if !frameBuffered(br) && !flush() {
			return
		}
		// The read deadline is the idle bound; Shutdown wakes a blocked
		// read by expiring it.
		if s.cfg.IdleTimeout > 0 {
			conn.SetReadDeadline(time.Now().Add(s.cfg.IdleTimeout))
		}
		kind, payload, err := wire.ReadFrame(br)
		s.mu.Lock()
		draining := s.draining
		s.mu.Unlock()
		if draining {
			flush()
			return
		}
		var tooBig *wire.FrameTooLargeError
		switch {
		case errors.As(err, &tooBig):
			// The length prefix was valid, so the stream stays synchronized:
			// skip the payload and answer with a diagnostic, in order.
			if wire.DiscardFrame(br, tooBig.Len) != nil {
				flush()
				return
			}
			p := wire.AppendError(nil, fmt.Sprintf(
				"request too large: one frame is limited to %d bytes (got %d)",
				wire.MaxFrameBytes, tooBig.Len), false, false)
			if err := wire.WriteFrame(bw, wire.MsgError, p); err != nil {
				return
			}
			continue
		case err != nil:
			// CRC mismatch or malformed framing is terminal (the stream may
			// be desynchronized) but worth one best-effort diagnostic.
			if errors.Is(err, wire.ErrBadCRC) || errors.Is(err, wire.ErrBadMessage) {
				p := wire.AppendError(nil, fmt.Sprintf("bad frame: %v", err), false, false)
				wire.WriteFrame(bw, wire.MsgError, p)
			}
			flush()
			return
		}
		var werr error
		if ee := s.guard(func() { werr = st.dispatch(bw, kind, payload) }); ee != nil {
			werr = st.sendError(bw, ee)
		}
		if werr != nil {
			return
		}
	}
}

// binConn is the per-connection binary protocol state.
type binConn struct {
	s        *Server
	prepared map[uint64]preparedFn
	nextID   uint64
	copy     *copyState
}

// abandonCopy closes an open bulk load without reporting (used when the
// connection dies mid-COPY): applied batches stay applied, exactly as a
// crash before MsgCopyEnd would leave them after WAL replay.
func (c *binConn) abandonCopy() {
	if c.copy == nil {
		return
	}
	if c.copy.failErr == nil {
		c.copy.bl.Close()
	}
	c.copy.release()
	c.copy = nil
}

// dispatch executes one frame and writes its response (if the kind has
// one) to bw. The returned error is terminal for the connection; protocol
// and statement errors are reported in-band as MsgError frames.
func (c *binConn) dispatch(bw *bufio.Writer, kind byte, payload []byte) error {
	switch kind {
	case wire.MsgQuery:
		query, timeoutMS, derr := wire.DecodeQuery(payload)
		if derr != nil {
			return c.sendError(bw, &execError{msg: fmt.Sprintf("bad request: %v", derr)})
		}
		res, ee := c.s.run(timeoutMS, func(ctx context.Context) (*core.Result, error) {
			return c.s.eng.ExecuteContext(ctx, query)
		})
		return c.reply(bw, res, ee)

	case wire.MsgCommand:
		cmd, rest, derr := wire.DecodeString(payload)
		if derr != nil || len(rest) != 0 {
			return c.sendError(bw, &execError{msg: "bad request: malformed command payload"})
		}
		res, ee := c.s.commandCore(cmd)
		return c.reply(bw, res, ee)

	case wire.MsgPrepare:
		return c.prepare(bw, payload)

	case wire.MsgExecPrepared:
		return c.execPrepared(bw, payload)

	case wire.MsgClosePrepared:
		id, rest, derr := wire.DecodeUvarint(payload)
		if derr != nil || len(rest) != 0 {
			return c.sendError(bw, &execError{msg: "bad request: malformed close payload"})
		}
		if _, ok := c.prepared[id]; !ok {
			return c.sendError(bw, &execError{msg: fmt.Sprintf("unknown prepared statement id %d", id)})
		}
		delete(c.prepared, id)
		return c.sendResult(bw, &core.Result{})

	case wire.MsgCopyBegin:
		return c.copyBegin(bw, payload)

	case wire.MsgCopyData:
		// Not answered: the COPY stream is pipelined, errors surface at
		// MsgCopyEnd (with how far the load got).
		c.copyData(payload)
		return nil

	case wire.MsgCopyEnd:
		return c.copyEnd(bw)

	default:
		return c.sendError(bw, &execError{msg: fmt.Sprintf("unexpected message kind 0x%02x", kind)})
	}
}

// reply writes the outcome of a statement or command: its result frame, or
// its error frame.
func (c *binConn) reply(bw *bufio.Writer, res *core.Result, ee *execError) error {
	if ee != nil {
		return c.sendError(bw, ee)
	}
	return c.sendResult(bw, res)
}

func (c *binConn) sendResult(bw *bufio.Writer, r *core.Result) error {
	return wire.WriteFrame(bw, wire.MsgResult, wire.AppendResult(nil, (*wire.Result)(r)))
}

func (c *binConn) sendError(bw *bufio.Writer, ee *execError) error {
	return wire.WriteFrame(bw, wire.MsgError, wire.AppendError(nil, ee.msg, ee.retryable, ee.degraded))
}

func (c *binConn) prepare(bw *bufio.Writer, payload []byte) error {
	query, rest, derr := wire.DecodeString(payload)
	if derr != nil || len(rest) != 0 {
		return c.sendError(bw, &execError{msg: "bad request: malformed prepare payload"})
	}
	var entry preparedFn
	var pkind byte
	var nparams int
	var cols []string
	if f := strings.Fields(query); len(f) > 0 && strings.EqualFold(f[0], "select") {
		p, err := c.s.eng.Prepare(query)
		if err != nil {
			return c.sendError(bw, execErr(err))
		}
		entry, pkind, nparams, cols = p.QueryContext, wire.PreparedSelect, p.NumParams(), p.Columns()
	} else {
		p, err := c.s.eng.PrepareDML(query)
		if err != nil {
			return c.sendError(bw, execErr(err))
		}
		entry, pkind, nparams = p.ExecContext, wire.PreparedDML, p.NumParams()
	}
	c.nextID++
	c.prepared[c.nextID] = entry
	return wire.WriteFrame(bw, wire.MsgPrepared, wire.AppendPrepared(nil, c.nextID, pkind, nparams, cols))
}

func (c *binConn) execPrepared(bw *bufio.Writer, payload []byte) error {
	id, timeoutMS, params, derr := wire.DecodeExecPrepared(payload)
	if derr != nil {
		return c.sendError(bw, &execError{msg: fmt.Sprintf("bad request: %v", derr)})
	}
	entry, ok := c.prepared[id]
	if !ok {
		return c.sendError(bw, &execError{msg: fmt.Sprintf("unknown prepared statement id %d", id)})
	}
	res, ee := c.s.run(timeoutMS, func(ctx context.Context) (*core.Result, error) {
		return entry(ctx, params...)
	})
	return c.reply(bw, res, ee)
}

func (c *binConn) copyBegin(bw *bufio.Writer, payload []byte) error {
	if c.copy != nil {
		return c.sendError(bw, &execError{msg: "COPY already in progress on this connection"})
	}
	table, cols, expectRows, derr := wire.DecodeCopyBegin(payload)
	if derr != nil {
		return c.sendError(bw, &execError{msg: fmt.Sprintf("bad request: %v", derr)})
	}
	// One admission token covers the whole load: a bulk load IS one long
	// statement as far as overload control is concerned.
	release, ee := c.s.admit()
	if ee != nil {
		return c.sendError(bw, ee)
	}
	bl, err := c.s.eng.BeginBulk(table, cols, expectRows)
	if err != nil {
		release()
		return c.sendError(bw, execErr(err))
	}
	width := len(cols)
	if width == 0 {
		width = bl.Width()
	}
	c.copy = &copyState{bl: bl, width: width, release: release}
	// Ack with an empty result; the client streams MsgCopyData after this.
	return c.sendResult(bw, &core.Result{})
}

func (c *binConn) copyData(payload []byte) {
	if c.copy == nil || c.copy.failErr != nil {
		// No load open (client bug — reported at MsgCopyEnd) or the load
		// already failed: discard the batch.
		return
	}
	rows, err := wire.DecodeCopyData(payload, c.copy.width)
	if err == nil {
		_, err = c.copy.bl.Append(rows)
	}
	if err != nil {
		// First failure: report at MsgCopyEnd, but release the engine write
		// lock NOW — the client may keep streaming batches for a while, and
		// holding the lock across that would block every writer.
		c.copy.applied = c.copy.bl.Rows()
		c.copy.failErr = err
		c.copy.bl.Close()
	}
}

func (c *binConn) copyEnd(bw *bufio.Writer) error {
	if c.copy == nil {
		return c.sendError(bw, &execError{msg: "COPY end without COPY begin"})
	}
	cs := c.copy
	c.copy = nil
	defer cs.release()
	if cs.failErr != nil {
		return c.sendError(bw, execErr(fmt.Errorf("bulk load failed after %d row(s): %w", cs.applied, cs.failErr)))
	}
	res, err := cs.bl.Close()
	if err != nil {
		return c.sendError(bw, execErr(err))
	}
	return c.sendResult(bw, res)
}
