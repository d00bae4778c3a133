package server

import (
	"errors"
	"fmt"
	"time"

	"grfusion/internal/types"
	"grfusion/internal/wire"
)

// Stmt is a statement prepared server-side and executed by id — the
// VoltDB stored-procedure model over the wire: parse and plan once, then
// steady-state executions carry only an id and bound parameters.
type Stmt struct {
	c       *Client
	id      uint64
	kind    byte // wire.PreparedSelect or wire.PreparedDML
	nparams int
	cols    []string
	closed  bool
}

// Prepare compiles a parameterized statement (SELECT or
// INSERT/UPDATE/DELETE with `?` placeholders) on the server.
func (c *Client) Prepare(query string) (*Stmt, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.checkUsableLocked(); err != nil {
		return nil, err
	}
	c.armDeadlineLocked(c.opts.RequestTimeout)
	if err := c.sendFrameLocked(wire.MsgPrepare, wire.AppendString(nil, query), true); err != nil {
		return nil, err
	}
	kind, body, err := c.readFrameLocked()
	if err != nil {
		return nil, err
	}
	if kind != wire.MsgPrepared {
		// MsgError decodes into a *ServerError; anything else poisons.
		_, err := c.decodeResponseLocked(kind, body)
		if err == nil {
			err = fmt.Errorf("receive: unexpected response frame kind 0x%02x", kind)
			c.broken = err
		}
		return nil, err
	}
	id, pkind, nparams, cols, derr := wire.DecodePrepared(body)
	if derr != nil {
		c.broken = derr
		return nil, fmt.Errorf("receive: %w", derr)
	}
	return &Stmt{c: c, id: id, kind: pkind, nparams: nparams, cols: cols}, nil
}

// NumParams returns the number of `?` placeholders.
func (s *Stmt) NumParams() int { return s.nparams }

// Columns returns the result column names (SELECT statements only).
func (s *Stmt) Columns() []string { return s.cols }

// Exec executes the prepared statement with the given parameter values,
// under the client's RequestTimeout.
func (s *Stmt) Exec(params ...types.Value) (*Result, error) {
	return s.ExecTimeout(s.c.opts.RequestTimeout, params...)
}

// ExecTimeout is Exec with an explicit round-trip bound.
func (s *Stmt) ExecTimeout(timeout time.Duration, params ...types.Value) (*Result, error) {
	return s.c.withRetry(func() (*Result, error) {
		s.c.mu.Lock()
		defer s.c.mu.Unlock()
		if s.closed {
			return nil, errors.New("prepared statement is closed")
		}
		payload := wire.AppendExecPrepared(nil, s.id, timeoutToMS(timeout), params)
		return s.c.roundTripLocked(wire.MsgExecPrepared, payload, timeout)
	})
}

// Close frees the statement server-side.
func (s *Stmt) Close() error {
	s.c.mu.Lock()
	defer s.c.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	if s.c.broken != nil {
		return nil // the connection is gone; the server will reap it
	}
	_, err := s.c.roundTripLocked(wire.MsgClosePrepared, wire.AppendUvarint(nil, s.id), s.c.opts.RequestTimeout)
	return err
}
