package server

import (
	"errors"
	"fmt"

	"grfusion/internal/types"
	"grfusion/internal/wire"
)

// CopyIn is a COPY-style streaming bulk load: the client pushes row
// batches down the wire without waiting for per-batch acks while the
// server feeds them into a single engine bulk load that publishes one
// MVCC version at the end. This is the fast path for graph construction —
// loading millions of edges through it costs one round trip at begin and
// one at end, with every batch in between pipelined.
//
// While a CopyIn is open it owns the connection: other requests on the
// same client return an error until Close. Batches are applied
// atomically; on a mid-stream failure the server keeps the batches that
// already applied (exactly what crash recovery would reconstruct) and
// Close reports the error with the applied row count.
type CopyIn struct {
	c      *Client
	sent   int
	closed bool
}

// CopyIn opens a bulk load into table. cols names the supplied columns
// (nil means the full schema in order); expectRows, when positive,
// presizes server-side storage for the incoming volume.
func (c *Client) CopyIn(table string, cols []string, expectRows int) (*CopyIn, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.checkUsableLocked(); err != nil {
		return nil, err
	}
	payload := wire.AppendCopyBegin(nil, table, cols, expectRows)
	// The begin is a full round trip: the server validates the table and
	// columns and takes the bulk-load locks before we stream anything.
	res, err := c.roundTripLocked(wire.MsgCopyBegin, payload, c.opts.RequestTimeout)
	if err != nil {
		return nil, err
	}
	_ = res
	c.copying = true
	return &CopyIn{c: c}, nil
}

// Send streams one batch of rows. It does not wait for a server
// response — errors surface at Close (or immediately if the transport
// itself fails). Larger batches amortize framing; a few thousand rows per
// batch is a good default.
func (ci *CopyIn) Send(rows []types.Row) error {
	if len(rows) == 0 {
		return nil
	}
	c := ci.c
	c.mu.Lock()
	defer c.mu.Unlock()
	if ci.closed {
		return errors.New("bulk load is closed")
	}
	if c.broken != nil {
		return fmt.Errorf("connection poisoned by earlier failure (reconnect required): %w", c.broken)
	}
	c.armDeadlineLocked(c.opts.RequestTimeout)
	// Batches flush straight through: the write buffer only delays frames
	// smaller than itself, and COPY batches are typically much larger.
	if err := c.sendFrameLocked(wire.MsgCopyData, wire.AppendCopyData(nil, rows), true); err != nil {
		return err
	}
	ci.sent += len(rows)
	return nil
}

// Rows returns how many rows have been streamed so far.
func (ci *CopyIn) Rows() int {
	ci.c.mu.Lock()
	defer ci.c.mu.Unlock()
	return ci.sent
}

// Close ends the stream and waits for the server's verdict: the number
// of rows applied, or the first batch failure (as a *ServerError naming
// how far the load got). Close releases the connection for normal use.
func (ci *CopyIn) Close() (*Result, error) {
	c := ci.c
	c.mu.Lock()
	defer c.mu.Unlock()
	if ci.closed {
		return nil, errors.New("bulk load is closed")
	}
	ci.closed = true
	c.copying = false
	if c.broken != nil {
		return nil, fmt.Errorf("connection poisoned by earlier failure (reconnect required): %w", c.broken)
	}
	return c.roundTripLocked(wire.MsgCopyEnd, nil, c.opts.RequestTimeout)
}
