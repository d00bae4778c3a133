package server

import (
	"fmt"

	"grfusion/internal/types"
	"grfusion/internal/wire"
)

// Pipeline batches many requests into one network write. Queue requests
// with Query/ExecStmt, then Flush sends them all in one buffered write
// and reads the responses back in request order — amortizing the network
// round trip that otherwise dominates point-query latency. The server
// executes pipelined statements in arrival order, so a pipeline has the
// same semantics as the equivalent sequence of Exec calls, minus N-1
// round trips.
//
// A Pipeline buffers encoded requests locally; it touches the connection
// only inside Flush, so building a pipeline never blocks other users of
// the client.
type Pipeline struct {
	c *Client
	// buf holds the framed requests.
	buf []byte
	n   int
}

// PipeResult is the outcome of one pipelined request.
type PipeResult struct {
	Res *Result
	Err error
}

// Pipeline starts an empty request batch.
func (c *Client) Pipeline() *Pipeline { return &Pipeline{c: c} }

// Len returns how many requests are queued.
func (p *Pipeline) Len() int { return p.n }

// Query queues one SQL statement.
func (p *Pipeline) Query(query string) *Pipeline {
	p.buf = wire.AppendFrame(p.buf, wire.MsgQuery, wire.AppendQuery(nil, query, timeoutToMS(p.c.opts.RequestTimeout)))
	p.n++
	return p
}

// ExecStmt queues one prepared-statement execution.
func (p *Pipeline) ExecStmt(s *Stmt, params ...types.Value) *Pipeline {
	payload := wire.AppendExecPrepared(nil, s.id, timeoutToMS(p.c.opts.RequestTimeout), params)
	p.buf = wire.AppendFrame(p.buf, wire.MsgExecPrepared, payload)
	p.n++
	return p
}

// Flush writes every queued request in one buffered send and reads their
// responses in order. The returned slice has one entry per queued
// request. The second return value is the first transport-level failure
// (nil when every response arrived — individual statement errors live in
// the per-request entries). After Flush the pipeline is empty and
// reusable.
func (p *Pipeline) Flush() ([]PipeResult, error) {
	n := p.n
	if n == 0 {
		return nil, nil
	}
	c := p.c
	c.mu.Lock()
	defer c.mu.Unlock()
	defer func() { p.buf, p.n = p.buf[:0], 0 }()
	if err := c.checkUsableLocked(); err != nil {
		return nil, err
	}
	// The wire deadline covers the whole batch: each response refreshes it.
	c.armDeadlineLocked(c.opts.RequestTimeout)
	if _, err := c.bw.Write(p.buf); err != nil {
		c.broken = err
		return nil, fmt.Errorf("send: %w", err)
	}
	if err := c.bw.Flush(); err != nil {
		c.broken = err
		return nil, fmt.Errorf("send: %w", err)
	}
	out := make([]PipeResult, 0, n)
	for i := 0; i < n; i++ {
		c.armDeadlineLocked(c.opts.RequestTimeout)
		var res *Result
		kind, body, err := c.readFrameLocked()
		if err == nil {
			res, err = c.decodeResponseLocked(kind, body)
		}
		out = append(out, PipeResult{Res: res, Err: err})
		if c.broken != nil {
			// Transport failure: later responses can never arrive.
			return out, err
		}
	}
	return out, nil
}
