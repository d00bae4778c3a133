package server

import (
	"bufio"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"grfusion/internal/types"
	"grfusion/internal/wire"
)

// ProtoBinary names the binary framed protocol, the only one a Client
// speaks. Options.Protocol accepts it or the empty string.
const ProtoBinary = "binary"

// Options tune a Client's fault-tolerance envelope. The zero value means
// no timeouts and no retries (the pre-hardening behavior).
type Options struct {
	// ConnectTimeout bounds the initial dial and protocol handshake. Zero
	// means no bound.
	ConnectTimeout time.Duration
	// RequestTimeout bounds one request/response round trip on the wire
	// and is also sent to the server as timeout_ms so the statement itself
	// is deadline-bounded. Zero means no bound.
	RequestTimeout time.Duration
	// MaxRetries is how many times Exec re-submits a statement the server
	// shed with a retryable error (admission control). Only retryable
	// errors are retried: the statement never started, so re-submitting
	// cannot double-execute it. Zero disables retries.
	MaxRetries int
	// RetryBase is the first retry backoff, doubled per attempt with
	// jitter. Zero selects 10ms.
	RetryBase time.Duration
	// Protocol must be empty or ProtoBinary; any other value fails the
	// dial.
	Protocol string
}

// Client is a synchronous connection to a GRFusion server. It is safe for
// concurrent use; requests are serialized over the single connection.
type Client struct {
	opts Options

	mu   sync.Mutex
	conn net.Conn
	br   *bufio.Reader
	// bw buffers outgoing requests so each submission costs one syscall at
	// flush time.
	bw *bufio.Writer
	// copying blocks other requests while a COPY stream owns the
	// connection (interleaving would corrupt the stream).
	copying bool
	// broken poisons the connection after a mid-exchange failure (e.g. a
	// request whose response never arrived before RequestTimeout): the
	// stream may hold a stale response, so no further request can trust
	// what it reads.
	broken error
}

// Dial connects to a server with no timeouts or retries configured.
func Dial(addr string) (*Client, error) { return DialWith(addr, Options{}) }

// DialWith connects to a server with the given fault-tolerance options
// and performs the hello exchange.
func DialWith(addr string, opts Options) (*Client, error) {
	d := net.Dialer{Timeout: opts.ConnectTimeout}
	conn, err := d.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewClientConn(conn, opts)
}

// NewClientConn builds a client over an already-established connection
// (a custom dialer, or a test injecting faults) and performs the hello
// exchange. On error the connection is closed.
func NewClientConn(conn net.Conn, opts Options) (*Client, error) {
	if opts.Protocol != "" && opts.Protocol != ProtoBinary {
		conn.Close()
		return nil, fmt.Errorf("unknown protocol %q (want %q)", opts.Protocol, ProtoBinary)
	}
	if opts.RetryBase <= 0 {
		opts.RetryBase = 10 * time.Millisecond
	}
	c := &Client{
		opts: opts,
		conn: conn,
		br:   bufio.NewReaderSize(conn, 64<<10),
		bw:   bufio.NewWriterSize(conn, 64<<10),
	}
	if opts.ConnectTimeout > 0 {
		conn.SetDeadline(time.Now().Add(opts.ConnectTimeout))
	}
	if err := c.handshake(); err != nil {
		conn.Close()
		return nil, err
	}
	conn.SetDeadline(time.Time{})
	return c, nil
}

// handshake sends the hello and reads the server's MsgHello frame.
func (c *Client) handshake() error {
	if _, err := c.conn.Write(wire.Hello()); err != nil {
		return fmt.Errorf("handshake send: %w", err)
	}
	kind, payload, err := wire.ReadFrame(c.br)
	if err != nil {
		return fmt.Errorf("handshake: %w", err)
	}
	if kind != wire.MsgHello || len(payload) != 1 {
		return fmt.Errorf("handshake: unexpected frame kind 0x%02x", kind)
	}
	if v := payload[0]; v < 1 || v > wire.ProtoVersion {
		return fmt.Errorf("handshake: server protocol version %d not supported (max %d)", v, wire.ProtoVersion)
	}
	return nil
}

// Close tears the connection down.
func (c *Client) Close() error { return c.conn.Close() }

// Broken reports whether the connection has been poisoned by a
// mid-exchange failure and must be replaced (see Pool).
func (c *Client) Broken() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.broken != nil
}

// Result is a decoded server response.
type Result = types.Result

// ServerError is an error reported by the server for one statement.
type ServerError struct {
	Msg string
	// Retryable marks a shed statement that never started executing.
	Retryable bool
	// Degraded marks a write the engine rejected in degraded read-only
	// mode. Terminal: the retry loop never re-submits it (a retry storm
	// against a sick disk helps nobody), regardless of Retryable.
	Degraded bool
}

func (e *ServerError) Error() string { return "server: " + e.Msg }

// Exec submits one statement and waits for its response. Server-side
// errors come back as *ServerError. Statements shed by the server's
// admission control (retryable errors) are retried up to MaxRetries times
// with exponential backoff; other failures are never retried, since the
// statement may have executed. Degraded-mode write rejections are
// terminal even though the statement never started: the disk is sick, and
// the health surface — not a retry loop — says when writes are welcome
// again.
func (c *Client) Exec(query string) (*Result, error) {
	return c.ExecTimeout(query, c.opts.RequestTimeout)
}

// ExecTimeout is Exec with an explicit per-call bound overriding
// Options.RequestTimeout: the round trip gets a wire deadline and the
// server is asked to bound the statement with timeout_ms. Zero means no
// bound.
func (c *Client) ExecTimeout(query string, timeout time.Duration) (*Result, error) {
	return c.withRetry(func() (*Result, error) { return c.once(query, timeout) })
}

// withRetry re-submits fn while it fails with a retryable (shed) server
// error, up to MaxRetries times with full-jitter exponential backoff.
func (c *Client) withRetry(fn func() (*Result, error)) (*Result, error) {
	backoff := c.opts.RetryBase
	for attempt := 0; ; attempt++ {
		res, err := fn()
		var se *ServerError
		if err == nil || !errors.As(err, &se) || !se.Retryable || se.Degraded || attempt >= c.opts.MaxRetries {
			return res, err
		}
		// Full jitter: sleep a uniform fraction of the doubling backoff so
		// shed clients don't re-arrive in lockstep.
		time.Sleep(time.Duration(rand.Int63n(int64(backoff) + 1)))
		if backoff < time.Second {
			backoff *= 2
		}
	}
}

// Metrics fetches the server's metrics snapshot via the METRICS wire
// command. The command is never shed by admission control, so it works
// even while Exec calls are being rejected as overloaded.
func (c *Client) Metrics() (map[string]int64, error) {
	res, err := c.command("metrics")
	if err != nil {
		return nil, err
	}
	out := make(map[string]int64, len(res.Rows))
	for _, row := range res.Rows {
		if len(row) == 2 {
			out[row[0].S] = row[1].I
		}
	}
	return out, nil
}

// Health fetches the server's durability health snapshot via the HEALTH
// wire command. Like Metrics it bypasses admission control, so it answers
// while the server sheds load — and, critically, while the engine is
// degraded.
func (c *Client) Health() (map[string]string, error) {
	res, err := c.command("health")
	if err != nil {
		return nil, err
	}
	out := make(map[string]string, len(res.Rows))
	for _, row := range res.Rows {
		if len(row) == 2 {
			out[row[0].S] = row[1].S
		}
	}
	return out, nil
}

func (c *Client) command(cmd string) (*Result, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.roundTripLocked(wire.MsgCommand, wire.AppendString(nil, cmd), c.opts.RequestTimeout)
}

func (c *Client) once(query string, timeout time.Duration) (*Result, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.roundTripLocked(wire.MsgQuery, wire.AppendQuery(nil, query, timeoutToMS(timeout)), timeout)
}

// timeoutToMS converts a wire deadline into the timeout_ms request field
// (minimum 1ms when a bound is set at all).
func timeoutToMS(timeout time.Duration) int64 {
	if timeout <= 0 {
		return 0
	}
	ms := int64(timeout / time.Millisecond)
	if ms == 0 {
		ms = 1
	}
	return ms
}

// checkUsableLocked rejects requests on a poisoned or COPY-owned
// connection.
func (c *Client) checkUsableLocked() error {
	if c.broken != nil {
		return fmt.Errorf("connection poisoned by earlier failure (reconnect required): %w", c.broken)
	}
	if c.copying {
		return errors.New("connection is streaming a COPY bulk load; finish it first")
	}
	return nil
}

// armDeadlineLocked sets the round-trip wire deadline: the statement
// timeout plus headroom, so a server-side timeout error normally arrives
// as a response rather than a cut connection.
func (c *Client) armDeadlineLocked(timeout time.Duration) {
	if timeout > 0 {
		c.conn.SetDeadline(time.Now().Add(timeout + 2*time.Second))
	} else {
		c.conn.SetDeadline(time.Time{})
	}
}

func (c *Client) roundTripLocked(kind byte, payload []byte, timeout time.Duration) (*Result, error) {
	if err := c.checkUsableLocked(); err != nil {
		return nil, err
	}
	c.armDeadlineLocked(timeout)
	if err := c.sendFrameLocked(kind, payload, true); err != nil {
		return nil, err
	}
	kind, body, err := c.readFrameLocked()
	if err != nil {
		return nil, err
	}
	return c.decodeResponseLocked(kind, body)
}

// sendFrameLocked writes one frame into the output buffer, flushing when
// asked (a pipelining caller defers the flush).
func (c *Client) sendFrameLocked(kind byte, payload []byte, flush bool) error {
	if err := wire.WriteFrame(c.bw, kind, payload); err != nil {
		c.broken = err
		return fmt.Errorf("send: %w", err)
	}
	if flush {
		if err := c.bw.Flush(); err != nil {
			c.broken = err
			return fmt.Errorf("send: %w", err)
		}
	}
	return nil
}

func (c *Client) readFrameLocked() (byte, []byte, error) {
	kind, body, err := wire.ReadFrame(c.br)
	if err != nil {
		c.broken = err
		return 0, nil, fmt.Errorf("receive: %w", err)
	}
	return kind, body, nil
}

// decodeResponseLocked turns a response frame into a Result or error. A
// malformed frame poisons the connection (the stream can no longer be
// trusted); a well-formed MsgError does not.
func (c *Client) decodeResponseLocked(kind byte, body []byte) (*Result, error) {
	switch kind {
	case wire.MsgResult:
		r, err := wire.DecodeResult(body)
		if err != nil {
			c.broken = err
			return nil, fmt.Errorf("receive: %w", err)
		}
		return r, nil
	case wire.MsgError:
		msg, retryable, degraded, err := wire.DecodeError(body)
		if err != nil {
			c.broken = err
			return nil, fmt.Errorf("receive: %w", err)
		}
		return nil, &ServerError{Msg: msg, Retryable: retryable, Degraded: degraded}
	default:
		err := fmt.Errorf("receive: unexpected response frame kind 0x%02x", kind)
		c.broken = err
		return nil, err
	}
}
