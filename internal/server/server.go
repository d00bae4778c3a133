// Package server exposes a GRFusion engine over TCP, mirroring the
// client/server deployment of the paper's host system (VoltDB). Every
// connection speaks the binary framed protocol of internal/wire: the
// client opens with the hello, then sends request frames (ad hoc
// queries, prepared statements run by id, protocol commands, COPY bulk
// loads) and reads one response frame per request, in order. A peer that
// opens with anything else gets one plain-text diagnostic line and a
// close. The engine serializes statement execution internally, so any
// number of connections may be served concurrently.
//
// The server hardens the query lifecycle (VoltDB-style admission and
// timeout management):
//
//   - per-statement deadlines: a client-supplied timeout_ms and the
//     server's QueryTimeout both bound execution; expired statements abort
//     cooperatively with a typed timeout error, not a hang.
//   - admission control: at most MaxConcurrent statements execute at once;
//     excess requests are shed immediately with a retryable error.
//   - panic isolation: a panicking statement produces an error response on
//     its connection (stack logged) and the server keeps serving.
//   - bounded I/O: idle connections and stuck writes are reaped by
//     IdleTimeout/WriteTimeout; oversized request frames get a diagnostic
//     error response instead of a silent hangup.
//   - graceful-but-bounded shutdown: Shutdown stops accepting, lets
//     in-flight statements finish and flush their responses, and only
//     force-closes connections after DrainTimeout.
package server

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"log"
	"net"
	"runtime/debug"
	"strings"
	"sync"
	"time"

	"grfusion/internal/core"
	"grfusion/internal/types"
	"grfusion/internal/wire"
)

// Config tunes the server's robustness envelope. The zero value imposes no
// limits (matching the pre-hardening behavior, except that Shutdown drains
// gracefully).
type Config struct {
	// MaxConcurrent bounds how many statements may execute at once across
	// all connections. Excess requests are shed immediately with a
	// retryable error response (no queueing — the engine's statement lock
	// is the queue). Zero means unlimited.
	MaxConcurrent int
	// QueryTimeout bounds each statement's execution wall clock. A
	// client's timeout_ms may only tighten it. Zero means no server bound.
	QueryTimeout time.Duration
	// IdleTimeout closes connections with no request for this long. Zero
	// means never.
	IdleTimeout time.Duration
	// WriteTimeout bounds writing one response. Zero means no bound.
	WriteTimeout time.Duration
	// DrainTimeout bounds how long Shutdown waits for in-flight statements
	// to finish before force-closing connections and canceling their
	// queries. Zero selects a 10s default; negative waits indefinitely.
	DrainTimeout time.Duration
	// Logger receives operational messages (recovered panics, accept
	// retries). Nil uses the standard logger.
	Logger *log.Logger
}

// defaultDrainTimeout bounds Shutdown when Config.DrainTimeout is zero.
const defaultDrainTimeout = 10 * time.Second

// Server serves one engine over TCP.
type Server struct {
	eng *core.Engine
	cfg Config
	sem chan struct{} // admission tokens; nil = unlimited

	// baseCtx parents every statement context; canceled on forced
	// shutdown so in-flight queries abort instead of outliving the server.
	baseCtx    context.Context
	baseCancel context.CancelFunc

	mu       sync.Mutex
	ln       net.Listener
	conns    map[net.Conn]struct{}
	closed   bool
	draining bool
	wg       sync.WaitGroup
}

// New creates a server around an engine with no limits configured.
func New(eng *core.Engine) *Server { return NewWith(eng, Config{}) }

// NewWith creates a server with the given robustness configuration.
func NewWith(eng *core.Engine, cfg Config) *Server {
	s := &Server{eng: eng, cfg: cfg, conns: make(map[net.Conn]struct{})}
	if cfg.MaxConcurrent > 0 {
		s.sem = make(chan struct{}, cfg.MaxConcurrent)
	}
	s.baseCtx, s.baseCancel = context.WithCancel(context.Background())
	return s
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logger != nil {
		s.cfg.Logger.Printf(format, args...)
		return
	}
	log.Printf(format, args...)
}

// ListenAndServe listens on addr (e.g. "127.0.0.1:21212") and serves until
// Shutdown.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Addr returns the bound listener address (useful with ":0").
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// Serve accepts connections on ln until Shutdown closes it. Temporary
// accept errors (e.g. file-descriptor exhaustion, transient network
// faults) are retried with exponential backoff instead of killing the
// accept loop.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return errors.New("server: already shut down")
	}
	s.ln = ln
	s.mu.Unlock()
	var backoff time.Duration
	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			var ne net.Error
			if errors.As(err, &ne) && ne.Temporary() {
				if backoff == 0 {
					backoff = 5 * time.Millisecond
				} else {
					backoff *= 2
					if backoff > time.Second {
						backoff = time.Second
					}
				}
				s.logf("server: temporary accept error (retrying in %v): %v", backoff, err)
				time.Sleep(backoff)
				continue
			}
			return err
		}
		backoff = 0
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return nil
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go s.handle(conn)
	}
}

// Shutdown stops the server gracefully: it closes the listener, nudges
// idle connections, waits for in-flight statements to finish and flush
// their responses, and after the configured DrainTimeout force-closes
// whatever remains (canceling still-running queries).
func (s *Server) Shutdown() { s.ShutdownTimeout(s.cfg.DrainTimeout) }

// ShutdownTimeout is Shutdown with an explicit drain bound (zero selects
// the 10s default; negative waits indefinitely).
func (s *Server) ShutdownTimeout(drain time.Duration) {
	if drain == 0 {
		drain = defaultDrainTimeout
	}
	s.mu.Lock()
	s.closed = true
	s.draining = true
	if s.ln != nil {
		s.ln.Close()
	}
	// Wake handlers blocked reading the next request; handlers mid-execute
	// still flush their response before observing the expired deadline.
	now := time.Now()
	for c := range s.conns {
		c.SetReadDeadline(now)
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	var expired <-chan time.Time
	if drain > 0 {
		t := time.NewTimer(drain)
		defer t.Stop()
		expired = t.C
	}
	select {
	case <-done:
	case <-expired:
		s.logf("server: drain timeout (%v) elapsed; force-closing connections", drain)
		s.baseCancel()
		s.mu.Lock()
		for c := range s.conns {
			c.Close()
		}
		s.mu.Unlock()
		<-done
	}
	s.baseCancel()
}

func (s *Server) handle(conn net.Conn) {
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		s.wg.Done()
	}()
	br := bufio.NewReaderSize(conn, 64<<10)
	if s.cfg.IdleTimeout > 0 {
		conn.SetReadDeadline(time.Now().Add(s.cfg.IdleTimeout))
	}
	v, err := wire.ReadHello(br)
	if err != nil {
		// A peer speaking another protocol gets one line it can show; one
		// that disconnected mid-hello gets nothing.
		if errors.Is(err, wire.ErrBadMagic) {
			if s.cfg.WriteTimeout > 0 {
				conn.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout))
			}
			conn.Write([]byte("bad request: unrecognized protocol: expected the GRFusion binary hello\n"))
		}
		return
	}
	if v > wire.ProtoVersion {
		// Answer with our version; the client decides whether to speak it.
		v = wire.ProtoVersion
	}
	s.serveBinary(conn, br, v)
}

// guard runs one request's handler. A panic anywhere under it comes back
// as the error response to send, so one poisoned statement cannot take
// down the server (or even its own connection).
func (s *Server) guard(handler func()) (ee *execError) {
	defer func() {
		if r := recover(); r != nil {
			s.logf("server: recovered statement panic: %v\n%s", r, debug.Stack())
			ee = &execError{msg: fmt.Sprintf("internal error: statement aborted by panic: %v", r)}
		}
	}()
	handler()
	return nil
}

// commandCore serves protocol commands. These never consume an admission
// token: "metrics" in particular must stay answerable while the server is
// shedding statements, or the operator loses exactly the signal that
// explains the overload.
func (s *Server) commandCore(cmd string) (*core.Result, *execError) {
	out := &core.Result{Columns: []string{"name", "value"}}
	switch strings.ToLower(cmd) {
	case "metrics":
		for _, kv := range s.eng.MetricsSnapshot() {
			out.Rows = append(out.Rows, types.Row{types.NewString(kv.Name), types.NewInt(kv.Value)})
		}
	case "health":
		for _, p := range s.eng.Health().Pairs() {
			out.Rows = append(out.Rows, types.Row{types.NewString(p[0]), types.NewString(p[1])})
		}
	default:
		return nil, &execError{msg: fmt.Sprintf("unknown command %q (supported: metrics, health)", cmd)}
	}
	return out, nil
}

// execError is a failed statement plus the flags its MsgError carries.
type execError struct {
	msg       string
	retryable bool
	degraded  bool
}

// execErr classifies an engine error for the wire.
func execErr(err error) *execError {
	return &execError{msg: err.Error(), degraded: errors.Is(err, core.ErrDegraded)}
}

// admit takes an admission token, or returns the shed error. release is
// non-nil exactly when admission succeeded.
func (s *Server) admit() (release func(), ee *execError) {
	if s.sem == nil {
		return func() {}, nil
	}
	select {
	case s.sem <- struct{}{}:
		return func() { <-s.sem }, nil
	default:
		s.eng.Metrics().ShedAdmissions.Inc()
		return nil, &execError{
			msg:       fmt.Sprintf("server overloaded: %d statements already executing", cap(s.sem)),
			retryable: true,
		}
	}
}

// stmtContext derives the statement context: the server's QueryTimeout
// tightened by the client's timeout_ms.
func (s *Server) stmtContext(timeoutMS int64) (context.Context, context.CancelFunc) {
	d := s.cfg.QueryTimeout
	if t := time.Duration(timeoutMS) * time.Millisecond; t > 0 && (d <= 0 || t < d) {
		d = t
	}
	if d <= 0 {
		return s.baseCtx, func() {}
	}
	return context.WithTimeout(s.baseCtx, d)
}

// run is the request core behind every statement — a MsgQuery or a
// MsgExecPrepared: admission, the statement deadline, the execution
// itself, error classification.
func (s *Server) run(timeoutMS int64, stmt func(context.Context) (*core.Result, error)) (*core.Result, *execError) {
	// Admission control: shed instead of queueing — a shed statement never
	// started, so the client can retry safely.
	release, ee := s.admit()
	if ee != nil {
		return nil, ee
	}
	defer release()
	ctx, cancel := s.stmtContext(timeoutMS)
	defer cancel()
	res, err := stmt(ctx)
	if err != nil {
		return nil, execErr(err)
	}
	return res, nil
}
