package server

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"grfusion/internal/core"
	"grfusion/internal/exec"
	"grfusion/internal/faultnet"
	"grfusion/internal/types"
	"grfusion/internal/wire"
)

// quietLogger swallows expected operational noise (panic stacks, accept
// retries) so test output stays readable.
func quietLogger() *log.Logger { return log.New(io.Discard, "", 0) }

// startServerWith brings up a configured server on an ephemeral port.
func startServerWith(t *testing.T, cfg Config) (*Server, string) {
	t.Helper()
	eng := core.New(core.Options{})
	srv := NewWith(eng, cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(srv.Shutdown)
	return srv, ln.Addr().String()
}

// cyclicSetup loads a complete digraph on 10 vertices — the runaway
// ALLPATHS workload — through the given client.
func cyclicSetup(t *testing.T, c *Client) {
	t.Helper()
	for _, q := range []string{
		`CREATE TABLE V (vid BIGINT PRIMARY KEY)`,
		`CREATE TABLE E (eid BIGINT PRIMARY KEY, a BIGINT, b BIGINT)`,
	} {
		if _, err := c.Exec(q); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}
	eid := 0
	for a := 1; a <= 10; a++ {
		var vals []string
		for b := 1; b <= 10; b++ {
			if a == b {
				continue
			}
			eid++
			vals = append(vals, fmt.Sprintf("(%d,%d,%d)", eid, a, b))
		}
		if _, err := c.Exec(fmt.Sprintf(`INSERT INTO E VALUES %s`, strings.Join(vals, ","))); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Exec(fmt.Sprintf(`INSERT INTO V VALUES (%d)`, a)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Exec(`CREATE DIRECTED GRAPH VIEW K
		VERTEXES(ID = vid) FROM V
		EDGES(ID = eid, FROM = a, TO = b) FROM E`); err != nil {
		t.Fatal(err)
	}
}

const runawayQuery = `SELECT COUNT(*) FROM K.Paths PS HINT(DFS, ALLPATHS) WHERE PS.StartVertex.Id = 1`

func TestClientTimeoutAbortsRunawayQuery(t *testing.T) {
	_, addr := startServerWith(t, Config{Logger: quietLogger()})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cyclicSetup(t, c)
	start := time.Now()
	_, err = c.ExecTimeout(runawayQuery, 50*time.Millisecond)
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("timeout took %v to take effect", elapsed)
	}
	if err == nil || !strings.Contains(err.Error(), "timeout") {
		t.Fatalf("err = %v, want a query-timeout error", err)
	}
	// The same connection keeps working: the timeout came back as an
	// orderly response, not a broken stream.
	if _, err := c.Exec(`SELECT COUNT(*) FROM V`); err != nil {
		t.Fatalf("connection unusable after statement timeout: %v", err)
	}
}

func TestServerQueryTimeoutConfig(t *testing.T) {
	_, addr := startServerWith(t, Config{QueryTimeout: 50 * time.Millisecond, Logger: quietLogger()})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cyclicSetup(t, c)
	if _, err := c.Exec(runawayQuery); err == nil || !strings.Contains(err.Error(), "timeout") {
		t.Fatalf("err = %v, want a query-timeout error", err)
	}
}

func TestPanicIsolationAcrossConnections(t *testing.T) {
	_, addr := startServerWith(t, Config{Logger: quietLogger()})
	victim, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer victim.Close()
	bystander, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer bystander.Close()

	if _, err := victim.Exec(`CREATE TABLE Boom (a BIGINT)`); err != nil {
		t.Fatal(err)
	}
	exec.DebugPanicTable = "Boom"
	defer func() { exec.DebugPanicTable = "" }()

	// The poisoned statement gets an error response on its connection...
	if _, err := victim.Exec(`SELECT * FROM Boom`); err == nil || !strings.Contains(err.Error(), "panic") {
		t.Fatalf("err = %v, want a panic-isolation error", err)
	}
	// ...the same connection survives...
	if _, err := victim.Exec(`SELECT COUNT(*) FROM Boom WHERE a > 0`); err == nil {
		// the table is still poisoned; the point is we got a response
		t.Log("second poisoned query also answered (ok)")
	}
	// ...and other connections never notice.
	exec.DebugPanicTable = ""
	if _, err := bystander.Exec(`INSERT INTO Boom VALUES (7)`); err != nil {
		t.Fatalf("bystander connection broken by another connection's panic: %v", err)
	}
	res, err := victim.Exec(`SELECT COUNT(*) FROM Boom`)
	if err != nil || res.Rows[0][0].I != 1 {
		t.Fatalf("server unhealthy after panic: %v %v", res, err)
	}
}

func TestGracefulShutdownDrainsInFlightStatement(t *testing.T) {
	eng := core.New(core.Options{})
	srv := NewWith(eng, Config{DrainTimeout: 30 * time.Second, Logger: quietLogger()})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)

	c, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Exec(`CREATE TABLE Slow (a BIGINT)`); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Exec(`INSERT INTO Slow VALUES (42)`); err != nil {
		t.Fatal(err)
	}

	// Deterministic in-flight statement: the scan blocks in Open until we
	// release it, well after Shutdown has begun.
	entered := make(chan struct{})
	release := make(chan struct{})
	exec.DebugStallTable = "Slow"
	exec.DebugStall = func() {
		close(entered)
		<-release
	}
	defer func() { exec.DebugStallTable = ""; exec.DebugStall = nil }()

	type outcome struct {
		res *Result
		err error
	}
	got := make(chan outcome, 1)
	go func() {
		res, err := c.Exec(`SELECT a FROM Slow`)
		got <- outcome{res, err}
	}()
	<-entered

	shutdownDone := make(chan struct{})
	go func() {
		srv.Shutdown()
		close(shutdownDone)
	}()
	// Shutdown must wait for the in-flight statement, not kill it.
	select {
	case <-shutdownDone:
		t.Fatal("Shutdown returned while a statement was in flight")
	case <-time.After(100 * time.Millisecond):
	}
	close(release)

	select {
	case o := <-got:
		if o.err != nil {
			t.Fatalf("in-flight statement lost its response: %v", o.err)
		}
		if len(o.res.Rows) != 1 || o.res.Rows[0][0].I != 42 {
			t.Fatalf("in-flight result corrupted: %+v", o.res)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("in-flight statement never completed")
	}
	select {
	case <-shutdownDone:
	case <-time.After(10 * time.Second):
		t.Fatal("Shutdown never returned after drain")
	}

	// Post-shutdown: new connections are refused cleanly.
	if conn, err := net.Dial("tcp", ln.Addr().String()); err == nil {
		conn.SetReadDeadline(time.Now().Add(2 * time.Second))
		buf := make([]byte, 1)
		if _, rerr := conn.Read(buf); rerr == nil {
			t.Fatal("post-shutdown connection was served")
		}
		conn.Close()
	}
}

func TestForcedShutdownCancelsStuckStatement(t *testing.T) {
	eng := core.New(core.Options{})
	srv := NewWith(eng, Config{DrainTimeout: 100 * time.Millisecond, Logger: quietLogger()})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	c, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cyclicSetup(t, c)

	// A runaway statement with no deadline: only the forced phase of
	// Shutdown (baseCtx cancel + conn close) can stop it.
	go c.Exec(runawayQuery)
	time.Sleep(100 * time.Millisecond) // let it start traversing

	done := make(chan struct{})
	go func() {
		srv.Shutdown()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("Shutdown hung on a runaway statement despite DrainTimeout")
	}
}

func TestAdmissionControlShedsAndClientRetries(t *testing.T) {
	_, addr := startServerWith(t, Config{MaxConcurrent: 1, Logger: quietLogger()})
	setup, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer setup.Close()
	if _, err := setup.Exec(`CREATE TABLE Slow (a BIGINT)`); err != nil {
		t.Fatal(err)
	}

	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	exec.DebugStallTable = "Slow"
	exec.DebugStall = func() {
		once.Do(func() { close(entered) })
		<-release
	}
	defer func() { exec.DebugStallTable = ""; exec.DebugStall = nil }()

	// Occupy the only admission slot.
	go setup.Exec(`SELECT a FROM Slow`)
	<-entered

	// A plain client is shed immediately with a retryable error.
	plain, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	_, err = plain.Exec(`SELECT COUNT(*) FROM Slow WHERE a = 0`)
	var se *ServerError
	if err == nil || !asServerError(err, &se) || !se.Retryable {
		t.Fatalf("err = %v, want a retryable overload error", err)
	}
	if !strings.Contains(err.Error(), "overloaded") {
		t.Fatalf("overload error not descriptive: %v", err)
	}

	// A retrying client rides out the overload: release the slot shortly
	// after its first shed.
	retrier, err := DialWith(addr, Options{MaxRetries: 20, RetryBase: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer retrier.Close()
	go func() {
		time.Sleep(150 * time.Millisecond)
		close(release)
	}()
	if _, err := retrier.Exec(`SELECT COUNT(*) FROM Slow WHERE a = 0`); err != nil {
		t.Fatalf("retrying client failed across a transient overload: %v", err)
	}
}

func asServerError(err error, target **ServerError) bool {
	for err != nil {
		if se, ok := err.(*ServerError); ok {
			*target = se
			return true
		}
		u, ok := err.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
	return false
}

func TestIdleConnectionsAreReaped(t *testing.T) {
	_, addr := startServerWith(t, Config{IdleTimeout: 100 * time.Millisecond, Logger: quietLogger()})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetReadDeadline(time.Now().Add(30 * time.Second))
	buf := make([]byte, 1)
	start := time.Now()
	if _, err := conn.Read(buf); err == nil {
		t.Fatal("idle connection was not closed")
	}
	if time.Since(start) > 10*time.Second {
		t.Fatal("idle reaping took too long")
	}
}

func TestAcceptLoopSurvivesTemporaryErrors(t *testing.T) {
	eng := core.New(core.Options{})
	srv := NewWith(eng, Config{Logger: quietLogger()})
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// Every other accept fails with a temporary error first.
	ln := faultnet.Wrap(inner, faultnet.Options{AcceptErrEvery: 2})
	go srv.Serve(ln)
	t.Cleanup(srv.Shutdown)

	for i := 0; i < 6; i++ {
		c, err := Dial(inner.Addr().String())
		if err != nil {
			t.Fatalf("dial %d: %v", i, err)
		}
		if _, err := c.Exec(`SHOW TABLES`); err != nil {
			t.Fatalf("exec %d after injected accept errors: %v", i, err)
		}
		c.Close()
	}
}

func TestRequestTimeoutMSFieldIsHonored(t *testing.T) {
	// timeout_ms in a raw MsgQuery frame bounds the statement without any
	// client-library involvement: no client deadline is armed.
	_, addr := startServerWith(t, Config{Logger: quietLogger()})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cyclicSetup(t, c)

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	br := bufio.NewReader(conn)
	if _, err := conn.Write(wire.Hello()); err != nil {
		t.Fatal(err)
	}
	if kind, _, err := wire.ReadFrame(br); err != nil || kind != wire.MsgHello {
		t.Fatalf("hello ack: %d %v", kind, err)
	}
	if err := wire.WriteFrame(conn, wire.MsgQuery, wire.AppendQuery(nil, runawayQuery, 50)); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(30 * time.Second))
	kind, body, err := wire.ReadFrame(br)
	if err != nil || kind != wire.MsgError {
		t.Fatalf("response: kind 0x%02x %v, want MsgError", kind, err)
	}
	if msg, _, _, err := wire.DecodeError(body); err != nil || !strings.Contains(msg, "timeout") {
		t.Fatalf("response: %q %v", msg, err)
	}
}

// TestPreparedWriteDeadlineOverWire queues a prepared insert behind an
// open COPY (which holds the engine's write lock) for longer than its
// deadline — first the request's timeout_ms, then the server's
// QueryTimeout. The insert must come back as a typed timeout response on
// a connection that stays usable, and must not apply.
func TestPreparedWriteDeadlineOverWire(t *testing.T) {
	for _, tc := range []struct {
		name    string
		cfg     Config
		request time.Duration
	}{
		{name: "timeout_ms", cfg: Config{Logger: quietLogger()}, request: 20 * time.Millisecond},
		{name: "QueryTimeout", cfg: Config{QueryTimeout: 20 * time.Millisecond, Logger: quietLogger()}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, addr := startServerWith(t, tc.cfg)
			dial := func() *Client {
				c, err := DialWith(addr, Options{Protocol: ProtoBinary})
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { c.Close() })
				return c
			}
			loader, writer := dial(), dial()
			if _, err := writer.Exec(`CREATE TABLE T (a BIGINT PRIMARY KEY)`); err != nil {
				t.Fatal(err)
			}
			ins, err := writer.Prepare(`INSERT INTO T VALUES (?)`)
			if err != nil {
				t.Fatal(err)
			}
			ci, err := loader.CopyIn("T", nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			queued := make(chan error, 1)
			go func() { _, err := ins.ExecTimeout(tc.request, types.NewInt(1)); queued <- err }()
			time.Sleep(100 * time.Millisecond)
			if _, err := ci.Close(); err != nil {
				t.Fatal(err)
			}
			var se *ServerError
			if err := <-queued; !errors.As(err, &se) || !strings.Contains(se.Msg, "timeout") {
				t.Fatalf("queued prepared insert: err = %v, want a server timeout error", err)
			}
			res, err := writer.Exec(`SELECT COUNT(*) FROM T`)
			if err != nil {
				t.Fatalf("connection unusable after the timeout: %v", err)
			}
			if res.Rows[0][0].I != 0 {
				t.Fatalf("expired prepared insert applied: %v", res.Rows[0])
			}
		})
	}
}
