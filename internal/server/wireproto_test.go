package server

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"grfusion/internal/core"
	"grfusion/internal/faultnet"
	"grfusion/internal/types"
	"grfusion/internal/wire"
)

// --- connection start ---------------------------------------------------

func TestNegotiationBinaryByDefault(t *testing.T) {
	srv, _ := startServer(t)
	addr := srv.Addr().String()
	// The zero Options and ProtoBinary both speak the binary protocol:
	// prepared statements, which only it carries, work.
	for _, proto := range []string{"", ProtoBinary} {
		c, err := DialWith(addr, Options{Protocol: proto})
		if err != nil {
			t.Fatalf("Protocol %q: %v", proto, err)
		}
		st, err := c.Prepare(`SELECT 1 WHERE 1 = ?`)
		if err != nil {
			t.Fatalf("Protocol %q: prepare: %v", proto, err)
		}
		st.Close()
		c.Close()
	}
	// Any other value is refused before anything is sent.
	for _, proto := range []string{"json", "auto", "Binary"} {
		if _, err := DialWith(addr, Options{Protocol: proto}); err == nil || !strings.Contains(err.Error(), "unknown protocol") {
			t.Fatalf("Protocol %q: err = %v, want unknown protocol", proto, err)
		}
	}
}

// TestNegotiationJSONClientBinaryServer: a JSON-lines client (one request
// object per line) gets one plain-text diagnostic and a close, and the
// server keeps serving.
func TestNegotiationJSONClientBinaryServer(t *testing.T) {
	srv, healthy := startServer(t)
	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte(`{"query": "SELECT 1"}` + "\n")); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(30 * time.Second))
	br := bufio.NewReader(conn)
	line, err := br.ReadString('\n')
	if err != nil || !strings.Contains(line, "unrecognized protocol") {
		t.Fatalf("diagnostic: %q %v", line, err)
	}
	if b, err := br.ReadByte(); err != io.EOF {
		t.Fatalf("connection not closed after the diagnostic: read %q, %v", b, err)
	}
	if _, err := healthy.Exec(`SELECT 1 WHERE 1 = 0`); err != nil {
		t.Fatalf("server unhealthy after a JSON-lines peer: %v", err)
	}
}

// TestNegotiationBinaryClientJSONServer: a client dialing a peer that
// answers the hello with a text line (a JSON-lines server) fails the
// dial with a handshake error; it does not hang or fall back.
func TestNegotiationBinaryClientJSONServer(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		bufio.NewReader(conn).ReadString('\n')
		conn.Write([]byte(`{"error": "bad request: invalid character 'G'"}` + "\n"))
		io.Copy(io.Discard, conn)
	}()
	if _, err := DialWith(ln.Addr().String(), Options{ConnectTimeout: 5 * time.Second}); err == nil ||
		!strings.Contains(err.Error(), "handshake") {
		t.Fatalf("dial against a JSON-lines server: %v, want handshake error", err)
	}
}

func TestNegotiationGarbageAfterG(t *testing.T) {
	srv, _ := startServer(t)
	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// A first byte of 'G' promises the binary hello; garbage after it gets
	// the plain-text diagnostic, then a close.
	if _, err := conn.Write([]byte("GOPHER\n")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4096)
	n, err := conn.Read(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(buf[:n]), "unrecognized protocol") {
		t.Fatalf("response: %s", buf[:n])
	}
}

func TestNegotiationMidHandshakeDisconnect(t *testing.T) {
	srv, healthy := startServer(t)

	// A peer that dies three bytes into the hello must not wedge the
	// server.
	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	conn.Write([]byte("GRW"))
	conn.Close()

	// And a server that dies mid-handshake must surface a clean typed
	// error from the client's dial, not a hang or panic.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		c, err := ln.Accept()
		if err == nil {
			c.Close() // slam the door before answering the hello
		}
	}()
	if _, err := DialWith(ln.Addr().String(), Options{ConnectTimeout: 5 * time.Second}); err == nil ||
		!strings.Contains(err.Error(), "handshake") {
		t.Fatalf("dial against mid-handshake close: %v, want handshake error", err)
	}

	// The real server is still fine.
	if _, err := healthy.Exec(`SELECT 1 WHERE 1 = 0`); err != nil {
		t.Fatalf("server unhealthy after handshake abuse: %v", err)
	}
}

// --- satellite 1: one buffered write per request ------------------------

// countingConn counts Write calls: every request must cost one write, and
// a pipeline flush exactly one for the whole batch.
type countingConn struct {
	net.Conn
	mu     sync.Mutex
	writes int
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	c.writes++
	c.mu.Unlock()
	return c.Conn.Write(p)
}

func (c *countingConn) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.writes
}

func dialCounting(t *testing.T, addr string, opts Options) (*Client, *countingConn) {
	t.Helper()
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	cc := &countingConn{Conn: raw}
	c, err := NewClientConn(cc, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c, cc
}

func TestClientOneWritePerRequest(t *testing.T) {
	srv, admin := startServer(t)
	if _, err := admin.Exec(`CREATE TABLE W (a BIGINT)`); err != nil {
		t.Fatal(err)
	}
	t.Run(ProtoBinary, func(t *testing.T) {
		c, cc := dialCounting(t, srv.Addr().String(), Options{Protocol: ProtoBinary})
		base := cc.count() // the hello
		const reqs = 5
		for i := 0; i < reqs; i++ {
			if _, err := c.Exec(`SELECT COUNT(*) FROM W`); err != nil {
				t.Fatal(err)
			}
		}
		if got := cc.count() - base; got != reqs {
			t.Fatalf("%d requests cost %d writes, want exactly %d (buffered writer regression)",
				reqs, got, reqs)
		}
	})
}

func TestPipelineOneWritePerBatch(t *testing.T) {
	srv, admin := startServer(t)
	if _, err := admin.Exec(`CREATE TABLE PW (a BIGINT)`); err != nil {
		t.Fatal(err)
	}
	t.Run(ProtoBinary, func(t *testing.T) {
		c, cc := dialCounting(t, srv.Addr().String(), Options{Protocol: ProtoBinary})
		p := c.Pipeline()
		for i := 0; i < 10; i++ {
			p.Query(`SELECT COUNT(*) FROM PW`)
		}
		base := cc.count()
		results, err := p.Flush()
		if err != nil {
			t.Fatal(err)
		}
		if len(results) != 10 {
			t.Fatalf("got %d results", len(results))
		}
		for i, r := range results {
			if r.Err != nil {
				t.Fatalf("pipelined query %d: %v", i, r.Err)
			}
		}
		if got := cc.count() - base; got != 1 {
			t.Fatalf("pipeline of 10 cost %d writes, want exactly 1", got)
		}
	})
}

// --- pipelining semantics ----------------------------------------------

func TestPipelineOrderedWithErrors(t *testing.T) {
	_, c := startServer(t)
	if _, err := c.Exec(`CREATE TABLE P (a BIGINT PRIMARY KEY)`); err != nil {
		t.Fatal(err)
	}
	p := c.Pipeline()
	p.Query(`INSERT INTO P VALUES (1)`)
	p.Query(`INSERT INTO P VALUES (1)`) // duplicate key: fails
	p.Query(`INSERT INTO P VALUES (2)`) // must still execute, in order
	p.Query(`SELECT a FROM P ORDER BY a`)
	results, err := p.Flush()
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 4 {
		t.Fatalf("got %d results", len(results))
	}
	if results[0].Err != nil || results[0].Res.Affected != 1 {
		t.Fatalf("first insert: %+v", results[0])
	}
	var se *ServerError
	if !errors.As(results[1].Err, &se) {
		t.Fatalf("duplicate insert: %v, want ServerError", results[1].Err)
	}
	if results[2].Err != nil {
		t.Fatalf("post-error insert: %v", results[2].Err)
	}
	sel := results[3]
	if sel.Err != nil || len(sel.Res.Rows) != 2 ||
		sel.Res.Rows[0][0].I != 1 || sel.Res.Rows[1][0].I != 2 {
		t.Fatalf("pipelined select: %+v %v", sel.Res, sel.Err)
	}
	// The pipeline is reusable and the connection is healthy.
	if _, err := c.Exec(`SELECT 1 WHERE 1 = 0`); err != nil {
		t.Fatal(err)
	}
}

// --- prepared statements over the wire ---------------------------------

func TestPreparedOverWire(t *testing.T) {
	_, c := startServer(t)
	for _, q := range []string{
		`CREATE TABLE PS (id BIGINT PRIMARY KEY, name VARCHAR)`,
	} {
		if _, err := c.Exec(q); err != nil {
			t.Fatal(err)
		}
	}
	ins, err := c.Prepare(`INSERT INTO PS VALUES (?, ?)`)
	if err != nil {
		t.Fatal(err)
	}
	if ins.NumParams() != 2 {
		t.Fatalf("nparams = %d", ins.NumParams())
	}
	for i := 1; i <= 20; i++ {
		if _, err := ins.Exec(types.NewInt(int64(i)), types.NewString(fmt.Sprintf("n%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	sel, err := c.Prepare(`SELECT name FROM PS WHERE id = ?`)
	if err != nil {
		t.Fatal(err)
	}
	if got := sel.Columns(); len(got) != 1 || got[0] != "name" {
		t.Fatalf("columns: %v", got)
	}
	res, err := sel.Exec(types.NewInt(7))
	if err != nil || len(res.Rows) != 1 || res.Rows[0][0].S != "n7" {
		t.Fatalf("prepared select: %+v %v", res, err)
	}
	// Pipelined prepared executions: many lookups, one round trip.
	p := c.Pipeline()
	for i := 1; i <= 10; i++ {
		p.ExecStmt(sel, types.NewInt(int64(i)))
	}
	results, err := p.Flush()
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.Err != nil || len(r.Res.Rows) != 1 || r.Res.Rows[0][0].S != fmt.Sprintf("n%d", i+1) {
			t.Fatalf("pipelined exec %d: %+v %v", i, r.Res, r.Err)
		}
	}
	if err := sel.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := sel.Exec(types.NewInt(1)); err == nil {
		t.Fatal("exec on closed statement succeeded")
	}
	// Prepared statements don't survive on the server after close either.
	if err := ins.Close(); err != nil {
		t.Fatal(err)
	}
}

// --- COPY bulk ingest ---------------------------------------------------

func copySchema(t *testing.T, c *Client) {
	t.Helper()
	for _, q := range []string{
		`CREATE TABLE CV (vid BIGINT PRIMARY KEY, name VARCHAR)`,
		`CREATE TABLE CE (eid BIGINT PRIMARY KEY, a BIGINT, b BIGINT)`,
		`CREATE DIRECTED GRAPH VIEW CG VERTEXES(ID=vid) FROM CV EDGES(ID=eid, FROM=a, TO=b) FROM CE`,
	} {
		if _, err := c.Exec(q); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}
}

func TestCopyInEndToEnd(t *testing.T) {
	_, c := startServer(t)
	copySchema(t, c)

	const nv, ne = 500, 2000
	ci, err := c.CopyIn("CV", nil, nv)
	if err != nil {
		t.Fatal(err)
	}
	batch := make([]types.Row, 0, 100)
	for i := 0; i < nv; i++ {
		batch = append(batch, types.Row{types.NewInt(int64(i)), types.NewString(fmt.Sprintf("v%d", i))})
		if len(batch) == cap(batch) {
			if err := ci.Send(batch); err != nil {
				t.Fatal(err)
			}
			batch = batch[:0]
		}
	}
	res, err := ci.Close()
	if err != nil || res.Affected != nv {
		t.Fatalf("vertex copy: %+v %v", res, err)
	}

	// Edges through an explicit (reordered) column list.
	ci, err = c.CopyIn("CE", []string{"eid", "b", "a"}, ne)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < ne; i++ {
		batch = append(batch, types.Row{
			types.NewInt(int64(i)),
			types.NewInt(int64((i + 1) % nv)), // b
			types.NewInt(int64(i % nv)),       // a
		})
		if len(batch) == cap(batch) {
			if err := ci.Send(batch); err != nil {
				t.Fatal(err)
			}
			batch = batch[:0]
		}
	}
	if err := ci.Send(batch); err != nil {
		t.Fatal(err)
	}
	res, err = ci.Close()
	if err != nil || res.Affected != ne {
		t.Fatalf("edge copy: %+v %v", res, err)
	}

	for q, want := range map[string]int64{
		`SELECT COUNT(*) FROM CV`:                     nv,
		`SELECT COUNT(*) FROM CE`:                     ne,
		`SELECT COUNT(*) FROM CE WHERE a = 3`:         ne / nv,
		`SELECT COUNT(*) FROM CG.DEGREE_CENTRALITY()`: nv,
	} {
		res, err := c.Exec(q)
		if err != nil || len(res.Rows) != 1 || res.Rows[0][0].I != want {
			t.Fatalf("%s: %+v %v (want %d)", q, res, err, want)
		}
	}
}

func TestCopyInFailureKeepsAppliedBatches(t *testing.T) {
	_, c := startServer(t)
	copySchema(t, c)
	ci, err := c.CopyIn("CV", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	good := []types.Row{
		{types.NewInt(1), types.NewString("a")},
		{types.NewInt(2), types.NewString("b")},
	}
	bad := []types.Row{
		{types.NewInt(3), types.NewString("c")},
		{types.NewInt(1), types.NewString("dup")}, // duplicate key: batch fails
	}
	tail := []types.Row{{types.NewInt(4), types.NewString("d")}}
	if err := ci.Send(good); err != nil {
		t.Fatal(err)
	}
	if err := ci.Send(bad); err != nil {
		t.Fatal(err)
	}
	if err := ci.Send(tail); err != nil { // discarded after the failure
		t.Fatal(err)
	}
	_, err = ci.Close()
	var se *ServerError
	if !errors.As(err, &se) || !strings.Contains(se.Msg, "after 2 row(s)") {
		t.Fatalf("copy close: %v, want bulk-load failure naming 2 applied rows", err)
	}
	// The failed batch rolled back whole; earlier batches stayed; the
	// stream after the failure was discarded; the connection still works.
	res, err := c.Exec(`SELECT COUNT(*) FROM CV`)
	if err != nil || res.Rows[0][0].I != 2 {
		t.Fatalf("rows after failed copy: %+v %v", res, err)
	}
}

func TestCopyInOwnsConnection(t *testing.T) {
	_, c := startServer(t)
	copySchema(t, c)
	ci, err := c.CopyIn("CV", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Exec(`SELECT 1 WHERE 1 = 0`); err == nil || !strings.Contains(err.Error(), "COPY") {
		t.Fatalf("Exec during COPY: %v", err)
	}
	if _, err := ci.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Exec(`SELECT 1 WHERE 1 = 0`); err != nil {
		t.Fatalf("Exec after COPY close: %v", err)
	}
}

// --- oversized frames ---------------------------------------------------

func TestOversizedFrameGetsDiagnostic(t *testing.T) {
	srv, _ := startServer(t)
	conn, err := net.Dial("tcp", srv.Addr().String())
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
	// An oversized frame: valid header declaring cap+1 bytes, then that
	// many bytes of junk plus a CRC. The server must answer with the
	// diagnostic and keep the connection serving.
	huge := wire.MaxFrameBytes + 1
	hdr := []byte{byte(huge >> 24), byte(huge >> 16), byte(huge >> 8), byte(huge)}
	if _, err := conn.Write(hdr); err != nil {
		t.Fatal(err)
	}
	junk := make([]byte, 1<<20)
	for sent := 0; sent < huge+4; {
		n := len(junk)
		if rem := huge + 4 - sent; n > rem {
			n = rem
		}
		if _, err := conn.Write(junk[:n]); err != nil {
			t.Fatal(err)
		}
		sent += n
	}
	if err := wire.WriteFrame(conn, wire.MsgQuery, wire.AppendQuery(nil, "SELECT 1 WHERE 1 = 0", 0)); err != nil {
		t.Fatal(err)
	}
	kind, body, err := wire.ReadFrame(br)
	if err != nil || kind != wire.MsgError {
		t.Fatalf("oversized frame response: %d %v", kind, err)
	}
	msg, _, _, err := wire.DecodeError(body)
	if err != nil || !strings.Contains(msg, "request too large") {
		t.Fatalf("diagnostic: %q %v", msg, err)
	}
	if kind, _, err = wire.ReadFrame(br); err != nil || kind != wire.MsgResult {
		t.Fatalf("stream desynchronized after oversized frame: %d %v", kind, err)
	}
}

// --- faultnet: corrupted and torn frames --------------------------------

// TestFramedTrafficSurvivesResponseCorruption drives a client through a
// listener that corrupts and tears server->client bytes: every request
// must end in either a correct result or a client-side receive error that
// poisons the connection — never a silently wrong result.
func TestFramedTrafficSurvivesResponseCorruption(t *testing.T) {
	eng := core.New(core.Options{})
	srv := New(eng)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fln := faultnet.Wrap(ln, faultnet.Options{Seed: 7, CorruptProb: 0.3, SplitProb: 0.3})
	go srv.Serve(fln)
	t.Cleanup(srv.Shutdown)

	// RequestTimeout matters here: a corrupted length header can promise
	// bytes that never arrive, and only the wire deadline turns that into
	// a clean (poisoning) receive error instead of a hang.
	copts := Options{ConnectTimeout: 5 * time.Second, RequestTimeout: 500 * time.Millisecond}
	redial := func() *Client {
		for {
			c, err := DialWith(ln.Addr().String(), copts)
			if err == nil {
				return c
			}
		}
	}
	setup := redial()
	for {
		if _, err := setup.Exec(`CREATE TABLE F (a BIGINT PRIMARY KEY)`); err == nil {
			break
		} else if se := new(ServerError); errors.As(err, &se) {
			break // reached the engine (already created)
		}
		setup.Close()
		setup = redial()
	}
	setup.Close()

	var sawReceiveError bool
	var c *Client
	for i := 0; i < 60; i++ {
		if c == nil || c.Broken() {
			if c != nil {
				c.Close()
			}
			c = redial()
		}
		res, err := c.Exec(`SELECT COUNT(*) FROM F`)
		if err != nil {
			var se *ServerError
			if errors.As(err, &se) {
				t.Fatalf("corruption surfaced as a server error: %v", se)
			}
			sawReceiveError = true
			if !c.Broken() {
				t.Fatalf("receive failure did not poison the connection: %v", err)
			}
			continue
		}
		// CRC held: the result must be exactly right.
		if len(res.Rows) != 1 || res.Rows[0][0].I != 0 {
			t.Fatalf("silently wrong result under corruption: %+v", res)
		}
	}
	if c != nil {
		c.Close()
	}
	if !sawReceiveError {
		t.Fatal("fault schedule never corrupted a response; raise CorruptProb")
	}
}

// TestFramedTrafficSurvivesRequestCorruption corrupts client->server
// frames: the server must answer with a bad-frame diagnostic or drop the
// connection — and keep serving healthy clients — while the client never
// sees a success for a request the server rejected.
func TestFramedTrafficSurvivesRequestCorruption(t *testing.T) {
	srv, admin := startServer(t)
	if _, err := admin.Exec(`CREATE TABLE RQ (a BIGINT)`); err != nil {
		t.Fatal(err)
	}
	var sawFailure bool
	for i := 0; i < 30; i++ {
		raw, err := net.Dial("tcp", srv.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		fc := faultnet.WrapConn(raw, faultnet.Options{Seed: int64(i), CorruptProb: 0.4, SplitProb: 0.3})
		c, err := NewClientConn(fc, Options{ConnectTimeout: 5 * time.Second, RequestTimeout: 500 * time.Millisecond})
		if err != nil {
			continue // hello corrupted; the server closed on us
		}
		for j := 0; j < 5; j++ {
			res, err := c.Exec(`SELECT COUNT(*) FROM RQ`)
			if err != nil {
				sawFailure = true
				break
			}
			if len(res.Rows) != 1 || res.Rows[0][0].I != 0 {
				t.Fatalf("silently wrong result: %+v", res)
			}
		}
		c.Close()
	}
	if !sawFailure {
		t.Fatal("fault schedule never corrupted a request; raise CorruptProb")
	}
	// The server survived all of it.
	if _, err := admin.Exec(`SELECT COUNT(*) FROM RQ`); err != nil {
		t.Fatalf("server unhealthy after request corruption: %v", err)
	}
}

// --- connection pool ----------------------------------------------------

func TestPoolReusesAndReplacesConnections(t *testing.T) {
	srv, admin := startServer(t)
	if _, err := admin.Exec(`CREATE TABLE PL (a BIGINT)`); err != nil {
		t.Fatal(err)
	}
	pool := NewPool(srv.Addr().String(), Options{ConnectTimeout: 5 * time.Second}, 4)
	defer pool.Close()

	c1, err := pool.Get()
	if err != nil {
		t.Fatal(err)
	}
	pool.Put(c1)
	c2, err := pool.Get()
	if err != nil {
		t.Fatal(err)
	}
	if c1 != c2 {
		t.Fatal("healthy connection was not reused")
	}

	// Poison it: a dead socket mid-request breaks the client, and the pool
	// must discard it on return instead of handing it out again.
	c2.conn.Close()
	if _, err := c2.Exec(`SELECT 1 WHERE 1 = 0`); err == nil {
		t.Fatal("exec on closed conn succeeded")
	}
	if !c2.Broken() {
		t.Fatal("dead connection not marked broken")
	}
	pool.Put(c2)
	if idle, _ := pool.Stats(); idle != 0 {
		t.Fatalf("poisoned connection parked in idle set (idle=%d)", idle)
	}
	c3, err := pool.Get()
	if err != nil {
		t.Fatal(err)
	}
	if c3 == c2 {
		t.Fatal("poisoned connection resurfaced")
	}
	if _, err := c3.Exec(`SELECT COUNT(*) FROM PL`); err != nil {
		t.Fatal(err)
	}
	pool.Put(c3)

	if _, err := pool.Exec(`SELECT COUNT(*) FROM PL`); err != nil {
		t.Fatal(err)
	}
}

func TestPoolCapacityBlocksUntilReturn(t *testing.T) {
	srv, _ := startServer(t)
	pool := NewPool(srv.Addr().String(), Options{ConnectTimeout: 5 * time.Second}, 1)
	defer pool.Close()
	c, err := pool.Get()
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan *Client)
	go func() {
		c2, err := pool.Get()
		if err != nil {
			t.Error(err)
		}
		got <- c2
	}()
	select {
	case <-got:
		t.Fatal("Get returned past the pool capacity")
	case <-time.After(50 * time.Millisecond):
	}
	pool.Put(c)
	select {
	case c2 := <-got:
		if c2 != c {
			t.Fatal("blocked Get did not receive the returned connection")
		}
		pool.Put(c2)
	case <-time.After(5 * time.Second):
		t.Fatal("Get still blocked after a connection was returned")
	}
}

func TestPoolConcurrentWorkload(t *testing.T) {
	srv, admin := startServer(t)
	if _, err := admin.Exec(`CREATE TABLE PC (a BIGINT PRIMARY KEY)`); err != nil {
		t.Fatal(err)
	}
	pool := NewPool(srv.Addr().String(), Options{ConnectTimeout: 5 * time.Second}, 4)
	defer pool.Close()
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				if _, err := pool.Exec(fmt.Sprintf(`INSERT INTO PC VALUES (%d)`, g*100+i)); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	res, err := admin.Exec(`SELECT COUNT(*) FROM PC`)
	if err != nil || res.Rows[0][0].I != 64 {
		t.Fatalf("concurrent pool inserts: %+v %v", res, err)
	}
	if idle, out := pool.Stats(); out != 0 || idle == 0 || idle > 4 {
		t.Fatalf("pool stats after workload: idle=%d out=%d", idle, out)
	}
}
