package main

import (
	"fmt"
	"math"
	"net"
	"os"
	"strconv"
	"strings"
	"time"

	"grfusion/internal/core"
	"grfusion/internal/server"
	"grfusion/internal/types"
)

// opKind names one operation type of a workload and says which latency
// family its samples belong to.
type opKind struct {
	name   string
	family family
}

type family uint8

const (
	read  family = iota // counted in read_p50_ms
	write               // counted in write_p50_ms
	batch               // paced bulk ops (COPY load + purge): reported on their own, not in either family
)

// op is one client request plus everything needed to check its reply and,
// in the traced run, to replay it against single layers.
type op struct {
	kind   uint8
	si     int    // index of the prepared statement on the connection; -1 sends text ad hoc
	text   string // the SQL: sent as is when si < 0, otherwise the prepared template
	params []types.Value
	want   expect
	probe  layerProbe
}

// expect is the reference answer of one op.
type expect struct {
	affected int       // DML: rows the statement must touch; -1 for queries
	rows     int       // queries: result row count; -1 = not fixed
	first    types.Row // queries: the leading values of the first row; nil = not checked
	custom   func(*server.Result) bool
}

func (w *expect) check(res *server.Result) bool {
	if w.custom != nil {
		return w.custom(res)
	}
	if w.affected >= 0 {
		return res.Affected == w.affected
	}
	if w.rows >= 0 && len(res.Rows) != w.rows {
		return false
	}
	if len(w.first) == 0 {
		return true
	}
	if len(res.Rows) == 0 || len(res.Rows[0]) < len(w.first) {
		return false
	}
	for i, v := range w.first {
		if !sameValue(res.Rows[0][i], v) {
			return false
		}
	}
	return true
}

// sameValue compares a reply value with the reference: exactly, except that
// floats may differ by summation order (1e-9 relative).
func sameValue(got, want types.Value) bool {
	if want.Kind == types.KindFloat || got.Kind == types.KindFloat {
		if !got.IsNumeric() || !want.IsNumeric() {
			return false
		}
		g, w := got.AsFloat(), want.AsFloat()
		return math.Abs(g-w) <= 1e-9*math.Max(1, math.Abs(w))
	}
	return got.Kind == want.Kind && got.I == want.I && got.S == want.S && got.B == want.B
}

func wantRows(n int, first ...types.Value) expect { return expect{affected: -1, rows: n, first: first} }
func wantAffected(n int) expect                   { return expect{affected: n, rows: -1} }

// conn is one application connection with its prepared statements.
type conn struct {
	c     *server.Client
	stmts []*server.Stmt
	sys   *system
}

// do sends the op, waits for the reply and checks it.
func (c *conn) do(o *op) bool {
	res, err := c.send(o)
	return err == nil && o.want.check(res)
}

func (c *conn) send(o *op) (*server.Result, error) {
	if o.si >= 0 {
		return c.stmts[o.si].Exec(o.params...)
	}
	return c.c.Exec(o.text)
}

// system is one set-up instance of the program: an engine behind a server
// on a loopback listener, with the application's connections open and their
// statements prepared.
type system struct {
	eng   *core.Engine
	srv   *server.Server
	addr  string
	conns []*conn // conns[0] also runs the set-up's DDL and COPY
	// Durable workloads only: the engine's directory and the recording
	// filesystem it writes through.
	dir string
	rfs *recFS
	// COPY volume and time of the set-up, for core.copy_rows_per_s.
	copied int
	copyNS time.Duration
}

// serve starts a server for eng on a loopback port and dials n binary
// connections.
func serve(eng *core.Engine, n int) (*system, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	sys := &system{eng: eng, srv: server.New(eng), addr: ln.Addr().String()}
	go sys.srv.Serve(ln) // returns when Shutdown closes the listener
	for i := 0; i < n; i++ {
		cl, err := server.DialWith(sys.addr, server.Options{
			Protocol:       server.ProtoBinary,
			ConnectTimeout: 10 * time.Second,
			RequestTimeout: 60 * time.Second,
		})
		if err != nil {
			sys.close()
			return nil, err
		}
		sys.conns = append(sys.conns, &conn{c: cl, sys: sys})
	}
	return sys, nil
}

// prepare compiles the templates on the connection, once their tables
// exist; an op's si indexes the result.
func (c *conn) prepare(templates ...string) error {
	for _, q := range templates {
		st, err := c.c.Prepare(q)
		if err != nil {
			return fmt.Errorf("prepare %q: %w", q, err)
		}
		c.stmts = append(c.stmts, st)
	}
	return nil
}

// close stops the server and the engine. A durable engine is killed, not
// shut down: nothing reads its directory again unless the caller recovers
// it, and a shutdown checkpoint would only add time.
func (s *system) close() {
	for _, c := range s.conns {
		c.c.Close()
	}
	s.srv.ShutdownTimeout(2 * time.Second)
	if s.eng.Durable() {
		s.eng.Kill()
	} else {
		s.eng.Close()
	}
	if s.dir != "" {
		os.RemoveAll(s.dir)
	}
}

// script runs DDL statements over the wire.
func (c *conn) script(stmts ...string) error {
	for _, q := range stmts {
		if _, err := c.c.Exec(q); err != nil {
			return fmt.Errorf("%s: %w", q, err)
		}
	}
	return nil
}

// copyBatch is the COPY frame size set-up and ingest use.
const copyBatch = 4096

// copyRows bulk-loads n rows produced by row(i) through one COPY stream.
func (c *conn) copyRows(table string, n int, row func(i int) types.Row) error {
	t0 := time.Now()
	defer func() { c.sys.copied, c.sys.copyNS = c.sys.copied+n, c.sys.copyNS+time.Since(t0) }()
	ci, err := c.c.CopyIn(table, nil, n)
	if err != nil {
		return fmt.Errorf("copy %s: %w", table, err)
	}
	batch := make([]types.Row, 0, copyBatch)
	for i := 0; i < n; i++ {
		batch = append(batch, row(i))
		if len(batch) == copyBatch || i == n-1 {
			if err := ci.Send(batch); err != nil {
				return fmt.Errorf("copy %s: %w", table, err)
			}
			batch = batch[:0]
		}
	}
	res, err := ci.Close()
	if err != nil {
		return fmt.Errorf("copy %s: %w", table, err)
	}
	if res.Affected != n {
		return fmt.Errorf("copy %s: loaded %d of %d rows", table, res.Affected, n)
	}
	return nil
}

// clientLog is what one client goroutine recorded; only that goroutine
// writes it until the window ends.
type clientLog struct {
	samples []sample
	late    []time.Duration // paced clients: how late each op was sent
}

// window is the timing of one run: warm-up [launch, start), then the timed
// window [start, end). Clients run through both; only the second records.
type window struct {
	launch, start, end time.Time
}

func newWindow(warm, timed time.Duration) window {
	launch := time.Now()
	start := launch.Add(warm)
	return window{launch: launch, start: start, end: start.Add(timed)}
}

// closedLoop is an application connection that waits for each reply before
// sending the next request. Ops started during warm-up are not recorded.
func (w window) closedLoop(c *conn, next func() *op, log *clientLog) {
	for {
		t0 := time.Now()
		if !t0.Before(w.end) {
			return
		}
		o := next()
		ok := c.do(o)
		if !t0.Before(w.start) {
			log.samples = append(log.samples, sample{
				kind: o.kind, ok: ok, at: int64(t0.Sub(w.start)), lat: int64(time.Since(t0))})
		}
	}
}

// pacedLoop sends one op per interval on a fixed schedule (open loop) and
// times each from its due time, so a stall is charged to every op it
// delays. run performs op i and reports its kind and success.
func (w window) pacedLoop(interval time.Duration, run func(i int) (kind uint8, ok bool), log *clientLog) {
	p := pacer{start: w.launch, interval: interval}
	for {
		i := p.i
		due := p.next()
		if !due.Before(w.end) {
			return
		}
		late := wait(due)
		kind, ok := run(i)
		if !due.Before(w.start) {
			log.late = append(log.late, late)
			log.samples = append(log.samples, sample{
				kind: kind, ok: ok, at: int64(due.Sub(w.start)), lat: int64(time.Since(due))})
		}
	}
}

// peakMemMB reads the process's resident-set high-water mark.
func peakMemMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, _ := strconv.ParseFloat(f[1], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// metricsOf returns the engine's counters by name.
func metricsOf(eng *core.Engine) map[string]int64 {
	m := map[string]int64{}
	for _, kv := range eng.MetricsSnapshot() {
		m[kv.Name] = kv.Value
	}
	return m
}
