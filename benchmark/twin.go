package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"time"

	"grfusion/internal/catalog"
	"grfusion/internal/core"
	"grfusion/internal/graph"
	"grfusion/internal/plan"
	"grfusion/internal/server"
	"grfusion/internal/sql"
	"grfusion/internal/storage"
	"grfusion/internal/types"
	"grfusion/internal/wal"
	"grfusion/internal/wire"
)

// twin replays a traced op below the wire. It owns engine B — set up exactly
// like the engine behind the server and fed the same ops, so both hold the
// same state — plus scratch tables (from a third identical set-up, used
// only as storage.Table values) and, for a durable workload, a scratch log.
// Each method records one span per call into a layer's public function.
type twin struct {
	tr      *tracer
	eng     *core.Engine
	selects []*core.Prepared    // by template index; nil where the template is DML
	dml     []*core.PreparedDML // by template index; nil where the template is a query
	tables  *catalog.Catalog    // scratch tables

	view     *catalog.GraphView // nil without a graph view
	csr      *graph.CSR         // the twin's own snapshot of view's topology
	dirty    bool               // topology written since csr was built
	useDFS   bool               // what the planner runs for the reachability template
	log      *wal.Log           // nil unless durable
	logFS    *recFS
	logPath  string
	examined int64 // EXPLAIN ANALYZE sample: rows leaf scans read
	returned int64 // EXPLAIN ANALYZE sample: rows returned
}

const viewName = "g"

func newTwin(tr *tracer, b, scratch *system, templates []string, outDir string) (*twin, error) {
	t := &twin{tr: tr, eng: b.eng, tables: scratch.eng.Catalog()}
	for _, q := range templates {
		stmt, err := sql.Parse(q)
		if err != nil {
			return nil, err
		}
		var sel *core.Prepared
		var dml *core.PreparedDML
		if _, ok := stmt.(*sql.Select); ok {
			sel, err = t.eng.Prepare(q)
		} else {
			dml, err = t.eng.PrepareDML(q)
		}
		if err != nil {
			return nil, err
		}
		t.selects, t.dml = append(t.selects, sel), append(t.dml, dml)
	}
	if gv, ok := t.eng.Catalog().GraphView(viewName); ok {
		t.view = gv
		g, err := t.eng.GraphTopology(viewName)
		if err != nil {
			return nil, err
		}
		t.csr = graph.BuildCSR(g)
		if plan, err := t.eng.Explain(strings.Replace(strings.Replace(
			traverseTemplates[tReach], "?", "0", 1), "?", "1", 1)); err == nil {
			t.useDFS = strings.Contains(plan, "DFScan")
		}
	}
	if b.eng.Durable() {
		t.logFS = newRecFS()
		t.logPath = filepath.Join(outDir, fmt.Sprintf("scratch-%d.wal", os.Getpid()))
		lg, _, err := wal.Open(t.logPath, wal.Options{Fsync: wal.FsyncAlways, FS: t.logFS})
		if err != nil {
			return nil, err
		}
		t.log = lg
	}
	return t, nil
}

func (t *twin) close() {
	if t.log != nil {
		t.log.Close()
		os.Remove(t.logPath)
	}
}

// traceOp sends o over the wire (the root span) and replays it on the twin.
// It returns the round trip's duration and whether the reply was right.
func (t *twin) traceOp(c *conn, o *op, opID int) (roundTrip int64, ok bool) {
	tr := t.tr
	root := tr.begin(0, opID, "op")
	res, err := c.send(o)
	tr.end(root)
	roundTrip = tr.spans[root-1].dur()
	if err != nil {
		return roundTrip, false
	}
	ok = o.want.check(res)
	t.codec(root, opID, o, res)

	isSelect := o.probe.rel < relInsert
	switch {
	case o.si < 0 && isSelect:
		var p *core.Prepared
		entry := tr.timed(root, opID, "core.Execute", func() { _, err = t.eng.Execute(o.text) })
		var stmt sql.Statement
		tr.timed(entry, opID, "sql.Parse", func() { stmt, _ = sql.Parse(o.text) })
		tr.timed(entry, opID, "plan.PlanSelect", func() { plan.New(t.eng.Catalog()).PlanSelect(stmt.(*sql.Select)) })
		if p, err = t.eng.Prepare(o.text); err == nil {
			run := tr.timed(entry, opID, "exec.run", func() { _, err = p.Query() })
			t.below(run, opID, o)
		}
	case o.si < 0:
		entry := tr.timed(root, opID, "core.Execute", func() { _, err = t.eng.Execute(o.text) })
		tr.timed(entry, opID, "sql.Parse", func() { sql.Parse(o.text) })
		t.below(entry, opID, o)
	case isSelect:
		run := tr.timed(root, opID, "exec.run", func() { _, err = t.selects[o.si].Query(o.params...) })
		t.below(run, opID, o)
	default:
		entry := tr.timed(root, opID, "core.PreparedDML.Exec", func() { _, err = t.dml[o.si].Exec(o.params...) })
		t.below(entry, opID, o)
	}
	if isSelect && opID%10 == 0 {
		t.explain(o)
	}
	return roundTrip, ok && err == nil
}

// codec times the wire package's encoders and decoders on the request and
// the reply that just crossed the socket: client encode, server decode,
// server encode, client decode.
func (t *twin) codec(parent, opID int, o *op, res *server.Result) {
	var nbytes int
	id := t.tr.timed(parent, opID, "wire.codec", func() {
		var req []byte
		if o.si >= 0 {
			req = wire.AppendFrame(nil, wire.MsgExecPrepared, wire.AppendExecPrepared(nil, uint64(o.si), 60_000, o.params))
		} else {
			req = wire.AppendFrame(nil, wire.MsgQuery, wire.AppendQuery(nil, o.text, 60_000))
		}
		if _, payload, err := wire.ReadFrame(bufio.NewReader(bytes.NewReader(req))); err == nil {
			if o.si >= 0 {
				wire.DecodeExecPrepared(payload)
			} else {
				wire.DecodeQuery(payload)
			}
		}
		rep := wire.AppendFrame(nil, wire.MsgResult, wire.AppendResult(nil,
			&wire.Result{Columns: res.Columns, Rows: res.Rows, Affected: res.Affected}))
		if _, payload, err := wire.ReadFrame(bufio.NewReader(bytes.NewReader(rep))); err == nil {
			wire.DecodeResult(payload)
		}
		nbytes = len(req) + len(rep)
	})
	t.tr.count(id, "bytes", int64(nbytes))
}

// below records the calls beneath the engine entry: graph kernels, storage
// operations, the graph clone a topology write pays, the CSR build the first
// read after it pays, and the log append of a durable write.
func (t *twin) below(parent, opID int, o *op) {
	p := &o.probe
	if p.kernel != kernelNone && t.view != nil {
		if t.dirty {
			g, err := t.eng.GraphTopology(viewName)
			if err != nil {
				return
			}
			// Build on a fresh clone: the engine's own rebuild just ran on a
			// topology whose iteration-order caches were cold, and has
			// warmed them on g.
			cold := g.Clone()
			t.tr.timed(parent, opID, "graph.BuildCSR", func() { graph.BuildCSR(cold) })
			t.csr = graph.BuildCSR(g)
			t.dirty = false
		}
		t.kernel(parent, opID, p)
	}
	if p.rel != relNone {
		t.storage(parent, opID, p)
	}
	if p.rel >= relInsert {
		if t.view != nil && t.view.IsEdgeSource(p.table) && p.rel != relUpdate {
			if g, err := t.eng.GraphTopology(viewName); err == nil {
				t.tr.timed(parent, opID, "graph.Clone", func() { g.Clone() })
			}
			t.dirty = true
		}
		if t.log != nil {
			before := t.logFS.busy()
			id := t.tr.timed(parent, opID, "wal.Append", func() { t.log.Append(&wal.Record{SQL: o.text, Params: o.params}) })
			t.tr.add(id, opID, "faultfs.write+sync", t.logFS.busy()-before)
		}
	}
}

// kernel runs the op's traversal directly over the twin's CSR snapshot.
func (t *twin) kernel(parent, opID int, p *layerProbe) {
	c, gv := t.csr, t.view
	g, err := t.eng.GraphTopology(viewName)
	if err != nil {
		return
	}
	var edges int64
	countEdge := func(int, *graph.Edge, *graph.Vertex, *graph.Vertex) bool { edges++; return true }
	selBelow := func(_ int, e *graph.Edge, _, _ *graph.Vertex) bool {
		edges++
		v, err := gv.EdgeAttrValue(e, "sel")
		return err == nil && v.I < int64(p.selBelow)
	}
	drain := func(it graph.CSRIterator) {
		for it.Step() {
		}
		it.Release()
	}
	var name string
	var run func()
	switch p.kernel {
	case kernelReach:
		name = "graph.NewCSRBFS"
		spec := graph.Spec{Start: g.Vertex(int64(p.src)), Target: g.Vertex(int64(p.dst)), MinLen: 1, FilterEdge: countEdge}
		run = func() {
			it := graph.NewCSRBFS(c, spec)
			if t.useDFS {
				it = graph.NewCSRDFS(c, spec)
			}
			it.Next() // LIMIT 1: the first path, materialized for PathString
			it.Release()
		}
		if t.useDFS {
			name = "graph.NewCSRDFS"
		}
	case kernelEnum:
		name = "graph.NewCSRBFS"
		run = func() {
			drain(graph.NewCSRBFS(c, graph.Spec{Start: g.Vertex(int64(p.src)), MinLen: 1, MaxLen: p.maxLen, FilterEdge: countEdge}))
		}
	case kernelJoin:
		name = "graph.NewCSRBFS"
		run = func() {
			for v := int(p.src); v < graphV; v += vertexGroups {
				drain(graph.NewCSRBFS(c, graph.Spec{Start: g.Vertex(int64(v)), MinLen: 1, MaxLen: p.maxLen, FilterEdge: selBelow}))
			}
		}
	case kernelShortest:
		name = "graph.NewCSRShortest"
		weight := func(_ int, e *graph.Edge, _, _ *graph.Vertex) (float64, bool) {
			v, err := gv.EdgeAttrValue(e, "w")
			return v.AsFloat(), err == nil
		}
		run = func() {
			it := graph.NewCSRShortest(c, graph.Spec{Start: g.Vertex(int64(p.src)), Target: g.Vertex(int64(p.dst)),
				MinLen: 1, FilterEdge: countEdge}, weight, 1)
			it.Next()
			it.Release()
		}
	case kernelPageRank:
		name = "graph.Analytics.PageRank"
		run = func() {
			a := c.NewAnalytics()
			_, iters, _ := a.PageRank(nil, 1, 0.85, 20, 1e-9)
			a.Release()
			edges = int64(iters) * int64(c.NumEdges())
		}
	}
	id := t.tr.timed(parent, opID, name, run)
	t.tr.count(id, "edges", edges)
}

// storage performs the op's table work directly on the scratch table of the
// same shape. Every engine write follows a version publish, which snapshots
// the table, so a write here follows a Snapshot too and pays the same
// copy-on-write; an update is then repeated without a snapshot and the
// difference recorded as the copy's cost.
func (t *twin) storage(parent, opID int, p *layerProbe) {
	tab, ok := t.tables.Table(p.table)
	if !ok {
		return
	}
	key := types.Row{types.NewInt(p.key)}
	get := func(id storage.RowID) { tab.Get(id) }
	switch p.rel {
	case relPK:
		t.tr.timed(parent, opID, "storage.Table.LookupPK", func() { get(tab.LookupPK(key)) })
	case relIndex:
		if ix, ok := tab.FindIndexOn([]int{p.col}, false); ok {
			t.tr.timed(parent, opID, "storage.Index.Lookup", func() {
				for _, id := range ix.Lookup(key) {
					get(id)
				}
			})
		}
	case relRange:
		if ix, ok := tab.FindIndexOn([]int{p.col}, true); ok {
			hi := types.Row{types.NewInt(p.key + rangeRows*balanceStep)}
			t.tr.timed(parent, opID, "storage.Index.Range", func() {
				ix.Range(storage.Bound{Key: key, Inclusive: true}, storage.Bound{Key: hi}, func(id storage.RowID) bool {
					get(id)
					return true
				})
			})
		}
	case relInsert:
		tab.Snapshot()
		t.tr.timed(parent, opID, "storage.Table.Insert", func() { tab.Insert(p.row) })
	case relUpdate:
		id := tab.LookupPK(key)
		old, ok := tab.Get(id)
		if !ok {
			return
		}
		row := append(types.Row(nil), old...)
		tab.Snapshot()
		first := t.tr.timed(parent, opID, "storage.Table.Update", func() { tab.Update(tab.LookupPK(key), row) })
		t0 := time.Now()
		tab.Update(id, row)
		again := time.Since(t0)
		if cow := time.Duration(t.tr.spans[first-1].dur()) - again; cow > 0 {
			t.tr.count(first, "cow_ns", int64(cow))
		}
	case relDelete:
		tab.Snapshot()
		t.tr.timed(parent, opID, "storage.Table.Delete", func() { tab.Delete(tab.LookupPK(key)) })
	}
}

var (
	actualRows = regexp.MustCompile(`\(actual rows=(\d+) `)
	execRows   = regexp.MustCompile(`^Execution: rows=(\d+)`)
)

// explain runs EXPLAIN ANALYZE for a sampled read and adds the rows its
// leaf scans read and the rows it returned to the running totals. A SeqScan
// line reports the rows that passed its filter, not the rows it read, so a
// SeqScan is charged the table's row count.
func (t *twin) explain(o *op) {
	text := o.text
	if o.si >= 0 {
		text = inlineParams(o)
	}
	res, err := t.eng.Execute("EXPLAIN ANALYZE " + text)
	if err != nil {
		return
	}
	var lines []string
	for _, r := range res.Rows {
		lines = append(lines, r[0].S)
	}
	indent := func(s string) int { return len(s) - len(strings.TrimLeft(s, " ")) }
	var examined, returned int64
	for i, line := range lines {
		if m := execRows.FindStringSubmatch(line); m != nil {
			returned, _ = strconv.ParseInt(m[1], 10, 64)
			continue
		}
		m := actualRows.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		isLeaf := i+1 >= len(lines) || actualRows.FindString(lines[i+1]) == "" || indent(lines[i+1]) <= indent(line)
		f := strings.Fields(line)
		if !isLeaf || f[0] == "Singleton" {
			continue
		}
		n, _ := strconv.ParseInt(m[1], 10, 64)
		if f[0] == "SeqScan" && len(f) > 1 {
			if tab, ok := t.eng.Catalog().Table(f[1]); ok {
				n = int64(tab.Len())
			}
		}
		examined += n
	}
	if examined == 0 {
		return // no relational leaf: a pure PathScan or table function
	}
	if returned == 0 {
		returned = 1
	}
	t.examined += examined
	t.returned += returned
}

// inlineParams renders a prepared op as text with its parameters inlined,
// for EXPLAIN ANALYZE.
func inlineParams(o *op) string {
	text := o.text
	for _, p := range o.params {
		lit := p.String()
		if p.Kind == types.KindString {
			lit = "'" + p.S + "'"
		}
		text = strings.Replace(text, "?", lit, 1)
	}
	return text
}
