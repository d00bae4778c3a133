package server

import (
	"errors"
	"fmt"
	"net"
	"sort"
	"strings"
	"testing"

	"grfusion/internal/core"
	"grfusion/internal/graph"
	"grfusion/internal/types"
)

// surfaceStep is one statement of the surface-equivalence script: a
// template with `?` placeholders and the values bound to them. Surfaces
// without parameters run it with the values inlined as literals. table is
// set on single-row full-schema inserts, which BulkLoad can run too.
type surfaceStep struct {
	sql    string
	params []types.Value
	table  string
}

func (s surfaceStep) inline() string {
	q := s.sql
	for _, p := range s.params {
		lit := p.String()
		if p.Kind == types.KindString {
			lit = "'" + lit + "'"
		}
		q = strings.Replace(q, "?", lit, 1)
	}
	return q
}

func (s surfaceStep) isSelect() bool { return strings.HasPrefix(s.sql, "SELECT") }

const surfaceSetup = `
CREATE TABLE V (vid BIGINT PRIMARY KEY, name VARCHAR);
CREATE TABLE E (eid BIGINT PRIMARY KEY, src BIGINT, dst BIGINT, w BIGINT);
CREATE DIRECTED GRAPH VIEW G
  VERTEXES(ID = vid, name = name) FROM V
  EDGES(ID = eid, FROM = src, TO = dst, w = w) FROM E;
`

func surfaceScript() []surfaceStep {
	ints := func(vs ...int64) []types.Value {
		out := make([]types.Value, len(vs))
		for i, v := range vs {
			out[i] = types.NewInt(v)
		}
		return out
	}
	var steps []surfaceStep
	for i, name := range []string{"a", "b", "c", "d"} {
		steps = append(steps, surfaceStep{sql: `INSERT INTO V VALUES (?, ?)`, table: "V",
			params: []types.Value{types.NewInt(int64(i + 1)), types.NewString(name)}})
	}
	for _, e := range [][]int64{{10, 1, 2, 5}, {11, 2, 3, 6}, {12, 3, 4, 7}, {13, 1, 3, 8}, {14, 2, 4, 9}} {
		steps = append(steps, surfaceStep{sql: `INSERT INTO E VALUES (?, ?, ?, ?)`, table: "E", params: ints(e...)})
	}
	twoHop := surfaceStep{sql: `SELECT PS.PathString FROM G.Paths PS WHERE PS.StartVertex.Id = ? AND PS.Length = 2`, params: ints(1)}
	return append(steps,
		surfaceStep{sql: `UPDATE V SET name = ? WHERE vid = ?`, params: []types.Value{types.NewString("z"), types.NewInt(4)}},
		surfaceStep{sql: `INSERT INTO V VALUES (?, ?)`, table: "V", // duplicate key: fails
			params: []types.Value{types.NewInt(1), types.NewString("dup")}},
		twoHop,
		surfaceStep{sql: `SELECT * FROM G.DEGREE_CENTRALITY() D`},
		surfaceStep{sql: `DELETE FROM V WHERE vid = ?`, params: ints(2)}, // cascades onto edges 10, 11, 14
		twoHop,
	)
}

// surfaceOutcome is what one step produced, in a form comparable across
// surfaces: the answer, and what the engine accounted for it.
type surfaceOutcome struct {
	rows     string
	affected int
	err      string
	delta    map[string]int64
}

func renderRows(rows []types.Row) string {
	var sb strings.Builder
	for _, r := range rows {
		for i, v := range r {
			if i > 0 {
				sb.WriteByte('|')
			}
			sb.WriteString(v.String())
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// surfaceCounters reads the counters the test compares: by-kind and
// by-sentinel statement accounting, published versions, WAL appends,
// analytics runs, and COPY batches.
func surfaceCounters(eng *core.Engine) map[string]int64 {
	out := map[string]int64{}
	for _, kv := range eng.MetricsSnapshot() {
		switch {
		case strings.HasPrefix(kv.Name, "statements."), strings.HasPrefix(kv.Name, "errors."),
			kv.Name == "mvcc.published", kv.Name == "wal.appends", kv.Name == "analytics.runs",
			kv.Name == "bulk.batches":
			out[kv.Name] = kv.Value
		}
	}
	return out
}

// surfaceDump renders every table and the graph view's topology. Adjacency
// lists are compared as sets: their order is construction history, which a
// post-recovery rebuild legitimately does not share.
func surfaceDump(t *testing.T, eng *core.Engine) string {
	t.Helper()
	var sb strings.Builder
	for _, q := range []string{`SELECT * FROM V`, `SELECT * FROM E`} {
		res, err := eng.Execute(q)
		if err != nil {
			t.Fatal(err)
		}
		sb.WriteString(q + "\n" + renderRows(res.Rows))
	}
	g, err := eng.GraphTopology("G")
	if err != nil {
		t.Fatal(err)
	}
	ids := func(es []*graph.Edge) []int64 {
		out := make([]int64, len(es))
		for i, e := range es {
			out[i] = e.ID
		}
		sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
		return out
	}
	g.Vertices(func(v *graph.Vertex) bool {
		fmt.Fprintf(&sb, "vertex %d @%d out%v in%v\n", v.ID, v.Tuple, ids(v.Out), ids(v.In))
		return true
	})
	return sb.String()
}

// TestSurfaceEquivalence feeds one statement script through every surface
// that can run a statement — ad hoc and prepared embedded, BulkLoad (the
// inserts), JSON wire, binary Exec, binary Stmt — on fresh durable engines
// and checks each against the ad hoc embedded run: same answers, same
// accounting, same recovered database.
func TestSurfaceEquivalence(t *testing.T) {
	type runner func(surfaceStep) (rows []types.Row, affected int, err error)
	fromCore := func(res *core.Result, err error) ([]types.Row, int, error) {
		if err != nil {
			return nil, 0, err
		}
		return res.Rows, res.Affected, nil
	}
	fromWire := func(res *Result, err error) ([]types.Row, int, error) {
		var se *ServerError
		if errors.As(err, &se) {
			return nil, 0, errors.New(se.Msg)
		}
		if err != nil {
			return nil, 0, err
		}
		return res.Rows, res.Affected, nil
	}
	adhoc := func(eng *core.Engine) runner {
		return func(s surfaceStep) ([]types.Row, int, error) { return fromCore(eng.Execute(s.inline())) }
	}
	overWire := func(protocol string, run func(*Client, surfaceStep) (*Result, error)) func(*testing.T, *core.Engine) runner {
		return func(t *testing.T, eng *core.Engine) runner {
			srv := NewWith(eng, Config{Logger: quietLogger()})
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			go srv.Serve(ln)
			t.Cleanup(srv.Shutdown)
			c, err := DialWith(ln.Addr().String(), Options{Protocol: protocol})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { c.Close() })
			return func(s surfaceStep) ([]types.Row, int, error) { return fromWire(run(c, s)) }
		}
	}
	execText := func(c *Client, s surfaceStep) (*Result, error) { return c.Exec(s.inline()) }

	surfaces := []struct {
		name string
		// bulk marks the surface whose inserts are COPY batches: those are
		// counted by bulk.* only, not as statements.
		bulk bool
		open func(*testing.T, *core.Engine) runner
	}{
		{name: "embedded ad hoc", open: func(_ *testing.T, eng *core.Engine) runner { return adhoc(eng) }},
		{name: "embedded prepared", open: func(_ *testing.T, eng *core.Engine) runner {
			return func(s surfaceStep) ([]types.Row, int, error) {
				if s.isSelect() {
					p, err := eng.Prepare(s.sql)
					if err != nil {
						return nil, 0, err
					}
					return fromCore(p.Query(s.params...))
				}
				p, err := eng.PrepareDML(s.sql)
				if err != nil {
					return nil, 0, err
				}
				return fromCore(p.Exec(s.params...))
			}
		}},
		{name: "BulkLoad", bulk: true, open: func(_ *testing.T, eng *core.Engine) runner {
			return func(s surfaceStep) ([]types.Row, int, error) {
				if s.table == "" {
					return adhoc(eng)(s)
				}
				bl, err := eng.BeginBulk(s.table, nil, 1)
				if err != nil {
					return nil, 0, err
				}
				_, aerr := bl.Append([]types.Row{append(types.Row(nil), s.params...)})
				res, err := bl.Close()
				if aerr != nil {
					err = aerr
				}
				return fromCore(res, err)
			}
		}},
		{name: "JSON wire", open: overWire(ProtoJSON, execText)},
		{name: "binary Exec", open: overWire(ProtoBinary, execText)},
		{name: "binary Stmt", open: overWire(ProtoBinary, func(c *Client, s surfaceStep) (*Result, error) {
			st, err := c.Prepare(s.sql)
			if err != nil {
				return nil, err
			}
			defer st.Close()
			return st.Exec(s.params...)
		})},
	}

	script := surfaceScript()
	var ref []surfaceOutcome
	var refDump string
	for si, sf := range surfaces {
		t.Run(sf.name, func(t *testing.T) {
			opts := core.Options{Durability: core.Durability{Dir: t.TempDir()}}
			eng, _, err := core.Open(opts)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := eng.ExecuteScript(surfaceSetup); err != nil {
				t.Fatal(err)
			}
			run := sf.open(t, eng)
			var got []surfaceOutcome
			for _, s := range script {
				before := surfaceCounters(eng)
				rows, affected, err := run(s)
				o := surfaceOutcome{rows: renderRows(rows), affected: affected, delta: surfaceCounters(eng)}
				if err != nil {
					o.err = err.Error()
				}
				for k, v := range before {
					if o.delta[k] -= v; o.delta[k] == 0 {
						delete(o.delta, k)
					}
				}
				got = append(got, o)
			}
			dump := surfaceDump(t, eng)
			eng.Kill()
			rec, _, err := core.Open(opts)
			if err != nil {
				t.Fatal(err)
			}
			defer rec.Kill()
			if recovered := surfaceDump(t, rec); recovered != dump {
				t.Errorf("recovered database differs from the live one:\nlive:\n%s\nrecovered:\n%s", dump, recovered)
			}
			if si == 0 {
				ref, refDump = got, dump
				// The reference itself must show the contract the others are
				// held to: one version and one WAL append per successful
				// write, none for a failed write or a read.
				for i, o := range got {
					want := int64(0)
					if o.err == "" && !script[i].isSelect() {
						want = 1
					}
					if script[i].isSelect() && o.rows == "" {
						t.Errorf("step %d %q: read returned no rows", i, script[i].inline())
					}
					if o.delta["mvcc.published"] != want || o.delta["wal.appends"] != want {
						t.Errorf("step %d %q: published %d, WAL appends %d, want %d each",
							i, script[i].inline(), o.delta["mvcc.published"], o.delta["wal.appends"], want)
					}
				}
				return
			}
			if dump != refDump {
				t.Errorf("final database differs from %s:\nwant:\n%s\ngot:\n%s", surfaces[0].name, refDump, dump)
			}
			for i, o := range got {
				want := ref[i]
				if sf.bulk && script[i].table != "" {
					// A COPY batch is not a statement: same effect on versions
					// and the log, counted under bulk.* instead.
					delta := map[string]int64{}
					for _, k := range []string{"mvcc.published", "wal.appends"} {
						if v := want.delta[k]; v != 0 {
							delta[k] = v
						}
					}
					if want.err == "" {
						delta["bulk.batches"] = 1
					}
					want.delta = delta
				}
				if o.rows != want.rows || o.affected != want.affected || o.err != want.err {
					t.Errorf("step %d %q: got rows %q affected %d err %q, want rows %q affected %d err %q",
						i, script[i].inline(), o.rows, o.affected, o.err, want.rows, want.affected, want.err)
				}
				if fmt.Sprint(o.delta) != fmt.Sprint(want.delta) {
					t.Errorf("step %d %q: counter deltas %v, want %v", i, script[i].inline(), o.delta, want.delta)
				}
			}
		})
	}
}
